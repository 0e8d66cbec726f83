//! Gillespie stochastic simulation (SSA): the exact jump chain, timed by its
//! expected holding times.
//!
//! The CRN model is a continuous-time Markov chain: in configuration `C`, each
//! reaction fires at a rate equal to its mass-action propensity, and the time
//! to the next firing is exponentially distributed with the total propensity
//! `a₀(C)` as its rate (Gillespie 1977, reference \[20\] of the paper).
//! Which reaction fires is independent of when: reaction `r` with
//! probability `a_r(C) / a₀(C)`.  A step samples that choice exactly, with
//! one uniform draw, and adds the holding time's mean `1 / a₀(C)` to the
//! clock instead of sampling it (the discrete-time conversion of Fox and
//! Glynn, SIAM J. Appl. Math. 50(5), 1990).  So the reaction sequence, the
//! outputs, silence and the step counts keep exactly the chain's
//! distribution, and [`GillespieOutcome::time`] is `E[T | jump chain]`, the
//! expected time along the sampled sequence: its mean over trials is the
//! expected time to silence, with a variance no larger than that of the
//! sampled clock.  Stable computation depends only on the sequence, so no
//! verdict reads the clock.  The clock is IEEE division and addition alone,
//! the same on every platform.
//!
//! [`Gillespie`] runs on the dense kernel: the CRN is compiled once
//! ([`CompiledCrn`]), the configuration is a flat count vector fired in
//! place, and the per-reaction propensity table is refreshed **incrementally**
//! through the compiled dependency graph — after a firing only the reactions
//! sharing a species with the fired one are recomputed.  The table keeps the
//! total and per-block sums as exact running sums, so a step selects its
//! reaction block by block instead of re-adding and scanning every
//! propensity; past the exact range it falls back to the in-order sum and
//! the flat scan of `select_reaction` (see [`crate::kernel`]).
//! [`SparseGillespie`] is the seed implementation on sparse `BTreeMap`
//! configurations, kept as the differential oracle: for the same seed the
//! two produce bit-identical trajectories (the dense propensities, their
//! sums, the selected reactions and the RNG draws all match), which the
//! tests in `tests/dense_kernel.rs` check seed-for-seed on random CRNs and
//! on runs that cross the exact range both ways.
//!
//! A configuration whose total propensity is past the largest `f64` has no
//! meaningful roulette or waiting time, so [`Gillespie::run`] stops with
//! [`CrnError::PropensityOverflow`] there.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crn_model::{CompiledCrn, Configuration, Crn, CrnError, DenseState};

use crate::kernel::PropensityTable;

/// The outcome of one Gillespie run.
#[derive(Debug, Clone, PartialEq)]
pub struct GillespieOutcome {
    /// The final configuration when the run stopped.
    pub final_configuration: Configuration,
    /// Number of reactions fired.
    pub steps: u64,
    /// The expected time elapsed along the sampled reaction sequence: the
    /// sum, in firing order, of `1 / a₀` over the configurations fired
    /// from, where `a₀` is the total propensity, whose inverse is the mean
    /// of the exponential holding time there.
    pub time: f64,
    /// Whether the run stopped because no reaction was applicable.
    pub silent: bool,
}

/// The mass-action propensity of reaction `index` in a sparse `config`: the
/// number of distinct ways to choose its reactant multiset,
/// `∏_s C(count_s, r_s)·r_s!` (i.e. the falling factorial), with unit rate
/// constant.
///
/// This is the sparse reference implementation behind [`SparseGillespie`]
/// and the differential tests; the hot path uses
/// [`propensity_dense`](crate::kernel::propensity_dense), which agrees with
/// it bit-for-bit.
#[must_use]
pub fn propensity(crn: &Crn, config: &Configuration, index: usize) -> f64 {
    let reaction = &crn.reactions()[index];
    let mut a = 1.0f64;
    for (&s, &r) in reaction.reactants() {
        let count = config.count(s);
        if count < r {
            return 0.0;
        }
        for k in 0..r {
            a *= (count - k) as f64;
        }
    }
    a
}

/// Selects the reaction whose propensity interval contains `target`, given a
/// roulette target drawn uniformly from `[0, total)`.
///
/// Floating-point rounding in the cumulative subtraction can exhaust `target`
/// past every interval; the fallback must then be the **last reaction with
/// positive propensity** — never a zero-propensity (inapplicable) reaction,
/// whose firing would corrupt the state (or panic, on the sparse oracle).
pub(crate) fn select_reaction(propensities: &[f64], mut target: f64) -> usize {
    let mut last_positive = None;
    for (i, &a) in propensities.iter().enumerate() {
        if a > 0.0 {
            if target < a {
                return i;
            }
            last_positive = Some(i);
        }
        target -= a;
    }
    last_positive.expect("total propensity is positive, so some reaction is applicable")
}

/// A stochastic simulator for a CRN, on the dense compiled kernel: the exact
/// jump chain, timed by its expected holding times.
///
/// ```
/// use crn_model::examples;
/// use crn_numeric::NVec;
/// use crn_sim::Gillespie;
///
/// let double = examples::double_crn();
/// let start = double.initial_configuration(&NVec::from(vec![10])).unwrap();
/// let mut sim = Gillespie::new(double.crn(), 42);
/// let outcome = sim.run(&start, 1_000_000).unwrap();
/// assert!(outcome.silent);
/// assert_eq!(outcome.final_configuration.count(double.output()), 20);
/// ```
#[derive(Debug, Clone)]
pub struct Gillespie<'a> {
    /// Names the reaction and species of a count overflow.
    crn: &'a Crn,
    compiled: CompiledCrn,
    rng: StdRng,
    /// Incrementally-maintained per-reaction propensities.
    propensities: PropensityTable,
    /// Dense configuration scratch, reused across runs.
    state: DenseState,
    /// The propensity entries firings have recomputed since creation.
    refreshes: u64,
}

impl<'a> Gillespie<'a> {
    /// Creates a simulator for `crn` with a deterministic RNG seed, compiling
    /// the CRN once.
    #[must_use]
    pub fn new(crn: &'a Crn, seed: u64) -> Self {
        let compiled = CompiledCrn::compile(crn);
        let state = DenseState::zero(compiled.stride());
        Gillespie {
            crn,
            compiled,
            rng: StdRng::seed_from_u64(seed),
            propensities: PropensityTable::new(),
            state,
            refreshes: 0,
        }
    }

    /// Restarts the RNG stream from `seed`, keeping the compiled CRN and all
    /// scratch allocations.  The ensemble runner uses this to reuse one
    /// simulator across a whole batch of trials instead of rebuilding (and
    /// recompiling) a simulator per trial.
    pub fn reseed(&mut self, seed: u64) {
        self.rng = StdRng::seed_from_u64(seed);
    }

    /// The propensity entries recomputed after firings, summed over every
    /// run since this simulator was created: each firing of reaction `r`
    /// recomputes its `|dependents(r)|` entries.  Run-start rebuilds are not
    /// counted.  A plain field read, so batch runners flush it once per
    /// batch.
    #[must_use]
    pub fn refreshes(&self) -> u64 {
        self.refreshes
    }

    /// Loads `start` into the dense scratch state, regrowing it if the
    /// configuration mentions species past the current stride (the public API
    /// allows start configurations over foreign species; their counts are
    /// inert but must be carried into the final configuration).
    fn load_start(&mut self, start: &Configuration) -> Result<(), CrnError> {
        if start.iter().all(|(s, _)| s.index() < self.state.stride()) {
            self.state.load(start);
        } else {
            self.state = DenseState::from_configuration(start, self.compiled.stride());
        }
        self.propensities
            .rebuild(&self.compiled, self.state.counts())
            .map_err(|r| self.crn.propensity_overflow(r))
    }

    /// Advances the chain by one reaction firing: adds the expected holding
    /// time `1 / total` to the clock, selects a reaction proportionally to
    /// its propensity with one uniform draw and applies it in place,
    /// refreshing only the propensities the firing can have changed.
    /// Returns `false` (leaving the state and `time` untouched) when the CRN
    /// is silent.
    fn step(&mut self, time: &mut f64) -> Result<bool, CrnError> {
        let total = self.propensities.total();
        if total <= 0.0 {
            return Ok(false);
        }
        *time += 1.0 / total;
        let chosen = self.propensities.select(self.rng.gen::<f64>() * total);
        self.state
            .apply(&self.compiled.reactions()[chosen])
            .map_err(|species| self.crn.count_overflow(chosen, species))?;
        self.propensities
            .refresh_after(&self.compiled, self.state.counts(), chosen)
            .map_err(|r| self.crn.propensity_overflow(r))?;
        self.refreshes += self.compiled.dependents(chosen).len() as u64;
        Ok(true)
    }

    /// Runs from `start` until the CRN is silent or `max_steps` reactions have
    /// fired.
    ///
    /// Deliberately uninstrumented: a single run is often one iteration of a
    /// caller's hot loop (ensemble trials), so the observability counters
    /// for it are accumulated by those callers and flushed per batch, never
    /// per run.
    ///
    /// # Errors
    ///
    /// Returns [`CrnError::CountOverflow`] if a firing would push a count
    /// past `u64::MAX`, and [`CrnError::PropensityOverflow`] if the total
    /// propensity of a configuration is past the largest `f64`.
    pub fn run(
        &mut self,
        start: &Configuration,
        max_steps: u64,
    ) -> Result<GillespieOutcome, CrnError> {
        self.load_start(start)?;
        let mut time = 0.0f64;
        let mut steps = 0u64;
        let silent = loop {
            if steps >= max_steps {
                break false;
            }
            if !self.step(&mut time)? {
                break true;
            }
            steps += 1;
        };
        Ok(GillespieOutcome {
            final_configuration: self.state.to_configuration(),
            steps,
            time,
            silent,
        })
    }
}

/// The seed Gillespie implementation on sparse configurations: every step
/// recomputes all propensities and `Configuration::apply` clones a map.
///
/// Retained as the **differential oracle** for the dense kernel — identical
/// seed must give an identical trajectory — and as the sparse baseline the
/// E14 benchmark measures the dense speedup against.  Not for hot paths.
#[derive(Debug, Clone)]
pub struct SparseGillespie {
    crn: Crn,
    rng: StdRng,
    /// Per-step propensity buffer, reused so the loop never allocates.
    propensities: Vec<f64>,
}

impl SparseGillespie {
    /// Creates a sparse simulator for `crn` with a deterministic RNG seed.
    #[must_use]
    pub fn new(crn: Crn, seed: u64) -> Self {
        SparseGillespie {
            crn,
            rng: StdRng::seed_from_u64(seed),
            propensities: Vec::new(),
        }
    }

    /// Restarts the RNG stream from `seed` (mirrors [`Gillespie::reseed`], so
    /// differential drivers can reuse one simulator of each kind).
    pub fn reseed(&mut self, seed: u64) {
        self.rng = StdRng::seed_from_u64(seed);
    }

    /// One sparse step: full propensity recompute, the same clock and draw
    /// as [`Gillespie`]'s step, clone-on-apply.
    fn step(&mut self, config: &mut Configuration, time: &mut f64) -> bool {
        self.propensities.clear();
        for i in 0..self.crn.reactions().len() {
            self.propensities.push(propensity(&self.crn, config, i));
        }
        let total: f64 = self.propensities.iter().sum();
        if total <= 0.0 {
            return false;
        }
        *time += 1.0 / total;
        let target = self.rng.gen::<f64>() * total;
        let chosen = select_reaction(&self.propensities, target);
        *config = config.apply(&self.crn.reactions()[chosen]);
        true
    }

    /// Runs from `start` until the CRN is silent or `max_steps` reactions have
    /// fired.
    #[must_use]
    pub fn run(&mut self, start: &Configuration, max_steps: u64) -> GillespieOutcome {
        let mut config = start.clone();
        let mut time = 0.0f64;
        let mut steps = 0u64;
        while steps < max_steps {
            if !self.step(&mut config, &mut time) {
                return GillespieOutcome {
                    final_configuration: config,
                    steps,
                    time,
                    silent: true,
                };
            }
            steps += 1;
        }
        GillespieOutcome {
            final_configuration: config,
            steps,
            time,
            silent: false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::propensity_dense;
    use crn_model::examples;
    use crn_numeric::NVec;

    #[test]
    fn propensity_counts_ordered_tuples() {
        let min = examples::min_crn();
        let crn = min.crn();
        let x1 = crn.species_named("X1").unwrap();
        let x2 = crn.species_named("X2").unwrap();
        let config = Configuration::from_counts(vec![(x1, 3), (x2, 2)]);
        // X1 + X2 -> Y has propensity 3 * 2 = 6.
        assert_eq!(propensity(crn, &config, 0), 6.0);
        let empty = Configuration::new();
        assert_eq!(propensity(crn, &empty, 0), 0.0);
    }

    #[test]
    fn propensity_uses_falling_factorials_for_homodimers() {
        let mut crn = Crn::new();
        crn.parse_reaction("2Z -> Y").unwrap();
        let z = crn.species_named("Z").unwrap();
        let config = Configuration::from_counts(vec![(z, 4)]);
        // 4 * 3 = 12 ordered pairs.
        assert_eq!(propensity(&crn, &config, 0), 12.0);
        let compiled = CompiledCrn::compile(&crn);
        let state = DenseState::from_configuration(&config, compiled.stride());
        assert_eq!(
            propensity_dense(&compiled.reactions()[0], state.counts()),
            12.0
        );
    }

    #[test]
    fn a_count_overflow_ends_the_run_with_an_error() {
        // X -> (2^63 - 1) Y: two firings fit in u64, a third does not.
        let mut crn = Crn::new();
        crn.parse_reaction("X -> 9223372036854775807 Y").unwrap();
        let (x, y) = (
            crn.species_named("X").unwrap(),
            crn.species_named("Y").unwrap(),
        );
        let mut sim = Gillespie::new(&crn, 0);
        let two = sim
            .run(&Configuration::from_counts(vec![(x, 2)]), 100)
            .unwrap();
        assert_eq!(two.final_configuration.count(y), u64::MAX - 1);
        assert_eq!(
            sim.run(&Configuration::from_counts(vec![(x, 3)]), 100),
            Err(CrnError::CountOverflow {
                reaction: "X -> 9223372036854775807Y".into(),
                species: "Y".into(),
            })
        );
    }

    #[test]
    fn an_infinite_propensity_ends_the_run_with_an_error() {
        let mut crn = Crn::new();
        crn.parse_reaction("200X -> Y").unwrap();
        crn.parse_reaction("X -> Z").unwrap();
        let x = crn.species_named("X").unwrap();
        let mut sim = Gillespie::new(&crn, 0);
        // A million X give `200X -> Y` a propensity past f64::MAX: the
        // roulette cannot weigh it, so the run fails before its first step.
        let overflow = Err(CrnError::PropensityOverflow {
            reaction: "200X -> Y".into(),
        });
        let start = |n| Configuration::from_counts(vec![(x, n)]);
        assert_eq!(sim.run(&start(1_000_000), 1000), overflow);
        // 199 X weigh nothing on the first reaction.
        let out = sim.run(&start(199), 1000).unwrap();
        assert!(out.silent && out.time > 0.0);

        // A run can also climb out of f64's range: each firing of the
        // autocatalytic `150X -> 151X` multiplies its propensity by about
        // 1.3, from 1e304 at 190 X past f64::MAX a few X later.
        let mut crn = Crn::new();
        crn.parse_reaction("150X -> 151X").unwrap();
        let x = crn.species_named("X").unwrap();
        assert_eq!(
            Gillespie::new(&crn, 0).run(&Configuration::from_counts(vec![(x, 190)]), 100),
            Err(CrnError::PropensityOverflow {
                reaction: "150X -> 151X".into(),
            })
        );
    }

    #[test]
    fn double_crn_terminates_with_exact_output() {
        let double = examples::double_crn();
        let start = double.initial_configuration(&NVec::from(vec![25])).unwrap();
        let mut sim = Gillespie::new(double.crn(), 1);
        let out = sim.run(&start, 1_000_000).unwrap();
        assert!(out.silent);
        assert_eq!(out.steps, 25);
        assert_eq!(out.final_configuration.count(double.output()), 50);
        assert!(out.time > 0.0);
    }

    /// Asserts that both engines' clock from `x` is `expected` to the bit,
    /// at several seeds.
    fn assert_clock(crn: &crn_model::FunctionCrn, x: &[u64], expected: f64) {
        let start = crn.initial_configuration(&NVec::from(x.to_vec())).unwrap();
        for seed in 0..4 {
            let dense = Gillespie::new(crn.crn(), seed)
                .run(&start, u64::MAX)
                .unwrap();
            let sparse = SparseGillespie::new(crn.crn().clone(), seed).run(&start, u64::MAX);
            assert_eq!(dense.time.to_bits(), expected.to_bits(), "seed {seed}");
            assert_eq!(sparse.time.to_bits(), expected.to_bits(), "seed {seed}");
        }
    }

    #[test]
    fn the_clock_sums_the_expected_holding_times_in_firing_order() {
        // `X -> 2Y` has one reaction, whose propensity at step k is x − k.
        let x = 25u64;
        let expected = (1..=x).rev().fold(0.0, |time, j| time + 1.0 / j as f64);
        assert_clock(&examples::double_crn(), &[x], expected);
        // `X1 + X2 -> Y` at step k weighs (a − k)(b − k).
        let (a, b) = (17u64, 40u64);
        let expected = (0..a).fold(0.0, |time, k| {
            time + 1.0 / ((a - k) as f64 * (b - k) as f64)
        });
        assert_clock(&examples::min_crn(), &[a, b], expected);
    }

    #[test]
    fn min_crn_computes_min_under_ssa() {
        let min = examples::min_crn();
        let start = min
            .initial_configuration(&NVec::from(vec![17, 40]))
            .unwrap();
        let mut sim = Gillespie::new(min.crn(), 2);
        let out = sim.run(&start, 1_000_000).unwrap();
        assert!(out.silent);
        assert_eq!(out.final_configuration.count(min.output()), 17);
    }

    #[test]
    fn max_crn_converges_to_max_with_fair_ssa() {
        let max = examples::max_crn();
        for seed in 0..5 {
            let start = max.initial_configuration(&NVec::from(vec![8, 13])).unwrap();
            let mut sim = Gillespie::new(max.crn(), seed);
            let out = sim.run(&start, 1_000_000).unwrap();
            assert!(out.silent);
            assert_eq!(out.final_configuration.count(max.output()), 13);
        }
    }

    #[test]
    fn step_limit_is_honoured() {
        let double = examples::double_crn();
        let start = double
            .initial_configuration(&NVec::from(vec![100]))
            .unwrap();
        let mut sim = Gillespie::new(double.crn(), 3);
        let out = sim.run(&start, 10).unwrap();
        assert!(!out.silent);
        assert_eq!(out.steps, 10);
    }

    #[test]
    fn identical_seeds_reproduce_runs() {
        let max = examples::max_crn();
        let start = max.initial_configuration(&NVec::from(vec![5, 9])).unwrap();
        let run = |seed| {
            Gillespie::new(max.crn(), seed)
                .run(&start, 1_000_000)
                .unwrap()
        };
        let a = run(11);
        let b = run(11);
        assert_eq!(a.steps, b.steps);
        assert_eq!(a.final_configuration, b.final_configuration);
    }

    /// From (2, 3), Figure 1's `max` fires `X1 -> Z1 + Y` twice and
    /// `X2 -> Z2 + Y` three times (3 dependents each: themselves,
    /// `Z1 + Z2 -> K` and `K + Y -> 0`), then `Z1 + Z2 -> K` twice (2) and
    /// `K + Y -> 0` twice (1): 21 entries over 9 firings, in every order.
    #[test]
    fn refreshes_count_the_dependents_of_each_firing() {
        let max = examples::max_crn();
        let start = max.initial_configuration(&NVec::from(vec![2, 3])).unwrap();
        for seed in 0..16 {
            let mut sim = Gillespie::new(max.crn(), seed);
            let out = sim.run(&start, 1_000_000).unwrap();
            assert_eq!((out.steps, sim.refreshes()), (9, 21), "seed {seed}");
            sim.run(&start, 1_000_000).unwrap();
            assert_eq!(sim.refreshes(), 42, "seed {seed}");
        }
    }

    #[test]
    fn reseed_replays_the_same_trajectory_on_one_simulator() {
        let max = examples::max_crn();
        let start = max.initial_configuration(&NVec::from(vec![6, 4])).unwrap();
        let mut sim = Gillespie::new(max.crn(), 0);
        sim.reseed(11);
        let a = sim.run(&start, 1_000_000).unwrap();
        sim.reseed(11);
        let b = sim.run(&start, 1_000_000).unwrap();
        assert_eq!(a, b);
        // And a reused simulator matches a fresh one.
        let fresh = Gillespie::new(max.crn(), 11)
            .run(&start, 1_000_000)
            .unwrap();
        assert_eq!(a, fresh);
    }

    #[test]
    fn dense_kernel_matches_sparse_oracle_seed_for_seed() {
        let max = examples::max_crn();
        let start = max.initial_configuration(&NVec::from(vec![9, 6])).unwrap();
        for seed in 0..10 {
            let dense = Gillespie::new(max.crn(), seed)
                .run(&start, 1_000_000)
                .unwrap();
            let sparse = SparseGillespie::new(max.crn().clone(), seed).run(&start, 1_000_000);
            assert_eq!(dense, sparse, "diverged at seed {seed}");
        }
    }

    #[test]
    fn foreign_species_in_start_configuration_are_carried() {
        // A start configuration can mention species the CRN never interned;
        // they are inert but must survive into the final configuration.
        let double = examples::double_crn();
        // A species interned by a *different* CRN, with an index past every
        // species the double CRN knows.
        let mut other = Crn::new();
        let mut foreign = other.add_species("F0");
        for i in 1..8 {
            foreign = other.add_species(&format!("F{i}"));
        }
        let mut start = double.initial_configuration(&NVec::from(vec![3])).unwrap();
        start.set(foreign, 9);
        let mut sim = Gillespie::new(double.crn(), 5);
        let out = sim.run(&start, 1_000_000).unwrap();
        assert!(out.silent);
        assert_eq!(out.final_configuration.count(foreign), 9);
        assert_eq!(out.final_configuration.count(double.output()), 6);
    }

    /// A CRN whose *final* reaction is inapplicable from the start
    /// configuration: `X -> Y` can fire, `K + Y -> K` never can (no `K`).
    fn crn_with_inapplicable_final_reaction() -> Crn {
        let mut crn = Crn::new();
        crn.parse_reaction("X -> Y").unwrap();
        crn.parse_reaction("K + Y -> K").unwrap();
        crn
    }

    /// Regression test for the roulette-selection fallback.  The seed code
    /// initialised `chosen = propensities.len() - 1` before the scan, so when
    /// floating-point rounding exhausts `target` past every entry the
    /// zero-propensity final reaction was selected and `Configuration::apply`
    /// panicked.  `select_reaction` must fall back to the last reaction with
    /// *positive* propensity instead.
    #[test]
    fn exhausted_target_falls_back_to_last_applicable_reaction() {
        let crn = crn_with_inapplicable_final_reaction();
        let mut config = Configuration::new();
        config.set(crn.species_named("X").unwrap(), 3);
        let propensities: Vec<f64> = (0..crn.reactions().len())
            .map(|i| propensity(&crn, &config, i))
            .collect();
        let total: f64 = propensities.iter().sum();
        assert_eq!(
            propensities.last().copied(),
            Some(0.0),
            "final reaction must be inapplicable"
        );
        // Simulate the rounding overshoot: a roulette target at (or past) the
        // total propensity survives every cumulative subtraction.
        for target in [total, total * (1.0 + f64::EPSILON)] {
            let chosen = select_reaction(&propensities, target);
            assert!(
                propensities[chosen] > 0.0,
                "selected inapplicable reaction {chosen} for target {target}"
            );
            // Applying the selected reaction must not panic.
            let _ = config.apply(&crn.reactions()[chosen]);
        }
    }

    #[test]
    fn select_reaction_respects_propensity_intervals() {
        // Intervals: [0,1) -> 0, [1,3) -> 1, zero-width for 2, [3,4) -> 3.
        let p = [1.0, 2.0, 0.0, 1.0];
        assert_eq!(select_reaction(&p, 0.0), 0);
        assert_eq!(select_reaction(&p, 0.999), 0);
        assert_eq!(select_reaction(&p, 1.0), 1);
        assert_eq!(select_reaction(&p, 2.999), 1);
        assert_eq!(select_reaction(&p, 3.5), 3);
        // Trailing zero propensity is never selected, even on overshoot.
        assert_eq!(select_reaction(&[1.0, 0.0], 2.0), 0);
    }

    #[test]
    fn block_roulette_picks_what_the_in_order_scan_picks() {
        // 19 reactions in three blocks: `kX -> Y` with k = i mod 7 weighs
        // 1, 5, 20, 60, 120, 120 and 0 at X = 5 for k = 0, …, 6.
        let mut crn = Crn::new();
        for i in 1..=19 {
            crn.parse_reaction(&format!("{}X -> Y", i % 7)).unwrap();
        }
        let compiled = CompiledCrn::compile(&crn);
        let mut table = PropensityTable::new();
        table.rebuild(&compiled, &[5, 0]).unwrap();
        let total = table.total();
        assert_eq!(total, table.values().iter().sum::<f64>());
        let mut target = 0.0;
        while target < total {
            assert_eq!(
                table.select(target),
                select_reaction(table.values(), target),
                "target {target}"
            );
            target += 0.25;
        }
        // A target rounded up to the total falls back to the last
        // reaction with positive propensity, as the in-order scan does.
        assert_eq!(table.select(total), select_reaction(table.values(), total));
    }

    #[test]
    fn runs_with_inapplicable_final_reaction_never_panic() {
        let crn = crn_with_inapplicable_final_reaction();
        let x = crn.species_named("X").unwrap();
        let y = crn.species_named("Y").unwrap();
        for seed in 0..50 {
            let mut start = Configuration::new();
            start.set(x, 20);
            let mut sim = Gillespie::new(&crn, seed);
            let out = sim.run(&start, 1_000_000).unwrap();
            assert!(out.silent);
            assert_eq!(out.final_configuration.count(y), 20);
        }
    }
}
