//! The parallel ensemble runner: independent Gillespie trials fanned across
//! scoped worker threads.
//!
//! Convergence measurements (E1, E9, E10) are embarrassingly parallel — every
//! trial is an independent chain — but the seed runner ran them sequentially,
//! cloned the `Crn` per trial, and seeded trial `t` with `seed + t`, so
//! adjacent trials started from adjacent RNG states.  This module fixes all
//! three:
//!
//! * [`SeedStream`] derives per-trial seeds through a SplitMix64 step, so
//!   consecutive trial indices map to statistically independent seeds;
//! * each worker builds **one** [`Gillespie`] (one CRN compilation) and
//!   [`reseed`](Gillespie::reseed)s it per trial;
//! * trials are partitioned into contiguous per-worker ranges, each worker
//!   fills a mergeable [`TrialAccumulator`], and the driver merges them in
//!   trial order.
//!
//! **Determinism contract:** trial `t`'s outcome depends only on
//! `(crn, x, max_steps, seed, t)` — never on the worker that ran it — and the
//! ordered merge reassembles the sequential sample order, so
//! [`Ensemble::run`] returns **bit-identical** results for every worker
//! count, including 1.

use std::num::NonZeroUsize;

use crn_model::{CrnError, FunctionCrn};
use crn_numeric::NVec;

use crate::gillespie::{Gillespie, GillespieOutcome};
use crate::runner::TrialSummary;
use crate::stats::SummaryAccumulator;

/// The SplitMix64 output function: one multiply-xorshift avalanche chain.
fn splitmix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Weyl-sequence increment of SplitMix64 (the golden-ratio constant).
const GOLDEN_GAMMA: u64 = 0x9e37_79b9_7f4a_7c15;

/// A stream of decorrelated seeds derived from one base seed, SplitMix64
/// style: index `i` maps to the `i`-th output of a SplitMix64 generator
/// seeded with the base seed.
///
/// The seed runner used to hand trial `t` the raw seed `base + t`; with the
/// stream, adjacent indices differ by a full avalanche pass instead of one
/// low bit, so per-trial generators (whose own seeding is cheap) do not start
/// in correlated states.
///
/// ```
/// use crn_sim::ensemble::SeedStream;
///
/// let stream = SeedStream::new(42);
/// assert_eq!(stream.seed(7), SeedStream::new(42).seed(7));
/// assert_ne!(stream.seed(0), stream.seed(1));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SeedStream {
    base: u64,
}

impl SeedStream {
    /// The stream rooted at `base`.
    #[must_use]
    pub fn new(base: u64) -> Self {
        SeedStream { base }
    }

    /// The seed at `index`: `splitmix64(base + (index + 1) · γ)`.
    #[must_use]
    pub fn seed(&self, index: u64) -> u64 {
        splitmix64(
            self.base
                .wrapping_add(index.wrapping_add(1).wrapping_mul(GOLDEN_GAMMA)),
        )
    }
}

/// Mergeable per-worker statistics of a batch of trials: step and time
/// samples (in trial order), observed outputs, and the outputs of the
/// trials that fell silent.
#[derive(Debug, Clone, Default)]
pub struct TrialAccumulator {
    steps: SummaryAccumulator,
    times: SummaryAccumulator,
    outputs: Vec<u64>,
    silent_outputs: Vec<u64>,
}

impl TrialAccumulator {
    /// An empty accumulator.
    #[must_use]
    pub fn new() -> Self {
        TrialAccumulator::default()
    }

    /// Records one trial's outcome; `output` is the output-species count of
    /// its final configuration.
    pub fn record(&mut self, outcome: &GillespieOutcome, output: u64) {
        self.steps.push(outcome.steps as f64);
        self.times.push(outcome.time);
        self.outputs.push(output);
        if outcome.silent {
            self.silent_outputs.push(output);
        }
    }

    /// Appends `later`'s trials after this accumulator's own.  The ensemble
    /// driver merges worker accumulators in trial order, which keeps the
    /// combined sample sequence identical to a sequential run's.
    pub fn merge(&mut self, later: TrialAccumulator) {
        self.steps.merge(later.steps);
        self.times.merge(later.times);
        self.outputs.extend(later.outputs);
        self.silent_outputs.extend(later.silent_outputs);
    }

    /// The number of trials recorded.
    #[must_use]
    pub fn len(&self) -> usize {
        self.outputs.len()
    }

    /// Whether no trial has been recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.outputs.is_empty()
    }

    /// Finalizes the batch into a [`TrialSummary`] for input `x`.
    ///
    /// # Panics
    ///
    /// Panics if no trial has been recorded.
    #[must_use]
    pub fn finish(mut self, x: &NVec) -> TrialSummary {
        let silent_fraction = self.silent_outputs.len() as f64 / self.outputs.len() as f64;
        for outputs in [&mut self.outputs, &mut self.silent_outputs] {
            outputs.sort_unstable();
            outputs.dedup();
        }
        TrialSummary {
            input: x.clone(),
            steps: self.steps.finish(),
            time: self.times.finish(),
            outputs: self.outputs,
            silent_outputs: self.silent_outputs,
            silent_fraction,
        }
    }
}

/// The number of worker threads the ensemble uses by default: one per
/// available core.
#[must_use]
pub fn default_workers() -> usize {
    crn_sync::thread::available_parallelism()
        .map(NonZeroUsize::get)
        .unwrap_or(1)
}

/// The worker count actually used for a run: the requested count, clamped to
/// the available parallelism and the trial count.
///
/// Trials are CPU-bound, so threads beyond the core count only add scheduling
/// overhead — E14 measured ~5% for 4 requested workers on a 1-core box.  The
/// determinism contract makes the clamp invisible in the results: every
/// worker count returns bit-identical summaries.  [`Ensemble::run`] runs the
/// first trial range on the calling thread and spawns one thread per further
/// range, so a result of 1 (always the case when `available_parallelism()`
/// reports 1) spawns none.
#[must_use]
pub fn effective_workers(requested: usize, parallelism: usize, trials: u64) -> usize {
    requested
        .max(1)
        .min(parallelism.max(1))
        .min(usize::try_from(trials).unwrap_or(usize::MAX))
        .max(1)
}

/// A configured ensemble of independent Gillespie trials of one function CRN.
///
/// ```
/// use crn_model::examples;
/// use crn_numeric::NVec;
/// use crn_sim::ensemble::Ensemble;
///
/// let min = examples::min_crn();
/// let summary = Ensemble::new(&min)
///     .with_workers(2)
///     .run(&NVec::from(vec![20, 35]), 10, 7)
///     .unwrap();
/// assert_eq!(summary.outputs, vec![20]);
/// assert_eq!(summary.silent_fraction, 1.0);
/// ```
#[derive(Debug, Clone)]
pub struct Ensemble<'a> {
    crn: &'a FunctionCrn,
    max_steps: u64,
    /// The requested worker count; `None` asks for one per available core.
    workers: Option<usize>,
}

impl<'a> Ensemble<'a> {
    /// An ensemble over `crn` with the default step bound (10⁷) and one
    /// worker per available core.
    #[must_use]
    pub fn new(crn: &'a FunctionCrn) -> Self {
        Ensemble {
            crn,
            max_steps: 10_000_000,
            workers: None,
        }
    }

    /// Sets the per-trial step bound.
    #[must_use]
    pub fn with_max_steps(mut self, max_steps: u64) -> Self {
        self.max_steps = max_steps;
        self
    }

    /// Pins the requested worker-thread count (clamped to at least 1, and at
    /// run time to the available parallelism and the trial count — see
    /// [`effective_workers`]).  The results are identical for every value;
    /// only the wall-clock changes.
    #[must_use]
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = Some(workers.max(1));
        self
    }

    /// Runs `trials` independent simulations of the CRN on `x`, seeding trial
    /// `t` with `SeedStream::new(seed).seed(t)`.
    ///
    /// # Errors
    ///
    /// Returns [`CrnError::DimensionMismatch`] if `x` has the wrong arity, and
    /// the error of the lowest-numbered trial that fails (a
    /// [`CrnError::CountOverflow`] or [`CrnError::PropensityOverflow`]) at
    /// every worker count.
    ///
    /// # Panics
    ///
    /// Panics if `trials == 0` (an empty batch has no statistics) or a worker
    /// thread panics.
    pub fn run(&self, x: &NVec, trials: u32, seed: u64) -> Result<TrialSummary, CrnError> {
        let _span = crn_obs::span("sim.ensemble");
        let start = self.crn.initial_configuration(x)?;
        let trials = u64::from(trials);
        let stream = SeedStream::new(seed);
        let output = self.crn.output();

        // One worker per contiguous trial range; each worker reuses a single
        // simulator (one compile, one allocation set) across its range.
        // Observability accumulates locally and flushes once per range — the
        // trial loop stays clean of registry traffic, and `Gillespie::run`
        // itself is uninstrumented (a per-run flush would cost a lock per
        // trial, well over the E20 overhead budget).
        let run_range = |lo: u64, hi: u64| -> Result<TrialAccumulator, CrnError> {
            let profiling = crn_obs::enabled();
            let batch_start = profiling.then(std::time::Instant::now);
            let mut trial_steps = crn_obs::LocalHistogram::new();
            let mut batch_steps = 0u64;
            let mut acc = TrialAccumulator::new();
            let mut sim = Gillespie::new(self.crn.crn(), 0);
            for t in lo..hi {
                sim.reseed(stream.seed(t));
                let outcome = sim.run(&start, self.max_steps)?;
                let out_count = outcome.final_configuration.count(output);
                if profiling {
                    trial_steps.observe(outcome.steps);
                    batch_steps += outcome.steps;
                }
                acc.record(&outcome, out_count);
            }
            if let Some(batch_start) = batch_start {
                crn_obs::add("sim.trials", hi - lo);
                // A firing recomputes the propensities of its dependents;
                // one trial rebuilds the whole table once at its start.
                crn_obs::add("sim.steps", batch_steps);
                crn_obs::add("sim.propensity_refreshes", sim.refreshes());
                crn_obs::add("sim.propensity_rebuilds", hi - lo);
                crn_obs::observe_many("sim.trial_steps", &trial_steps);
                let nanos = u64::try_from(batch_start.elapsed().as_nanos()).unwrap_or(u64::MAX);
                crn_obs::observe("sim.batch_nanos", nanos);
            }
            Ok(acc)
        };

        let parallelism = default_workers();
        let workers = effective_workers(self.workers.unwrap_or(parallelism), parallelism, trials);
        // Split [0, trials) into `workers` contiguous chunks, the first
        // `trials % workers` of them one trial longer.
        let base = trials / workers as u64;
        let extra = trials % workers as u64;
        let bounds: Vec<u64> = (0..=workers as u64)
            .map(|w| w * base + w.min(extra))
            .collect();
        let parent = crn_obs::SpanPath::current();
        let accs: Vec<Result<TrialAccumulator, CrnError>> = crn_sync::thread::scope(|scope| {
            // The calling thread runs the first range itself, so one worker
            // spawns no thread.
            let helpers: Vec<_> = bounds
                .windows(2)
                .skip(1)
                .map(|range| {
                    let (lo, hi) = (range[0], range[1]);
                    let parent = parent.clone();
                    scope.spawn(move || {
                        let _adopted = parent.adopt();
                        let _span = crn_obs::span("worker");
                        run_range(lo, hi)
                    })
                })
                .collect();
            let first = {
                let _span = crn_obs::span("worker");
                run_range(bounds[0], bounds[1])
            };
            std::iter::once(first)
                .chain(
                    helpers
                        .into_iter()
                        .map(|h| h.join().expect("ensemble worker panicked")),
                )
                .collect()
        });
        // Workers hold contiguous ranges in trial order, so the first error
        // met here is the lowest-numbered failing trial's.
        let mut merged = TrialAccumulator::new();
        for acc in accs {
            merged.merge(acc?);
        }
        crn_obs::gauge_max("sim.workers", u64::try_from(workers).unwrap_or(u64::MAX));
        Ok(merged.finish(x))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crn_model::examples;

    #[test]
    fn seed_stream_is_deterministic_and_spread_out() {
        let stream = SeedStream::new(123);
        assert_eq!(stream.seed(5), SeedStream::new(123).seed(5));
        // Adjacent indices must not give adjacent seeds (the old scheme's
        // failure mode): require many differing bits, not just the low ones.
        for t in 0..64u64 {
            let diff = (stream.seed(t) ^ stream.seed(t + 1)).count_ones();
            assert!(diff >= 8, "seeds for trials {t} and {} too close", t + 1);
        }
    }

    #[test]
    fn worker_count_does_not_change_results() {
        let max = examples::max_crn();
        let x = NVec::from(vec![9, 7]);
        let sequential = Ensemble::new(&max).with_workers(1).run(&x, 12, 99).unwrap();
        for workers in [2usize, 3, 5, 12, 64] {
            let parallel = Ensemble::new(&max)
                .with_workers(workers)
                .run(&x, 12, 99)
                .unwrap();
            assert_eq!(parallel, sequential, "workers={workers}");
        }
        assert_eq!(sequential.outputs, vec![9]);
        assert_eq!(sequential.silent_fraction, 1.0);
    }

    #[test]
    fn effective_workers_fast_path_decision() {
        // Requested 1 → inline, regardless of cores.
        assert_eq!(effective_workers(1, 8, 100), 1);
        // One core → inline, regardless of the requested count (the E14
        // single-core overhead case).
        assert_eq!(effective_workers(4, 1, 100), 1);
        // Never more workers than trials.
        assert_eq!(effective_workers(4, 8, 2), 2);
        // Otherwise the request wins, clamped to the core count.
        assert_eq!(effective_workers(3, 8, 100), 3);
        assert_eq!(effective_workers(16, 8, 100), 8);
        // Degenerate inputs stay sane.
        assert_eq!(effective_workers(0, 0, 0), 1);
    }

    #[test]
    fn workers_one_fast_path_matches_spawned_results() {
        // The inline fast path and any spawning configuration must agree
        // bit-for-bit (the contract the clamp relies on).
        let max = examples::max_crn();
        let x = NVec::from(vec![7, 11]);
        let inline = Ensemble::new(&max).with_workers(1).run(&x, 9, 42).unwrap();
        let clamped = Ensemble::new(&max).with_workers(64).run(&x, 9, 42).unwrap();
        assert_eq!(inline, clamped);
        assert_eq!(inline.outputs, vec![11]);
    }

    #[test]
    fn more_workers_than_trials_is_fine() {
        let min = examples::min_crn();
        let x = NVec::from(vec![3, 4]);
        let summary = Ensemble::new(&min).with_workers(16).run(&x, 2, 1).unwrap();
        assert_eq!(summary.steps.count, 2);
        assert_eq!(summary.outputs, vec![3]);
    }

    #[test]
    fn a_cut_trials_output_is_not_a_silent_output() {
        // From one X, `X -> Y` falls silent with output 1, while `X -> A`
        // starts `A -> A + Y`, which never falls silent: a run cut after
        // 5 steps ends with output 4, from no terminal configuration.
        let mut crn = crn_model::Crn::new();
        for reaction in ["X -> Y", "X -> A", "A -> A + Y"] {
            crn.parse_reaction(reaction).unwrap();
        }
        let crn = FunctionCrn::with_named_roles(crn, &["X"], "Y", None).unwrap();
        let summary = Ensemble::new(&crn)
            .with_max_steps(5)
            .run(&NVec::from(vec![1]), 16, 3)
            .unwrap();
        assert!(summary.silent_fraction > 0.0 && summary.silent_fraction < 1.0);
        assert_eq!(summary.outputs, vec![1, 4]);
        assert_eq!(summary.silent_outputs, vec![1]);
    }

    #[test]
    fn wrong_arity_is_an_error() {
        let min = examples::min_crn();
        assert!(Ensemble::new(&min).run(&NVec::from(vec![1]), 3, 0).is_err());
    }

    #[test]
    fn a_count_overflow_is_an_error_at_every_worker_count() {
        let mut crn = crn_model::Crn::new();
        crn.parse_reaction("X -> 9223372036854775807 Y").unwrap();
        let crn = FunctionCrn::with_named_roles(crn, &["X"], "Y", None).unwrap();
        let fits = Ensemble::new(&crn).run(&NVec::from(vec![2]), 4, 0).unwrap();
        assert_eq!(fits.outputs, vec![u64::MAX - 1]);
        for workers in [1usize, 2, 4] {
            assert_eq!(
                Ensemble::new(&crn)
                    .with_workers(workers)
                    .run(&NVec::from(vec![3]), 4, 0),
                Err(CrnError::CountOverflow {
                    reaction: "X -> 9223372036854775807Y".into(),
                    species: "Y".into(),
                }),
                "workers={workers}"
            );
        }
    }

    #[test]
    fn accumulator_merge_preserves_trial_order() {
        let outcome = |steps: u64, silent: bool| GillespieOutcome {
            final_configuration: crn_model::Configuration::new(),
            steps,
            time: steps as f64 * 0.5,
            silent,
        };
        let mut a = TrialAccumulator::new();
        a.record(&outcome(1, true), 4);
        let mut b = TrialAccumulator::new();
        b.record(&outcome(3, false), 2);
        b.record(&outcome(2, true), 4);
        a.merge(b);
        assert_eq!(a.len(), 3);
        assert!(!a.is_empty());
        let summary = a.finish(&NVec::from(vec![0]));
        assert_eq!(summary.steps.count, 3);
        assert_eq!(summary.outputs, vec![2, 4]);
        assert_eq!(summary.silent_outputs, vec![4]);
        assert!((summary.silent_fraction - 2.0 / 3.0).abs() < 1e-12);
    }
}
