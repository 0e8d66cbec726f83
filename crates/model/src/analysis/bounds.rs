//! Per-species reachable-count intervals from invariant structure.
//!
//! Nonnegative conservation laws bound species counts, but many CRNs (the
//! paper's `max` included) admit *no* nonnegative law while still being
//! bounded.  The right generalization is a *monotone potential*: a
//! nonnegative weight vector `v` with `v·N ≤ 0` makes `v·c` nonincreasing
//! along every trajectory, so `v(s)·c(s) ≤ v·c ≤ v·c₀` bounds every species
//! in `v`'s support; `v·N ≥ 0` symmetrically yields lower bounds.  Both
//! cones are enumerated exactly by the same double-description Farkas core
//! as P-semiflows, extended with one slack row per reaction, so each cone's
//! generators are the extreme rays of the `(v, slack)` cone projected onto
//! `v`.  They share the core's truncation semantics: sound, and incomplete
//! when [`FARKAS_ROW_CAP`] cut a column short or a combination overflowed
//! `i128`.
//!
//! [`SpeciesBounds::intervals`] combines three sound sources into one
//! interval per species, given a concrete initial configuration:
//!
//! 1. decreasing potentials: `c(s) ≤ ⌊v·c₀ / v(s)⌋`;
//! 2. the liveness fixpoint: a species never producible from the start's
//!    support (and absent at the start) stays at zero;
//! 3. signed conservation laws `v·c = v·c₀`, solved for each supported
//!    species against the other species' current intervals (two
//!    deterministic refinement rounds).
//!
//! Every reachable configuration satisfies every genuine invariant, so the
//! resulting intervals *contain every reachable count* — which is what lets
//! the reachability engine refuse inputs (the output interval excludes the
//! expected value), prove inputs correct (the output is pinned and the
//! state space provably fits the search limit), and perfect-hash the arena
//! (the interval box indexes every reachable configuration).  All of it is
//! checked `i128` arithmetic: a potential or law whose weighing of a
//! configuration overflows contributes no bound.
//!
//! [`FARKAS_ROW_CAP`]: super::invariants::FARKAS_ROW_CAP

use crn_numeric::gcd_i128;

use crate::compiled::CompiledCrn;

use super::invariants::{
    farkas_annul, project, species_rows, weigh, ConservationLaw, FarkasCore, FarkasRow, FarkasRows,
    FARKAS_ROW_CAP,
};
use super::liveness::Liveness;
use super::stoichiometry::Stoichiometry;

/// The monotone-potential generators of a compiled CRN, computed once per
/// CRN and reusable across initial configurations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpeciesBounds {
    stride: usize,
    /// Nonnegative `v` with `v·N ≤ 0`: `v·c` never increases.
    decreasing: Vec<Vec<i128>>,
    /// Nonnegative `v` with `v·N ≥ 0`: `v·c` never decreases.
    increasing: Vec<Vec<i128>>,
    truncated: bool,
    overflowed: bool,
}

/// One interval of possible counts per species: every reachable
/// configuration lies inside the box.  `None` upper bounds mean unbounded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CountIntervals {
    lower: Vec<u64>,
    upper: Vec<Option<u64>>,
}

impl SpeciesBounds {
    /// Enumerates both potential cones with the default Farkas cap.
    #[must_use]
    pub fn of(compiled: &CompiledCrn) -> Self {
        Self::with_cap(compiled, FARKAS_ROW_CAP)
    }

    /// Enumerates both potential cones, letting each Farkas column hold at
    /// most `max_rows` rows.
    #[must_use]
    pub fn with_cap(compiled: &CompiledCrn, max_rows: usize) -> Self {
        Self::of_stoichiometry(&Stoichiometry::of(compiled), max_rows)
    }

    /// [`SpeciesBounds::with_cap`] on an already extracted stoichiometry.
    /// Each call is one enumeration, counted as
    /// `model.analysis.species_bounds`.
    pub(crate) fn of_stoichiometry(stoich: &Stoichiometry, max_rows: usize) -> Self {
        crn_obs::add("model.analysis.species_bounds", 1);
        let decreasing = monotone_potentials(stoich, 1, max_rows, farkas_annul);
        let increasing = monotone_potentials(stoich, -1, max_rows, farkas_annul);
        SpeciesBounds {
            stride: stoich.stride(),
            truncated: decreasing.truncated || increasing.truncated,
            overflowed: decreasing.overflowed || increasing.overflowed,
            decreasing: decreasing.rows,
            increasing: increasing.rows,
        }
    }

    /// Whether either cone's enumeration is incomplete (the Farkas row cap
    /// cut it short, or an overflowing combination was dropped): coverage
    /// claims (a species with *no* covering potential) are then unreliable.
    #[must_use]
    pub fn truncated(&self) -> bool {
        self.truncated
    }

    /// Whether either cone dropped a combination that overflowed `i128`.
    #[must_use]
    pub fn overflowed(&self) -> bool {
        self.overflowed
    }

    /// The species stride the potentials were computed over.
    #[must_use]
    pub fn stride(&self) -> usize {
        self.stride
    }

    /// Whether some decreasing potential gives species `s` a finite upper
    /// bound for every initial configuration.
    #[must_use]
    pub fn covered(&self, s: usize) -> bool {
        self.decreasing
            .iter()
            .any(|v| v.get(s).copied().unwrap_or(0) > 0)
    }

    /// The decreasing-potential generators (one weight vector per row).
    #[must_use]
    pub fn decreasing_potentials(&self) -> &[Vec<i128>] {
        &self.decreasing
    }

    /// Sound per-species count intervals for every configuration reachable
    /// from `start`.  `live` must be the liveness fixpoint of the same CRN
    /// seeded with `start`'s support; `laws` are signed conservation laws of
    /// the same CRN (typically the [`conservation_basis`] the reachability
    /// oracle already holds).  `start` may be longer than the analyzed
    /// stride; the excess species are untouched by every reaction and pin
    /// to their initial counts.
    ///
    /// [`conservation_basis`]: super::invariants::conservation_basis
    #[must_use]
    pub fn intervals(
        &self,
        start: &[u64],
        live: &Liveness,
        laws: &[ConservationLaw],
    ) -> CountIntervals {
        let n = start.len();
        let mut lower = vec![0u64; n];
        let mut upper: Vec<Option<u64>> = vec![None; n];
        for s in self.stride.min(n)..n {
            lower[s] = start[s];
            upper[s] = Some(start[s]);
        }

        // 1. Decreasing potentials: v(s)·c(s) ≤ v·c ≤ v·c₀.
        for v in &self.decreasing {
            let Some(value) = weigh(v, start) else {
                continue;
            };
            for (s, &w) in v.iter().enumerate().take(n) {
                if w > 0 {
                    let bound = clamp_u64(value / w);
                    if upper[s].map_or(true, |u| bound < u) {
                        upper[s] = Some(bound);
                    }
                }
            }
        }

        // 2. Liveness: a species never producible from the start's support
        // is absent at the start and stays absent forever.
        for (s, u) in upper.iter_mut().enumerate().take(self.stride.min(n)) {
            if !live.producible(s) {
                debug_assert_eq!(start[s], 0, "a present species is producible");
                *u = Some(0);
            }
        }

        // 3. Increasing potentials: v·c ≥ v·c₀, so a species' count is at
        // least the initial potential minus what the rest of the support
        // can possibly carry (needs finite upper bounds on the rest).
        for v in &self.increasing {
            let Some(value) = weigh(v, start) else {
                continue;
            };
            for (s, &w) in v.iter().enumerate().take(n) {
                if w <= 0 {
                    continue;
                }
                // v·c − w·c(s) is at most the rest's weight at its upper
                // bounds; `None` when one is unbounded or the weighing
                // overflows.
                let rest = v
                    .iter()
                    .enumerate()
                    .take(n)
                    .filter(|&(t, &wt)| t != s && wt != 0)
                    .try_fold(0i128, |rest, (t, &wt)| {
                        rest.checked_add(wt.checked_mul(i128::from(upper[t]?))?)
                    });
                let own = rest.and_then(|rest| ceil_div(value.checked_sub(rest)?, w));
                if let Some(bound) = own.map(clamp_u64) {
                    if bound > lower[s] {
                        lower[s] = bound;
                    }
                }
            }
        }

        let mut intervals = CountIntervals { lower, upper };
        // 4. Signed-law refinement: solve v·c = v·c₀ for each supported
        // species against the rest's intervals.  Two rounds let a bound
        // tightened by one law feed the next; the round count is fixed for
        // determinism.
        for _ in 0..2 {
            for law in laws {
                refine_with_law(&mut intervals, law, start);
            }
        }
        debug_assert!(intervals.admits(start), "the start lies in its own box");
        intervals
    }

    /// Sound per-species count intervals covering every configuration
    /// reachable from *any* start `≤ top` componentwise — the hull of a whole
    /// input box rather than one point.  `live` must be the liveness fixpoint
    /// seeded with `top`'s support.
    ///
    /// Soundness: decreasing-potential bounds are monotone in the start
    /// (weights are nonnegative, so `v·c₀ ≤ v·top`), producibility is
    /// monotone in the seed support (a species dead from `top`'s full support
    /// is dead from every sub-support), and every lower bound is relaxed to
    /// zero (law refinement and increasing potentials are per-point values
    /// and do not transfer across the box).
    #[must_use]
    pub fn box_hull(&self, top: &[u64], live: &Liveness) -> CountIntervals {
        let n = top.len();
        let lower = vec![0u64; n];
        let mut upper: Vec<Option<u64>> = vec![None; n];
        // Untouched species can never move, so the top value bounds them
        // across the whole box.
        for (s, u) in upper.iter_mut().enumerate().take(n).skip(self.stride) {
            *u = Some(top[s]);
        }
        for v in &self.decreasing {
            let Some(value) = weigh(v, top) else {
                continue;
            };
            for (s, &w) in v.iter().enumerate().take(n) {
                if w > 0 {
                    let bound = clamp_u64(value / w);
                    if upper[s].map_or(true, |u| bound < u) {
                        upper[s] = Some(bound);
                    }
                }
            }
        }
        for (s, u) in upper.iter_mut().enumerate().take(self.stride.min(n)) {
            if !live.producible(s) {
                // Dead species stay at their start count, which is at most
                // the top's.
                let cap = top[s];
                if u.map_or(true, |b| cap < b) {
                    *u = Some(cap);
                }
            }
        }
        let intervals = CountIntervals { lower, upper };
        debug_assert!(intervals.admits(top), "the top corner lies in the hull");
        intervals
    }
}

impl CountIntervals {
    /// The number of species slots.
    #[must_use]
    pub fn len(&self) -> usize {
        self.lower.len()
    }

    /// Whether the interval set covers no species at all.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.lower.is_empty()
    }

    /// The least possible count of species `s` (zero past the end).
    #[must_use]
    pub fn lower(&self, s: usize) -> u64 {
        self.lower.get(s).copied().unwrap_or(0)
    }

    /// The greatest possible count of species `s` (`None` = unbounded;
    /// species past the end are untouched and pinned to zero).
    #[must_use]
    pub fn upper(&self, s: usize) -> Option<u64> {
        if s < self.upper.len() {
            self.upper[s]
        } else {
            Some(0)
        }
    }

    /// The single possible count of species `s`, when its interval is a
    /// point.
    #[must_use]
    pub fn pinned(&self, s: usize) -> Option<u64> {
        match self.upper(s) {
            Some(u) if u == self.lower(s) => Some(u),
            _ => None,
        }
    }

    /// Whether `counts` lies inside the box.
    #[must_use]
    pub fn admits(&self, counts: &[u64]) -> bool {
        counts
            .iter()
            .enumerate()
            .all(|(s, &c)| c >= self.lower(s) && self.upper(s).map_or(true, |u| c <= u))
    }

    /// The number of configurations in the box (`None` when some species is
    /// unbounded), saturating at `u128::MAX`.
    #[must_use]
    pub fn state_space(&self) -> Option<u128> {
        let mut product = 1u128;
        for s in 0..self.len() {
            let width = u128::from(self.upper(s)? - self.lower(s)) + 1;
            product = product.saturating_mul(width);
        }
        Some(product)
    }
}

fn clamp_u64(x: i128) -> u64 {
    if x <= 0 {
        0
    } else {
        u64::try_from(x).unwrap_or(u64::MAX)
    }
}

/// `⌊a / b⌋`, or `None` on `i128` overflow.
fn floor_div(a: i128, b: i128) -> Option<i128> {
    let q = a.checked_div(b)?;
    let r = a.checked_rem(b)?;
    if r != 0 && ((r < 0) != (b < 0)) {
        q.checked_sub(1)
    } else {
        Some(q)
    }
}

/// `⌈a / b⌉`, or `None` on `i128` overflow.
fn ceil_div(a: i128, b: i128) -> Option<i128> {
    floor_div(a.checked_neg()?, b)?.checked_neg()
}

/// Tightens `intervals` with the equality `law·c = law·start`: for each
/// supported species, the extreme values of the law over the other species'
/// intervals bound what the species itself can carry.  The law is skipped
/// from the first weighing that overflows `i128`.
fn refine_with_law(intervals: &mut CountIntervals, law: &ConservationLaw, start: &[u64]) {
    let Some(value) = law.weigh(start) else {
        return;
    };
    for s in 0..intervals.len().min(law.weights().len()) {
        let ws = law.weight(s);
        if ws == 0 {
            continue;
        }
        let Some((new_lower, new_upper)) = law_bounds_on(intervals, law, s, value) else {
            return;
        };
        if let Some(lb) = new_lower {
            let lb = clamp_u64(lb);
            if lb > intervals.lower[s] {
                intervals.lower[s] = lb;
            }
        }
        if let Some(ub) = new_upper {
            let ub = clamp_u64(ub);
            if intervals.upper[s].map_or(true, |u| ub < u) {
                intervals.upper[s] = Some(ub);
            }
        }
    }
}

/// The `(lower, upper)` bounds that `law·c = value` puts on the count of
/// supported species `s` given the other species' intervals (`None` on a
/// side the intervals leave unbounded), or `None` on `i128` overflow.
fn law_bounds_on(
    intervals: &CountIntervals,
    law: &ConservationLaw,
    s: usize,
    value: i128,
) -> Option<(Option<i128>, Option<i128>)> {
    // The rest of the law, v·c − ws·c(s), ranges over [rest_min, rest_max]
    // (`None` = unbounded).
    let mut rest_min = Some(0i128);
    let mut rest_max = Some(0i128);
    for t in 0..intervals.len().min(law.weights().len()) {
        let wt = law.weight(t);
        if t == s || wt == 0 {
            continue;
        }
        // `sum + wt·count`, unbounded if either is; the outer `None` is
        // overflow.
        let add = |sum: Option<i128>, count: Option<u64>| match (sum, count) {
            (Some(sum), Some(c)) => Some(Some(sum.checked_add(wt.checked_mul(i128::from(c))?)?)),
            _ => Some(None),
        };
        let (lo, hi) = (Some(intervals.lower(t)), intervals.upper(t));
        let (at_min, at_max) = if wt > 0 { (lo, hi) } else { (hi, lo) };
        rest_min = add(rest_min, at_min)?;
        rest_max = add(rest_max, at_max)?;
    }
    // ws·c(s) = value − rest ∈ [value − rest_max, value − rest_min], and
    // dividing by ws < 0 swaps the ends.
    let ws = law.weight(s);
    let own = |rest: Option<i128>, div: fn(i128, i128) -> Option<i128>| match rest {
        Some(rest) => div(value.checked_sub(rest)?, ws).map(Some),
        None => Some(None),
    };
    let (rest_for_lower, rest_for_upper) = if ws > 0 {
        (rest_max, rest_min)
    } else {
        (rest_min, rest_max)
    };
    Some((
        own(rest_for_lower, ceil_div)?,
        own(rest_for_upper, floor_div)?,
    ))
}

/// The Farkas table of the `sign` potential cone: the species rows
/// `[sign·N[s][·] | e_s]` and one slack row `[e_r | e_{S+r}]` per reaction,
/// with the `(v, w)` payload after the `R` reaction columns.
pub(super) fn potential_table(stoich: &Stoichiometry, sign: i128) -> Vec<FarkasRow> {
    let species = stoich.stride();
    let reactions = stoich.reaction_count();
    let mut table = species_rows(stoich, sign);
    table.extend((0..reactions).map(|r| vec![(r, 1), (reactions + species + r, 1)]));
    table
}

/// Generators of `{v ≥ 0 : sign · (v·N) ≤ 0}` via the Farkas core `core` on
/// the stoichiometry extended with one nonnegative slack per reaction:
/// rows of `[sign·N ; I_R]` with combination coefficients `(v, w)` satisfy
/// `sign·(v·N) = −w ≤ 0` exactly.  The returned rows are the primitive,
/// sorted, distinct projections of the `(v, w)` cone's extreme rays.
pub(super) fn monotone_potentials(
    stoich: &Stoichiometry,
    sign: i128,
    max_rows: usize,
    core: FarkasCore,
) -> FarkasRows<Vec<i128>> {
    let species = stoich.stride();
    let reactions = stoich.reaction_count();
    let farkas = core(potential_table(stoich, sign), reactions, max_rows);

    // The rows are the extreme rays of the full (v, w) cone; project out the
    // slack half.
    let mut potentials: Vec<Vec<i128>> = farkas
        .rows
        .iter()
        .map(|row| project(row, reactions, species))
        .filter(|v| v.iter().any(|&w| w != 0))
        .map(|mut v| {
            let g = v.iter().fold(0i128, |acc, &w| gcd_i128(acc, w));
            if g > 1 {
                for w in &mut v {
                    *w /= g;
                }
            }
            v
        })
        .collect();
    potentials.sort();
    potentials.dedup();
    FarkasRows {
        rows: potentials,
        truncated: farkas.truncated,
        overflowed: farkas.overflowed,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::conservation_basis;
    use crate::crn::Crn;
    use crate::examples;

    fn setup(crn: &Crn) -> (CompiledCrn, SpeciesBounds, Vec<ConservationLaw>) {
        let compiled = CompiledCrn::compile(crn);
        let bounds = SpeciesBounds::of(&compiled);
        let laws = conservation_basis(&Stoichiometry::of(&compiled));
        (compiled, bounds, laws)
    }

    fn intervals_from(
        compiled: &CompiledCrn,
        bounds: &SpeciesBounds,
        laws: &[ConservationLaw],
        start: &[u64],
    ) -> CountIntervals {
        let support: Vec<usize> = (0..start.len()).filter(|&s| start[s] > 0).collect();
        let live = Liveness::analyze(compiled, &support);
        bounds.intervals(start, &live, laws)
    }

    #[test]
    fn max_crn_is_fully_bounded_despite_having_no_semiflow() {
        // max admits no nonnegative conservation law, yet every species is
        // covered by a decreasing potential: X1+Z1, X1+Z1+K, X1+X2+Y, …
        let max = examples::max_crn();
        let (compiled, bounds, laws) = setup(max.crn());
        assert!(!bounds.truncated());
        for s in 0..compiled.stride() {
            assert!(bounds.covered(s), "species {s} uncovered");
        }
        let crn = max.crn();
        let idx = |name: &str| crn.species_named(name).unwrap().index();
        let mut start = vec![0u64; compiled.stride()];
        start[idx("X1")] = 2;
        start[idx("X2")] = 3;
        let iv = intervals_from(&compiled, &bounds, &laws, &start);
        assert_eq!(iv.upper(idx("X1")), Some(2));
        assert_eq!(iv.upper(idx("X2")), Some(3));
        assert_eq!(iv.upper(idx("Z1")), Some(2));
        assert_eq!(iv.upper(idx("Z2")), Some(3));
        assert_eq!(iv.upper(idx("K")), Some(2));
        assert_eq!(iv.upper(idx("Y")), Some(5));
        assert_eq!(iv.state_space(), Some(3 * 3 * 6 * 4 * 4 * 3));
    }

    #[test]
    fn zero_input_pins_the_whole_min_box() {
        // min on (0, 4): X1 = 0 caps Y at zero via the potential X1 + Y,
        // and the signed law X1 - X2 then pins X2 at 4 — the reaction can
        // never fire, and the analysis proves the reachable set is {start}.
        let min = examples::min_crn();
        let (compiled, bounds, laws) = setup(min.crn());
        let crn = min.crn();
        let idx = |name: &str| crn.species_named(name).unwrap().index();
        let mut start = vec![0u64; compiled.stride()];
        start[idx("X2")] = 4;
        let iv = intervals_from(&compiled, &bounds, &laws, &start);
        assert_eq!(iv.pinned(idx("Y")), Some(0));
        assert_eq!(iv.pinned(idx("X1")), Some(0));
        assert_eq!(iv.pinned(idx("X2")), Some(4));
        assert_eq!(iv.state_space(), Some(1));
    }

    #[test]
    fn divergent_species_stay_unbounded() {
        // X -> 2X admits no decreasing potential on X.
        let mut crn = Crn::new();
        crn.parse_reaction("X -> 2X").unwrap();
        let (compiled, bounds, laws) = setup(&crn);
        assert!(!bounds.covered(0));
        let iv = intervals_from(&compiled, &bounds, &laws, &[1]);
        assert_eq!(iv.upper(0), None);
        assert_eq!(iv.state_space(), None);
    }

    #[test]
    fn overflowing_potentials_are_dropped_and_flagged() {
        // Per unit of A the chain ends in 2^128 E, so every potential
        // covering E weighs A at 2^128 or more.  Wrapping that weight to 0
        // would fabricate a potential pinning E at zero.
        let mut crn = Crn::new();
        for reaction in [
            "A -> 4294967296B",
            "B -> 4294967296C",
            "C -> 4294967296D",
            "D -> 4294967296E",
        ] {
            crn.parse_reaction(reaction).unwrap();
        }
        let (compiled, bounds, laws) = setup(&crn);
        assert!(bounds.truncated());
        assert!(bounds.overflowed());
        let e = crn.species_named("E").unwrap().index();
        assert!(!bounds.covered(e));
        let mut start = vec![0u64; compiled.stride()];
        start[crn.species_named("A").unwrap().index()] = 1;
        let iv = intervals_from(&compiled, &bounds, &laws, &start);
        assert_eq!(iv.upper(e), None);
    }

    #[test]
    fn a_weighing_that_overflows_bounds_nothing() {
        // 2^64 A + 2^32 B + C is C's only potential and also the signed law;
        // weighed at A = u64::MAX it exceeds i128, so both are skipped
        // rather than wrapped into a bound that excludes the start itself.
        let mut crn = Crn::new();
        crn.parse_reaction("A -> 4294967296B").unwrap();
        crn.parse_reaction("B -> 4294967296C").unwrap();
        let (compiled, bounds, laws) = setup(&crn);
        assert!(!bounds.truncated());
        let idx = |name: &str| crn.species_named(name).unwrap().index();
        assert!(bounds.covered(idx("C")));
        let mut start = vec![0u64; compiled.stride()];
        start[idx("A")] = u64::MAX;
        let iv = intervals_from(&compiled, &bounds, &laws, &start);
        assert!(iv.admits(&start));
        assert_eq!(iv.upper(idx("A")), Some(u64::MAX));
        assert_eq!(iv.upper(idx("C")), None);
        start[idx("A")] = 1;
        let iv = intervals_from(&compiled, &bounds, &laws, &start);
        assert_eq!(iv.upper(idx("B")), Some(1 << 32));
    }

    #[test]
    fn dead_species_pin_to_zero() {
        let mut crn = Crn::new();
        crn.parse_reaction("X -> Y").unwrap();
        crn.parse_reaction("D -> U").unwrap();
        let (compiled, bounds, laws) = setup(&crn);
        let x = crn.species_named("X").unwrap().index();
        let d = crn.species_named("D").unwrap().index();
        let u = crn.species_named("U").unwrap().index();
        let mut start = vec![0u64; compiled.stride()];
        start[x] = 3;
        let iv = intervals_from(&compiled, &bounds, &laws, &start);
        assert_eq!(iv.pinned(d), Some(0));
        assert_eq!(iv.pinned(u), Some(0));
    }

    #[test]
    fn law_refinement_uses_equalities_both_ways() {
        // A -> B with A₀ = 3: the law A + B = 3 pins B ≥ 3 − ub(A) = 0 and
        // the increasing potential B gives lb(B) = 0; refinement tightens
        // nothing beyond ub(B) = 3 — but with ub(A) from e_A and the law,
        // every reachable c has A + B = 3 exactly, so ub(B) = 3, lb = 0.
        let mut crn = Crn::new();
        crn.parse_reaction("A -> B").unwrap();
        let (compiled, bounds, laws) = setup(&crn);
        let a = crn.species_named("A").unwrap().index();
        let b = crn.species_named("B").unwrap().index();
        let iv = intervals_from(&compiled, &bounds, &laws, &[3, 0]);
        assert_eq!(iv.upper(a), Some(3));
        assert_eq!(iv.upper(b), Some(3));
        assert_eq!(iv.state_space(), Some(16));
        assert!(iv.admits(&[3, 0]));
        assert!(iv.admits(&[0, 3]));
        assert!(!iv.admits(&[4, 0]));
    }

    #[test]
    fn intervals_contain_every_exhaustively_reachable_configuration() {
        // Direct soundness check on max(2, 2): enumerate reachable configs
        // with the naive engine's dynamics via the compiled reactions and
        // assert each lies in the box.
        let max = examples::max_crn();
        let (compiled, bounds, laws) = setup(max.crn());
        let crn = max.crn();
        let idx = |name: &str| crn.species_named(name).unwrap().index();
        let mut start = vec![0u64; compiled.stride()];
        start[idx("X1")] = 2;
        start[idx("X2")] = 2;
        let iv = intervals_from(&compiled, &bounds, &laws, &start);
        let mut seen = vec![start.clone()];
        let mut frontier = vec![start];
        while let Some(cur) = frontier.pop() {
            for reaction in compiled.reactions() {
                if reaction.applicable(&cur) {
                    let mut succ = vec![0u64; cur.len()];
                    reaction.apply_into(&cur, &mut succ);
                    if !seen.contains(&succ) {
                        assert!(iv.admits(&succ), "escaped box: {succ:?}");
                        seen.push(succ.clone());
                        frontier.push(succ);
                    }
                }
            }
        }
        assert!(u128::try_from(seen.len()).unwrap() <= iv.state_space().unwrap());
    }
}
