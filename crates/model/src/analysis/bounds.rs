//! Per-species upper bounds from decreasing monotone potentials.
//!
//! Nonnegative conservation laws bound species counts, but many CRNs (the
//! paper's `max` included) admit *no* nonnegative law while still being
//! bounded.  The right generalization is a *monotone potential*: a
//! nonnegative weight vector `v` with `v·N ≤ 0` makes `v·c` nonincreasing
//! along every trajectory, so `v(s)·c(s) ≤ v·c ≤ v·c₀` bounds every species
//! in `v`'s support.  The cone of such potentials is enumerated exactly by
//! the same double-description Farkas core as P-semiflows, extended with
//! one slack row per reaction, so its generators are the extreme rays of
//! the `(v, slack)` cone projected onto `v`.  It shares the core's
//! truncation semantics: sound, and incomplete when [`FARKAS_ROW_CAP`] cut
//! a column short or a combination overflowed `i128`.
//!
//! The cone has two readers: lints C008 and C009 ask which species some
//! potential covers, and [`SpeciesBounds::box_hull`] bounds every count
//! reachable from any start of an input box, which is what lets the box
//! engine pack a whole configuration into one word.  The hull's weighings
//! are checked `i128` arithmetic: a potential whose weighing overflows
//! contributes no bound.
//!
//! [`FARKAS_ROW_CAP`]: super::invariants::FARKAS_ROW_CAP

use crn_numeric::gcd_i128;

use crate::compiled::CompiledCrn;

use super::invariants::{
    farkas_annul, project, species_rows, weigh, FarkasCore, FarkasRow, FarkasRows, FARKAS_ROW_CAP,
};
use super::liveness::Liveness;
use super::stoichiometry::Stoichiometry;

/// The decreasing monotone-potential generators of a compiled CRN,
/// computed once per CRN and reusable across initial configurations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpeciesBounds {
    stride: usize,
    /// Nonnegative `v` with `v·N ≤ 0`: `v·c` never increases.
    decreasing: Vec<Vec<i128>>,
    truncated: bool,
    overflowed: bool,
}

impl SpeciesBounds {
    /// Enumerates the potential cone with the default Farkas cap.
    #[must_use]
    pub fn of(compiled: &CompiledCrn) -> Self {
        Self::with_cap(compiled, FARKAS_ROW_CAP)
    }

    /// Enumerates the potential cone, letting each Farkas column hold at
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
        SpeciesBounds {
            stride: stoich.stride(),
            truncated: decreasing.truncated,
            overflowed: decreasing.overflowed,
            decreasing: decreasing.rows,
        }
    }

    /// Whether the enumeration is incomplete (the Farkas row cap cut it
    /// short, or an overflowing combination was dropped): coverage claims
    /// (a species with *no* covering potential) are then unreliable.
    #[must_use]
    pub fn truncated(&self) -> bool {
        self.truncated
    }

    /// Whether the enumeration dropped a combination that overflowed
    /// `i128`.
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

    /// Sound per-species upper bounds on every count reachable from *any*
    /// start `≤ top` componentwise — the hull of a whole input box rather
    /// than one point, `None` where nothing bounds the species.  `live`
    /// must be the liveness fixpoint seeded with `top`'s support.  `top`
    /// may be longer than the analyzed stride; the excess species are
    /// untouched by every reaction and keep their start counts.
    ///
    /// Soundness: decreasing-potential bounds are monotone in the start
    /// (weights are nonnegative, so `v·c₀ ≤ v·top`), and producibility is
    /// monotone in the seed support (a species dead from `top`'s full
    /// support is dead from every sub-support, so it keeps its start
    /// count).
    #[must_use]
    pub fn box_hull(&self, top: &[u64], live: &Liveness) -> Vec<Option<u64>> {
        let n = top.len();
        let mut upper: Vec<Option<u64>> = vec![None; n];
        // Untouched species can never move, so the top value bounds them
        // across the whole box.
        for (s, u) in upper.iter_mut().enumerate().skip(self.stride) {
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
        debug_assert!(
            top.iter()
                .zip(&upper)
                .all(|(&c, u)| u.map_or(true, |u| c <= u)),
            "the top corner lies in the hull"
        );
        upper
    }
}

fn clamp_u64(x: i128) -> u64 {
    if x <= 0 {
        0
    } else {
        u64::try_from(x).unwrap_or(u64::MAX)
    }
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
    use crate::config::Configuration;
    use crate::crn::Crn;
    use crate::examples;
    use crate::reachability::oracle::NaiveGraph;
    use crate::reaction::Reaction;
    use crate::species::Species;
    use proptest::prelude::*;

    /// The potentials of `crn` and the box hull of `top` (one count per
    /// species of the compiled stride), with the liveness fixpoint seeded
    /// from `top`'s support.
    fn hull_at(crn: &Crn, top: &[u64]) -> (SpeciesBounds, Vec<Option<u64>>) {
        let compiled = CompiledCrn::compile(crn);
        let bounds = SpeciesBounds::of(&compiled);
        let support: Vec<usize> = (0..top.len()).filter(|&s| top[s] > 0).collect();
        let live = Liveness::analyze(&compiled, &support);
        let hull = bounds.box_hull(top, &live);
        (bounds, hull)
    }

    /// [`hull_at`] with the top corner given by species name; unnamed
    /// species sit at zero.
    fn hull_named(crn: &Crn, top: &[(&str, u64)]) -> (SpeciesBounds, Vec<Option<u64>>) {
        let mut counts = vec![0u64; crn.species().len()];
        for &(name, count) in top {
            counts[crn.species_named(name).unwrap().index()] = count;
        }
        hull_at(crn, &counts)
    }

    fn idx(crn: &Crn, name: &str) -> usize {
        crn.species_named(name).unwrap().index()
    }

    /// Whether every count lies at or below its species' bound.
    fn under(hull: &[Option<u64>], counts: &[u64]) -> bool {
        counts
            .iter()
            .zip(hull)
            .all(|(&c, u)| u.map_or(true, |u| c <= u))
    }

    #[test]
    fn max_crn_is_fully_bounded_despite_having_no_semiflow() {
        // max admits no nonnegative conservation law, yet every species is
        // covered by a decreasing potential: X1+Z1, X1+Z1+K, X1+X2+Y, …
        let max = examples::max_crn();
        let crn = max.crn();
        let (bounds, hull) = hull_named(crn, &[("X1", 2), ("X2", 3)]);
        assert!(!bounds.truncated());
        for s in 0..bounds.stride() {
            assert!(bounds.covered(s), "species {s} uncovered");
        }
        let upper = |name: &str| hull[idx(crn, name)];
        assert_eq!(upper("X1"), Some(2));
        assert_eq!(upper("X2"), Some(3));
        assert_eq!(upper("Z1"), Some(2));
        assert_eq!(upper("Z2"), Some(3));
        assert_eq!(upper("K"), Some(2));
        assert_eq!(upper("Y"), Some(5));
    }

    #[test]
    fn divergent_species_stay_unbounded() {
        // X -> 2X admits no decreasing potential on X.
        let mut crn = Crn::new();
        crn.parse_reaction("X -> 2X").unwrap();
        let (bounds, hull) = hull_at(&crn, &[1]);
        assert!(!bounds.covered(0));
        assert_eq!(hull, vec![None]);
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
        let (bounds, hull) = hull_named(&crn, &[("A", 1)]);
        assert!(bounds.truncated());
        assert!(bounds.overflowed());
        let e = idx(&crn, "E");
        assert!(!bounds.covered(e));
        assert_eq!(hull[e], None);
    }

    #[test]
    fn a_weighing_that_overflows_bounds_nothing() {
        // 2^64 A + 2^32 B + C is C's only potential; weighed at A = u64::MAX
        // it exceeds i128, so it is skipped rather than wrapped into a bound
        // that excludes the top corner itself.
        let mut crn = Crn::new();
        crn.parse_reaction("A -> 4294967296B").unwrap();
        crn.parse_reaction("B -> 4294967296C").unwrap();
        let (a, b, c) = (idx(&crn, "A"), idx(&crn, "B"), idx(&crn, "C"));
        let (bounds, hull) = hull_named(&crn, &[("A", u64::MAX)]);
        assert!(!bounds.truncated());
        assert!(bounds.covered(c));
        let mut top = vec![0u64; bounds.stride()];
        top[a] = u64::MAX;
        assert!(under(&hull, &top));
        assert_eq!(hull[a], Some(u64::MAX));
        assert_eq!(hull[c], None);
        let (_, hull) = hull_named(&crn, &[("A", 1)]);
        assert_eq!(hull[b], Some(1 << 32));
    }

    #[test]
    fn dead_species_pin_to_zero() {
        // Nothing producible from {X} makes D or U, so both are capped at
        // their (zero) top counts.
        let mut crn = Crn::new();
        crn.parse_reaction("X -> Y").unwrap();
        crn.parse_reaction("D -> U").unwrap();
        let (_, hull) = hull_named(&crn, &[("X", 3)]);
        assert_eq!(hull[idx(&crn, "D")], Some(0));
        assert_eq!(hull[idx(&crn, "U")], Some(0));
    }

    /// A CRN over `{X, Y, Z}` from sampled stoichiometries.
    fn random_crn(stoich: &[Vec<u64>]) -> Crn {
        let mut crn = Crn::new();
        let species: Vec<Species> = ["X", "Y", "Z"].iter().map(|n| crn.add_species(n)).collect();
        for row in stoich {
            let side = |counts: &[u64]| -> Vec<(Species, u64)> {
                species
                    .iter()
                    .copied()
                    .zip(counts.iter().copied())
                    .collect()
            };
            crn.add_reaction(Reaction::new(side(&row[0..3]), side(&row[3..6])));
        }
        crn
    }

    proptest! {
        /// The box hull is sound, which the packed codec's wrapping lane
        /// arithmetic relies on: every configuration an exhaustive
        /// exploration reaches from any start `≤ top` lies under the hull
        /// of `top`.  Starts whose reachable space outgrows the limit (a
        /// divergent CRN) are skipped.
        #[test]
        fn box_hull_contains_every_exhaustively_reachable_configuration(
            stoich in proptest::collection::vec(proptest::collection::vec(0u64..3, 6), 1..4),
            top in proptest::collection::vec(0u64..4, 3),
        ) {
            let crn = random_crn(&stoich);
            let (_, hull) = hull_at(&crn, &top);
            for x in crn_numeric::NVec::box_iter(3, 3) {
                if (0..3).any(|s| x[s] > top[s]) {
                    continue;
                }
                let start = Configuration::from_counts((0..3).map(|s| (Species(s), x[s])));
                let Ok(graph) = NaiveGraph::explore(&crn, &start, 2_000) else {
                    continue;
                };
                for config in &graph.configurations {
                    let counts: Vec<u64> = (0..3).map(|s| config.count(Species(s))).collect();
                    prop_assert!(under(&hull, &counts), "{:?} escapes {:?} from {}", counts, hull, x);
                }
            }
        }
    }
}
