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
//! The cone's readers are lints C008 and C009, which ask only which species
//! some potential covers.  A species is covered exactly when some extreme
//! ray weighs it, since every potential is a nonnegative combination of
//! the rays; so [`SpeciesBounds`] keeps one bit per species, read off the
//! payload columns of the Farkas rows, and never materializes a potential.
//!
//! [`FARKAS_ROW_CAP`]: super::invariants::FARKAS_ROW_CAP

#[cfg(test)]
use crn_numeric::gcd_i128;

use crate::compiled::CompiledCrn;

use super::invariants::{farkas_annul, species_rows, FarkasRow, FARKAS_ROW_CAP};
#[cfg(test)]
use super::invariants::{project, FarkasCore, FarkasRows};
use super::stoichiometry::Stoichiometry;

/// Which species the decreasing monotone potentials of a compiled CRN
/// cover, computed once per CRN and reusable across initial
/// configurations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpeciesBounds {
    stride: usize,
    /// Bit `s` is set when some nonnegative `v` with `v·N ≤ 0` weighs
    /// species `s`, one bit per species in `u64` words.
    covered: Vec<u64>,
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
        let species = stoich.stride();
        let reactions = stoich.reaction_count();
        let farkas = farkas_annul(potential_table(stoich, 1), reactions, max_rows);
        // Every row is an extreme ray `(v, w)`, zero on the reaction
        // columns, with `v` at columns `R..R+S`; its payload entries are
        // positive, so a stored entry there is a covered species.
        let mut covered = vec![0u64; species.div_ceil(64)];
        for &(c, w) in farkas.rows.iter().flatten() {
            if let Some(s) = c.checked_sub(reactions).filter(|&s| s < species) {
                debug_assert!(w > 0, "a Farkas payload entry is positive");
                covered[s / 64] |= 1 << (s % 64);
            }
        }
        SpeciesBounds {
            stride: species,
            covered,
            truncated: farkas.truncated,
            overflowed: farkas.overflowed,
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
        self.covered
            .get(s / 64)
            .is_some_and(|&word| word & (1 << (s % 64)) != 0)
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
/// sorted, distinct projections of the `(v, w)` cone's extreme rays: the
/// potentials themselves, which the tests check [`SpeciesBounds`] against.
#[cfg(test)]
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
    use crate::crn::Crn;
    use crate::examples;
    use crate::reaction::Reaction;
    use crate::species::Species;

    fn bounds_of(crn: &Crn) -> SpeciesBounds {
        SpeciesBounds::of(&CompiledCrn::compile(crn))
    }

    fn idx(crn: &Crn, name: &str) -> usize {
        crn.species_named(name).unwrap().index()
    }

    #[test]
    fn max_crn_is_fully_bounded_despite_having_no_semiflow() {
        // max admits no nonnegative conservation law, yet every species is
        // covered by a decreasing potential: X1+Z1, X1+Z1+K, X1+X2+Y, …
        let max = examples::max_crn();
        let bounds = bounds_of(max.crn());
        assert!(!bounds.truncated());
        for s in 0..bounds.stride() {
            assert!(bounds.covered(s), "species {s} uncovered");
        }
    }

    #[test]
    fn divergent_species_stay_unbounded() {
        // X -> 2X admits no decreasing potential on X.
        let mut crn = Crn::new();
        crn.parse_reaction("X -> 2X").unwrap();
        assert!(!bounds_of(&crn).covered(0));
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
        let bounds = bounds_of(&crn);
        assert!(bounds.truncated());
        assert!(bounds.overflowed());
        assert!(!bounds.covered(idx(&crn, "E")));
    }

    /// Reactant and product counts: mostly small, some large enough that
    /// combinations overflow `i128`.
    const COUNTS: [u64; 16] = [0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 2, 2, 3, 4, 1 << 20, 1 << 40];

    /// A CRN over `A`–`E` from sampled rows of five reactant then five
    /// product count indices.
    fn sampled_crn(rows: &[Vec<usize>]) -> Crn {
        let mut crn = Crn::new();
        let species: Vec<Species> = ["A", "B", "C", "D", "E"]
            .iter()
            .map(|name| crn.add_species(name))
            .collect();
        for row in rows {
            let side = |counts: &[usize]| -> Vec<(Species, u64)> {
                species
                    .iter()
                    .zip(counts)
                    .map(|(&s, &i)| (s, COUNTS[i]))
                    .filter(|&(_, c)| c > 0)
                    .collect()
            };
            crn.add_reaction(Reaction::new(side(&row[..5]), side(&row[5..])));
        }
        crn
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        /// The coverage bits and flags are those of the potentials
        /// themselves: a species is covered exactly when some returned
        /// potential weighs it, at a sampled cap and at the default one.
        #[test]
        fn coverage_agrees_with_the_potentials_at_sampled_caps(
            rows in proptest::collection::vec(
                proptest::collection::vec(0usize..COUNTS.len(), 10),
                1..8,
            ),
            max_rows in 1usize..65,
        ) {
            let n = Stoichiometry::of(&CompiledCrn::compile(&sampled_crn(&rows)));
            for cap in [max_rows, FARKAS_ROW_CAP] {
                let bounds = SpeciesBounds::of_stoichiometry(&n, cap);
                let potentials = monotone_potentials(&n, 1, cap, farkas_annul);
                proptest::prop_assert_eq!(bounds.truncated(), potentials.truncated, "cap {}", cap);
                proptest::prop_assert_eq!(
                    bounds.overflowed(),
                    potentials.overflowed,
                    "cap {}",
                    cap
                );
                for s in 0..n.stride() + 64 {
                    let weighed = potentials.rows.iter().any(|v| v.get(s).is_some_and(|&w| w > 0));
                    proptest::prop_assert_eq!(bounds.covered(s), weighed, "cap {} at {}", cap, s);
                }
            }
        }
    }
}
