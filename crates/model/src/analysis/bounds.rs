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
//! The cone's readers are lints C008 and C009, which ask which species
//! some potential covers.
//!
//! [`FARKAS_ROW_CAP`]: super::invariants::FARKAS_ROW_CAP

use crn_numeric::gcd_i128;

use crate::compiled::CompiledCrn;

use super::invariants::{
    farkas_annul, project, species_rows, FarkasCore, FarkasRow, FarkasRows, FARKAS_ROW_CAP,
};
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
    use crate::crn::Crn;
    use crate::examples;

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
}
