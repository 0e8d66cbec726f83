//! T-invariants: integer right-nullspace vectors of the stoichiometry matrix.
//!
//! A firing-count vector `f ∈ Z^R` with `N·f = 0` is a *T-invariant*: firing
//! every reaction `r` exactly `f(r)` times (in any order that stays
//! nonnegative) returns a configuration to itself.  Nonnegative T-invariants
//! (*T-semiflows*) are therefore certificates of repeatable reaction cycles,
//! and their supports tell the dual story: in a structurally bounded CRN,
//! any infinite firing sequence eventually repeats a configuration, so the
//! reactions fired infinitely often form a nonnegative T-invariant's support.
//! A reaction outside *every* T-semiflow support can fire at most finitely
//! often — the `C009` lint.
//!
//! The enumeration reuses the P-invariant machinery on the transposed
//! matrix: the left nullspace of `Nᵀ` is the right nullspace of `N`, so
//! [`nonnegative_t_semiflows`] is the double-description Farkas enumeration
//! of [`nonnegative_laws_capped`] on [`Stoichiometry::transposed`], with the
//! same [`FARKAS_ROW_CAP`] semantics: a run cut by the cap or by `i128`
//! overflow is sound but incomplete, and says so.  Every nonnegative
//! T-invariant is a nonnegative combination of the minimal T-semiflows, so
//! an untruncated, empty enumeration proves the CRN has no cycles: it is
//! the acyclicity certificate of [`CrnAnalysis`](super::CrnAnalysis).
//!
//! [`nonnegative_laws_capped`]: super::invariants::nonnegative_laws_capped
//! [`FARKAS_ROW_CAP`]: super::invariants::FARKAS_ROW_CAP

use super::invariants::nonnegative_laws_capped;
use super::stoichiometry::Stoichiometry;

/// An integer T-invariant: one firing count per reaction (in the CRN's
/// reaction order), kept primitive.  [`nonnegative_t_semiflows`], its only
/// source, yields T-semiflows, so every count is nonnegative.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TInvariant {
    firings: Vec<i128>,
}

impl TInvariant {
    /// The firing-count vector, indexed by reaction.
    #[must_use]
    pub fn firings(&self) -> &[i128] {
        &self.firings
    }

    /// The firing count of reaction `r` (zero past the vector's length).
    #[must_use]
    pub fn firing(&self, r: usize) -> i128 {
        self.firings.get(r).copied().unwrap_or(0)
    }

    /// The reaction indices with nonzero firing count, ascending.
    #[must_use]
    pub fn support(&self) -> Vec<usize> {
        (0..self.firings.len())
            .filter(|&r| self.firings[r] != 0)
            .collect()
    }
}

/// The result of a capped T-semiflow enumeration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TSemiflowEnumeration {
    /// The minimal-support nonnegative T-invariants found.
    pub semiflows: Vec<TInvariant>,
    /// Whether T-semiflows may be missing: the row cap cut a column short,
    /// or an overflowing combination was dropped.
    pub truncated: bool,
    /// Whether a combination overflowed `i128` (and was dropped).
    pub overflowed: bool,
}

/// Minimal-support nonnegative T-invariants (T-semiflows) by the capped
/// double-description Farkas enumeration on the transposed matrix.
#[must_use]
pub fn nonnegative_t_semiflows(stoich: &Stoichiometry, max_rows: usize) -> TSemiflowEnumeration {
    let enumeration = nonnegative_laws_capped(&stoich.transposed(), max_rows);
    TSemiflowEnumeration {
        semiflows: enumeration
            .laws
            .into_iter()
            .map(|law| TInvariant {
                firings: law.weights().to_vec(),
            })
            .collect(),
        truncated: enumeration.truncated,
        overflowed: enumeration.overflowed,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::FARKAS_ROW_CAP;
    use crate::compiled::CompiledCrn;
    use crate::crn::Crn;
    use crate::examples;

    fn stoich(crn: &Crn) -> Stoichiometry {
        Stoichiometry::of(&CompiledCrn::compile(crn))
    }

    /// `N·f = 0` must hold exactly for every returned invariant.
    fn assert_invariants_hold(invariants: &[TInvariant], n: &Stoichiometry) {
        for inv in invariants {
            for s in 0..n.stride() {
                let dot: i128 = (0..n.reaction_count())
                    .map(|r| inv.firing(r) * i128::from(n.entry(s, r)))
                    .sum();
                assert_eq!(
                    dot,
                    0,
                    "invariant {:?} broken at species {s}",
                    inv.firings()
                );
            }
        }
    }

    #[test]
    fn figure1_crns_have_no_cycles() {
        // min and max both make irreversible progress on every firing: no
        // T-semiflow exists, so no reaction sequence can restore a
        // configuration.
        for crn in [examples::min_crn(), examples::max_crn()] {
            let flows = nonnegative_t_semiflows(&stoich(crn.crn()), FARKAS_ROW_CAP);
            assert!(flows.semiflows.is_empty());
            assert!(!flows.truncated);
        }
    }

    #[test]
    fn a_two_cycle_is_the_minimal_t_semiflow() {
        let mut crn = Crn::new();
        crn.parse_reaction("X -> Y").unwrap();
        crn.parse_reaction("A -> B").unwrap();
        crn.parse_reaction("B -> A").unwrap();
        let n = stoich(&crn);
        let flows = nonnegative_t_semiflows(&n, FARKAS_ROW_CAP);
        assert_invariants_hold(&flows.semiflows, &n);
        assert!(!flows.truncated);
        assert_eq!(flows.semiflows.len(), 1);
        assert_eq!(flows.semiflows[0].firings(), &[0, 1, 1]);
        assert_eq!(flows.semiflows[0].support(), vec![1, 2]);
    }

    #[test]
    fn weighted_cycle_counts_firings_exactly() {
        // A -> 2B fans out, so B -> C must fire twice per loop before
        // 2C -> A closes it: the unique T-semiflow is (1, 2, 1).
        let mut crn = Crn::new();
        crn.parse_reaction("A -> 2B").unwrap();
        crn.parse_reaction("B -> C").unwrap();
        crn.parse_reaction("2C -> A").unwrap();
        let n = stoich(&crn);
        let flows = nonnegative_t_semiflows(&n, FARKAS_ROW_CAP).semiflows;
        assert_invariants_hold(&flows, &n);
        assert_eq!(flows.len(), 1);
        assert_eq!(flows[0].firings(), &[1, 2, 1]);
    }

    #[test]
    fn an_overflowing_t_semiflow_truncates_the_enumeration() {
        // The cycle closes only after E -> 0 fires 2^128 times per 0 -> A,
        // so its one T-semiflow does not fit i128.  Dropping it silently
        // would leave an empty enumeration, which falsely certifies the CRN
        // acyclic.
        let mut crn = Crn::new();
        for reaction in [
            "0 -> A",
            "A -> 4294967296B",
            "B -> 4294967296C",
            "C -> 4294967296D",
            "D -> 4294967296E",
            "E -> 0",
        ] {
            crn.parse_reaction(reaction).unwrap();
        }
        let flows = nonnegative_t_semiflows(&stoich(&crn), FARKAS_ROW_CAP);
        assert!(flows.semiflows.is_empty());
        assert!(flows.truncated);
        assert!(flows.overflowed);
    }

    #[test]
    fn reverse_pairs_give_one_semiflow_each() {
        let mut crn = Crn::new();
        crn.parse_reaction("A -> B").unwrap();
        crn.parse_reaction("B -> A").unwrap();
        crn.parse_reaction("C -> D").unwrap();
        crn.parse_reaction("D -> C").unwrap();
        let n = stoich(&crn);
        let flows = nonnegative_t_semiflows(&n, FARKAS_ROW_CAP).semiflows;
        assert_eq!(flows.len(), 2);
        let supports: Vec<Vec<usize>> = flows.iter().map(TInvariant::support).collect();
        assert!(supports.contains(&vec![0, 1]));
        assert!(supports.contains(&vec![2, 3]));
    }
}
