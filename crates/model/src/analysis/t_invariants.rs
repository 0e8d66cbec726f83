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
//! Both computations reuse the P-invariant machinery on the transposed
//! matrix: the left nullspace of `Nᵀ` is the right nullspace of `N`, so
//! [`t_invariant_basis`] is [`conservation_basis`] on
//! [`Stoichiometry::transposed`] and [`nonnegative_t_semiflows`] is the same
//! double-description Farkas enumeration (sharing [`FARKAS_ROW_CAP`]
//! semantics: a run cut by the cap or by `i128` overflow is sound but
//! incomplete).  The basis reports overflow as `None` rather than as a
//! shorter (possibly empty) basis, because an empty basis is a proof that
//! the CRN has no cycles.
//!
//! [`conservation_basis`]: super::invariants::conservation_basis
//! [`FARKAS_ROW_CAP`]: super::invariants::FARKAS_ROW_CAP

use super::invariants::{checked_basis, nonnegative_laws_capped};
use super::stoichiometry::Stoichiometry;

/// An integer T-invariant: one signed firing count per reaction (in the
/// CRN's reaction order), kept primitive.
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

    /// Whether every firing count is nonnegative (a T-semiflow).
    #[must_use]
    pub fn is_nonnegative(&self) -> bool {
        self.firings.iter().all(|&c| c >= 0)
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

/// A basis of the signed right nullspace `{f : N·f = 0}` as primitive
/// integer vectors, by rational elimination on the transposed matrix, or
/// `None` when the elimination overflows `i128`.
///
/// Complete: every rational T-invariant is a combination of the returned
/// vectors, so an empty basis proves the CRN admits no reaction cycle that
/// restores a configuration (every firing makes irreversible progress).
#[must_use]
pub fn t_invariant_basis(stoich: &Stoichiometry) -> Option<Vec<TInvariant>> {
    let (laws, complete) = checked_basis(&stoich.transposed());
    complete.then(|| {
        laws.into_iter()
            .map(|law| TInvariant {
                firings: law.weights().to_vec(),
            })
            .collect()
    })
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
        // min and max both make irreversible progress on every firing: the
        // T-invariant space is trivial, so no reaction sequence can restore
        // a configuration.
        let min = stoich(examples::min_crn().crn());
        assert_eq!(t_invariant_basis(&min), Some(Vec::new()));
        let max = stoich(examples::max_crn().crn());
        assert_eq!(t_invariant_basis(&max), Some(Vec::new()));
        let flows = nonnegative_t_semiflows(&max, FARKAS_ROW_CAP);
        assert!(flows.semiflows.is_empty());
        assert!(!flows.truncated);
    }

    #[test]
    fn a_two_cycle_is_the_minimal_t_semiflow() {
        let mut crn = Crn::new();
        crn.parse_reaction("X -> Y").unwrap();
        crn.parse_reaction("A -> B").unwrap();
        crn.parse_reaction("B -> A").unwrap();
        let n = stoich(&crn);
        let basis = t_invariant_basis(&n).expect("small coefficients");
        assert_invariants_hold(&basis, &n);
        assert_eq!(basis.len(), 1);
        assert_eq!(basis[0].firings(), &[0, 1, 1]);
        let flows = nonnegative_t_semiflows(&n, FARKAS_ROW_CAP);
        assert!(!flows.truncated);
        assert_eq!(flows.semiflows.len(), 1);
        assert_eq!(flows.semiflows[0].support(), vec![1, 2]);
        assert!(flows.semiflows[0].is_nonnegative());
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
    fn an_overflowing_basis_is_none_not_empty() {
        // The cycle closes only after E -> 0 fires 2^128 times per 0 -> A,
        // so its one T-invariant does not fit i128.  Dropping it would leave
        // an empty basis, which falsely certifies the CRN acyclic.
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
        let n = stoich(&crn);
        assert_eq!(t_invariant_basis(&n), None);
        let flows = nonnegative_t_semiflows(&n, FARKAS_ROW_CAP);
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
