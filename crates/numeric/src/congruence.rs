//! Congruence classes in `Z^d / p Z^d`.
//!
//! Quilt-affine functions (Definition 5.1) attach a rational offset to each
//! congruence class `a ∈ Z^d/pZ^d`, and the Lemma 6.1 CRN construction keeps
//! one "auxiliary leader" species `L_a` per class.  This module provides the
//! class type and the full enumeration of the `p^d` classes.

use std::fmt;

use crate::vector::NVec;

/// A congruence class `x mod p` in the group `Z^d / p Z^d`.
///
/// ```
/// use crn_numeric::{CongruenceClass, NVec};
///
/// let a = CongruenceClass::of(&NVec::from(vec![7, 9]), 3);
/// assert_eq!(a.residues(), &[1, 0]);
/// let b = a.add_basis(1); // a + e_2 mod 3
/// assert_eq!(b.residues(), &[1, 1]);
/// ```
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CongruenceClass {
    residues: Vec<u64>,
    period: u64,
}

impl CongruenceClass {
    /// The congruence class of `x` modulo `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p == 0`.
    #[must_use]
    pub fn of(x: &NVec, p: u64) -> Self {
        assert!(p > 0, "period must be positive");
        CongruenceClass {
            residues: x.mod_p(p),
            period: p,
        }
    }

    /// Builds a class directly from residues; each residue is reduced mod `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p == 0`.
    #[must_use]
    pub fn from_residues(residues: Vec<u64>, p: u64) -> Self {
        assert!(p > 0, "period must be positive");
        CongruenceClass {
            residues: residues.into_iter().map(|r| r % p).collect(),
            period: p,
        }
    }

    /// The zero class `0 mod p` in dimension `dim`.
    #[must_use]
    pub fn zero(dim: usize, p: u64) -> Self {
        Self::from_residues(vec![0; dim], p)
    }

    /// The per-component residues of this class, each in `[0, p)`.
    #[must_use]
    pub fn residues(&self) -> &[u64] {
        &self.residues
    }

    /// The modulus `p`.
    #[must_use]
    pub fn period(&self) -> u64 {
        self.period
    }

    /// The dimension `d`.
    #[must_use]
    pub fn dim(&self) -> usize {
        self.residues.len()
    }

    /// The canonical representative of this class as a vector in `[0, p)^d`.
    #[must_use]
    pub fn representative(&self) -> NVec {
        NVec::from(self.residues.clone())
    }

    /// The class `a + e_i mod p` (used for finite differences `δ^i_a`).
    ///
    /// # Panics
    ///
    /// Panics if `i >= dim`.
    #[must_use]
    pub fn add_basis(&self, i: usize) -> Self {
        assert!(i < self.dim(), "component index out of range");
        let mut residues = self.residues.clone();
        residues[i] = (residues[i] + 1) % self.period;
        CongruenceClass {
            residues,
            period: self.period,
        }
    }

    /// The class `a + v mod p` for a nonnegative shift `v`.
    ///
    /// # Panics
    ///
    /// Panics if dimensions differ.
    #[must_use]
    pub fn add(&self, v: &NVec) -> Self {
        assert_eq!(self.dim(), v.dim(), "dimension mismatch");
        let residues = self
            .residues
            .iter()
            .zip(v.iter())
            .map(|(r, c)| (r + c % self.period) % self.period)
            .collect();
        CongruenceClass {
            residues,
            period: self.period,
        }
    }

    /// Whether `x` belongs to this congruence class.
    #[must_use]
    pub fn contains(&self, x: &NVec) -> bool {
        x.dim() == self.dim() && x.mod_p(self.period) == self.residues
    }

    /// Reinterprets this class modulo a larger period `p_star` that is a
    /// multiple of the current period, enumerating the sub-classes it splits
    /// into (used when the Lemma 7.16 strip extension enlarges the period).
    ///
    /// # Panics
    ///
    /// Panics if `p_star` is not a positive multiple of the current period.
    #[must_use]
    pub fn refine(&self, p_star: u64) -> Vec<CongruenceClass> {
        assert!(
            p_star > 0 && p_star % self.period == 0,
            "refined period must be a positive multiple of the current period"
        );
        let k = p_star / self.period;
        let mut out = Vec::new();
        for multiples in enumerate_tuples(self.dim(), k) {
            let residues = self
                .residues
                .iter()
                .zip(&multiples)
                .map(|(r, m)| r + m * self.period)
                .collect();
            out.push(CongruenceClass {
                residues,
                period: p_star,
            });
        }
        out
    }

    /// Enumerates all `p^d` congruence classes of `Z^d / p Z^d`.
    ///
    /// # Panics
    ///
    /// Panics if `p == 0`.
    #[must_use]
    pub fn enumerate_all(dim: usize, p: u64) -> Vec<CongruenceClass> {
        assert!(p > 0, "period must be positive");
        enumerate_tuples(dim, p)
            .into_iter()
            .map(|residues| CongruenceClass {
                residues,
                period: p,
            })
            .collect()
    }
}

impl fmt::Debug for CongruenceClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self}")
    }
}

impl fmt::Display for CongruenceClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{:?} mod {}]", self.residues, self.period)
    }
}

/// An iterator over all residue tuples in `[0, p)^d`; see
/// [`CongruenceClass::enumerate_all`].
#[derive(Debug, Clone)]
pub struct ResidueIter {
    current: Option<Vec<u64>>,
    period: u64,
}

impl ResidueIter {
    /// Creates an iterator over all residue tuples of dimension `dim` mod `p`.
    #[must_use]
    pub fn new(dim: usize, p: u64) -> Self {
        ResidueIter {
            current: if p == 0 { None } else { Some(vec![0; dim]) },
            period: p,
        }
    }
}

impl Iterator for ResidueIter {
    type Item = Vec<u64>;

    fn next(&mut self) -> Option<Vec<u64>> {
        let current = self.current.take()?;
        let mut next = current.clone();
        let mut i = next.len();
        loop {
            if i == 0 {
                self.current = None;
                break;
            }
            i -= 1;
            if next[i] + 1 < self.period {
                next[i] += 1;
                for c in next.iter_mut().skip(i + 1) {
                    *c = 0;
                }
                self.current = Some(next);
                break;
            }
        }
        Some(current)
    }
}

fn enumerate_tuples(dim: usize, p: u64) -> Vec<Vec<u64>> {
    ResidueIter::new(dim, p).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn class_of_vector() {
        let a = CongruenceClass::of(&NVec::from(vec![7, 9]), 3);
        assert_eq!(a.residues(), &[1, 0]);
        assert_eq!(a.period(), 3);
        assert!(a.contains(&NVec::from(vec![1, 3])));
        assert!(a.contains(&NVec::from(vec![10, 0])));
        assert!(!a.contains(&NVec::from(vec![2, 0])));
    }

    #[test]
    fn add_basis_wraps() {
        let a = CongruenceClass::from_residues(vec![2, 1], 3);
        assert_eq!(a.add_basis(0).residues(), &[0, 1]);
        assert_eq!(a.add_basis(1).residues(), &[2, 2]);
    }

    #[test]
    fn add_vector() {
        let a = CongruenceClass::from_residues(vec![1, 2], 3);
        let shifted = a.add(&NVec::from(vec![4, 1]));
        assert_eq!(shifted.residues(), &[2, 0]);
    }

    #[test]
    fn enumerate_all_classes() {
        let classes = CongruenceClass::enumerate_all(2, 3);
        assert_eq!(classes.len(), 9);
        let mut dedup = classes.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(dedup.len(), 9);
        assert!(classes.contains(&CongruenceClass::from_residues(vec![2, 2], 3)));
    }

    #[test]
    fn enumerate_dimension_zero() {
        // A single (empty) class: the base case of the recursive construction.
        assert_eq!(CongruenceClass::enumerate_all(0, 5).len(), 1);
    }

    #[test]
    fn period_one_is_trivial() {
        let classes = CongruenceClass::enumerate_all(3, 1);
        assert_eq!(classes.len(), 1);
        assert!(classes[0].contains(&NVec::from(vec![17, 0, 4])));
    }

    #[test]
    fn refine_splits_into_k_pow_d_classes() {
        let a = CongruenceClass::from_residues(vec![1, 0], 2);
        let refined = a.refine(6);
        assert_eq!(refined.len(), 9);
        // Every refined class is contained in the original one.
        for r in &refined {
            assert_eq!(r.period(), 6);
            let rep = r.representative();
            assert!(a.contains(&rep));
        }
    }

    #[test]
    #[should_panic(expected = "multiple")]
    fn refine_requires_multiple() {
        let _ = CongruenceClass::from_residues(vec![0], 2).refine(3);
    }

    #[test]
    fn representative_round_trip() {
        for class in CongruenceClass::enumerate_all(2, 4) {
            assert_eq!(CongruenceClass::of(&class.representative(), 4), class);
        }
    }
}
