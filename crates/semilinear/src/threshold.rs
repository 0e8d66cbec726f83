//! Threshold sets `{x ∈ N^d : a·x ≥ b}` (Definition 2.5).

use crn_numeric::{NVec, WideInt, ZVec};

/// A threshold set `{x ∈ N^d : a·x ≥ b}` with `a ∈ Z^d`, `b ∈ Z`.
///
/// Threshold sets are the half-space building blocks of semilinear sets; the
/// domain-decomposition machinery of Section 7 turns their boundary
/// hyperplanes into the region arrangement.
///
/// ```
/// use crn_numeric::{NVec, ZVec};
/// use crn_semilinear::ThresholdSet;
///
/// // x1 <= x2, written as (-1, 1)·x >= 0.
/// let le = ThresholdSet::new(ZVec::from(vec![-1, 1]), 0);
/// assert!(le.contains(&NVec::from(vec![2, 5])));
/// assert!(!le.contains(&NVec::from(vec![5, 2])));
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ThresholdSet {
    normal: ZVec,
    offset: i64,
}

impl ThresholdSet {
    /// The set `{x : normal·x ≥ offset}`.
    #[must_use]
    pub fn new(normal: ZVec, offset: i64) -> Self {
        ThresholdSet { normal, offset }
    }

    /// The coefficient vector `a`.
    #[must_use]
    pub fn normal(&self) -> &ZVec {
        &self.normal
    }

    /// The threshold `b`.
    #[must_use]
    pub fn offset(&self) -> i64 {
        self.offset
    }

    /// The dimension `d`.
    #[must_use]
    pub fn dim(&self) -> usize {
        self.normal.dim()
    }

    /// Whether `x` satisfies `a·x ≥ b`, exactly for every count.
    #[must_use]
    pub fn contains(&self, x: &NVec) -> bool {
        self.normal.dot_n(x) >= WideInt::from(self.offset)
    }

    /// The set `{x : x(i) ≥ b}` ("component `i` at least `b`").
    ///
    /// # Panics
    ///
    /// Panics if `i >= dim`.
    #[must_use]
    pub fn component_at_least(dim: usize, i: usize, b: i64) -> Self {
        assert!(i < dim, "component index out of range");
        let mut coeffs = vec![0i64; dim];
        coeffs[i] = 1;
        ThresholdSet::new(ZVec::from(coeffs), b)
    }

    /// The set `{x : x(i) ≤ b}`, i.e. `−x(i) ≥ −b`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= dim`.
    #[must_use]
    pub fn component_at_most(dim: usize, i: usize, b: i64) -> Self {
        assert!(i < dim, "component index out of range");
        let mut coeffs = vec![0i64; dim];
        coeffs[i] = -1;
        ThresholdSet::new(ZVec::from(coeffs), -b)
    }

    /// Substitutes `x(i) = j`, producing the threshold set on the remaining
    /// `d − 1` coordinates (used by fixed-input restriction).
    ///
    /// # Panics
    ///
    /// Panics if `i >= dim`.
    #[must_use]
    pub fn substitute(&self, i: usize, j: u64) -> ThresholdSet {
        assert!(i < self.dim(), "component index out of range");
        let coeff = self.normal[i];
        let remaining: Vec<i64> = self
            .normal
            .iter()
            .enumerate()
            .filter(|&(k, _)| k != i)
            .map(|(_, &c)| c)
            .collect();
        let shifted = i128::from(self.offset) - i128::from(coeff) * i128::from(j);
        ThresholdSet::new(
            ZVec::from(remaining),
            i64::try_from(shifted).expect("threshold offset overflow"),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn membership_matches_inequality() {
        // x1 + 2 x2 >= 5
        let t = ThresholdSet::new(ZVec::from(vec![1, 2]), 5);
        assert!(t.contains(&NVec::from(vec![5, 0])));
        assert!(t.contains(&NVec::from(vec![1, 2])));
        assert!(!t.contains(&NVec::from(vec![2, 1])));
        assert_eq!(t.dim(), 2);
        assert_eq!(t.offset(), 5);
    }

    #[test]
    fn component_constructors() {
        let ge = ThresholdSet::component_at_least(3, 1, 4);
        assert!(ge.contains(&NVec::from(vec![0, 4, 0])));
        assert!(!ge.contains(&NVec::from(vec![9, 3, 9])));
        let le = ThresholdSet::component_at_most(3, 2, 2);
        assert!(le.contains(&NVec::from(vec![7, 7, 2])));
        assert!(!le.contains(&NVec::from(vec![0, 0, 3])));
    }

    #[test]
    fn substitution_fixes_a_coordinate() {
        // x1 - x2 >= 1 with x2 := 3 becomes x1 >= 4.
        let t = ThresholdSet::new(ZVec::from(vec![1, -1]), 1);
        let restricted = t.substitute(1, 3);
        assert_eq!(restricted.dim(), 1);
        assert!(restricted.contains(&NVec::from(vec![4])));
        assert!(!restricted.contains(&NVec::from(vec![3])));
    }

    #[test]
    fn counts_past_i64_max_are_counts() {
        // x >= 0 holds at u64::MAX, which a cast to i64 read as -1.
        let nonnegative = ThresholdSet::component_at_least(1, 0, 0);
        assert!(nonnegative.contains(&NVec::from(vec![u64::MAX])));
        // (2^63 - 1)(x1 + x2) at x1 = x2 = u64::MAX is a sum past i128.
        let wide = ThresholdSet::new(ZVec::from(vec![i64::MAX, i64::MAX]), 0);
        assert!(wide.contains(&NVec::from(vec![u64::MAX, u64::MAX])));
        let negated = ThresholdSet::new(ZVec::from(vec![i64::MIN, i64::MIN]), i64::MIN);
        assert!(!negated.contains(&NVec::from(vec![u64::MAX, u64::MAX])));
    }

    proptest! {
        #[test]
        fn substitution_agrees_with_direct_membership(
            a1 in -3i64..4, a2 in -3i64..4, b in -5i64..6, j in 0u64..5, x in 0u64..8
        ) {
            let t = ThresholdSet::new(ZVec::from(vec![a1, a2]), b);
            let restricted = t.substitute(1, j);
            let direct = t.contains(&NVec::from(vec![x, j]));
            prop_assert_eq!(restricted.contains(&NVec::from(vec![x])), direct);
        }
    }
}
