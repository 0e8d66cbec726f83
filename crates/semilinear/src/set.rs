//! Semilinear sets: finite Boolean combinations of threshold and mod sets.

use crn_numeric::NVec;

use crate::modset::ModSet;
use crate::threshold::ThresholdSet;

/// A semilinear subset of `N^d` (Definition 2.5): a finite Boolean combination
/// (union, intersection, complement) of [`ThresholdSet`]s and [`ModSet`]s.
///
/// ```
/// use crn_numeric::{NVec, ZVec};
/// use crn_semilinear::{SemilinearSet, ThresholdSet};
///
/// // The diagonal-ish band 0 <= x1 - x2 <= 1.
/// let band = SemilinearSet::threshold(ThresholdSet::new(ZVec::from(vec![1, -1]), 0))
///     .and(SemilinearSet::threshold(ThresholdSet::new(ZVec::from(vec![-1, 1]), -1)));
/// assert!(band.contains(&NVec::from(vec![4, 4])));
/// assert!(band.contains(&NVec::from(vec![5, 4])));
/// assert!(!band.contains(&NVec::from(vec![6, 4])));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SemilinearSet {
    /// The full set `N^d`.
    All {
        /// Ambient dimension.
        dim: usize,
    },
    /// The empty set.
    Empty {
        /// Ambient dimension.
        dim: usize,
    },
    /// A threshold set `{x : a·x ≥ b}`.
    Threshold(ThresholdSet),
    /// A mod set `{x : a·x ≡ b (mod c)}`.
    Mod(ModSet),
    /// Union of two semilinear sets.
    Union(Box<SemilinearSet>, Box<SemilinearSet>),
    /// Intersection of two semilinear sets.
    Intersection(Box<SemilinearSet>, Box<SemilinearSet>),
    /// Complement of a semilinear set (within `N^d`).
    Complement(Box<SemilinearSet>),
}

impl SemilinearSet {
    /// The full set `N^d`.
    #[must_use]
    pub fn all(dim: usize) -> Self {
        SemilinearSet::All { dim }
    }

    /// The empty subset of `N^d`.
    #[must_use]
    pub fn empty(dim: usize) -> Self {
        SemilinearSet::Empty { dim }
    }

    /// Wraps a threshold set.
    #[must_use]
    pub fn threshold(t: ThresholdSet) -> Self {
        SemilinearSet::Threshold(t)
    }

    /// Wraps a mod set.
    #[must_use]
    pub fn modular(m: ModSet) -> Self {
        SemilinearSet::Mod(m)
    }

    /// Intersection `self ∩ other`.
    #[must_use]
    pub fn and(self, other: SemilinearSet) -> Self {
        SemilinearSet::Intersection(Box::new(self), Box::new(other))
    }

    /// Union `self ∪ other`.
    #[must_use]
    pub fn or(self, other: SemilinearSet) -> Self {
        SemilinearSet::Union(Box::new(self), Box::new(other))
    }

    /// Complement `N^d ∖ self`.
    ///
    /// Named to read alongside [`Self::and`]/[`Self::or`]; `std::ops::Not`
    /// is deliberately not implemented since `!set` reads poorly for sets.
    #[allow(clippy::should_implement_trait)]
    #[must_use]
    pub fn not(self) -> Self {
        SemilinearSet::Complement(Box::new(self))
    }

    /// The ambient dimension `d`.
    #[must_use]
    pub fn dim(&self) -> usize {
        match self {
            SemilinearSet::All { dim } | SemilinearSet::Empty { dim } => *dim,
            SemilinearSet::Threshold(t) => t.dim(),
            SemilinearSet::Mod(m) => m.dim(),
            SemilinearSet::Union(a, _) | SemilinearSet::Intersection(a, _) => a.dim(),
            SemilinearSet::Complement(a) => a.dim(),
        }
    }

    /// Membership test.
    #[must_use]
    pub fn contains(&self, x: &NVec) -> bool {
        match self {
            SemilinearSet::All { .. } => true,
            SemilinearSet::Empty { .. } => false,
            SemilinearSet::Threshold(t) => t.contains(x),
            SemilinearSet::Mod(m) => m.contains(x),
            SemilinearSet::Union(a, b) => a.contains(x) || b.contains(x),
            SemilinearSet::Intersection(a, b) => a.contains(x) && b.contains(x),
            SemilinearSet::Complement(a) => !a.contains(x),
        }
    }

    /// Collects every threshold set appearing in the Boolean combination (the
    /// collection `T` of Section 7.2, whose boundary hyperplanes induce the
    /// region arrangement).
    #[must_use]
    pub fn collect_thresholds(&self) -> Vec<ThresholdSet> {
        let mut out = Vec::new();
        self.walk(&mut |set| {
            if let SemilinearSet::Threshold(t) = set {
                out.push(t.clone());
            }
        });
        out
    }

    /// Collects every mod set appearing in the Boolean combination (the
    /// collection `M` of Section 7.2; the global period is the lcm of their
    /// moduli).
    #[must_use]
    pub fn collect_mods(&self) -> Vec<ModSet> {
        let mut out = Vec::new();
        self.walk(&mut |set| {
            if let SemilinearSet::Mod(m) = set {
                out.push(m.clone());
            }
        });
        out
    }

    fn walk(&self, visit: &mut impl FnMut(&SemilinearSet)) {
        visit(self);
        match self {
            SemilinearSet::Union(a, b) | SemilinearSet::Intersection(a, b) => {
                a.walk(visit);
                b.walk(visit);
            }
            SemilinearSet::Complement(a) => a.walk(visit),
            _ => {}
        }
    }

    /// Substitutes `x(i) = j`, producing the semilinear subset of `N^{d−1}`
    /// obtained by fixing that coordinate.
    ///
    /// # Panics
    ///
    /// Panics if `i >= dim`.
    #[must_use]
    pub fn substitute(&self, i: usize, j: u64) -> SemilinearSet {
        match self {
            SemilinearSet::All { dim } => SemilinearSet::All { dim: dim - 1 },
            SemilinearSet::Empty { dim } => SemilinearSet::Empty { dim: dim - 1 },
            SemilinearSet::Threshold(t) => SemilinearSet::Threshold(t.substitute(i, j)),
            SemilinearSet::Mod(m) => SemilinearSet::Mod(m.substitute(i, j)),
            SemilinearSet::Union(a, b) => {
                SemilinearSet::Union(Box::new(a.substitute(i, j)), Box::new(b.substitute(i, j)))
            }
            SemilinearSet::Intersection(a, b) => SemilinearSet::Intersection(
                Box::new(a.substitute(i, j)),
                Box::new(b.substitute(i, j)),
            ),
            SemilinearSet::Complement(a) => SemilinearSet::Complement(Box::new(a.substitute(i, j))),
        }
    }

    /// Enumerates the members of the set within the box `[0, bound]^d`.
    #[must_use]
    pub fn members_in_box(&self, bound: u64) -> Vec<NVec> {
        NVec::box_iter(self.dim(), bound)
            .filter(|x| self.contains(x))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crn_numeric::ZVec;
    use proptest::prelude::*;

    fn le_set() -> SemilinearSet {
        // x1 <= x2
        SemilinearSet::threshold(ThresholdSet::new(ZVec::from(vec![-1, 1]), 0))
    }

    fn even_sum() -> SemilinearSet {
        SemilinearSet::modular(ModSet::new(ZVec::from(vec![1, 1]), 0, 2))
    }

    #[test]
    fn boolean_combinations() {
        let set = le_set().and(even_sum());
        assert!(set.contains(&NVec::from(vec![1, 3])));
        assert!(!set.contains(&NVec::from(vec![1, 2])));
        assert!(!set.contains(&NVec::from(vec![3, 1])));

        let union = le_set().or(even_sum());
        assert!(union.contains(&NVec::from(vec![3, 1]))); // even sum
        assert!(union.contains(&NVec::from(vec![1, 2]))); // x1 <= x2
        assert!(!union.contains(&NVec::from(vec![4, 1])));

        let complement = le_set().not();
        assert!(complement.contains(&NVec::from(vec![5, 2])));
        assert!(!complement.contains(&NVec::from(vec![2, 5])));
    }

    #[test]
    fn all_and_empty() {
        assert!(SemilinearSet::all(2).contains(&NVec::from(vec![7, 0])));
        assert!(!SemilinearSet::empty(2).contains(&NVec::from(vec![7, 0])));
        assert_eq!(SemilinearSet::all(2).dim(), 2);
    }

    #[test]
    fn collection_of_atoms() {
        let set = le_set().and(even_sum()).or(le_set().not());
        assert_eq!(set.collect_thresholds().len(), 2);
        assert_eq!(set.collect_mods().len(), 1);
    }

    #[test]
    fn substitution_reduces_dimension() {
        let set = le_set().and(even_sum());
        let restricted = set.substitute(0, 3); // x1 := 3
        assert_eq!(restricted.dim(), 1);
        // Need x2 >= 3 and 3 + x2 even, i.e. x2 odd and >= 3.
        assert!(restricted.contains(&NVec::from(vec![3])));
        assert!(restricted.contains(&NVec::from(vec![5])));
        assert!(!restricted.contains(&NVec::from(vec![4])));
        assert!(!restricted.contains(&NVec::from(vec![1])));
    }

    #[test]
    fn members_in_box_enumerates() {
        let diag = SemilinearSet::threshold(ThresholdSet::new(ZVec::from(vec![1, -1]), 0)).and(
            SemilinearSet::threshold(ThresholdSet::new(ZVec::from(vec![-1, 1]), 0)),
        );
        let members = diag.members_in_box(3);
        assert_eq!(members.len(), 4); // (0,0) … (3,3)
        assert!(members.iter().all(|x| x[0] == x[1]));
    }

    proptest! {
        #[test]
        fn de_morgan(x1 in 0u64..8, x2 in 0u64..8) {
            let x = NVec::from(vec![x1, x2]);
            let a = le_set();
            let b = even_sum();
            let lhs = a.clone().and(b.clone()).not();
            let rhs = a.not().or(b.not());
            prop_assert_eq!(lhs.contains(&x), rhs.contains(&x));
        }

        #[test]
        fn substitution_agrees_with_membership(x1 in 0u64..6, x2 in 0u64..6) {
            let set = le_set().or(even_sum()).not();
            let restricted = set.substitute(1, x2);
            prop_assert_eq!(
                restricted.contains(&NVec::from(vec![x1])),
                set.contains(&NVec::from(vec![x1, x2]))
            );
        }
    }
}
