//! Mod sets `{x ∈ N^d : a·x ≡ b (mod c)}` (Definition 2.5).

use crn_numeric::{NVec, WideInt, ZVec};

/// A mod set `{x ∈ N^d : a·x ≡ b (mod c)}` with `a ∈ Z^d`, `b ∈ Z`, `c ∈ N⁺`.
///
/// Mod sets give semilinear functions their periodic structure; the global
/// period `p` of the Section 7 decomposition is the lcm of all moduli `c`.
///
/// ```
/// use crn_numeric::{NVec, ZVec};
/// use crn_semilinear::ModSet;
///
/// // x is even.
/// let even = ModSet::new(ZVec::from(vec![1]), 0, 2);
/// assert!(even.contains(&NVec::from(vec![4])));
/// assert!(!even.contains(&NVec::from(vec![3])));
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ModSet {
    coefficients: ZVec,
    residue: i64,
    modulus: u64,
}

impl ModSet {
    /// The set `{x : coefficients·x ≡ residue (mod modulus)}`.
    ///
    /// # Panics
    ///
    /// Panics if `modulus == 0`.
    #[must_use]
    pub fn new(coefficients: ZVec, residue: i64, modulus: u64) -> Self {
        assert!(modulus > 0, "modulus must be positive");
        ModSet {
            coefficients,
            residue,
            modulus,
        }
    }

    /// The coefficient vector `a`.
    #[must_use]
    pub fn coefficients(&self) -> &ZVec {
        &self.coefficients
    }

    /// The residue `b`.
    #[must_use]
    pub fn residue(&self) -> i64 {
        self.residue
    }

    /// The modulus `c`.
    #[must_use]
    pub fn modulus(&self) -> u64 {
        self.modulus
    }

    /// The dimension `d`.
    #[must_use]
    pub fn dim(&self) -> usize {
        self.coefficients.dim()
    }

    /// Whether `x` satisfies `a·x ≡ b (mod c)`, exactly for every count.
    #[must_use]
    pub fn contains(&self, x: &NVec) -> bool {
        self.coefficients.dot_n(x).rem_euclid(self.modulus)
            == WideInt::from(self.residue).rem_euclid(self.modulus)
    }

    /// The set `{x : x(i) ≡ b (mod c)}`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= dim` or `modulus == 0`.
    #[must_use]
    pub fn component_congruent(dim: usize, i: usize, residue: i64, modulus: u64) -> Self {
        assert!(i < dim, "component index out of range");
        let mut coeffs = vec![0i64; dim];
        coeffs[i] = 1;
        ModSet::new(ZVec::from(coeffs), residue, modulus)
    }

    /// Substitutes `x(i) = j`, producing the mod set on the remaining `d − 1`
    /// coordinates.
    ///
    /// # Panics
    ///
    /// Panics if `i >= dim`.
    #[must_use]
    pub fn substitute(&self, i: usize, j: u64) -> ModSet {
        assert!(i < self.dim(), "component index out of range");
        let coeff = self.coefficients[i];
        let remaining: Vec<i64> = self
            .coefficients
            .iter()
            .enumerate()
            .filter(|&(k, _)| k != i)
            .map(|(_, &c)| c)
            .collect();
        let shifted = i128::from(self.residue) - i128::from(coeff) * i128::from(j);
        let reduced = shifted.rem_euclid(i128::from(self.modulus));
        ModSet::new(
            ZVec::from(remaining),
            i64::try_from(reduced).expect("residue fits"),
            self.modulus,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn membership_matches_congruence() {
        // x1 + x2 ≡ 1 (mod 3)
        let m = ModSet::new(ZVec::from(vec![1, 1]), 1, 3);
        assert!(m.contains(&NVec::from(vec![0, 1])));
        assert!(m.contains(&NVec::from(vec![2, 2])));
        assert!(!m.contains(&NVec::from(vec![1, 1])));
        assert_eq!(m.modulus(), 3);
        assert_eq!(m.residue(), 1);
        assert_eq!(m.dim(), 2);
    }

    #[test]
    fn negative_coefficients_use_euclidean_remainder() {
        // -x ≡ 1 (mod 3) holds for x = 2, 5, 8, ...
        let m = ModSet::new(ZVec::from(vec![-1]), 1, 3);
        assert!(m.contains(&NVec::from(vec![2])));
        assert!(m.contains(&NVec::from(vec![5])));
        assert!(!m.contains(&NVec::from(vec![1])));
    }

    #[test]
    fn counts_past_i64_max_are_counts() {
        // u64::MAX = 3 · 6148914691236517205, which a cast to i64 read as -1.
        let multiple_of_three = ModSet::component_congruent(1, 0, 0, 3);
        assert!(multiple_of_three.contains(&NVec::from(vec![u64::MAX])));
        assert!(!multiple_of_three.contains(&NVec::from(vec![u64::MAX - 1])));
    }

    #[test]
    #[should_panic(expected = "modulus must be positive")]
    fn zero_modulus_panics() {
        let _ = ModSet::new(ZVec::from(vec![1]), 0, 0);
    }

    #[test]
    fn component_constructor_and_substitution() {
        let parity = ModSet::component_congruent(2, 0, 1, 2);
        assert!(parity.contains(&NVec::from(vec![3, 0])));
        assert!(!parity.contains(&NVec::from(vec![2, 1])));
        // Substitute x1 := 3 into "x1 odd": always true on the remaining coordinate.
        let restricted = parity.substitute(0, 3);
        assert!(restricted.contains(&NVec::from(vec![7])));
        assert!(restricted.contains(&NVec::from(vec![0])));
    }

    proptest! {
        #[test]
        fn substitution_agrees_with_direct_membership(
            a1 in -3i64..4, a2 in -3i64..4, b in -5i64..6, c in 1u64..5, j in 0u64..5, x in 0u64..8
        ) {
            let m = ModSet::new(ZVec::from(vec![a1, a2]), b, c);
            let restricted = m.substitute(0, j);
            let direct = m.contains(&NVec::from(vec![j, x]));
            prop_assert_eq!(restricted.contains(&NVec::from(vec![x])), direct);
        }
    }
}
