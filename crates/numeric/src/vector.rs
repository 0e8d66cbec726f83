//! Integer and rational vectors indexed by input components `1..=d`.

use std::fmt;
use std::ops::{Add, Index, IndexMut, Sub};

use crate::rational::Rational;
use crate::wide::WideInt;

/// A vector in `N^d`: nonnegative integer counts, used for CRN inputs `x` and
/// thresholds `n`.
///
/// ```
/// use crn_numeric::NVec;
/// let x = NVec::from(vec![2, 5]);
/// let n = NVec::from(vec![3, 3]);
/// assert_eq!(x.join(&n), NVec::from(vec![3, 5]));       // x ∨ n
/// assert_eq!(x.saturating_sub(&n), NVec::from(vec![0, 2])); // (x − n)+
/// ```
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct NVec(Vec<u64>);

/// A vector in `Z^d`: signed integers, used for hyperplane normals and
/// difference vectors.
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct ZVec(Vec<i64>);

/// A vector in `Q^d`: rationals, used for gradients of quilt-affine functions.
#[derive(Clone, PartialEq, Eq, Hash, Default)]
pub struct QVec(Vec<Rational>);

impl NVec {
    /// The zero vector of dimension `dim`.
    #[must_use]
    pub fn zeros(dim: usize) -> Self {
        NVec(vec![0; dim])
    }

    /// A vector with every component equal to `value`.
    #[must_use]
    pub fn constant(dim: usize, value: u64) -> Self {
        NVec(vec![value; dim])
    }

    /// The `i`-th standard basis vector `e_i` (0-indexed) of dimension `dim`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= dim`.
    #[must_use]
    pub fn basis(dim: usize, i: usize) -> Self {
        assert!(i < dim, "basis index {i} out of range for dimension {dim}");
        let mut v = vec![0; dim];
        v[i] = 1;
        NVec(v)
    }

    /// The dimension `d`.
    #[must_use]
    pub fn dim(&self) -> usize {
        self.0.len()
    }

    /// Whether this is the all-zero vector.
    #[must_use]
    pub fn is_zero(&self) -> bool {
        self.0.iter().all(|&c| c == 0)
    }

    /// Iterator over the components.
    pub fn iter(&self) -> impl Iterator<Item = &u64> {
        self.0.iter()
    }

    /// A view of the components as a slice.
    #[must_use]
    pub fn as_slice(&self) -> &[u64] {
        &self.0
    }

    /// Pointwise `self ≤ other`.
    ///
    /// # Panics
    ///
    /// Panics if dimensions differ.
    #[must_use]
    pub fn le(&self, other: &NVec) -> bool {
        assert_eq!(self.dim(), other.dim(), "dimension mismatch");
        self.0.iter().zip(&other.0).all(|(a, b)| a <= b)
    }

    /// Pointwise `self ≥ other`.
    #[must_use]
    pub fn ge(&self, other: &NVec) -> bool {
        other.le(self)
    }

    /// Componentwise maximum `x ∨ n` (the join used in Lemma 6.2).
    #[must_use]
    pub fn join(&self, other: &NVec) -> NVec {
        assert_eq!(self.dim(), other.dim(), "dimension mismatch");
        NVec(
            self.0
                .iter()
                .zip(&other.0)
                .map(|(a, b)| *a.max(b))
                .collect(),
        )
    }

    /// Componentwise minimum `x ∧ n`.
    #[must_use]
    pub fn meet(&self, other: &NVec) -> NVec {
        assert_eq!(self.dim(), other.dim(), "dimension mismatch");
        NVec(
            self.0
                .iter()
                .zip(&other.0)
                .map(|(a, b)| *a.min(b))
                .collect(),
        )
    }

    /// Componentwise truncated subtraction `(self − other)+` (Lemma 6.2).
    #[must_use]
    pub fn saturating_sub(&self, other: &NVec) -> NVec {
        assert_eq!(self.dim(), other.dim(), "dimension mismatch");
        NVec(
            self.0
                .iter()
                .zip(&other.0)
                .map(|(a, b)| a.saturating_sub(*b))
                .collect(),
        )
    }

    /// Sum of all components (the "total input size" `‖x‖₁`).
    ///
    /// # Panics
    ///
    /// Panics if the sum exceeds `u64::MAX`.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.0
            .iter()
            .try_fold(0u64, |total, &c| total.checked_add(c))
            .expect("the component sum exceeds u64::MAX")
    }

    /// Residue of each component modulo `p`, giving the congruence class
    /// `x mod p ∈ Z^d/pZ^d`.
    ///
    /// # Panics
    ///
    /// Panics if `p == 0`.
    #[must_use]
    pub fn mod_p(&self, p: u64) -> Vec<u64> {
        assert!(p > 0, "period must be positive");
        self.0.iter().map(|&c| c % p).collect()
    }

    /// Returns a copy with component `i` replaced by `value` (the fixed-input
    /// restriction `x(i) → j` of Theorem 5.2).
    ///
    /// # Panics
    ///
    /// Panics if `i >= dim`.
    #[must_use]
    pub fn with_component(&self, i: usize, value: u64) -> NVec {
        assert!(i < self.dim(), "component index out of range");
        let mut v = self.0.clone();
        v[i] = value;
        NVec(v)
    }

    /// Removes component `i`, reducing the dimension by one.
    ///
    /// # Panics
    ///
    /// Panics if `i >= dim`.
    #[must_use]
    pub fn without_component(&self, i: usize) -> NVec {
        assert!(i < self.dim(), "component index out of range");
        let mut v = self.0.clone();
        v.remove(i);
        NVec(v)
    }

    /// Inserts `value` at position `i`, increasing the dimension by one.
    ///
    /// # Panics
    ///
    /// Panics if `i > dim`.
    #[must_use]
    pub fn with_inserted(&self, i: usize, value: u64) -> NVec {
        assert!(i <= self.dim(), "insertion index out of range");
        let mut v = self.0.clone();
        v.insert(i, value);
        NVec(v)
    }

    /// Steps `self` in place to the next point of the box `[0, bound]^d` in
    /// lexicographic order (the order of [`NVec::box_iter`]), or returns
    /// `false`, leaving the zero vector, when `self` was the box's last
    /// point.  A walk from [`NVec::zeros`] visits every point without
    /// allocating one vector per point.
    pub fn step_in_box(&mut self, bound: u64) -> bool {
        for c in self.0.iter_mut().rev() {
            if *c < bound {
                *c += 1;
                return true;
            }
            *c = 0;
        }
        false
    }

    /// Lazily iterates over the box `[0, bound]^d` (inclusive) in
    /// lexicographic order, one point at a time — `(bound + 1)^d` points
    /// without ever materializing them.
    #[must_use]
    pub fn box_iter(dim: usize, bound: u64) -> BoxIter {
        Self::box_iter_corners(&NVec::zeros(dim), &NVec::constant(dim, bound))
    }

    /// Lazily iterates over all integer vectors `lo ≤ x ≤ hi` (inclusive) in
    /// lexicographic order.
    ///
    /// # Panics
    ///
    /// Panics if dimensions differ or `lo !≤ hi` in some component.
    #[must_use]
    pub fn box_iter_corners(lo: &NVec, hi: &NVec) -> BoxIter {
        assert_eq!(lo.dim(), hi.dim(), "dimension mismatch");
        assert!(lo.le(hi), "lower corner must be ≤ upper corner");
        BoxIter {
            current: Some(lo.0.clone()),
            lo: lo.0.clone(),
            hi: hi.0.clone(),
        }
    }
}

/// Lazy lexicographic box enumeration, returned by [`NVec::box_iter`] and
/// [`NVec::box_iter_corners`].
#[derive(Debug, Clone)]
pub struct BoxIter {
    /// The next point to yield, or `None` once the odometer has wrapped.
    current: Option<Vec<u64>>,
    lo: Vec<u64>,
    hi: Vec<u64>,
}

impl Iterator for BoxIter {
    type Item = NVec;

    fn next(&mut self) -> Option<NVec> {
        let current = self.current.as_mut()?;
        let item = NVec(current.clone());
        // Advance like an odometer; exhaust once every digit is at `hi`.
        let mut i = self.lo.len();
        loop {
            if i == 0 {
                self.current = None;
                break;
            }
            i -= 1;
            if current[i] < self.hi[i] {
                current[i] += 1;
                // Reset trailing components to their lower bound.
                for (k, c) in current.iter_mut().enumerate().skip(i + 1) {
                    *c = self.lo[k];
                }
                break;
            }
        }
        Some(item)
    }
}

impl From<Vec<u64>> for NVec {
    fn from(value: Vec<u64>) -> Self {
        NVec(value)
    }
}

impl From<&[u64]> for NVec {
    fn from(value: &[u64]) -> Self {
        NVec(value.to_vec())
    }
}

impl Index<usize> for NVec {
    type Output = u64;
    fn index(&self, index: usize) -> &u64 {
        &self.0[index]
    }
}

impl IndexMut<usize> for NVec {
    fn index_mut(&mut self, index: usize) -> &mut u64 {
        &mut self.0[index]
    }
}

impl Add<&NVec> for &NVec {
    type Output = NVec;
    fn add(self, rhs: &NVec) -> NVec {
        assert_eq!(self.dim(), rhs.dim(), "dimension mismatch");
        NVec(self.0.iter().zip(&rhs.0).map(|(a, b)| a + b).collect())
    }
}

impl fmt::Debug for NVec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self}")
    }
}

impl fmt::Display for NVec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, c) in self.0.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{c}")?;
        }
        write!(f, ")")
    }
}

impl FromIterator<u64> for NVec {
    fn from_iter<T: IntoIterator<Item = u64>>(iter: T) -> Self {
        NVec(iter.into_iter().collect())
    }
}

impl ZVec {
    /// The zero vector of dimension `dim`.
    #[must_use]
    pub fn zeros(dim: usize) -> Self {
        ZVec(vec![0; dim])
    }

    /// The dimension `d`.
    #[must_use]
    pub fn dim(&self) -> usize {
        self.0.len()
    }

    /// Whether this is the all-zero vector.
    #[must_use]
    pub fn is_zero(&self) -> bool {
        self.0.iter().all(|&c| c == 0)
    }

    /// Iterator over the components.
    pub fn iter(&self) -> impl Iterator<Item = &i64> {
        self.0.iter()
    }

    /// A view of the components as a slice.
    #[must_use]
    pub fn as_slice(&self) -> &[i64] {
        &self.0
    }

    /// The exact dot product `self · x` with a vector of counts.
    ///
    /// Each count is read as the `u64` it is, so every `i64` coefficient
    /// times every count up to `u64::MAX` is exact (each product fits an
    /// `i128`), and so is their sum, past `i128` included: see
    /// [`WideInt`].  Nothing is allocated.
    ///
    /// # Panics
    ///
    /// Panics if dimensions differ.
    #[must_use]
    pub fn dot_n(&self, x: &NVec) -> WideInt {
        assert_eq!(self.dim(), x.dim(), "dimension mismatch");
        self.0
            .iter()
            .zip(x.iter())
            .fold(WideInt::ZERO, |sum, (&a, &c)| {
                sum + WideInt::from(i128::from(a) * i128::from(c))
            })
    }

    /// Converts to an `NVec` if all components are nonnegative.
    #[must_use]
    pub fn to_nvec(&self) -> Option<NVec> {
        if self.0.iter().all(|&c| c >= 0) {
            Some(NVec(self.0.iter().map(|&c| c as u64).collect()))
        } else {
            None
        }
    }

    /// Converts to a rational vector.
    #[must_use]
    pub fn to_qvec(&self) -> QVec {
        QVec(self.0.iter().map(|&c| Rational::from(c)).collect())
    }
}

impl From<Vec<i64>> for ZVec {
    fn from(value: Vec<i64>) -> Self {
        ZVec(value)
    }
}

impl Index<usize> for ZVec {
    type Output = i64;
    fn index(&self, index: usize) -> &i64 {
        &self.0[index]
    }
}

impl IndexMut<usize> for ZVec {
    fn index_mut(&mut self, index: usize) -> &mut i64 {
        &mut self.0[index]
    }
}

impl Add<&ZVec> for &ZVec {
    type Output = ZVec;
    fn add(self, rhs: &ZVec) -> ZVec {
        assert_eq!(self.dim(), rhs.dim(), "dimension mismatch");
        ZVec(self.0.iter().zip(&rhs.0).map(|(a, b)| a + b).collect())
    }
}

impl Sub<&ZVec> for &ZVec {
    type Output = ZVec;
    fn sub(self, rhs: &ZVec) -> ZVec {
        assert_eq!(self.dim(), rhs.dim(), "dimension mismatch");
        ZVec(self.0.iter().zip(&rhs.0).map(|(a, b)| a - b).collect())
    }
}

impl fmt::Debug for ZVec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self}")
    }
}

impl fmt::Display for ZVec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, c) in self.0.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{c}")?;
        }
        write!(f, ")")
    }
}

impl FromIterator<i64> for ZVec {
    fn from_iter<T: IntoIterator<Item = i64>>(iter: T) -> Self {
        ZVec(iter.into_iter().collect())
    }
}

impl QVec {
    /// The zero vector of dimension `dim`.
    #[must_use]
    pub fn zeros(dim: usize) -> Self {
        QVec(vec![Rational::ZERO; dim])
    }

    /// The dimension `d`.
    #[must_use]
    pub fn dim(&self) -> usize {
        self.0.len()
    }

    /// Iterator over the components.
    pub fn iter(&self) -> impl Iterator<Item = &Rational> {
        self.0.iter()
    }

    /// A view of the components as a slice.
    #[must_use]
    pub fn as_slice(&self) -> &[Rational] {
        &self.0
    }

    /// Whether every component is `>= 0` (required of quilt-affine gradients).
    #[must_use]
    pub fn is_nonnegative(&self) -> bool {
        self.0.iter().all(Rational::is_nonnegative)
    }

    /// Whether this is the all-zero vector.
    #[must_use]
    pub fn is_zero(&self) -> bool {
        self.0.iter().all(Rational::is_zero)
    }

    /// Rational dot product with another rational vector.
    ///
    /// # Panics
    ///
    /// Panics if dimensions differ.
    #[must_use]
    pub fn dot(&self, other: &QVec) -> Rational {
        assert_eq!(self.dim(), other.dim(), "dimension mismatch");
        self.0.iter().zip(&other.0).map(|(a, b)| *a * *b).sum()
    }

    /// Dot product with a nonnegative integer vector `∇g · x`.
    ///
    /// # Panics
    ///
    /// Panics if dimensions differ, or where
    /// [`checked_dot_n`](Self::checked_dot_n) overflows.
    #[must_use]
    pub fn dot_n(&self, x: &NVec) -> Rational {
        self.checked_dot_n(x)
            .unwrap_or_else(|| panic!("rational overflow: {self} · {x} does not fit i128"))
    }

    /// [`dot_n`](Self::dot_n), or `None` where a product or a partial sum
    /// does not fit `i128`.
    ///
    /// # Panics
    ///
    /// Panics if dimensions differ.
    #[must_use]
    pub fn checked_dot_n(&self, x: &NVec) -> Option<Rational> {
        assert_eq!(self.dim(), x.dim(), "dimension mismatch");
        self.0
            .iter()
            .zip(x.iter())
            .try_fold(Rational::ZERO, |sum, (a, &b)| {
                sum.checked_add(a.checked_mul(Rational::from(b))?)
            })
    }

    /// Dot product with a signed integer vector.
    #[must_use]
    pub fn dot_z(&self, x: &ZVec) -> Rational {
        assert_eq!(self.dim(), x.dim(), "dimension mismatch");
        self.0
            .iter()
            .zip(x.iter())
            .map(|(a, b)| *a * Rational::from(*b))
            .sum()
    }

    /// Componentwise sum of two rational vectors.
    #[must_use]
    pub fn add(&self, other: &QVec) -> QVec {
        assert_eq!(self.dim(), other.dim(), "dimension mismatch");
        QVec(self.0.iter().zip(&other.0).map(|(a, b)| *a + *b).collect())
    }

    /// Componentwise difference of two rational vectors.
    #[must_use]
    pub fn sub(&self, other: &QVec) -> QVec {
        assert_eq!(self.dim(), other.dim(), "dimension mismatch");
        QVec(self.0.iter().zip(&other.0).map(|(a, b)| *a - *b).collect())
    }

    /// Scales every component by `c`.
    #[must_use]
    pub fn scale(&self, c: Rational) -> QVec {
        QVec(self.0.iter().map(|a| *a * c).collect())
    }

    /// The average of a nonempty set of vectors (used for the strip extension
    /// in Lemma 7.16: `∇_avg = (1/m) Σ ∇_{g_i}`).
    ///
    /// # Panics
    ///
    /// Panics if `vectors` is empty or dimensions differ.
    #[must_use]
    pub fn average(vectors: &[QVec]) -> QVec {
        assert!(!vectors.is_empty(), "cannot average an empty set");
        let dim = vectors[0].dim();
        let mut acc = QVec::zeros(dim);
        for v in vectors {
            acc = acc.add(v);
        }
        acc.scale(Rational::new(1, vectors.len() as i128))
    }

    /// Least common multiple of all component denominators; scaling by this
    /// clears every denominator.
    #[must_use]
    pub fn denominator_lcm(&self) -> i128 {
        self.0
            .iter()
            .fold(1i128, |acc, r| crate::gcd::lcm_i128(acc, r.denom()))
    }
}

impl From<Vec<Rational>> for QVec {
    fn from(value: Vec<Rational>) -> Self {
        QVec(value)
    }
}

impl From<Vec<i64>> for QVec {
    fn from(value: Vec<i64>) -> Self {
        QVec(value.into_iter().map(Rational::from).collect())
    }
}

impl Index<usize> for QVec {
    type Output = Rational;
    fn index(&self, index: usize) -> &Rational {
        &self.0[index]
    }
}

impl IndexMut<usize> for QVec {
    fn index_mut(&mut self, index: usize) -> &mut Rational {
        &mut self.0[index]
    }
}

impl fmt::Debug for QVec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self}")
    }
}

impl fmt::Display for QVec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, c) in self.0.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{c}")?;
        }
        write!(f, ")")
    }
}

impl FromIterator<Rational> for QVec {
    fn from_iter<T: IntoIterator<Item = Rational>>(iter: T) -> Self {
        QVec(iter.into_iter().collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn nvec_order_and_lattice() {
        let a = NVec::from(vec![1, 4]);
        let b = NVec::from(vec![2, 4]);
        assert!(a.le(&b));
        assert!(!b.le(&a));
        assert!(b.ge(&a));
        assert_eq!(a.join(&b), b);
        assert_eq!(a.meet(&b), a);
        let c = NVec::from(vec![3, 1]);
        assert!(!a.le(&c) && !c.le(&a));
        assert_eq!(a.join(&c), NVec::from(vec![3, 4]));
        assert_eq!(a.meet(&c), NVec::from(vec![1, 1]));
    }

    #[test]
    fn nvec_saturating_sub_is_truncated_subtraction() {
        let x = NVec::from(vec![5, 1, 3]);
        let n = NVec::from(vec![2, 4, 3]);
        assert_eq!(x.saturating_sub(&n), NVec::from(vec![3, 0, 0]));
        // x ∨ n = (x − n)+ + n, the identity used in the Lemma 6.2 construction.
        assert_eq!(&x.saturating_sub(&n) + &n, x.join(&n));
    }

    #[test]
    fn nvec_mod_and_components() {
        let x = NVec::from(vec![7, 9]);
        assert_eq!(x.mod_p(3), vec![1, 0]);
        assert_eq!(x.with_component(1, 0), NVec::from(vec![7, 0]));
        assert_eq!(x.without_component(0), NVec::from(vec![9]));
        assert_eq!(x.with_inserted(1, 5), NVec::from(vec![7, 5, 9]));
        assert_eq!(x.total(), 16);
    }

    #[test]
    #[should_panic(expected = "the component sum exceeds u64::MAX")]
    fn total_refuses_a_sum_past_u64_max() {
        let _ = NVec::from(vec![u64::MAX, 1]).total();
    }

    #[test]
    fn nvec_basis() {
        assert_eq!(NVec::basis(3, 1), NVec::from(vec![0, 1, 0]));
    }

    #[test]
    fn enumerate_box_has_expected_size_and_membership() {
        let points: Vec<NVec> = NVec::box_iter(2, 3).collect();
        assert_eq!(points.len(), 16);
        assert!(points.contains(&NVec::from(vec![0, 0])));
        assert!(points.contains(&NVec::from(vec![3, 3])));
        assert!(points.contains(&NVec::from(vec![2, 1])));
        // All points are distinct.
        let mut sorted = points;
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), 16);
    }

    #[test]
    fn enumerate_box_corners() {
        let lo = NVec::from(vec![1, 2]);
        let hi = NVec::from(vec![2, 4]);
        let points: Vec<NVec> = NVec::box_iter_corners(&lo, &hi).collect();
        assert_eq!(points.len(), 6);
        assert!(points.iter().all(|p| p.ge(&lo) && hi.ge(p)));
    }

    #[test]
    fn enumerate_box_dimension_zero() {
        assert_eq!(NVec::box_iter(0, 5).count(), 1);
    }

    #[test]
    fn box_iter_matches_materialized_enumeration() {
        // The materialized reference: nested loops, last coordinate fastest.
        let mut nested = Vec::new();
        for a in 0..=2u64 {
            for b in 0..=3u64 {
                for c in 0..=1u64 {
                    nested.push(NVec::from(vec![a, b, c]));
                }
            }
        }
        let hi = NVec::from(vec![2, 3, 1]);
        let lazy: Vec<NVec> = NVec::box_iter_corners(&NVec::zeros(3), &hi).collect();
        assert_eq!(lazy, nested);
        let lo = NVec::from(vec![1, 2, 0]);
        let lazy: Vec<NVec> = NVec::box_iter_corners(&lo, &hi).collect();
        let expected: Vec<NVec> = nested.into_iter().filter(|p| p.ge(&lo)).collect();
        assert_eq!(lazy, expected);
        assert_eq!(NVec::box_iter(2, 3).count(), 16);
    }

    #[test]
    fn box_iter_is_lazy_and_lexicographic() {
        // Pulling three points from a box of a billion must be instant.
        let mut iter = NVec::box_iter(4, 177);
        assert_eq!(iter.next(), Some(NVec::from(vec![0, 0, 0, 0])));
        assert_eq!(iter.next(), Some(NVec::from(vec![0, 0, 0, 1])));
        assert_eq!(iter.next(), Some(NVec::from(vec![0, 0, 0, 2])));
    }

    #[test]
    fn zvec_dot() {
        let a = ZVec::from(vec![1, -1]);
        assert_eq!(a.dot_n(&NVec::from(vec![3, 5])), WideInt::from(-2i64));
        // Counts past i64::MAX with coefficients at the i64 extremes: a sum
        // past i128 on either side, read exactly.
        let max = NVec::from(vec![u64::MAX, u64::MAX]);
        let top = WideInt::product(i128::from(i64::MAX), u64::MAX);
        assert_eq!(ZVec::from(vec![i64::MAX, i64::MAX]).dot_n(&max), top + top);
        let bottom = WideInt::product(i128::from(i64::MIN), u64::MAX);
        assert_eq!(
            ZVec::from(vec![i64::MIN, i64::MIN]).dot_n(&max),
            bottom + bottom
        );
        assert!(bottom + bottom < WideInt::from(i128::MIN));
    }

    #[test]
    fn step_in_box_walks_the_box_in_place() {
        for (dim, bound) in [(0, 3), (1, 0), (1, 4), (3, 2)] {
            let mut x = NVec::zeros(dim);
            let mut walked = vec![x.clone()];
            while x.step_in_box(bound) {
                walked.push(x.clone());
            }
            assert_eq!(walked, NVec::box_iter(dim, bound).collect::<Vec<_>>());
            assert!(x.is_zero());
        }
        let mut last = NVec::constant(2, u64::MAX);
        assert!(!last.step_in_box(u64::MAX));
    }

    #[test]
    fn zvec_conversion() {
        assert_eq!(
            ZVec::from(vec![1, 2]).to_nvec(),
            Some(NVec::from(vec![1, 2]))
        );
        assert_eq!(ZVec::from(vec![1, -2]).to_nvec(), None);
    }

    #[test]
    fn qvec_dot_and_average() {
        // Gradients (1,0) and (0,1) from the max example; their average is (1/2, 1/2),
        // the gradient of ⌈(x1+x2)/2⌉ used as the strip extension in Fig 7d.
        let g1 = QVec::from(vec![1, 0]);
        let g2 = QVec::from(vec![0, 1]);
        let avg = QVec::average(&[g1.clone(), g2.clone()]);
        assert_eq!(
            avg,
            QVec::from(vec![Rational::new(1, 2), Rational::new(1, 2)])
        );
        let x = NVec::from(vec![3, 4]);
        assert_eq!(avg.dot_n(&x), Rational::new(7, 2));
        assert_eq!(g1.dot_n(&x), Rational::from(3));
        assert_eq!(g2.dot_n(&x), Rational::from(4));
    }

    #[test]
    fn qvec_denominator_lcm() {
        let v = QVec::from(vec![Rational::new(1, 2), Rational::new(2, 3)]);
        assert_eq!(v.denominator_lcm(), 6);
        assert_eq!(QVec::from(vec![1, 2]).denominator_lcm(), 1);
    }

    proptest! {
        #[test]
        fn join_is_upper_bound(a in proptest::collection::vec(0u64..50, 3), b in proptest::collection::vec(0u64..50, 3)) {
            let x = NVec::from(a);
            let y = NVec::from(b);
            let j = x.join(&y);
            prop_assert!(x.le(&j));
            prop_assert!(y.le(&j));
        }

        #[test]
        fn saturating_sub_plus_join_identity(a in proptest::collection::vec(0u64..50, 3), b in proptest::collection::vec(0u64..50, 3)) {
            let x = NVec::from(a);
            let n = NVec::from(b);
            prop_assert_eq!(&x.saturating_sub(&n) + &n, x.join(&n));
        }

        #[test]
        fn qvec_dot_linear_in_x(g in proptest::collection::vec(0i64..5, 2), a in proptest::collection::vec(0u64..20, 2), b in proptest::collection::vec(0u64..20, 2)) {
            let g = QVec::from(g);
            let x = NVec::from(a);
            let y = NVec::from(b);
            prop_assert_eq!(g.dot_n(&(&x + &y)), g.dot_n(&x) + g.dot_n(&y));
        }
    }
}
