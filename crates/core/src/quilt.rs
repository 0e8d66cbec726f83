//! Quilt-affine functions (Definition 5.1): `g(x) = ∇g·x + B(x mod p)`.

use std::collections::BTreeMap;

use crn_numeric::{CongruenceClass, NVec, QVec, Rational, WideInt};
use crn_semilinear::AffinePiece;

use crate::error::CoreError;

/// A quilt-affine function `g : N^d → Z`,
/// `g(x) = ∇g · x + B(x mod p)` with a nonnegative rational gradient `∇g`
/// and a periodic rational offset `B : Z^d/pZ^d → Q`, required to be
/// integer-valued and nondecreasing (Definition 5.1).
///
/// On the congruence class `a` the function is the affine map
/// `x ↦ ∇g·x + B(a)`, so it is held as one [`AffinePiece`] per class, the
/// piece a `fn` case lowers to.  A value is its piece's exact integer
/// ([`AffinePiece::exact`]), whatever its size: the piece is found from
/// `x mod p` by index arithmetic, and no `Rational` operation or allocation
/// is made per point.  The rationals are read only where the function is
/// built or printed.
///
/// ```
/// use crn_core::QuiltAffine;
/// use crn_numeric::{NVec, QVec, Rational};
///
/// // Figure 3a: floor(3x/2) = (3/2)x + B(x mod 2), B(0)=0, B(1)=-1/2.
/// let g = QuiltAffine::floor_linear(&QVec::from(vec![Rational::new(3, 2)]), 2);
/// assert_eq!(g.eval(&NVec::from(vec![4])).unwrap(), 6);
/// assert_eq!(g.eval(&NVec::from(vec![5])).unwrap(), 7);
/// assert!(g.is_nondecreasing());
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QuiltAffine {
    period: u64,
    /// The piece `x ↦ ∇g·x + B(a)` of each class `a`, in the order of
    /// [`CongruenceClass::enumerate_all`].
    pieces: Vec<AffinePiece>,
}

impl QuiltAffine {
    /// Builds a quilt-affine function from its gradient, period and offsets.
    ///
    /// Offsets must be supplied for **every** congruence class in
    /// `Z^d/pZ^d`; keys are canonical residue tuples in `[0, p)^d`.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidSpec`] if the gradient has a negative
    /// component or an offset is missing, [`CoreError::NotInteger`] if some
    /// value `∇·x + B(x)` would not be an integer, and
    /// [`CoreError::OutOfRange`] if a piece's integer form does not fit
    /// `i128` (see [`AffinePiece::new`]).
    pub fn new(
        gradient: &QVec,
        period: u64,
        offsets: &BTreeMap<Vec<u64>, Rational>,
    ) -> Result<Self, CoreError> {
        if period == 0 {
            return Err(CoreError::InvalidSpec("period must be positive".into()));
        }
        if !gradient.is_nonnegative() {
            return Err(CoreError::InvalidSpec(format!(
                "quilt-affine gradient must be nonnegative, got {gradient}"
            )));
        }
        let g = QuiltAffine::from_offsets(gradient, period, |class| {
            offsets.get(class.residues()).copied().ok_or_else(|| {
                CoreError::InvalidSpec(format!("missing offset for congruence class {class}"))
            })
        })?;
        // Every class must give an integer value on its canonical
        // representative and one step along each axis: then `p·∇g` is
        // integral, and so is the value on every point of the class.
        let dim = g.dim();
        for class in CongruenceClass::enumerate_all(dim, period) {
            let rep = class.representative();
            let steps = (0..dim).map(|i| &rep + &NVec::basis(dim, i));
            for x in std::iter::once(rep.clone()).chain(steps) {
                if g.piece(x.as_slice()).exact(&x).is_none() {
                    return Err(CoreError::NotInteger(format!("g({x}) is not an integer")));
                }
            }
        }
        Ok(g)
    }

    /// The function whose piece on each class `a` is
    /// `x ↦ gradient·x + offset(a)`, unchecked for integrality.
    fn from_offsets(
        gradient: &QVec,
        period: u64,
        mut offset: impl FnMut(&CongruenceClass) -> Result<Rational, CoreError>,
    ) -> Result<Self, CoreError> {
        let pieces = CongruenceClass::enumerate_all(gradient.dim(), period)
            .iter()
            .map(|class| {
                AffinePiece::new(gradient.clone(), offset(class)?).ok_or_else(|| {
                    CoreError::OutOfRange(format!("the piece on {class} does not fit i128"))
                })
            })
            .collect::<Result<_, _>>()?;
        Ok(QuiltAffine { period, pieces })
    }

    /// An ordinary affine function `x ↦ gradient·x + offset` viewed as
    /// quilt-affine with period 1.
    ///
    /// # Errors
    ///
    /// Returns an error if the gradient is negative somewhere or the values
    /// are not integers (the gradient must then be integral).
    pub fn affine(gradient: &QVec, offset: Rational) -> Result<Self, CoreError> {
        let dim = gradient.dim();
        let mut offsets = BTreeMap::new();
        offsets.insert(vec![0; dim], offset);
        QuiltAffine::new(gradient, 1, &offsets)
    }

    /// The floored linear function `x ↦ ⌊gradient·x⌋` with the given period
    /// (which must clear every gradient denominator).
    ///
    /// # Panics
    ///
    /// Panics if `period` does not clear the gradient's denominators or the
    /// gradient has a negative component.
    #[must_use]
    pub fn floor_linear(gradient: &QVec, period: u64) -> Self {
        let dim = gradient.dim();
        assert!(
            (Rational::from(period as i64) * Rational::new(1, gradient.denominator_lcm()))
                .is_integer(),
            "period must clear the gradient denominators"
        );
        let mut offsets = BTreeMap::new();
        for class in CongruenceClass::enumerate_all(dim, period) {
            let rep = class.representative();
            let linear = gradient.dot_n(&rep);
            offsets.insert(
                rep.as_slice().to_vec(),
                Rational::from(linear.floor()) - linear,
            );
        }
        QuiltAffine::new(gradient, period, &offsets).expect("floored linear is quilt-affine")
    }

    /// The constant function with period 1.
    #[must_use]
    pub fn constant(dim: usize, value: i64) -> Self {
        QuiltAffine::affine(&QVec::zeros(dim), Rational::from(value))
            .expect("constants are quilt-affine")
    }

    /// The input dimension `d`.
    #[must_use]
    pub fn dim(&self) -> usize {
        self.pieces[0].dim()
    }

    /// The period `p`.
    #[must_use]
    pub fn period(&self) -> u64 {
        self.period
    }

    /// The gradient `∇g`, which every piece shares.
    #[must_use]
    pub fn gradient(&self) -> &QVec {
        self.pieces[0].gradient()
    }

    /// The index of the class of `x` in the order of
    /// [`CongruenceClass::enumerate_all`], which runs the residues
    /// lexicographically: `Σ_i (x_i mod p) p^(d−1−i)`.  Every partial sum
    /// is below `p^d`, the number of pieces, so none overflows.
    pub(crate) fn class_index(&self, x: &[u64]) -> usize {
        let p = self.period;
        x.iter().fold(0, |index, &c| index * p + c % p) as usize
    }

    /// The piece of the class of `x`.
    fn piece(&self, x: &[u64]) -> &AffinePiece {
        &self.pieces[self.class_index(x)]
    }

    /// The periodic offset `B(x mod p)` of the class containing `x`.
    #[must_use]
    pub fn offset_of(&self, x: &NVec) -> Rational {
        self.piece(x.as_slice()).offset()
    }

    /// `g(x)`, exactly, whatever its size.
    pub(crate) fn exact(&self, x: &NVec) -> WideInt {
        self.piece(x.as_slice())
            .exact(x)
            .expect("a quilt-affine function is integer-valued")
    }

    /// Evaluates `g(x)` as an integer.
    ///
    /// # Errors
    ///
    /// [`CoreError::OutOfRange`] if the value does not fit `i128`.
    pub fn eval(&self, x: &NVec) -> Result<i128, CoreError> {
        self.exact(x)
            .to_i128()
            .ok_or_else(|| CoreError::OutOfRange(format!("g({x}) does not fit i128")))
    }

    /// The finite difference `δ^i_a = g(x + e_i) − g(x)` for any `x` in
    /// class `a`, exactly: `∇g·e_i + B(a + e_i) − B(a)` (Lemma 6.1).
    fn difference(&self, i: usize, class: &CongruenceClass) -> WideInt {
        assert!(i < self.dim(), "component index out of range");
        let rep = class.representative();
        self.exact(&(&rep + &NVec::basis(self.dim(), i))) + -self.exact(&rep)
    }

    /// The finite difference `δ^i_a` as an integer (see
    /// [`is_nondecreasing`](Self::is_nondecreasing) for its sign).
    ///
    /// # Errors
    ///
    /// [`CoreError::OutOfRange`] if the difference does not fit `i128`.
    pub fn finite_difference(&self, i: usize, class: &CongruenceClass) -> Result<i128, CoreError> {
        self.difference(i, class)
            .to_i128()
            .ok_or_else(|| CoreError::OutOfRange(format!("δ^{i} on {class} does not fit i128")))
    }

    /// Whether the function is nondecreasing, i.e. every finite difference
    /// `δ^i_a` is `≥ 0` (the defining requirement of Definition 5.1).  The
    /// differences are read exactly, whatever their size.
    #[must_use]
    pub fn is_nondecreasing(&self) -> bool {
        CongruenceClass::enumerate_all(self.dim(), self.period)
            .iter()
            .all(|class| (0..self.dim()).all(|i| !self.difference(i, class).is_negative()))
    }

    /// Whether `g(x) ≥ 0` for every `x ∈ N^d`.  For a nondecreasing
    /// quilt-affine function it suffices to check the box `[0, p)^d`.  The
    /// values are read exactly, whatever their size.
    #[must_use]
    pub fn is_nonnegative(&self) -> bool {
        CongruenceClass::enumerate_all(self.dim(), self.period)
            .iter()
            .all(|class| !self.exact(&class.representative()).is_negative())
    }

    /// The translate `x ↦ g(x + shift)`, still quilt-affine with the same
    /// gradient and period (used by Lemma 6.2 to turn `g_k` into the
    /// nonnegative `g_k(x + n)`): the piece of class `a` is that of
    /// `a + shift` with `∇g·shift` added to its offset.
    ///
    /// # Errors
    ///
    /// [`CoreError::OutOfRange`] where an offset leaves `i128`.
    pub fn translate(&self, shift: &NVec) -> Result<QuiltAffine, CoreError> {
        assert_eq!(shift.dim(), self.dim(), "dimension mismatch");
        let out_of_range = || CoreError::OutOfRange(format!("g(x + {shift}) does not fit i128"));
        let rise = self
            .gradient()
            .checked_dot_n(shift)
            .ok_or_else(out_of_range)?;
        QuiltAffine::from_offsets(self.gradient(), self.period, |class| {
            let offset = self.piece(class.add(shift).residues()).offset();
            offset.checked_add(rise).ok_or_else(out_of_range)
        })
    }

    /// Re-expresses the function with a period `p* = k·p` (a multiple of the
    /// current period); the function is unchanged: the piece of class
    /// `a mod p*` is that of `a mod p`.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidSpec`] if `p_star` is not a positive
    /// multiple of the current period.
    pub fn with_period(&self, p_star: u64) -> Result<QuiltAffine, CoreError> {
        if p_star == 0 || p_star % self.period != 0 {
            return Err(CoreError::InvalidSpec(format!(
                "{p_star} is not a multiple of the period {}",
                self.period
            )));
        }
        let pieces = CongruenceClass::enumerate_all(self.dim(), p_star)
            .iter()
            .map(|class| self.piece(class.residues()).clone())
            .collect();
        Ok(QuiltAffine {
            period: p_star,
            pieces,
        })
    }

    /// The fixed-input restriction `g[x(i) → j]` as a quilt-affine function of
    /// the remaining `d − 1` inputs: each piece is the one whose class holds
    /// `x(i) = j`, with `x(i) = j` substituted (see
    /// [`AffinePiece::substitute`]).
    ///
    /// # Errors
    ///
    /// [`CoreError::OutOfRange`] where a substituted offset leaves `i128`.
    pub fn restrict(&self, i: usize, j: u64) -> Result<QuiltAffine, CoreError> {
        assert!(i < self.dim(), "component index out of range");
        let pieces = CongruenceClass::enumerate_all(self.dim() - 1, self.period)
            .iter()
            .map(|class| {
                let full = class.representative().with_inserted(i, j);
                self.piece(full.as_slice()).substitute(i, j).ok_or_else(|| {
                    CoreError::OutOfRange(format!("g[x({i}) → {j}] on {class} does not fit i128"))
                })
            })
            .collect::<Result<_, _>>()?;
        Ok(QuiltAffine {
            period: self.period,
            pieces,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{EventuallyMin, ObliviousSpec};
    use proptest::prelude::*;
    use std::fmt;

    fn fig3b() -> QuiltAffine {
        // Figure 3b: g(x) = (1,2)·x + B(x mod 3) with B = 0 except
        // B = -1 on the classes {(1,2),(2,2),(2,1)} (a "dented quilt"; the
        // paper leaves B unspecified, any nondecreasing integer choice works).
        let mut offsets = BTreeMap::new();
        for class in CongruenceClass::enumerate_all(2, 3) {
            let rep = class.representative().as_slice().to_vec();
            let dented = [[1, 2], [2, 2], [2, 1]].iter().any(|d| rep == d.to_vec());
            offsets.insert(
                rep,
                if dented {
                    Rational::from(-1)
                } else {
                    Rational::ZERO
                },
            );
        }
        QuiltAffine::new(&QVec::from(vec![1, 2]), 3, &offsets).unwrap()
    }

    #[test]
    fn floor_three_halves_matches_closed_form() {
        let g = QuiltAffine::floor_linear(&QVec::from(vec![Rational::new(3, 2)]), 2);
        for x in 0..20u64 {
            assert_eq!(g.eval(&NVec::from(vec![x])).unwrap(), i128::from(3 * x / 2));
        }
        assert!(g.is_nondecreasing());
        assert!(g.is_nonnegative());
        assert_eq!(g.period(), 2);
        // Finite differences alternate 1, 2.
        let c0 = CongruenceClass::from_residues(vec![0], 2);
        let c1 = CongruenceClass::from_residues(vec![1], 2);
        assert_eq!(g.finite_difference(0, &c0).unwrap(), 1);
        assert_eq!(g.finite_difference(0, &c1).unwrap(), 2);
    }

    #[test]
    fn figure3b_example_is_quilt_affine_and_nondecreasing() {
        let g = fig3b();
        assert!(g.is_nondecreasing());
        assert!(g.is_nonnegative());
        assert_eq!(g.eval(&NVec::from(vec![0, 0])).unwrap(), 0);
        assert_eq!(g.eval(&NVec::from(vec![1, 2])).unwrap(), 1 + 4 - 1);
        assert_eq!(g.eval(&NVec::from(vec![4, 5])).unwrap(), 4 + 10 - 1);
        assert_eq!(g.eval(&NVec::from(vec![3, 3])).unwrap(), 9);
    }

    #[test]
    fn affine_constructor_and_constant() {
        let g = QuiltAffine::affine(&QVec::from(vec![2, 1]), Rational::from(3)).unwrap();
        assert_eq!(g.eval(&NVec::from(vec![1, 1])).unwrap(), 6);
        assert_eq!(g.period(), 1);
        let c = QuiltAffine::constant(2, 7);
        assert_eq!(c.eval(&NVec::from(vec![5, 0])).unwrap(), 7);
    }

    #[test]
    fn negative_gradient_rejected() {
        let err = QuiltAffine::affine(&QVec::from(vec![-1]), Rational::ZERO).unwrap_err();
        assert!(matches!(err, CoreError::InvalidSpec(_)));
    }

    #[test]
    fn non_integer_values_rejected() {
        // Gradient 1/2 with period 1 cannot be integer-valued.
        let err = QuiltAffine::affine(&QVec::from(vec![Rational::new(1, 2)]), Rational::ZERO)
            .unwrap_err();
        assert!(matches!(err, CoreError::NotInteger(_)));
    }

    #[test]
    fn missing_offset_rejected() {
        let err = QuiltAffine::new(&QVec::from(vec![1]), 2, &BTreeMap::new()).unwrap_err();
        assert!(matches!(
            err,
            CoreError::InvalidSpec(_) | CoreError::NotInteger(_)
        ));
    }

    #[test]
    fn translation_shifts_argument() {
        let g = QuiltAffine::floor_linear(&QVec::from(vec![Rational::new(3, 2)]), 2);
        let shifted = g.translate(&NVec::from(vec![3])).unwrap();
        for x in 0..10u64 {
            assert_eq!(
                shifted.eval(&NVec::from(vec![x])).unwrap(),
                g.eval(&NVec::from(vec![x + 3])).unwrap()
            );
        }
        assert_eq!(shifted.gradient(), g.gradient());
    }

    #[test]
    fn with_period_is_value_preserving() {
        let g = QuiltAffine::floor_linear(&QVec::from(vec![Rational::new(3, 2)]), 2);
        let refined = g.with_period(6).unwrap();
        assert_eq!(refined.period(), 6);
        for x in 0..15u64 {
            assert_eq!(
                refined.eval(&NVec::from(vec![x])).unwrap(),
                g.eval(&NVec::from(vec![x])).unwrap()
            );
        }
        assert!(g.with_period(5).is_err());
    }

    #[test]
    fn restriction_fixes_an_input() {
        let g = fig3b();
        let restricted = g.restrict(1, 4).unwrap();
        assert_eq!(restricted.dim(), 1);
        for x in 0..9u64 {
            assert_eq!(
                restricted.eval(&NVec::from(vec![x])).unwrap(),
                g.eval(&NVec::from(vec![x, 4])).unwrap()
            );
        }
    }

    #[test]
    fn ceil_average_is_quilt_affine() {
        // gU(x1, x2) = ceil((x1 + x2)/2), the Figure 7d strip extension:
        // gradient (1/2, 1/2), period 2, B = 0 on even-sum classes, +1/2 on
        // odd-sum classes.
        let mut offsets = BTreeMap::new();
        for class in CongruenceClass::enumerate_all(2, 2) {
            let rep = class.representative();
            let parity = (rep[0] + rep[1]) % 2;
            offsets.insert(
                rep.as_slice().to_vec(),
                if parity == 0 {
                    Rational::ZERO
                } else {
                    Rational::new(1, 2)
                },
            );
        }
        let g = QuiltAffine::new(
            &QVec::from(vec![Rational::new(1, 2), Rational::new(1, 2)]),
            2,
            &offsets,
        )
        .unwrap();
        assert!(g.is_nondecreasing());
        for x1 in 0..8u64 {
            for x2 in 0..8u64 {
                assert_eq!(
                    g.eval(&NVec::from(vec![x1, x2])).unwrap() as u64,
                    (x1 + x2).div_ceil(2)
                );
            }
        }
    }

    /// `x ↦ k·x`, the spec `min k x`.
    fn linear(k: u64) -> QuiltAffine {
        QuiltAffine::affine(&QVec::from(vec![Rational::from(k)]), Rational::ZERO).unwrap()
    }

    fn out_of_range<T: fmt::Debug>(result: Result<T, CoreError>) -> String {
        match result {
            Err(CoreError::OutOfRange(msg)) => msg,
            other => panic!("expected an out-of-range error, got {other:?}"),
        }
    }

    /// The spec `min g` on all of `N^d`.
    fn min_of(g: QuiltAffine) -> ObliviousSpec {
        let eventual = EventuallyMin::new(NVec::zeros(g.dim()), vec![g]).unwrap();
        ObliviousSpec::compound(eventual, BTreeMap::new()).unwrap()
    }

    #[test]
    fn a_difference_past_i64_is_no_decrease() {
        // `min 18446744073709551615 x` rises by u64::MAX per step.  Read
        // through an i64 evaluation, that step was an error, and the error
        // a decrease.
        let g = linear(u64::MAX);
        assert!(g.is_nondecreasing());
        assert!(g.is_nonnegative());
        let class = CongruenceClass::zero(1, 1);
        assert_eq!(g.finite_difference(0, &class), Ok(i128::from(u64::MAX)));
        // Lemma 6.1 cannot emit that many copies of Y in one reaction.
        assert_eq!(
            out_of_range(crate::synthesis::quilt_crn(&g)),
            "δ^0 on [[0] mod 1] = 18446744073709551615 is past i64::MAX"
        );
    }

    #[test]
    fn a_value_past_i64_is_out_of_range_not_a_fraction() {
        // `min 9223372036854775807 x` at 2 is 2^64 - 2: an integer, and a
        // value of the spec, as of the `fn` with the same case.
        let g = linear(i64::MAX as u64);
        let two = NVec::from(vec![2]);
        assert_eq!(g.eval(&two), Ok(i128::from(u64::MAX - 1)));
        let spec = min_of(g);
        let ObliviousSpec::Compound { eventual, .. } = &spec else {
            unreachable!("a compound spec");
        };
        assert_eq!(eventual.eval(&two).to_u64(), Some(u64::MAX - 1));
        assert_eq!(spec.eval(&two), Ok(u64::MAX - 1));
        // At 3 it is past u64::MAX, which names the point.
        assert_eq!(
            out_of_range(spec.eval(&NVec::from(vec![3]))),
            "f((3)) is past u64::MAX"
        );
    }

    #[test]
    fn a_product_past_i128_is_out_of_range_not_wrapped() {
        // (2^64 - 1)^2 wrapped in i128 to -36893488147419103231.
        let g = linear(u64::MAX);
        let max = NVec::from(vec![u64::MAX]);
        assert_eq!(
            out_of_range(g.eval(&max)),
            "g((18446744073709551615)) does not fit i128"
        );
        assert_eq!(
            out_of_range(min_of(g).eval(&max)),
            "f((18446744073709551615)) is past u64::MAX"
        );
    }

    #[test]
    fn a_translate_past_i128_is_out_of_range() {
        // g(x) = 2^62 x + B(x mod 2) with B(1) = -2^62 (2^64 - 1), so that
        // g(2^64 - 1) = 0, and B(0) = 2^126 + 2^62.  The shift by 2^64 - 1
        // swaps the classes and adds 2^62 (2^64 - 1) to each offset, which
        // takes B(0) past i128.  Shifting the representative 1 by it
        // overflowed a u64 count.
        let rise = (1i128 << 62) * i128::from(u64::MAX);
        let offsets = BTreeMap::from([
            (vec![0], Rational::from((1i128 << 126) + (1 << 62))),
            (vec![1], Rational::from(-rise)),
        ]);
        let g =
            QuiltAffine::new(&QVec::from(vec![Rational::from(1i128 << 62)]), 2, &offsets).unwrap();
        let max = NVec::from(vec![u64::MAX]);
        assert_eq!(g.eval(&max), Ok(0));
        assert_eq!(
            out_of_range(g.translate(&max)),
            "g(x + (18446744073709551615)) does not fit i128"
        );
    }

    /// A draw shaped towards the cases that matter: small values, values
    /// near the top of the range, and arbitrary ones.
    fn shaped(raw: u64, shape: u64) -> u64 {
        match shape {
            0 => raw % 8,
            1 => u64::MAX - raw % 8,
            2 => raw >> (raw % 64),
            _ => raw,
        }
    }

    /// The point of dimension `dim` drawn from `raw` and `shapes`.
    fn point(dim: usize, raw: &[u64], shapes: &[u64]) -> NVec {
        (0..dim).map(|k| shaped(raw[k], shapes[k])).collect()
    }

    proptest! {
        #[test]
        fn finite_differences_reconstruct_the_function(x in 0u64..12) {
            // g(x) = g(0) + sum of finite differences along the path 0 -> x.
            let g = QuiltAffine::floor_linear(&QVec::from(vec![Rational::new(5, 3)]), 3);
            let mut acc = g.eval(&NVec::from(vec![0])).unwrap();
            for step in 0..x {
                let class = CongruenceClass::of(&NVec::from(vec![step]), 3);
                acc += g.finite_difference(0, &class).unwrap();
            }
            prop_assert_eq!(acc, g.eval(&NVec::from(vec![x])).unwrap());
        }

        #[test]
        fn floor_linear_2d_matches_closed_form(x1 in 0u64..10, x2 in 0u64..10) {
            let g = QuiltAffine::floor_linear(
                &QVec::from(vec![Rational::new(1, 2), Rational::new(2, 3)]),
                6,
            );
            let expected = (3 * x1 + 4 * x2) / 6; // floor((x1/2 + 2x2/3))
            prop_assert_eq!(g.eval(&NVec::from(vec![x1, x2])).unwrap() as u64, expected);
        }
    }

    /// Whether `result` is the `expected` value, or an out-of-range error
    /// where there is none.
    fn agrees(result: &Result<i128, CoreError>, expected: Option<i128>) -> bool {
        match *result {
            Ok(value) => expected == Some(value),
            Err(CoreError::OutOfRange(_)) => expected.is_none(),
            Err(_) => false,
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// A function drawn from integer rises `c_i ≥ 0` and integer class
        /// values `V[a]` is `g(x) = V[x mod p] + Σ c_i ⌊x_i/p⌋`: gradient
        /// `c/p` and offsets `B(a) = V[a] − c·a/p`.  `eval` gives that value
        /// for coordinates up to `u64::MAX`, or refuses with it past
        /// `i128`; the translate, refinement and restriction agree with it
        /// at the mapped point, or are out of range, and never panic.
        #[test]
        fn pieces_match_the_class_values_and_rises(
            dim in 1usize..4,
            p in 1u64..5,
            rises in collection::vec(0i64..(1 << 62) + 1, 3),
            values in collection::vec(-(1i64 << 62)..(1 << 62) + 1, 64),
            raw in collection::vec(0u64..u64::MAX, 10),
            shapes in collection::vec(0u64..4, 10),
        ) {
            let classes = CongruenceClass::enumerate_all(dim, p);
            let value_of: BTreeMap<Vec<u64>, i128> = classes
                .iter()
                .zip(&values)
                .map(|(class, &v)| (class.residues().to_vec(), i128::from(v)))
                .collect();
            let gradient: QVec = rises[..dim]
                .iter()
                .map(|&c| Rational::new(i128::from(c), i128::from(p)))
                .collect();
            let offsets = value_of
                .iter()
                .map(|(a, &v)| {
                    let linear = gradient.dot_n(&NVec::from(a.clone()));
                    (a.clone(), Rational::from(v) - linear)
                })
                .collect();
            let g = QuiltAffine::new(&gradient, p, &offsets).unwrap();
            let reference = |x: &NVec| {
                x.iter()
                    .zip(&rises)
                    .fold(WideInt::from(value_of[&x.mod_p(p)]), |sum, (&c, &rise)| {
                        sum + WideInt::product(i128::from(rise), c / p)
                    })
                    .to_i128()
            };
            let x = point(dim, &raw[0..3], &shapes[0..3]);
            prop_assert!(agrees(&g.eval(&x), reference(&x)), "g({x})");

            let shift = point(dim, &raw[3..6], &shapes[3..6]);
            match g.translate(&shift) {
                Ok(translate) => {
                    let y = point(dim, &raw[6..9], &shapes[6..9]);
                    let moved: Option<NVec> =
                        y.iter().zip(shift.iter()).map(|(a, b)| a.checked_add(*b)).collect();
                    if let Some(moved) = moved {
                        prop_assert!(agrees(&translate.eval(&y), reference(&moved)), "{y} + {shift}");
                    }
                }
                Err(e) => prop_assert!(matches!(e, CoreError::OutOfRange(_)), "{e}"),
            }

            let refined = g.with_period(p * (1 + raw[9] % 3)).unwrap();
            prop_assert!(agrees(&refined.eval(&x), reference(&x)), "refined at {x}");

            let i = (raw[9] % dim as u64) as usize;
            let j = shaped(raw[6], shapes[6]);
            match g.restrict(i, j) {
                Ok(restricted) => {
                    let y = x.without_component(i);
                    let full = y.with_inserted(i, j);
                    prop_assert!(agrees(&restricted.eval(&y), reference(&full)), "{full}");
                }
                Err(e) => prop_assert!(matches!(e, CoreError::OutOfRange(_)), "{e}"),
            }
        }
    }
}
