//! Quilt-affine functions (Definition 5.1): `g(x) = ∇g·x + B(x mod p)`.

use std::collections::BTreeMap;
use std::fmt;

use crn_numeric::{CongruenceClass, NVec, QVec, Rational};

use crate::error::CoreError;

/// A quilt-affine function `g : N^d → Z`,
/// `g(x) = ∇g · x + B(x mod p)` with a nonnegative rational gradient `∇g`
/// and a periodic rational offset `B : Z^d/pZ^d → Q`, required to be
/// integer-valued and nondecreasing (Definition 5.1).
///
/// ```
/// use crn_core::QuiltAffine;
/// use crn_numeric::{NVec, QVec, Rational};
///
/// // Figure 3a: floor(3x/2) = (3/2)x + B(x mod 2), B(0)=0, B(1)=-1/2.
/// let g = QuiltAffine::floor_linear(QVec::from(vec![Rational::new(3, 2)]), 2);
/// assert_eq!(g.eval(&NVec::from(vec![4])).unwrap(), 6);
/// assert_eq!(g.eval(&NVec::from(vec![5])).unwrap(), 7);
/// assert_eq!(g.is_nondecreasing(), Ok(true));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QuiltAffine {
    dim: usize,
    period: u64,
    gradient: QVec,
    /// Offset per congruence-class representative (each residue in `[0, p)`).
    offsets: BTreeMap<Vec<u64>, Rational>,
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
    /// [`CoreError::OutOfRange`] if one it checks does not fit `i128`.
    pub fn new(
        gradient: QVec,
        period: u64,
        offsets: BTreeMap<Vec<u64>, Rational>,
    ) -> Result<Self, CoreError> {
        let dim = gradient.dim();
        if period == 0 {
            return Err(CoreError::InvalidSpec("period must be positive".into()));
        }
        if !gradient.is_nonnegative() {
            return Err(CoreError::InvalidSpec(format!(
                "quilt-affine gradient must be nonnegative, got {gradient}"
            )));
        }
        let g = QuiltAffine {
            dim,
            period,
            gradient,
            offsets,
        };
        // Every class must be present and give an integer value on its
        // canonical representative (hence, by periodicity of the congruence
        // class and rationality of the gradient, on every point).
        for class in CongruenceClass::enumerate_all(dim, period) {
            let rep = class.representative();
            let value = g.value(&rep)?;
            if g.offset_of(&rep).is_none() {
                return Err(CoreError::InvalidSpec(format!(
                    "missing offset for congruence class {class}"
                )));
            }
            if !value.is_integer() {
                return Err(CoreError::NotInteger(format!(
                    "g({rep}) = {value} is not an integer"
                )));
            }
            // Integrality must persist along each axis within the period.
            for i in 0..dim {
                let shifted = &rep + &NVec::basis(dim, i);
                if !g.value(&shifted)?.is_integer() {
                    return Err(CoreError::NotInteger(format!(
                        "g({shifted}) is not an integer"
                    )));
                }
            }
        }
        Ok(g)
    }

    /// An ordinary affine function `x ↦ gradient·x + offset` viewed as
    /// quilt-affine with period 1.
    ///
    /// # Errors
    ///
    /// Returns an error if the gradient is negative somewhere or the values
    /// are not integers (the gradient must then be integral).
    pub fn affine(gradient: QVec, offset: Rational) -> Result<Self, CoreError> {
        let dim = gradient.dim();
        let mut offsets = BTreeMap::new();
        offsets.insert(vec![0; dim], offset);
        QuiltAffine::new(gradient, 1, offsets)
    }

    /// The floored linear function `x ↦ ⌊gradient·x⌋` with the given period
    /// (which must clear every gradient denominator).
    ///
    /// # Panics
    ///
    /// Panics if `period` does not clear the gradient's denominators or the
    /// gradient has a negative component.
    #[must_use]
    pub fn floor_linear(gradient: QVec, period: u64) -> Self {
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
        QuiltAffine::new(gradient, period, offsets).expect("floored linear is quilt-affine")
    }

    /// The constant function with period 1.
    #[must_use]
    pub fn constant(dim: usize, value: i64) -> Self {
        QuiltAffine::affine(QVec::zeros(dim), Rational::from(value))
            .expect("constants are quilt-affine")
    }

    /// The input dimension `d`.
    #[must_use]
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// The period `p`.
    #[must_use]
    pub fn period(&self) -> u64 {
        self.period
    }

    /// The gradient `∇g`.
    #[must_use]
    pub fn gradient(&self) -> &QVec {
        &self.gradient
    }

    /// The periodic offset of the class containing `x`.
    #[must_use]
    pub fn offset_of(&self, x: &NVec) -> Option<Rational> {
        self.offsets.get(&x.mod_p(self.period)).copied()
    }

    /// `g(x) = ∇g·x + B(x mod p)`, exactly.
    ///
    /// # Errors
    ///
    /// [`CoreError::OutOfRange`] where a product or sum does not fit `i128`.
    fn value(&self, x: &NVec) -> Result<Rational, CoreError> {
        let offset = self.offset_of(x).unwrap_or(Rational::ZERO);
        self.gradient
            .checked_dot_n(x)
            .and_then(|linear| linear.checked_add(offset))
            .ok_or_else(|| CoreError::OutOfRange(format!("g({x}) does not fit i128")))
    }

    /// `value` as an `i64`, where `what` names it.
    fn to_i64(what: impl fmt::Display, value: Rational) -> Result<i64, CoreError> {
        let integer = value
            .to_integer()
            .ok_or_else(|| CoreError::NotInteger(format!("{what} = {value}")))?;
        i64::try_from(integer).map_err(|_| {
            let edge = if integer > 0 { "MAX" } else { "MIN" };
            CoreError::OutOfRange(format!("{what} = {integer} is past i64::{edge}"))
        })
    }

    /// Evaluates `g(x)` as an integer.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::NotInteger`] if the value is not an integer (this
    /// indicates a malformed offset table, which [`QuiltAffine::new`]
    /// rejects), and [`CoreError::OutOfRange`] if it, or a product or sum on
    /// the way, does not fit `i64`.
    pub fn eval(&self, x: &NVec) -> Result<i64, CoreError> {
        Self::to_i64(format_args!("g({x})"), self.value(x)?)
    }

    /// The finite difference `δ^i_a = ∇g·e_i + B(a + e_i) − B(a)`, exactly:
    /// `g(x + e_i) − g(x)` for any `x` in class `a` (Lemma 6.1).
    ///
    /// # Errors
    ///
    /// [`CoreError::OutOfRange`] where the sum does not fit `i128`.
    fn difference(&self, i: usize, class: &CongruenceClass) -> Result<Rational, CoreError> {
        assert!(i < self.dim, "component index out of range");
        let rep = class.representative();
        let offset = |x: &NVec| self.offset_of(x).unwrap_or(Rational::ZERO);
        self.gradient[i]
            .checked_add(offset(&(&rep + &NVec::basis(self.dim, i))))
            .and_then(|d| d.checked_sub(offset(&rep)))
            .ok_or_else(|| CoreError::OutOfRange(format!("δ^{i} on {class} does not fit i128")))
    }

    /// The finite difference `δ^i_a` as an integer (see
    /// [`is_nondecreasing`](Self::is_nondecreasing) for its sign).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::NotInteger`] if the difference is not an
    /// integer, and [`CoreError::OutOfRange`] if it does not fit `i64`.
    pub fn finite_difference(&self, i: usize, class: &CongruenceClass) -> Result<i64, CoreError> {
        Self::to_i64(format_args!("δ^{i} on {class}"), self.difference(i, class)?)
    }

    /// Whether the function is nondecreasing, i.e. every finite difference
    /// `δ^i_a` is `≥ 0` (the defining requirement of Definition 5.1).  The
    /// differences are read exactly, whatever their size.
    ///
    /// # Errors
    ///
    /// [`CoreError::OutOfRange`] where a difference does not fit `i128`.
    pub fn is_nondecreasing(&self) -> Result<bool, CoreError> {
        for class in CongruenceClass::enumerate_all(self.dim, self.period) {
            for i in 0..self.dim {
                if self.difference(i, &class)?.is_negative() {
                    return Ok(false);
                }
            }
        }
        Ok(true)
    }

    /// Whether `g(x) ≥ 0` for every `x ∈ N^d`.  For a nondecreasing
    /// quilt-affine function it suffices to check the box `[0, p)^d`.  The
    /// values are read exactly, whatever their size.
    ///
    /// # Errors
    ///
    /// [`CoreError::OutOfRange`] where a value does not fit `i128`.
    pub fn is_nonnegative(&self) -> Result<bool, CoreError> {
        for class in CongruenceClass::enumerate_all(self.dim, self.period) {
            if self.value(&class.representative())?.is_negative() {
                return Ok(false);
            }
        }
        Ok(true)
    }

    /// The translate `x ↦ g(x + shift)`, still quilt-affine with the same
    /// gradient and period (used by Lemma 6.2 to turn `g_k` into the
    /// nonnegative `g_k(x + n)`).
    ///
    /// # Errors
    ///
    /// Propagates construction errors (none are expected for valid inputs).
    pub fn translate(&self, shift: &NVec) -> Result<QuiltAffine, CoreError> {
        assert_eq!(shift.dim(), self.dim, "dimension mismatch");
        let mut offsets = BTreeMap::new();
        for class in CongruenceClass::enumerate_all(self.dim, self.period) {
            let rep = class.representative();
            let value = Rational::from(self.eval(&(&rep + shift))?);
            offsets.insert(rep.as_slice().to_vec(), value - self.gradient.dot_n(&rep));
        }
        QuiltAffine::new(self.gradient.clone(), self.period, offsets)
    }

    /// Re-expresses the function with a period `p* = k·p` (a multiple of the
    /// current period); the function is unchanged.
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
        let mut offsets = BTreeMap::new();
        for class in CongruenceClass::enumerate_all(self.dim, p_star) {
            let rep = class.representative();
            offsets.insert(
                rep.as_slice().to_vec(),
                Rational::from(self.eval(&rep)?) - self.gradient.dot_n(&rep),
            );
        }
        QuiltAffine::new(self.gradient.clone(), p_star, offsets)
    }

    /// The fixed-input restriction `g[x(i) → j]` as a quilt-affine function of
    /// the remaining `d − 1` inputs.
    ///
    /// # Errors
    ///
    /// Propagates construction errors.
    pub fn restrict(&self, i: usize, j: u64) -> Result<QuiltAffine, CoreError> {
        assert!(i < self.dim, "component index out of range");
        let remaining: Vec<Rational> = self
            .gradient
            .iter()
            .enumerate()
            .filter(|&(k, _)| k != i)
            .map(|(_, &c)| c)
            .collect();
        let gradient = QVec::from(remaining);
        let mut offsets = BTreeMap::new();
        for class in CongruenceClass::enumerate_all(self.dim - 1, self.period) {
            let rep = class.representative();
            let full = rep.with_inserted(i, j);
            offsets.insert(
                rep.as_slice().to_vec(),
                Rational::from(self.eval(&full)?) - gradient.dot_n(&rep),
            );
        }
        QuiltAffine::new(gradient, self.period, offsets)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

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
        QuiltAffine::new(QVec::from(vec![1, 2]), 3, offsets).unwrap()
    }

    #[test]
    fn floor_three_halves_matches_closed_form() {
        let g = QuiltAffine::floor_linear(QVec::from(vec![Rational::new(3, 2)]), 2);
        for x in 0..20u64 {
            assert_eq!(g.eval(&NVec::from(vec![x])).unwrap(), (3 * x / 2) as i64);
        }
        assert_eq!(g.is_nondecreasing(), Ok(true));
        assert_eq!(g.is_nonnegative(), Ok(true));
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
        assert_eq!(g.is_nondecreasing(), Ok(true));
        assert_eq!(g.is_nonnegative(), Ok(true));
        assert_eq!(g.eval(&NVec::from(vec![0, 0])).unwrap(), 0);
        assert_eq!(g.eval(&NVec::from(vec![1, 2])).unwrap(), 1 + 4 - 1);
        assert_eq!(g.eval(&NVec::from(vec![4, 5])).unwrap(), 4 + 10 - 1);
        assert_eq!(g.eval(&NVec::from(vec![3, 3])).unwrap(), 9);
    }

    #[test]
    fn affine_constructor_and_constant() {
        let g = QuiltAffine::affine(QVec::from(vec![2, 1]), Rational::from(3)).unwrap();
        assert_eq!(g.eval(&NVec::from(vec![1, 1])).unwrap(), 6);
        assert_eq!(g.period(), 1);
        let c = QuiltAffine::constant(2, 7);
        assert_eq!(c.eval(&NVec::from(vec![5, 0])).unwrap(), 7);
    }

    #[test]
    fn negative_gradient_rejected() {
        let err = QuiltAffine::affine(QVec::from(vec![-1]), Rational::ZERO).unwrap_err();
        assert!(matches!(err, CoreError::InvalidSpec(_)));
    }

    #[test]
    fn non_integer_values_rejected() {
        // Gradient 1/2 with period 1 cannot be integer-valued.
        let err =
            QuiltAffine::affine(QVec::from(vec![Rational::new(1, 2)]), Rational::ZERO).unwrap_err();
        assert!(matches!(err, CoreError::NotInteger(_)));
    }

    #[test]
    fn missing_offset_rejected() {
        let err = QuiltAffine::new(QVec::from(vec![1]), 2, BTreeMap::new()).unwrap_err();
        assert!(matches!(
            err,
            CoreError::InvalidSpec(_) | CoreError::NotInteger(_)
        ));
    }

    #[test]
    fn translation_shifts_argument() {
        let g = QuiltAffine::floor_linear(QVec::from(vec![Rational::new(3, 2)]), 2);
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
        let g = QuiltAffine::floor_linear(QVec::from(vec![Rational::new(3, 2)]), 2);
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
            QVec::from(vec![Rational::new(1, 2), Rational::new(1, 2)]),
            2,
            offsets,
        )
        .unwrap();
        assert_eq!(g.is_nondecreasing(), Ok(true));
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
        QuiltAffine::affine(QVec::from(vec![Rational::from(k)]), Rational::ZERO).unwrap()
    }

    fn out_of_range(result: Result<i64, CoreError>) -> String {
        match result {
            Err(CoreError::OutOfRange(msg)) => msg,
            other => panic!("expected an out-of-range error, got {other:?}"),
        }
    }

    #[test]
    fn a_difference_past_i64_is_no_decrease() {
        // `min 18446744073709551615 x` rises by u64::MAX per step.  Read
        // through an i64 evaluation, that step was an error, and the error
        // a decrease.
        let g = linear(u64::MAX);
        assert_eq!(g.is_nondecreasing(), Ok(true));
        assert_eq!(g.is_nonnegative(), Ok(true));
        let class = CongruenceClass::zero(1, 1);
        assert_eq!(
            out_of_range(g.finite_difference(0, &class)),
            "δ^0 on [[0] mod 1] = 18446744073709551615 is past i64::MAX"
        );
        // Lemma 6.1 cannot emit that many copies of Y in one reaction.
        let refused = crate::synthesis::quilt_crn(&g).unwrap_err();
        assert!(matches!(refused, CoreError::OutOfRange(_)), "{refused}");
    }

    #[test]
    fn a_value_past_i64_is_out_of_range_not_a_fraction() {
        // `min 9223372036854775807 x` at 2 is 2^64 - 2, an integer.
        let g = linear(i64::MAX as u64);
        assert_eq!(g.eval(&NVec::from(vec![1])), Ok(i64::MAX));
        assert_eq!(
            out_of_range(g.eval(&NVec::from(vec![2]))),
            "g((2)) = 18446744073709551614 is past i64::MAX"
        );
    }

    #[test]
    fn a_product_past_i128_is_out_of_range_not_wrapped() {
        // (2^64 - 1)^2 wrapped in i128 to -36893488147419103231.
        let g = linear(u64::MAX);
        assert_eq!(
            out_of_range(g.eval(&NVec::from(vec![u64::MAX]))),
            "g((18446744073709551615)) does not fit i128"
        );
    }

    proptest! {
        #[test]
        fn finite_differences_reconstruct_the_function(x in 0u64..12) {
            // g(x) = g(0) + sum of finite differences along the path 0 -> x.
            let g = QuiltAffine::floor_linear(QVec::from(vec![Rational::new(5, 3)]), 3);
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
                QVec::from(vec![Rational::new(1, 2), Rational::new(2, 3)]),
                6,
            );
            let expected = (3 * x1 + 4 * x2) / 6; // floor((x1/2 + 2x2/3))
            prop_assert_eq!(g.eval(&NVec::from(vec![x1, x2])).unwrap() as u64, expected);
        }
    }
}
