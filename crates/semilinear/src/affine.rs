//! Rational affine partial functions `x ↦ ∇·x + b`.

use crn_numeric::{NVec, QVec, Rational};

/// A rational affine function `x ↦ gradient·x + offset` used as one piece of a
/// semilinear function (Definition 2.6 / Lemma 7.3).
///
/// The gradient and offset may be rational, but on the piece's domain the
/// value must be a nonnegative integer (the codomain of the computed function
/// is `N`); [`AffinePiece::eval_integer`] checks this at evaluation time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AffinePiece {
    gradient: QVec,
    offset: Rational,
}

impl AffinePiece {
    /// Creates the affine function `x ↦ gradient·x + offset`.
    #[must_use]
    pub fn new(gradient: QVec, offset: Rational) -> Self {
        AffinePiece { gradient, offset }
    }

    /// The integer-coefficient affine function `x ↦ coeffs·x + offset`.
    #[must_use]
    pub fn integer(coeffs: Vec<i64>, offset: i64) -> Self {
        AffinePiece {
            gradient: QVec::from(coeffs),
            offset: Rational::from(offset),
        }
    }

    /// The constant function `x ↦ value`.
    #[must_use]
    pub fn constant(dim: usize, value: i64) -> Self {
        AffinePiece {
            gradient: QVec::zeros(dim),
            offset: Rational::from(value),
        }
    }

    /// The gradient `∇`.
    #[must_use]
    pub fn gradient(&self) -> &QVec {
        &self.gradient
    }

    /// The constant offset `b`.
    #[must_use]
    pub fn offset(&self) -> Rational {
        self.offset
    }

    /// The dimension `d`.
    #[must_use]
    pub fn dim(&self) -> usize {
        self.gradient.dim()
    }

    /// The exact rational value at `x`.
    #[must_use]
    pub fn eval(&self, x: &NVec) -> Rational {
        self.gradient.dot_n(x) + self.offset
    }

    /// The value at `x` if it is a nonnegative integer, else `None`; a value
    /// that does not fit `i128` on the way is no such integer either.
    #[must_use]
    pub fn eval_integer(&self, x: &NVec) -> Option<u64> {
        let v = self.gradient.checked_dot_n(x)?.checked_add(self.offset)?;
        v.to_integer().and_then(|i| u64::try_from(i).ok())
    }

    /// Substitutes `x(i) = j`: drops coordinate `i` and folds its contribution
    /// into the offset.
    ///
    /// # Panics
    ///
    /// Panics if `i >= dim`.
    #[must_use]
    pub fn substitute(&self, i: usize, j: u64) -> AffinePiece {
        assert!(i < self.dim(), "component index out of range");
        let remaining: Vec<Rational> = self
            .gradient
            .iter()
            .enumerate()
            .filter(|&(k, _)| k != i)
            .map(|(_, &c)| c)
            .collect();
        AffinePiece {
            gradient: QVec::from(remaining),
            offset: self.offset + self.gradient[i] * Rational::from(j),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_value_past_i128_is_no_integer() {
        // (2^64 - 1)^2 does not fit i128: a fn evaluated at an input a user
        // gives fails there instead of panicking or wrapping.
        let piece = AffinePiece::new(QVec::from(vec![Rational::from(u64::MAX)]), Rational::ZERO);
        assert_eq!(piece.eval_integer(&NVec::from(vec![1])), Some(u64::MAX));
        assert_eq!(piece.eval_integer(&NVec::from(vec![2])), None);
        assert_eq!(piece.eval_integer(&NVec::from(vec![u64::MAX])), None);
    }

    #[test]
    fn evaluation() {
        // (3/2) x - 1/2 : the "odd x" piece of floor(3x/2).
        let piece = AffinePiece::new(QVec::from(vec![Rational::new(3, 2)]), Rational::new(-1, 2));
        assert_eq!(piece.eval(&NVec::from(vec![3])), Rational::from(4));
        assert_eq!(piece.eval_integer(&NVec::from(vec![3])), Some(4));
        // On an even input the value is not an integer: this piece's domain
        // excludes it.
        assert_eq!(piece.eval_integer(&NVec::from(vec![2])), None);
    }

    #[test]
    fn integer_and_constant_constructors() {
        let affine = AffinePiece::integer(vec![1, 2], 3);
        assert_eq!(affine.eval_integer(&NVec::from(vec![1, 1])), Some(6));
        let constant = AffinePiece::constant(2, 7);
        assert_eq!(constant.eval_integer(&NVec::from(vec![9, 9])), Some(7));
        assert_eq!(constant.dim(), 2);
    }

    #[test]
    fn negative_values_are_rejected_by_eval_integer() {
        let piece = AffinePiece::integer(vec![1, -1], 0);
        assert_eq!(piece.eval_integer(&NVec::from(vec![1, 5])), None);
        assert_eq!(piece.eval(&NVec::from(vec![1, 5])), Rational::from(-4));
    }

    #[test]
    fn substitution_folds_coordinate() {
        let piece = AffinePiece::integer(vec![2, 5], 1);
        let restricted = piece.substitute(1, 3);
        assert_eq!(restricted.dim(), 1);
        assert_eq!(
            restricted.eval_integer(&NVec::from(vec![4])),
            Some(2 * 4 + 5 * 3 + 1)
        );
    }
}
