//! Rational affine partial functions `x ↦ ∇·x + b`.

use crn_numeric::{checked_lcm_i128, NVec, QVec, Rational, WideInt};

use crate::function::SemilinearFunctionError;

/// A rational affine function `x ↦ gradient·x + offset` used as one piece of a
/// semilinear function (Definition 2.6 / Lemma 7.3).
///
/// The gradient and offset may be rational, but on the piece's domain the
/// value must be a nonnegative integer (the codomain of the computed function
/// is `N`); [`AffinePiece::eval_integer`] checks this at evaluation time.
///
/// Beside the rationals, a piece holds the same function in integers:
/// `(numerators·x + constant) / denominator`, where `denominator` is the
/// least common denominator `L > 0` of the gradient and the offset, and the
/// numerators are `L·gradient` and `L·offset`.  They are computed once, by
/// [`AffinePiece::new`], which refuses a piece whose `L` or numerators do not
/// fit `i128`, so an evaluation is one exact integer dot product and one
/// exact-division test, without a `Rational` operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AffinePiece {
    gradient: QVec,
    offset: Rational,
    numerators: Box<[i128]>,
    constant: i128,
    denominator: i128,
}

impl AffinePiece {
    /// Creates the affine function `x ↦ gradient·x + offset`, or `None` when
    /// the least common denominator of its coefficients, or a coefficient
    /// scaled to it, does not fit `i128`.
    #[must_use]
    pub fn new(gradient: QVec, offset: Rational) -> Option<Self> {
        let denominator = gradient
            .iter()
            .chain([&offset])
            .try_fold(1i128, |l, r| checked_lcm_i128(l, r.denom()))?;
        let scale = |r: &Rational| r.numer().checked_mul(denominator / r.denom());
        let numerators = gradient
            .iter()
            .map(scale)
            .collect::<Option<Box<[i128]>>>()?;
        let constant = scale(&offset)?;
        Some(AffinePiece {
            gradient,
            offset,
            numerators,
            constant,
            denominator,
        })
    }

    /// The integer-coefficient affine function `x ↦ coeffs·x + offset`.
    #[must_use]
    pub fn integer(coeffs: Vec<i64>, offset: i64) -> Self {
        AffinePiece::new(QVec::from(coeffs), Rational::from(offset))
            .expect("integer coefficients have denominator 1")
    }

    /// The constant function `x ↦ value`.
    #[must_use]
    pub fn constant(dim: usize, value: i64) -> Self {
        AffinePiece::integer(vec![0; dim], value)
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

    /// The value at `x` as an exact integer, or `None` where it is a
    /// fraction: the integer numerator `numerators·x + constant` is a
    /// [`WideInt`], and the division by the common denominator is skipped
    /// when it is 1.
    ///
    /// # Panics
    ///
    /// Panics if dimensions differ.
    #[must_use]
    #[inline]
    pub fn exact(&self, x: &NVec) -> Option<WideInt> {
        assert_eq!(self.dim(), x.dim(), "dimension mismatch");
        let numerator = self
            .numerators
            .iter()
            .zip(x.iter())
            .fold(WideInt::from(self.constant), |sum, (&n, &c)| {
                sum + WideInt::product(n, c)
            });
        if self.denominator == 1 {
            return Some(numerator);
        }
        // `div_rem` divides a nonnegative value, so divide the magnitude.
        let l = self.denominator.unsigned_abs();
        let (quotient, remainder) = if numerator.is_negative() {
            let (quotient, remainder) = (-numerator).div_rem(l);
            (-quotient, remainder)
        } else {
            numerator.div_rem(l)
        };
        (remainder == 0).then_some(quotient)
    }

    /// The value at `x`, if it is in `N`: [`exact`](Self::exact), classified.
    ///
    /// # Errors
    ///
    /// [`SemilinearFunctionError::NotNatural`] for a fraction or a negative
    /// value, and [`SemilinearFunctionError::OutOfRange`] for an integer past
    /// `u64::MAX`.
    ///
    /// # Panics
    ///
    /// Panics if dimensions differ.
    pub fn eval_integer(&self, x: &NVec) -> Result<u64, SemilinearFunctionError> {
        match self.exact(x) {
            Some(value) if !value.is_negative() => value
                .to_u64()
                .ok_or_else(|| SemilinearFunctionError::OutOfRange(x.clone())),
            _ => Err(SemilinearFunctionError::NotNatural(x.clone())),
        }
    }

    /// The reference for [`eval_integer`](Self::eval_integer): the rational
    /// fold `gradient·x + offset`, classified the same way, or `None` where
    /// an intermediate of the fold does not fit `i128`.
    #[cfg(test)]
    pub(crate) fn eval_rational(&self, x: &NVec) -> Option<Result<u64, SemilinearFunctionError>> {
        let value = self.gradient.checked_dot_n(x)?.checked_add(self.offset)?;
        Some(match value.to_integer() {
            Some(v) if v >= 0 => {
                u64::try_from(v).map_err(|_| SemilinearFunctionError::OutOfRange(x.clone()))
            }
            _ => Err(SemilinearFunctionError::NotNatural(x.clone())),
        })
    }

    /// Substitutes `x(i) = j`: drops coordinate `i` and folds its contribution
    /// into the offset.  `None` where the folded offset, or the piece's
    /// integer form, does not fit `i128`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= dim`.
    #[must_use]
    pub fn substitute(&self, i: usize, j: u64) -> Option<AffinePiece> {
        assert!(i < self.dim(), "component index out of range");
        let remaining: Vec<Rational> = self
            .gradient
            .iter()
            .enumerate()
            .filter(|&(k, _)| k != i)
            .map(|(_, &c)| c)
            .collect();
        let offset = self.gradient[i]
            .checked_mul(Rational::from(j))?
            .checked_add(self.offset)?;
        AffinePiece::new(QVec::from(remaining), offset)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use SemilinearFunctionError::{NotNatural, OutOfRange};

    fn at(coords: &[u64]) -> NVec {
        NVec::from(coords.to_vec())
    }

    #[test]
    fn a_value_past_i128_is_no_integer() {
        // (2^64 - 1)^2 does not fit i128, and 2 (2^64 - 1) does not fit u64:
        // both are integers out of range, read exactly, never wrapped and
        // never "not natural".
        let piece =
            AffinePiece::new(QVec::from(vec![Rational::from(u64::MAX)]), Rational::ZERO).unwrap();
        assert_eq!(piece.eval_integer(&at(&[1])), Ok(u64::MAX));
        assert_eq!(piece.eval_integer(&at(&[2])), Err(OutOfRange(at(&[2]))));
        let max = at(&[u64::MAX]);
        assert_eq!(piece.eval_integer(&max), Err(OutOfRange(max.clone())));
        // The rational fold overflows at u64::MAX, where the integer form
        // does not.
        assert_eq!(piece.eval_rational(&max), None);
    }

    #[test]
    fn evaluation() {
        // (3/2) x - 1/2 : the "odd x" piece of floor(3x/2).
        let piece =
            AffinePiece::new(QVec::from(vec![Rational::new(3, 2)]), Rational::new(-1, 2)).unwrap();
        assert_eq!(piece.denominator, 2);
        assert_eq!((&*piece.numerators, piece.constant), (&[3][..], -1));
        assert_eq!(piece.eval_integer(&at(&[3])), Ok(4));
        // On an even input the value is not an integer: this piece's domain
        // excludes it.
        assert_eq!(piece.eval_integer(&at(&[2])), Err(NotNatural(at(&[2]))));
        // An odd count past i64::MAX: 3 (2^64 - 1) / 2 - 1/2 is past u64.
        let max = at(&[u64::MAX]);
        assert_eq!(piece.eval_integer(&max), Err(OutOfRange(max.clone())));
    }

    #[test]
    fn exact_reads_negative_values_and_refuses_fractions() {
        // (3/2) x - 5/2 is -5/2 at 0, -1 at 1, 1/2 at 2 and 3 · 2^63 - 4
        // at 2^64 - 1: a fraction is no value, a negative integer is one.
        let piece =
            AffinePiece::new(QVec::from(vec![Rational::new(3, 2)]), Rational::new(-5, 2)).unwrap();
        assert_eq!(piece.exact(&at(&[0])), None);
        assert_eq!(piece.exact(&at(&[1])), Some(WideInt::from(-1i64)));
        assert_eq!(piece.exact(&at(&[2])), None);
        let max = piece.exact(&at(&[u64::MAX])).unwrap();
        assert_eq!(max.to_i128(), Some(3 * (1i128 << 63) - 4));
        assert_eq!(piece.eval_integer(&at(&[1])), Err(NotNatural(at(&[1]))));
    }

    #[test]
    fn a_common_denominator_past_i128_is_refused() {
        // lcm(2^64 - 1, 2^64 - 2) = (2^64 - 1)(2^64 - 2) > i128::MAX.
        let coprime = QVec::from(vec![
            Rational::new(1, i128::from(u64::MAX)),
            Rational::new(1, i128::from(u64::MAX - 1)),
        ]);
        assert_eq!(AffinePiece::new(coprime, Rational::ZERO), None);
        // A numerator past i128 once scaled to the common denominator.
        let scaled = QVec::from(vec![Rational::from(i128::MAX), Rational::new(1, 2)]);
        assert_eq!(AffinePiece::new(scaled, Rational::ZERO), None);
    }

    #[test]
    fn integer_and_constant_constructors() {
        let affine = AffinePiece::integer(vec![1, 2], 3);
        assert_eq!(affine.eval_integer(&at(&[1, 1])), Ok(6));
        let constant = AffinePiece::constant(2, 7);
        assert_eq!(constant.eval_integer(&at(&[9, 9])), Ok(7));
        assert_eq!(constant.dim(), 2);
    }

    #[test]
    fn negative_values_are_rejected_by_eval_integer() {
        let piece = AffinePiece::integer(vec![1, -1], 0);
        assert_eq!(
            piece.eval_integer(&at(&[1, 5])),
            Err(NotNatural(at(&[1, 5])))
        );
        // A negative value past i128 is still just negative.
        let max = at(&[u64::MAX, u64::MAX]);
        let steep = AffinePiece::integer(vec![i64::MIN, i64::MIN], 0);
        assert_eq!(steep.eval_integer(&max), Err(NotNatural(max.clone())));
    }

    #[test]
    fn substitution_folds_coordinate() {
        let piece = AffinePiece::integer(vec![2, 5], 1);
        let restricted = piece.substitute(1, 3).unwrap();
        assert_eq!(restricted.dim(), 1);
        assert_eq!(restricted.eval_integer(&at(&[4])), Ok(2 * 4 + 5 * 3 + 1));
        // Folding 2^126 · 2 into the offset leaves i128.
        let steep = AffinePiece::new(
            QVec::from(vec![Rational::from(1i128 << 126), Rational::ONE]),
            Rational::ZERO,
        )
        .unwrap();
        assert_eq!(steep.substitute(0, 2), None);
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

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// The integer form agrees with the rational fold it replaced: the
        /// same value, or the same refusal, out of range told apart from
        /// not natural.  Where an intermediate of the fold leaves `i128`,
        /// some term or partial sum is past 2^100 (for these numerators and
        /// denominators) and no draw cancels it back into `u64`, so the
        /// integer form must refuse too.
        #[test]
        fn eval_integer_matches_the_rational_fold(
            dim in 1usize..4,
            numerators in collection::vec(-(1i64 << 62)..(1i64 << 62) + 1, 4),
            numerator_shapes in collection::vec(0u64..3, 4),
            denominators in collection::vec(1i64..13, 4),
            coords in collection::vec(0u64..u64::MAX, 3),
            coord_shapes in collection::vec(0u64..4, 3),
        ) {
            // Shape 0 keeps a numerator small, shape 1 makes it a multiple
            // of its denominator (an integer term), shape 2 leaves it as
            // drawn.
            let coefficient = |k: usize| {
                let (n, q) = (i128::from(numerators[k]), i128::from(denominators[k]));
                let n = match numerator_shapes[k] {
                    0 => n % 16,
                    1 => (n / q) * q,
                    _ => n,
                };
                Rational::new(n, q)
            };
            let gradient: QVec = (0..dim).map(coefficient).collect();
            let piece = AffinePiece::new(gradient, coefficient(3)).unwrap();
            let x: NVec = (0..dim).map(|k| shaped(coords[k], coord_shapes[k])).collect();
            let integer = piece.eval_integer(&x);
            match piece.eval_rational(&x) {
                Some(reference) => prop_assert_eq!(integer, reference),
                None => prop_assert!(integer.is_err(), "{integer:?}"),
            }
        }
    }
}
