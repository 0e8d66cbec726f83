//! An exact rational number over `i128`.

use std::cmp::Ordering;
use std::fmt;
use std::ops::{Add, AddAssign, Div, DivAssign, Mul, MulAssign, Neg, Sub, SubAssign};
use std::str::FromStr;

use crate::gcd::checked_gcd_i128;

/// An exact rational number `numer / denom` with `denom > 0`, always stored in
/// lowest terms.
///
/// Every operation is exact or fails: the `checked_*` methods return `None`
/// where a result does not fit `i128`, and the operators, [`new`](Self::new)
/// and the ordering panic there, naming the operation, instead of wrapping.
///
/// Gradients of quilt-affine functions (`∇g ∈ Q^d`), periodic offsets
/// (`B : Z^d/pZ^d → Q`), and the affine partial functions of Lemma 7.3 are all
/// rational-valued; this type keeps them exact.
///
/// ```
/// use crn_numeric::Rational;
///
/// let g = Rational::new(3, 2);
/// assert_eq!(g * Rational::from(4), Rational::from(6));
/// assert_eq!(Rational::new(15, 2).floor(), 7);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Rational {
    numer: i128,
    denom: i128,
}

/// Error returned when parsing a [`Rational`] from a string fails.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseRationalError(String);

impl fmt::Display for ParseRationalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid rational literal: {}", self.0)
    }
}

impl std::error::Error for ParseRationalError {}

impl Rational {
    /// The rational number zero.
    pub const ZERO: Rational = Rational { numer: 0, denom: 1 };
    /// The rational number one.
    pub const ONE: Rational = Rational { numer: 1, denom: 1 };

    /// Creates a rational `numer / denom` reduced to lowest terms.
    ///
    /// # Panics
    ///
    /// Panics if `denom == 0`, or if reducing the fraction overflows `i128`
    /// (an `i128::MIN` numerator or denominator).
    #[must_use]
    pub fn new(numer: i128, denom: i128) -> Self {
        assert!(denom != 0, "denominator must be nonzero");
        Rational::checked_new(numer, denom)
            .unwrap_or_else(|| panic!("rational overflow: {numer}/{denom} does not fit i128"))
    }

    /// [`new`](Self::new), or `None` when `denom == 0` or reducing the
    /// fraction overflows `i128`.
    #[must_use]
    pub fn checked_new(numer: i128, denom: i128) -> Option<Self> {
        if denom == 0 {
            return None;
        }
        let (numer, denom) = if denom < 0 {
            (numer.checked_neg()?, denom.checked_neg()?)
        } else {
            (numer, denom)
        };
        let g = checked_gcd_i128(numer, denom)?;
        Some(Rational {
            numer: numer / g,
            denom: denom / g,
        })
    }

    /// `self + rhs`, or `None` on `i128` overflow.
    #[must_use]
    pub fn checked_add(self, rhs: Rational) -> Option<Rational> {
        Rational::checked_new(
            self.numer
                .checked_mul(rhs.denom)?
                .checked_add(rhs.numer.checked_mul(self.denom)?)?,
            self.denom.checked_mul(rhs.denom)?,
        )
    }

    /// `-self`, or `None` on `i128` overflow.
    #[must_use]
    pub fn checked_neg(self) -> Option<Rational> {
        Some(Rational {
            numer: self.numer.checked_neg()?,
            denom: self.denom,
        })
    }

    /// `self - rhs`, or `None` on `i128` overflow.
    #[must_use]
    pub fn checked_sub(self, rhs: Rational) -> Option<Rational> {
        self.checked_add(rhs.checked_neg()?)
    }

    /// `self * rhs`, or `None` on `i128` overflow.
    #[must_use]
    pub fn checked_mul(self, rhs: Rational) -> Option<Rational> {
        Rational::checked_new(
            self.numer.checked_mul(rhs.numer)?,
            self.denom.checked_mul(rhs.denom)?,
        )
    }

    /// `self / rhs`, or `None` when `rhs` is zero or on `i128` overflow.
    #[must_use]
    pub fn checked_div(self, rhs: Rational) -> Option<Rational> {
        Rational::checked_new(
            self.numer.checked_mul(rhs.denom)?,
            self.denom.checked_mul(rhs.numer)?,
        )
    }

    /// The numerator (sign-carrying) of the reduced fraction.
    #[must_use]
    pub fn numer(&self) -> i128 {
        self.numer
    }

    /// The denominator (always positive) of the reduced fraction.
    #[must_use]
    pub fn denom(&self) -> i128 {
        self.denom
    }

    /// Returns `true` if this rational is an integer.
    #[must_use]
    pub fn is_integer(&self) -> bool {
        self.denom == 1
    }

    /// Returns `true` if this rational equals zero.
    #[must_use]
    pub fn is_zero(&self) -> bool {
        self.numer == 0
    }

    /// Returns `true` if this rational is strictly negative.
    #[must_use]
    pub fn is_negative(&self) -> bool {
        self.numer < 0
    }

    /// Returns `true` if this rational is `>= 0`.
    #[must_use]
    pub fn is_nonnegative(&self) -> bool {
        self.numer >= 0
    }

    /// Converts to `i128` if the value is an integer.
    #[must_use]
    pub fn to_integer(&self) -> Option<i128> {
        if self.is_integer() {
            Some(self.numer)
        } else {
            None
        }
    }

    /// The floor of the rational, as an integer.
    ///
    /// ```
    /// use crn_numeric::Rational;
    /// assert_eq!(Rational::new(-3, 2).floor(), -2);
    /// assert_eq!(Rational::new(3, 2).floor(), 1);
    /// ```
    #[must_use]
    pub fn floor(&self) -> i128 {
        self.numer.div_euclid(self.denom)
    }

    /// The ceiling of the rational, as an integer.
    #[must_use]
    pub fn ceil(&self) -> i128 {
        -(-*self).floor()
    }

    /// The absolute value.
    #[must_use]
    pub fn abs(&self) -> Rational {
        Rational {
            numer: self.numer.abs(),
            denom: self.denom,
        }
    }

    /// An `f64` approximation (used only for reporting, never for decisions).
    #[must_use]
    pub fn to_f64(&self) -> f64 {
        self.numer as f64 / self.denom as f64
    }

    /// Fractional part in `[0, 1)`: `self - floor(self)`.
    #[must_use]
    pub fn fract(&self) -> Rational {
        *self - Rational::from(self.floor())
    }

    /// Returns the smaller of two rationals.
    #[must_use]
    pub fn min(self, other: Rational) -> Rational {
        if self <= other {
            self
        } else {
            other
        }
    }

    /// Returns the larger of two rationals.
    #[must_use]
    pub fn max(self, other: Rational) -> Rational {
        if self >= other {
            self
        } else {
            other
        }
    }
}

impl Default for Rational {
    fn default() -> Self {
        Rational::ZERO
    }
}

impl From<i128> for Rational {
    fn from(value: i128) -> Self {
        Rational {
            numer: value,
            denom: 1,
        }
    }
}

impl From<i64> for Rational {
    fn from(value: i64) -> Self {
        Rational::from(i128::from(value))
    }
}

impl From<u64> for Rational {
    fn from(value: u64) -> Self {
        Rational::from(i128::from(value))
    }
}

impl From<i32> for Rational {
    fn from(value: i32) -> Self {
        Rational::from(i128::from(value))
    }
}

impl FromStr for Rational {
    type Err = ParseRationalError;

    /// Parses `"a"` or `"a/b"`.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let err = || ParseRationalError(s.to_owned());
        match s.split_once('/') {
            None => s
                .trim()
                .parse::<i128>()
                .map(Rational::from)
                .map_err(|_| err()),
            Some((n, d)) => {
                let n = n.trim().parse::<i128>().map_err(|_| err())?;
                let d = d.trim().parse::<i128>().map_err(|_| err())?;
                if d == 0 {
                    return Err(err());
                }
                Ok(Rational::new(n, d))
            }
        }
    }
}

impl fmt::Debug for Rational {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self}")
    }
}

impl fmt::Display for Rational {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.denom == 1 {
            write!(f, "{}", self.numer)
        } else {
            write!(f, "{}/{}", self.numer, self.denom)
        }
    }
}

/// Panics for `lhs op rhs`, whose result does not fit `i128`.
fn overflow(lhs: impl fmt::Display, op: &str, rhs: impl fmt::Display) -> ! {
    panic!("rational overflow: {lhs} {op} {rhs} does not fit i128")
}

impl Add for Rational {
    type Output = Rational;
    fn add(self, rhs: Rational) -> Rational {
        self.checked_add(rhs)
            .unwrap_or_else(|| overflow(self, "+", rhs))
    }
}

impl Sub for Rational {
    type Output = Rational;
    fn sub(self, rhs: Rational) -> Rational {
        self.checked_sub(rhs)
            .unwrap_or_else(|| overflow(self, "-", rhs))
    }
}

impl Mul for Rational {
    type Output = Rational;
    fn mul(self, rhs: Rational) -> Rational {
        self.checked_mul(rhs)
            .unwrap_or_else(|| overflow(self, "*", rhs))
    }
}

impl Div for Rational {
    type Output = Rational;
    /// # Panics
    ///
    /// Panics if `rhs` is zero, or if the quotient does not fit `i128`.
    fn div(self, rhs: Rational) -> Rational {
        assert!(!rhs.is_zero(), "denominator must be nonzero");
        self.checked_div(rhs)
            .unwrap_or_else(|| overflow(self, "/", rhs))
    }
}

impl Neg for Rational {
    type Output = Rational;
    fn neg(self) -> Rational {
        self.checked_neg()
            .unwrap_or_else(|| panic!("rational overflow: -({self}) does not fit i128"))
    }
}

impl AddAssign for Rational {
    fn add_assign(&mut self, rhs: Rational) {
        *self = *self + rhs;
    }
}

impl SubAssign for Rational {
    fn sub_assign(&mut self, rhs: Rational) {
        *self = *self - rhs;
    }
}

impl MulAssign for Rational {
    fn mul_assign(&mut self, rhs: Rational) {
        *self = *self * rhs;
    }
}

impl DivAssign for Rational {
    fn div_assign(&mut self, rhs: Rational) {
        *self = *self / rhs;
    }
}

impl PartialOrd for Rational {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Rational {
    /// # Panics
    ///
    /// Panics if a cross product `numer · denom` does not fit `i128`.
    fn cmp(&self, other: &Self) -> Ordering {
        let cross = |a: &Rational, b: &Rational| {
            a.numer
                .checked_mul(b.denom)
                .unwrap_or_else(|| overflow(self, "compared with", other))
        };
        cross(self, other).cmp(&cross(other, self))
    }
}

impl std::iter::Sum for Rational {
    fn sum<I: Iterator<Item = Rational>>(iter: I) -> Rational {
        iter.fold(Rational::ZERO, |acc, x| acc + x)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn construction_reduces() {
        assert_eq!(Rational::new(2, 4), Rational::new(1, 2));
        assert_eq!(Rational::new(-2, -4), Rational::new(1, 2));
        assert_eq!(Rational::new(2, -4), Rational::new(-1, 2));
        assert_eq!(Rational::new(0, 5), Rational::ZERO);
        assert_eq!(Rational::new(0, -5).denom(), 1);
    }

    #[test]
    #[should_panic(expected = "denominator must be nonzero")]
    fn zero_denominator_panics() {
        let _ = Rational::new(1, 0);
    }

    #[test]
    fn arithmetic() {
        let a = Rational::new(1, 2);
        let b = Rational::new(1, 3);
        assert_eq!(a + b, Rational::new(5, 6));
        assert_eq!(a - b, Rational::new(1, 6));
        assert_eq!(a * b, Rational::new(1, 6));
        assert_eq!(a / b, Rational::new(3, 2));
        assert_eq!(-a, Rational::new(-1, 2));
    }

    #[test]
    fn ordering() {
        assert!(Rational::new(1, 3) < Rational::new(1, 2));
        assert!(Rational::new(-1, 2) < Rational::ZERO);
        assert!(Rational::new(7, 7) == Rational::ONE);
        assert_eq!(
            Rational::new(2, 3).max(Rational::new(3, 4)),
            Rational::new(3, 4)
        );
        assert_eq!(
            Rational::new(2, 3).min(Rational::new(3, 4)),
            Rational::new(2, 3)
        );
    }

    #[test]
    fn floor_ceil() {
        assert_eq!(Rational::new(7, 2).floor(), 3);
        assert_eq!(Rational::new(7, 2).ceil(), 4);
        assert_eq!(Rational::new(-7, 2).floor(), -4);
        assert_eq!(Rational::new(-7, 2).ceil(), -3);
        assert_eq!(Rational::from(5).floor(), 5);
        assert_eq!(Rational::from(5).ceil(), 5);
        assert_eq!(Rational::new(5, 3).fract(), Rational::new(2, 3));
    }

    #[test]
    fn display_and_parse() {
        assert_eq!(Rational::new(3, 2).to_string(), "3/2");
        assert_eq!(Rational::from(4).to_string(), "4");
        assert_eq!("3/2".parse::<Rational>().unwrap(), Rational::new(3, 2));
        assert_eq!("-5".parse::<Rational>().unwrap(), Rational::from(-5));
        assert!("1/0".parse::<Rational>().is_err());
        assert!("x".parse::<Rational>().is_err());
    }

    #[test]
    #[should_panic(
        expected = "rational overflow: 1267650600228229401496703205376 * 1267650600228229401496703205376 does not fit i128"
    )]
    fn a_product_past_i128_panics_instead_of_wrapping() {
        // 2^100 · 2^100 = 2^200, which a wrapping multiply reads as 0.
        let big = Rational::from(1i128 << 100);
        let _ = big * big;
    }

    #[test]
    fn checked_ops_report_overflow() {
        let big = Rational::from(i128::MAX);
        assert_eq!(big.checked_add(Rational::ONE), None);
        assert_eq!(big.checked_mul(Rational::from(2)), None);
        assert_eq!(Rational::from(i128::MIN).checked_sub(Rational::ONE), None);
        assert_eq!(Rational::ONE.checked_div(Rational::ZERO), None);
        assert_eq!(Rational::checked_new(i128::MIN, -1), None);
        assert_eq!(Rational::checked_new(1, 0), None);
    }

    #[test]
    fn sum_iterator() {
        let total: Rational = (1..=4).map(|i| Rational::new(1, i)).sum();
        assert_eq!(total, Rational::new(25, 12));
    }

    proptest! {
        #[test]
        fn add_commutes(a in -1000i128..1000, b in 1i128..100, c in -1000i128..1000, d in 1i128..100) {
            let x = Rational::new(a, b);
            let y = Rational::new(c, d);
            prop_assert_eq!(x + y, y + x);
        }

        #[test]
        fn mul_distributes(a in -100i128..100, b in 1i128..20, c in -100i128..100, d in 1i128..20, e in -100i128..100, f in 1i128..20) {
            let x = Rational::new(a, b);
            let y = Rational::new(c, d);
            let z = Rational::new(e, f);
            prop_assert_eq!(x * (y + z), x * y + x * z);
        }

        #[test]
        fn floor_is_lower_bound(a in -10_000i128..10_000, b in 1i128..100) {
            let x = Rational::new(a, b);
            let fl = Rational::from(x.floor());
            prop_assert!(fl <= x);
            prop_assert!(x - fl < Rational::ONE);
        }

        #[test]
        fn checked_ops_agree_with_the_operators(a in -1000i128..1000, b in 1i128..100, c in -1000i128..1000, d in 1i128..100) {
            let x = Rational::new(a, b);
            let y = Rational::new(c, d);
            prop_assert_eq!(x.checked_add(y), Some(x + y));
            prop_assert_eq!(x.checked_sub(y), Some(x - y));
            prop_assert_eq!(x.checked_neg(), Some(-x));
            prop_assert_eq!(x.checked_mul(y), Some(x * y));
            if !y.is_zero() {
                prop_assert_eq!(x.checked_div(y), Some(x / y));
            }
            prop_assert_eq!(Rational::checked_new(a, -b), Some(Rational::new(a, -b)));
        }

        #[test]
        fn parse_roundtrip(a in -10_000i128..10_000, b in 1i128..100) {
            let x = Rational::new(a, b);
            prop_assert_eq!(x.to_string().parse::<Rational>().unwrap(), x);
        }
    }
}
