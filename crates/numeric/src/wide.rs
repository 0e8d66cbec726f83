//! Exact integers past `i128`: the dot products of integer coefficients with
//! `u64` counts.

use std::ops::{Add, Neg};

/// The exact integer `hi · 2^128 + lo`, a two's-complement 256-bit value
/// with high half `hi` and low half `lo`.
///
/// A product of an `i128` and a `u64` is below `2^191` in magnitude, so a
/// sum of fewer than `2^63` of them (a dot product over any dimension that
/// fits in memory) is held exactly: `lo` is the sum modulo `2^128` and `hi`
/// counts how often it wrapped.  Nothing is rounded, saturated or wrapped, so a
/// threshold test, a residue or an exact division read off the sum is the
/// one the mathematics gives, for every count up to `u64::MAX`.
///
/// ```
/// use crn_numeric::WideInt;
///
/// // (2^63 - 1)(2^64 - 1) twice is past i128, and compares as such.
/// let term = WideInt::product(i128::from(i64::MAX), u64::MAX);
/// assert!(term + term > WideInt::from(i128::MAX));
/// assert_eq!((term + term).rem_euclid(3), 0);
/// ```
// Field order matters: the derived order compares the signed `hi` first and
// the unsigned `lo` second, which is the numeric order.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct WideInt {
    hi: i128,
    lo: u128,
}

impl WideInt {
    /// Zero.
    pub const ZERO: WideInt = WideInt { hi: 0, lo: 0 };

    /// The exact product `a · x`.
    #[must_use]
    pub fn product(a: i128, x: u64) -> WideInt {
        // |a| = m1 · 2^64 + m0 with m1 ≤ 2^63, so m0 · x < 2^128 and
        // m1 · x < 2^127 each fit a u128.
        let m = a.unsigned_abs();
        let x = u128::from(x);
        let low = (m & u128::from(u64::MAX)) * x;
        let high = (m >> 64) * x;
        let (lo, carry) = low.overflowing_add(high << 64);
        let hi = i128::try_from(high >> 64).expect("m1 · x < 2^127") + i128::from(carry);
        let magnitude = WideInt { hi, lo };
        if a < 0 {
            -magnitude
        } else {
            magnitude
        }
    }

    /// Whether the value is below zero.
    #[must_use]
    pub fn is_negative(self) -> bool {
        self.hi < 0
    }

    /// The value, if it lies in `0..=u64::MAX`.
    #[must_use]
    pub fn to_u64(self) -> Option<u64> {
        if self.hi == 0 {
            u64::try_from(self.lo).ok()
        } else {
            None
        }
    }

    /// The value, if it lies in `i128::MIN..=i128::MAX`: exactly when `hi`
    /// is the sign extension of `lo` read as an `i128`.
    #[must_use]
    pub fn to_i128(self) -> Option<i128> {
        let value = self.lo as i128;
        (self.hi == value >> 127).then_some(value)
    }

    /// The least nonnegative residue of the value modulo `m`.
    ///
    /// # Panics
    ///
    /// Panics if `m == 0`.
    #[must_use]
    pub fn rem_euclid(self, m: u64) -> u64 {
        assert!(m > 0, "modulus must be positive");
        let m = u128::from(m);
        let residue = if self.hi == 0 {
            self.lo % m
        } else {
            // hi · 2^128 + lo ≡ (hi mod m)(2^128 mod m) + lo (mod m); both
            // factors are below m ≤ 2^64 - 1, so their product fits a u128.
            let wrap = (u128::MAX % m + 1) % m;
            let high = self
                .hi
                .rem_euclid(i128::try_from(m).expect("m < 2^64"))
                .unsigned_abs();
            (high * wrap % m + self.lo % m) % m
        };
        u64::try_from(residue).expect("a residue mod a u64 fits u64")
    }

    /// The quotient and remainder of the division by `divisor`, for a
    /// nonnegative value.
    ///
    /// # Panics
    ///
    /// Panics if the value is negative, or `divisor` is 0 or past
    /// `i128::MAX`.
    #[must_use]
    pub fn div_rem(self, divisor: u128) -> (WideInt, u128) {
        assert!(!self.is_negative(), "the dividend must be nonnegative");
        assert!(
            divisor > 0 && divisor <= i128::MAX.unsigned_abs(),
            "the divisor must lie in 1..=i128::MAX"
        );
        let high = self.hi.unsigned_abs();
        if high == 0 {
            let quotient = WideInt {
                hi: 0,
                lo: self.lo / divisor,
            };
            return (quotient, self.lo % divisor);
        }
        // Long division of the low half, one bit at a time: the running
        // remainder stays below the divisor, hence below 2^127, so doubling
        // it never leaves a u128.
        let mut rem = high % divisor;
        let mut quotient = 0u128;
        for bit in (0..128).rev() {
            rem = (rem << 1) | ((self.lo >> bit) & 1);
            quotient <<= 1;
            if rem >= divisor {
                rem -= divisor;
                quotient |= 1;
            }
        }
        let hi = i128::try_from(high / divisor).expect("hi ≥ 0 and divisor ≥ 1");
        (WideInt { hi, lo: quotient }, rem)
    }
}

impl From<i128> for WideInt {
    fn from(value: i128) -> WideInt {
        WideInt {
            // The sign extension: -1 for a negative value, else 0.
            hi: value >> 127,
            // The two's-complement bits of the value, reinterpreted.
            lo: value as u128,
        }
    }
}

impl From<i64> for WideInt {
    fn from(value: i64) -> WideInt {
        WideInt::from(i128::from(value))
    }
}

impl Add for WideInt {
    type Output = WideInt;

    /// The exact sum.  `hi` cannot overflow for the sums this type holds
    /// (see the type's documentation).
    fn add(self, rhs: WideInt) -> WideInt {
        let (lo, carry) = self.lo.overflowing_add(rhs.lo);
        WideInt {
            hi: self.hi + rhs.hi + i128::from(carry),
            lo,
        }
    }
}

impl Neg for WideInt {
    type Output = WideInt;

    /// The exact negation: `-(hi · 2^128 + lo)` is `(-hi - 1) · 2^128 +
    /// (2^128 - lo)`, or `-hi · 2^128` when `lo` is 0.
    fn neg(self) -> WideInt {
        WideInt {
            hi: !self.hi + i128::from(self.lo == 0),
            lo: self.lo.wrapping_neg(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn products_at_the_extremes_are_exact() {
        // (2^127 - 1)(2^64 - 1) = 2^191 - 2^127 - 2^64 + 1.
        let p = WideInt::product(i128::MAX, u64::MAX);
        assert_eq!(p.hi, (1i128 << 63) - 1);
        assert_eq!(p.lo, (1u128 << 127) - (1u128 << 64) + 1);
        // -2^127 · (2^64 - 1) = -(2^191 - 2^127).
        let n = WideInt::product(i128::MIN, u64::MAX);
        assert_eq!(
            -n,
            WideInt::product(i128::MAX, u64::MAX) + WideInt::from(i128::from(u64::MAX))
        );
        assert!(n.is_negative());
        assert_eq!(n + (-n), WideInt::ZERO);
        assert_eq!(WideInt::product(-5, 0), WideInt::ZERO);
    }

    #[test]
    fn sums_past_i128_keep_their_order_and_residues() {
        // (2^63 - 1)(2^64 - 1): 2^64 - 1 is divisible by 3, 2^63 - 1 by 7,
        // and both are 3 (mod 4), so twice their product is 2 (mod 4).
        let t = WideInt::product(i128::from(i64::MAX), u64::MAX);
        let sum = t + t;
        assert!(sum > WideInt::from(i128::MAX));
        assert!(-sum < WideInt::from(i128::MIN));
        assert_eq!(sum.rem_euclid(3), 0);
        assert_eq!(sum.rem_euclid(7), 0);
        assert_eq!(sum.rem_euclid(4), 2);
        assert_eq!((-sum).rem_euclid(4), 2);
        assert_eq!(sum.to_u64(), None);
        assert_eq!((sum.to_i128(), (-sum).to_i128()), (None, None));
        // The ends of i128 and one step past each.
        for edge in [i128::MIN, i128::MAX] {
            assert_eq!(WideInt::from(edge).to_i128(), Some(edge));
        }
        let one = WideInt::from(1i64);
        assert_eq!((WideInt::from(i128::MAX) + one).to_i128(), None);
        assert_eq!((WideInt::from(i128::MIN) + -one).to_i128(), None);
        assert_eq!(sum.div_rem(2), (t, 0));
    }

    #[test]
    fn long_division_past_2_128_is_exact() {
        // (2^127 - 1)(2^64 - 1) has a nonzero high half.
        let big = WideInt::product(i128::MAX, u64::MAX);
        let (q, r) = (big + WideInt::from(5i64)).div_rem(i128::MAX.unsigned_abs());
        assert_eq!((q.to_u64(), r), (Some(u64::MAX), 5));
        assert_eq!(
            big.div_rem(u128::from(u64::MAX)),
            (WideInt::from(i128::MAX), 0)
        );
    }

    proptest! {
        #[test]
        fn small_values_agree_with_i128(
            a in -(1i64 << 62)..(1i64 << 62),
            x in 0u64..(1 << 62),
            b in i64::MIN..i64::MAX,
            m in 1u64..1000,
        ) {
            let b = i128::from(b) << 56;
            let exact = i128::from(a) * i128::from(x) + b;
            let wide = WideInt::product(i128::from(a), x) + WideInt::from(b);
            prop_assert_eq!(wide.to_i128(), Some(exact));
            prop_assert_eq!(
                u128::from(wide.rem_euclid(m)),
                exact.rem_euclid(i128::from(m)).unsigned_abs()
            );
            prop_assert_eq!(wide < WideInt::from(b), exact < b);
            prop_assert_eq!(wide.to_u64(), u64::try_from(exact).ok());
            if exact >= 0 {
                let (q, r) = wide.div_rem(u128::from(m));
                prop_assert_eq!(q.to_i128(), Some(exact / i128::from(m)));
                prop_assert_eq!(r, (exact % i128::from(m)).unsigned_abs());
            }
        }

        #[test]
        fn division_inverts_products_past_i128(
            a_hi in 0u64..(1 << 63),
            a_lo in 1u64..u64::MAX,
            x in 1u64..u64::MAX,
            r in 0u64..u64::MAX,
        ) {
            // a ≥ 2^64 > r whenever a_hi > 0, so (a · x + r) / a = x
            // remainder r; a_hi = 0 keeps r below a by taking it mod a.
            let a = (i128::from(a_hi) << 64) | i128::from(a_lo);
            let r = if a_hi == 0 { r % a_lo } else { r };
            let dividend = WideInt::product(a, x) + WideInt::from(i128::from(r));
            let (q, rem) = dividend.div_rem(a.unsigned_abs());
            prop_assert_eq!(q.to_u64(), Some(x));
            prop_assert_eq!(rem, u128::from(r));
            prop_assert_eq!(dividend.rem_euclid(x), r % x);
        }
    }
}
