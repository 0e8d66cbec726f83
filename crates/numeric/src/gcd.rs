//! Greatest common divisor and least common multiple helpers.

/// Greatest common divisor of two signed 128-bit integers.
///
/// The result is always non-negative, and `gcd_i128(0, 0) == 0`.
///
/// ```
/// assert_eq!(crn_numeric::gcd_i128(-12, 18), 6);
/// ```
#[must_use]
pub fn gcd_i128(a: i128, b: i128) -> i128 {
    let (mut a, mut b) = (a.abs(), b.abs());
    while b != 0 {
        let r = a % b;
        a = b;
        b = r;
    }
    a
}

/// [`gcd_i128`], or `None` when an argument is `i128::MIN` (its absolute
/// value does not fit `i128`).
///
/// ```
/// assert_eq!(crn_numeric::checked_gcd_i128(-12, 18), Some(6));
/// assert_eq!(crn_numeric::checked_gcd_i128(i128::MIN, 2), None);
/// ```
#[must_use]
pub fn checked_gcd_i128(a: i128, b: i128) -> Option<i128> {
    let (mut a, mut b) = (a.checked_abs()?, b.checked_abs()?);
    while b != 0 {
        let r = a % b;
        a = b;
        b = r;
    }
    Some(a)
}

/// Least common multiple of two signed 128-bit integers.
///
/// `lcm_i128(0, x) == 0` for any `x`.
///
/// # Panics
///
/// Panics if the result overflows `i128`.
#[must_use]
pub fn lcm_i128(a: i128, b: i128) -> i128 {
    checked_lcm_i128(a, b).expect("lcm overflow")
}

/// [`lcm_i128`], or `None` when the result overflows `i128`.
#[must_use]
pub fn checked_lcm_i128(a: i128, b: i128) -> Option<i128> {
    if a == 0 || b == 0 {
        return Some(0);
    }
    let g = checked_gcd_i128(a, b)?;
    (a / g).checked_mul(b)?.checked_abs()
}

/// Greatest common divisor of two unsigned 64-bit integers.
///
/// ```
/// assert_eq!(crn_numeric::gcd_u64(12, 18), 6);
/// ```
#[must_use]
pub fn gcd_u64(a: u64, b: u64) -> u64 {
    let (mut a, mut b) = (a, b);
    while b != 0 {
        let r = a % b;
        a = b;
        b = r;
    }
    a
}

/// Least common multiple of two unsigned 64-bit integers.
///
/// # Panics
///
/// Panics if the result overflows `u64`.
#[must_use]
pub fn lcm_u64(a: u64, b: u64) -> u64 {
    if a == 0 || b == 0 {
        return 0;
    }
    let g = gcd_u64(a, b);
    (a / g).checked_mul(b).expect("lcm overflow")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gcd_basic() {
        assert_eq!(gcd_i128(0, 0), 0);
        assert_eq!(gcd_i128(0, 7), 7);
        assert_eq!(gcd_i128(7, 0), 7);
        assert_eq!(gcd_i128(12, 18), 6);
        assert_eq!(gcd_i128(-12, 18), 6);
        assert_eq!(gcd_i128(12, -18), 6);
        assert_eq!(gcd_i128(-12, -18), 6);
        assert_eq!(gcd_i128(17, 13), 1);
    }

    #[test]
    fn lcm_basic() {
        assert_eq!(lcm_i128(0, 5), 0);
        assert_eq!(lcm_i128(4, 6), 12);
        assert_eq!(lcm_i128(-4, 6), 12);
        assert_eq!(lcm_u64(4, 6), 12);
        assert_eq!(lcm_u64(2, 3), 6);
        assert_eq!(lcm_u64(0, 3), 0);
    }

    #[test]
    fn checked_variants_report_overflow() {
        assert_eq!(checked_gcd_i128(-12, 18), Some(6));
        assert_eq!(checked_gcd_i128(0, i128::MIN), None);
        assert_eq!(checked_lcm_i128(-4, 6), Some(12));
        assert_eq!(checked_lcm_i128(i128::MAX, 2), None);
        assert_eq!(checked_lcm_i128(0, i128::MAX), Some(0));
    }

    #[test]
    fn gcd_divides_both() {
        for a in -20i128..20 {
            for b in -20i128..20 {
                let g = gcd_i128(a, b);
                if g != 0 {
                    assert_eq!(a % g, 0);
                    assert_eq!(b % g, 0);
                }
            }
        }
    }

    #[test]
    fn lcm_is_multiple_of_both() {
        for a in 1u64..20 {
            for b in 1u64..20 {
                let l = lcm_u64(a, b);
                assert_eq!(l % a, 0);
                assert_eq!(l % b, 0);
                assert_eq!(l, a * b / gcd_u64(a, b));
            }
        }
    }
}
