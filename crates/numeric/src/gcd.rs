//! Greatest common divisor and least common multiple helpers.

/// Greatest common divisor of two signed 128-bit integers.
///
/// The result is always non-negative, and `gcd_i128(0, 0) == 0`.
///
/// ```
/// assert_eq!(crn_numeric::gcd_i128(-12, 18), 6);
/// ```
///
/// # Panics
///
/// Panics if an argument is `i128::MIN`, whose absolute value does not fit
/// `i128` (see [`checked_gcd_i128`]).
#[must_use]
pub fn gcd_i128(a: i128, b: i128) -> i128 {
    checked_gcd_i128(a, b)
        .unwrap_or_else(|| panic!("gcd of {a} and {b}: |i128::MIN| does not fit i128"))
}

/// The gcd of `a` and `b` in machine words, when both magnitudes fit `u64`.
fn gcd_in_u64(a: i128, b: i128) -> Option<i128> {
    let a = u64::try_from(a.unsigned_abs()).ok()?;
    let b = u64::try_from(b.unsigned_abs()).ok()?;
    Some(i128::from(gcd_u64(a, b)))
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
    if let Some(g) = gcd_in_u64(a, b) {
        return Some(g);
    }
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

    /// The plain `i128` Euclid loop the `u64` fast path must agree with.
    fn euclid(a: i128, b: i128) -> Option<i128> {
        let (mut a, mut b) = (a.checked_abs()?, b.checked_abs()?);
        while b != 0 {
            let r = a % b;
            a = b;
            b = r;
        }
        Some(a)
    }

    /// Magnitudes at the fast path's edges: 0, 1, `u64::MAX` (the largest
    /// that fits), 2^64 (the smallest that does not), `i64::MIN` and
    /// `i128::MAX`, with neighbours and signs.
    const EDGES: [i128; 16] = [
        0,
        1,
        -1,
        2,
        -6,
        u64::MAX as i128,
        -(u64::MAX as i128),
        u64::MAX as i128 - 1,
        1 << 64,
        -(1 << 64),
        (1 << 64) + 2,
        i64::MIN as i128,
        i64::MAX as i128,
        i128::MAX,
        -i128::MAX,
        3 << 70,
    ];

    #[test]
    fn the_u64_fast_path_agrees_with_euclid_at_its_edges() {
        for &a in &EDGES {
            for &b in &EDGES {
                let expected = euclid(a, b).expect("no i128::MIN among the edges");
                assert_eq!(gcd_i128(a, b), expected, "gcd_i128({a}, {b})");
                assert_eq!(checked_gcd_i128(a, b), Some(expected), "checked({a}, {b})");
            }
            assert_eq!(checked_gcd_i128(i128::MIN, a), None);
            assert_eq!(checked_gcd_i128(a, i128::MIN), None);
        }
        assert_eq!(gcd_i128(u64::MAX as i128, 1 << 64), 1);
        assert_eq!(gcd_i128(i64::MIN as i128, 1 << 64), 1 << 63);
    }

    proptest::proptest! {
        /// Pairs straddling 2^64, where the fast path hands over to `i128`:
        /// each operand is a random word below or above 2^64, rounded down
        /// to a multiple of a shared factor so the gcd is not always 1.
        #[test]
        fn gcd_matches_euclid_across_two_to_the_64(
            high in proptest::collection::vec(0u64..2, 2),
            low in proptest::collection::vec(0u64..u64::MAX, 2),
            negate in proptest::collection::vec(0u64..2, 2),
            common in 1i128..1000,
        ) {
            let operand = |i: usize| {
                let magnitude = (i128::from(high[i]) << 64 | i128::from(low[i])) / common * common;
                if negate[i] == 1 { -magnitude } else { magnitude }
            };
            let (a, b) = (operand(0), operand(1));
            proptest::prop_assert_eq!(gcd_i128(a, b), euclid(a, b).unwrap());
            proptest::prop_assert_eq!(checked_gcd_i128(a, b), euclid(a, b));
        }
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
