//! The library of semilinear functions used throughout the paper.

use crn_numeric::{QVec, Rational, ZVec};

use crate::affine::AffinePiece;
use crate::function::SemilinearFunction;
use crate::modset::ModSet;
use crate::set::SemilinearSet;
use crate::threshold::ThresholdSet;

fn le(dim: usize, i: usize, j: usize) -> SemilinearSet {
    // x(i) <= x(j)
    let mut coeffs = vec![0i64; dim];
    coeffs[i] = -1;
    coeffs[j] = 1;
    SemilinearSet::threshold(ThresholdSet::new(ZVec::from(coeffs), 0))
}

fn gt(dim: usize, i: usize, j: usize) -> SemilinearSet {
    // x(i) > x(j)
    let mut coeffs = vec![0i64; dim];
    coeffs[i] = 1;
    coeffs[j] = -1;
    SemilinearSet::threshold(ThresholdSet::new(ZVec::from(coeffs), 1))
}

fn eq(dim: usize, i: usize, j: usize) -> SemilinearSet {
    le(dim, i, j).and(le(dim, j, i))
}

/// `min(x1, x2)` (Figure 1): `x1` on `x1 ≤ x2`, `x2` on `x1 > x2`.
#[must_use]
pub fn min2() -> SemilinearFunction {
    SemilinearFunction::new(
        2,
        vec![
            (le(2, 0, 1), AffinePiece::integer(vec![1, 0], 0)),
            (gt(2, 0, 1), AffinePiece::integer(vec![0, 1], 0)),
        ],
    )
    .expect("valid presentation")
}

/// `max(x1, x2)` (Figure 1 / Section 4): semilinear and nondecreasing but not
/// obliviously-computable.
#[must_use]
pub fn max2() -> SemilinearFunction {
    SemilinearFunction::new(
        2,
        vec![
            (le(2, 0, 1), AffinePiece::integer(vec![0, 1], 0)),
            (gt(2, 0, 1), AffinePiece::integer(vec![1, 0], 0)),
        ],
    )
    .expect("valid presentation")
}

/// `⌊3x/2⌋` (Figure 3a): `3x/2` on even `x`, `3x/2 − 1/2` on odd `x`.
#[must_use]
pub fn floor_three_halves() -> SemilinearFunction {
    let even = SemilinearSet::modular(ModSet::new(ZVec::from(vec![1]), 0, 2));
    let odd = SemilinearSet::modular(ModSet::new(ZVec::from(vec![1]), 1, 2));
    let three_halves = |offset| {
        AffinePiece::new(QVec::from(vec![Rational::new(3, 2)]), offset)
            .expect("denominator 2 fits i128")
    };
    SemilinearFunction::new(
        1,
        vec![
            (even, three_halves(Rational::ZERO)),
            (odd, three_halves(Rational::new(-1, 2))),
        ],
    )
    .expect("valid presentation")
}

/// `min(1, x)` (Figure 2): `x` on `x ≤ 1`, `1` on `x > 1`.
#[must_use]
pub fn min_one() -> SemilinearFunction {
    let le1 = SemilinearSet::threshold(ThresholdSet::component_at_most(1, 0, 1));
    let gt1 = SemilinearSet::threshold(ThresholdSet::component_at_least(1, 0, 2));
    SemilinearFunction::new(
        1,
        vec![
            (le1, AffinePiece::integer(vec![1], 0)),
            (gt1, AffinePiece::constant(1, 1)),
        ],
    )
    .expect("valid presentation")
}

/// The identity `f(x) = x`.
#[must_use]
pub fn identity() -> SemilinearFunction {
    SemilinearFunction::new(
        1,
        vec![(SemilinearSet::all(1), AffinePiece::integer(vec![1], 0))],
    )
    .expect("valid presentation")
}

/// `f(x) = kx`.
#[must_use]
pub fn multiply(k: i64) -> SemilinearFunction {
    SemilinearFunction::new(
        1,
        vec![(SemilinearSet::all(1), AffinePiece::integer(vec![k], 0))],
    )
    .expect("valid presentation")
}

/// `f(x1, x2) = x1 + x2`.
#[must_use]
pub fn add2() -> SemilinearFunction {
    SemilinearFunction::new(
        2,
        vec![(SemilinearSet::all(2), AffinePiece::integer(vec![1, 1], 0))],
    )
    .expect("valid presentation")
}

/// `f(x) = max(x − k, 0)` (truncated subtraction of a constant): semilinear,
/// nondecreasing, obliviously-computable with a leader.
#[must_use]
pub fn truncated_subtraction(k: i64) -> SemilinearFunction {
    let below = SemilinearSet::threshold(ThresholdSet::component_at_most(1, 0, k));
    let above = SemilinearSet::threshold(ThresholdSet::component_at_least(1, 0, k + 1));
    SemilinearFunction::new(
        1,
        vec![
            (below, AffinePiece::constant(1, 0)),
            (above, AffinePiece::integer(vec![1], -k)),
        ],
    )
    .expect("valid presentation")
}

/// `f(x) = max(k − x, 0)`: a *decreasing* semilinear function, used as a
/// negative example (it violates Observation 2.1).
#[must_use]
pub fn truncated_subtraction_from(k: i64) -> SemilinearFunction {
    let below = SemilinearSet::threshold(ThresholdSet::component_at_most(1, 0, k));
    let above = SemilinearSet::threshold(ThresholdSet::component_at_least(1, 0, k + 1));
    SemilinearFunction::new(
        1,
        vec![
            (below, AffinePiece::integer(vec![-1], k)),
            (above, AffinePiece::constant(1, 0)),
        ],
    )
    .expect("valid presentation")
}

/// The Section 7.1 motivating example (Figure 7):
///
/// ```text
/// f(x1, x2) = x1 + 1  if x1 < x2   (region D1)
///             x2 + 1  if x1 > x2   (region D2)
///             x1      if x1 = x2   (region U)
/// ```
///
/// Semilinear, nondecreasing, and obliviously-computable; its eventual-min
/// representation is `min(x1 + 1, x2 + 1, ⌈(x1+x2)/2⌉)`.
#[must_use]
pub fn figure7_example() -> SemilinearFunction {
    let lt = |i: usize, j: usize| gt(2, j, i); // x(i) < x(j)
    SemilinearFunction::new(
        2,
        vec![
            (lt(0, 1), AffinePiece::integer(vec![1, 0], 1)),
            (lt(1, 0), AffinePiece::integer(vec![0, 1], 1)),
            (eq(2, 0, 1), AffinePiece::integer(vec![1, 0], 0)),
        ],
    )
    .expect("valid presentation")
}

/// The equation (2) counterexample of Section 7.4:
///
/// ```text
/// f(x1, x2) = x1 + x2 + 1  if x1 ≠ x2
///             x1 + x2      if x1 = x2
/// ```
///
/// Semilinear and nondecreasing, yet **not** obliviously-computable: the
/// diagonal strip's value is depressed below the unique quilt-affine extension
/// of both determined regions, and Lemma 4.1 applies with `a_i = (i, 0)`,
/// `Δ_ij = (0, j)`.
#[must_use]
pub fn equation2_counterexample() -> SemilinearFunction {
    SemilinearFunction::new(
        2,
        vec![
            (eq(2, 0, 1).not(), AffinePiece::integer(vec![1, 1], 1)),
            (eq(2, 0, 1), AffinePiece::integer(vec![1, 1], 0)),
        ],
    )
    .expect("valid presentation")
}

/// A 1-D "staircase with a jump" example: `f(x) = 0` for `x < 3`, and
/// `f(x) = 2x + (x mod 2)` for `x ≥ 3`.  Semilinear and nondecreasing, hence
/// obliviously-computable by Theorem 3.1; exercises both a nontrivial
/// threshold `n` and a nontrivial period `p = 2`.
#[must_use]
pub fn staircase_1d() -> SemilinearFunction {
    let below = SemilinearSet::threshold(ThresholdSet::component_at_most(1, 0, 2));
    let above_even = SemilinearSet::threshold(ThresholdSet::component_at_least(1, 0, 3)).and(
        SemilinearSet::modular(ModSet::new(ZVec::from(vec![1]), 0, 2)),
    );
    let above_odd = SemilinearSet::threshold(ThresholdSet::component_at_least(1, 0, 3)).and(
        SemilinearSet::modular(ModSet::new(ZVec::from(vec![1]), 1, 2)),
    );
    SemilinearFunction::new(
        1,
        vec![
            (below, AffinePiece::constant(1, 0)),
            (above_even, AffinePiece::integer(vec![2], 0)),
            (above_odd, AffinePiece::integer(vec![2], 1)),
        ],
    )
    .expect("valid presentation")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crn_numeric::NVec;

    #[test]
    fn all_examples_are_valid_presentations() {
        for (name, f, bound) in [
            ("min2", min2(), 6),
            ("max2", max2(), 6),
            ("floor_three_halves", floor_three_halves(), 10),
            ("min_one", min_one(), 10),
            ("identity", identity(), 10),
            ("add2", add2(), 6),
            ("truncated_subtraction", truncated_subtraction(3), 10),
            (
                "truncated_subtraction_from",
                truncated_subtraction_from(3),
                10,
            ),
            ("figure7_example", figure7_example(), 6),
            ("equation2_counterexample", equation2_counterexample(), 6),
            ("staircase_1d", staircase_1d(), 10),
        ] {
            assert!(
                f.validate_on_box(bound).is_ok(),
                "{name} has an invalid presentation: {:?}",
                f.validate_on_box(bound)
            );
        }
    }

    #[test]
    fn closed_forms_match() {
        for x1 in 0..6u64 {
            for x2 in 0..6u64 {
                let x = NVec::from(vec![x1, x2]);
                assert_eq!(min2().eval(&x).unwrap(), x1.min(x2));
                assert_eq!(max2().eval(&x).unwrap(), x1.max(x2));
                assert_eq!(add2().eval(&x).unwrap(), x1 + x2);
                let fig7 = if x1 < x2 {
                    x1 + 1
                } else if x1 > x2 {
                    x2 + 1
                } else {
                    x1
                };
                assert_eq!(figure7_example().eval(&x).unwrap(), fig7);
                let eq2 = if x1 == x2 { x1 + x2 } else { x1 + x2 + 1 };
                assert_eq!(equation2_counterexample().eval(&x).unwrap(), eq2);
            }
        }
        for x in 0..10u64 {
            assert_eq!(
                floor_three_halves().eval(&NVec::from(vec![x])).unwrap(),
                3 * x / 2
            );
            assert_eq!(min_one().eval(&NVec::from(vec![x])).unwrap(), x.min(1));
            assert_eq!(identity().eval(&NVec::from(vec![x])).unwrap(), x);
            assert_eq!(multiply(4).eval(&NVec::from(vec![x])).unwrap(), 4 * x);
            assert_eq!(
                truncated_subtraction(3).eval(&NVec::from(vec![x])).unwrap(),
                x.saturating_sub(3)
            );
            let stair = if x < 3 { 0 } else { 2 * x + (x % 2) };
            assert_eq!(staircase_1d().eval(&NVec::from(vec![x])).unwrap(), stair);
        }
    }

    #[test]
    fn monotonicity_classification_of_examples() {
        assert!(min2().is_nondecreasing_on_box(6).is_none());
        assert!(max2().is_nondecreasing_on_box(6).is_none());
        assert!(figure7_example().is_nondecreasing_on_box(6).is_none());
        assert!(equation2_counterexample()
            .is_nondecreasing_on_box(6)
            .is_none());
        assert!(staircase_1d().is_nondecreasing_on_box(10).is_none());
        assert!(truncated_subtraction_from(3)
            .is_nondecreasing_on_box(6)
            .is_some());
    }

    #[test]
    fn superadditivity_classification_of_examples() {
        // min, identity, add are superadditive; max and min_one are not.
        assert!(min2().is_superadditive_on_box(4).is_none());
        assert!(add2().is_superadditive_on_box(4).is_none());
        assert!(identity().is_superadditive_on_box(8).is_none());
        assert!(max2().is_superadditive_on_box(3).is_some());
        // min(1, x): min(1,1) + min(1,1) = 2 > min(1,2) = 1.
        assert!(min_one().is_superadditive_on_box(3).is_some());
    }
}
