//! Semilinear functions: finite unions of affine partial functions on disjoint
//! semilinear domains (Definition 2.6).

use crn_numeric::NVec;

use crate::affine::AffinePiece;
use crate::set::SemilinearSet;

/// Errors arising when evaluating or validating a semilinear presentation.
///
/// Each names the point it was found at.  A value is classified exactly,
/// for every count up to `u64::MAX`: a fraction or a negative value is
/// [`NotNatural`](Self::NotNatural), a nonnegative integer too large for
/// the `u64` codomain is [`OutOfRange`](Self::OutOfRange).
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum SemilinearFunctionError {
    /// No piece's domain contains the point.
    NotCovered(NVec),
    /// More than one piece's domain contains the point (the domains are
    /// required to be disjoint).
    Overlap(NVec),
    /// The active piece's value at the point is a fraction or negative.
    NotNatural(NVec),
    /// The active piece's value at the point is an integer past `u64::MAX`.
    OutOfRange(NVec),
    /// A piece has the wrong dimension.
    DimensionMismatch,
}

impl std::fmt::Display for SemilinearFunctionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SemilinearFunctionError::NotCovered(x) => {
                write!(f, "no piece covers the point {x}")
            }
            SemilinearFunctionError::Overlap(x) => {
                write!(f, "two pieces overlap at the point {x}")
            }
            SemilinearFunctionError::NotNatural(x) => {
                write!(f, "value at {x} is not a nonnegative integer")
            }
            SemilinearFunctionError::OutOfRange(x) => {
                write!(f, "value at {x} is an integer past u64::MAX")
            }
            SemilinearFunctionError::DimensionMismatch => write!(f, "piece dimension mismatch"),
        }
    }
}

impl std::error::Error for SemilinearFunctionError {}

/// A semilinear function `f : N^d → N` presented as a finite union of affine
/// partial functions whose domains are disjoint semilinear sets
/// (Definition 2.6).
///
/// The presentation is *not* unique; the Section 7 machinery fixes one
/// arbitrary presentation and works with its thresholds and mods.
///
/// ```
/// use crn_numeric::NVec;
/// use crn_semilinear::examples;
///
/// let f = examples::floor_three_halves();
/// assert_eq!(f.eval(&NVec::from(vec![5])).unwrap(), 7);   // ⌊15/2⌋
/// assert_eq!(f.eval(&NVec::from(vec![4])).unwrap(), 6);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SemilinearFunction {
    dim: usize,
    pieces: Vec<(SemilinearSet, AffinePiece)>,
}

impl SemilinearFunction {
    /// Builds a presentation from `(domain, affine piece)` pairs.
    ///
    /// # Errors
    ///
    /// Returns [`SemilinearFunctionError::DimensionMismatch`] if any piece or
    /// domain has a dimension different from `dim`.
    pub fn new(
        dim: usize,
        pieces: Vec<(SemilinearSet, AffinePiece)>,
    ) -> Result<Self, SemilinearFunctionError> {
        for (domain, piece) in &pieces {
            if domain.dim() != dim || piece.dim() != dim {
                return Err(SemilinearFunctionError::DimensionMismatch);
            }
        }
        Ok(SemilinearFunction { dim, pieces })
    }

    /// The input dimension `d`.
    #[must_use]
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// The `(domain, piece)` pairs of the presentation.
    #[must_use]
    pub fn pieces(&self) -> &[(SemilinearSet, AffinePiece)] {
        &self.pieces
    }

    /// Evaluates `f(x)`.
    ///
    /// # Errors
    ///
    /// Returns an error if no domain covers `x` or the active piece's value is
    /// not in `N` (see [`AffinePiece::eval_integer`]).  (Overlapping domains
    /// are tolerated here and resolved in favour of the first piece; use
    /// [`SemilinearFunction::validate_on_box`] to check disjointness.)
    pub fn eval(&self, x: &NVec) -> Result<u64, SemilinearFunctionError> {
        for (domain, piece) in &self.pieces {
            if domain.contains(x) {
                return piece.eval_integer(x);
            }
        }
        Err(SemilinearFunctionError::NotCovered(x.clone()))
    }

    /// Validates the presentation on every point of `[0, bound]^d`, in
    /// lexicographic order: total coverage, disjoint domains, and values in
    /// `N`.  One point is stepped through the box in place, so the walk
    /// allocates nothing and the first violation comes back at once however
    /// large the box.
    ///
    /// # Errors
    ///
    /// Returns the first violation found.
    pub fn validate_on_box(&self, bound: u64) -> Result<(), SemilinearFunctionError> {
        let mut x = NVec::zeros(self.dim);
        loop {
            let mut matches = 0;
            for (domain, piece) in &self.pieces {
                if domain.contains(&x) {
                    matches += 1;
                    piece.eval_integer(&x)?;
                }
            }
            match matches {
                0 => return Err(SemilinearFunctionError::NotCovered(x)),
                1 => {}
                _ => return Err(SemilinearFunctionError::Overlap(x)),
            }
            if !x.step_in_box(bound) {
                return Ok(());
            }
        }
    }

    /// Checks that `f` is nondecreasing on `[0, bound]^d`: `x ≤ y ⇒ f(x) ≤ f(y)`.
    /// Returns a violating pair if one exists (Observation 2.1 says such a
    /// pair rules out oblivious computability).
    #[must_use]
    pub fn is_nondecreasing_on_box(&self, bound: u64) -> Option<(NVec, NVec)> {
        for x in NVec::box_iter(self.dim, bound) {
            let fx = match self.eval(&x) {
                Ok(v) => v,
                Err(_) => continue,
            };
            // It suffices to compare against the d successors x + e_i.
            for i in (0..self.dim).filter(|&i| x[i] < bound) {
                let mut y = x.clone();
                y[i] += 1;
                if let Ok(fy) = self.eval(&y) {
                    if fy < fx {
                        return Some((x, y));
                    }
                }
            }
        }
        None
    }

    /// Checks superadditivity `f(x) + f(y) ≤ f(x + y)` on `[0, bound]^d`
    /// (the necessary condition for *leaderless* oblivious computation,
    /// Observation 9.1).  Returns a violating pair if one exists.
    #[must_use]
    pub fn is_superadditive_on_box(&self, bound: u64) -> Option<(NVec, NVec)> {
        for x in NVec::box_iter(self.dim, bound) {
            for y in NVec::box_iter(self.dim, bound) {
                let sum = &x + &y;
                let (Ok(fx), Ok(fy), Ok(fsum)) = (self.eval(&x), self.eval(&y), self.eval(&sum))
                else {
                    continue;
                };
                if fx + fy > fsum {
                    return Some((x, y));
                }
            }
        }
        None
    }

    /// The fixed-input restriction `f[x(i) → j]` as a semilinear function on
    /// `N^{d−1}` (Observation 5.3 / condition (iii) of Theorem 5.2), or
    /// `None` where a piece's folded offset does not fit `i128` (see
    /// [`AffinePiece::substitute`]).
    ///
    /// # Panics
    ///
    /// Panics if `i >= dim`.
    #[must_use]
    pub fn restrict(&self, i: usize, j: u64) -> Option<SemilinearFunction> {
        assert!(i < self.dim, "component index out of range");
        Some(SemilinearFunction {
            dim: self.dim - 1,
            pieces: self
                .pieces
                .iter()
                .map(|(domain, piece)| Some((domain.substitute(i, j), piece.substitute(i, j)?)))
                .collect::<Option<_>>()?,
        })
    }

    /// Tabulates `f` on `[0, bound]^d` as `(x, f(x))` pairs, skipping points
    /// where evaluation fails.  Used by the figure-regeneration experiments.
    #[must_use]
    pub fn table(&self, bound: u64) -> Vec<(NVec, u64)> {
        NVec::box_iter(self.dim, bound)
            .filter_map(|x| self.eval(&x).ok().map(|v| (x, v)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::examples;
    use crn_numeric::{QVec, Rational};
    use proptest::prelude::*;

    #[test]
    fn min_is_valid_nondecreasing_not_superadditive_violation_free() {
        let min = examples::min2();
        assert!(min.validate_on_box(6).is_ok());
        assert!(min.is_nondecreasing_on_box(6).is_none());
        // min is superadditive: min(a+c, b+d) >= min(a,b) + min(c,d).
        assert!(min.is_superadditive_on_box(4).is_none());
    }

    #[test]
    fn max_is_nondecreasing_but_not_superadditive() {
        let max = examples::max2();
        assert!(max.validate_on_box(6).is_ok());
        assert!(max.is_nondecreasing_on_box(6).is_none());
        // max(1,0) + max(0,1) = 2 > max(1,1) = 1.
        let violation = max.is_superadditive_on_box(3);
        assert!(violation.is_some());
    }

    #[test]
    fn decreasing_function_detected() {
        let dec = examples::truncated_subtraction_from(3);
        assert_eq!(dec.eval(&NVec::from(vec![0])).unwrap(), 3);
        assert_eq!(dec.eval(&NVec::from(vec![5])).unwrap(), 0);
        let violation = dec.is_nondecreasing_on_box(5);
        assert!(violation.is_some());
        let (x, y) = violation.unwrap();
        assert!(x.le(&y));
        assert!(dec.eval(&x).unwrap() > dec.eval(&y).unwrap());
    }

    #[test]
    fn restriction_of_min_is_min_with_constant() {
        let min = examples::min2();
        let restricted = min.restrict(1, 2).unwrap();
        assert_eq!(restricted.dim(), 1);
        for x in 0..7u64 {
            assert_eq!(restricted.eval(&NVec::from(vec![x])).unwrap(), x.min(2));
        }
    }

    #[test]
    fn table_matches_eval() {
        let f = examples::floor_three_halves();
        let table = f.table(6);
        assert_eq!(table.len(), 7);
        for (x, v) in table {
            assert_eq!(v, 3 * x[0] / 2);
        }
    }

    #[test]
    fn overlap_and_coverage_detected() {
        use crate::set::SemilinearSet;
        // Two copies of the full domain: overlap everywhere.
        let overlapping = SemilinearFunction::new(
            1,
            vec![
                (SemilinearSet::all(1), AffinePiece::integer(vec![1], 0)),
                (SemilinearSet::all(1), AffinePiece::integer(vec![1], 1)),
            ],
        )
        .unwrap();
        assert!(matches!(
            overlapping.validate_on_box(2),
            Err(SemilinearFunctionError::Overlap(_))
        ));
        // Empty presentation: nothing covered.
        let empty = SemilinearFunction::new(1, vec![]).unwrap();
        assert!(matches!(
            empty.validate_on_box(1),
            Err(SemilinearFunctionError::NotCovered(_))
        ));
        assert!(matches!(
            empty.eval(&NVec::from(vec![0])),
            Err(SemilinearFunctionError::NotCovered(_))
        ));
    }

    #[test]
    fn huge_boxes_are_validated_lazily() {
        use crate::set::SemilinearSet;
        use crate::threshold::ThresholdSet;
        // Covered on [0, 2] and from 4 on, but not at 3: the first
        // violation of a box with 2^64 - 1 points comes back at once.
        let gap = SemilinearFunction::new(
            1,
            vec![
                (
                    SemilinearSet::threshold(ThresholdSet::component_at_most(1, 0, 2)),
                    AffinePiece::integer(vec![0], 0),
                ),
                (
                    SemilinearSet::threshold(ThresholdSet::component_at_least(1, 0, 4)),
                    AffinePiece::integer(vec![0], 1),
                ),
            ],
        )
        .unwrap();
        assert_eq!(
            gap.validate_on_box(u64::MAX - 1),
            Err(SemilinearFunctionError::NotCovered(NVec::from(vec![3])))
        );
        // The nondecreasing scan also stops at its first violating pair,
        // however large the box.
        let decreasing = SemilinearFunction::new(
            1,
            vec![
                (
                    SemilinearSet::threshold(ThresholdSet::component_at_most(1, 0, 0)),
                    AffinePiece::integer(vec![0], 1),
                ),
                (
                    SemilinearSet::threshold(ThresholdSet::component_at_least(1, 0, 1)),
                    AffinePiece::integer(vec![0], 0),
                ),
            ],
        )
        .unwrap();
        assert_eq!(
            decreasing.is_nondecreasing_on_box(u64::MAX),
            Some((NVec::from(vec![0]), NVec::from(vec![1])))
        );
    }

    #[test]
    fn a_value_past_u64_is_out_of_range_at_every_count() {
        use crate::threshold::ThresholdSet;
        // fn f(x) { case x >= 0: 18446744073709551615 x; }: u64::MAX is in
        // the domain, and f(2) = 2^65 - 2 is an integer past u64::MAX, not
        // "not natural".
        let f = SemilinearFunction::new(
            1,
            vec![(
                SemilinearSet::threshold(ThresholdSet::component_at_least(1, 0, 0)),
                AffinePiece::new(QVec::from(vec![Rational::from(u64::MAX)]), Rational::ZERO)
                    .unwrap(),
            )],
        )
        .unwrap();
        assert_eq!(f.eval(&NVec::from(vec![1])), Ok(u64::MAX));
        for x in [2, u64::MAX] {
            let x = NVec::from(vec![x]);
            assert_eq!(
                f.eval(&x),
                Err(SemilinearFunctionError::OutOfRange(x.clone()))
            );
        }
        assert_eq!(
            f.validate_on_box(5),
            Err(SemilinearFunctionError::OutOfRange(NVec::from(vec![2])))
        );
    }

    #[test]
    fn dimension_mismatch_rejected() {
        let err = SemilinearFunction::new(
            2,
            vec![(SemilinearSet::all(1), AffinePiece::integer(vec![1], 0))],
        )
        .unwrap_err();
        assert_eq!(err, SemilinearFunctionError::DimensionMismatch);
    }

    proptest! {
        #[test]
        fn min_presentation_matches_closed_form(x1 in 0u64..30, x2 in 0u64..30) {
            let min = examples::min2();
            prop_assert_eq!(min.eval(&NVec::from(vec![x1, x2])).unwrap(), x1.min(x2));
        }

        #[test]
        fn restriction_agrees_with_direct_evaluation(x1 in 0u64..10, j in 0u64..10) {
            let max = examples::max2();
            let restricted = max.restrict(1, j).unwrap();
            prop_assert_eq!(
                restricted.eval(&NVec::from(vec![x1])).unwrap(),
                max.eval(&NVec::from(vec![x1, j])).unwrap()
            );
        }
    }
}
