//! Rational-linear functions and their finite minima: the positive-orthant
//! form of the continuous obliviously-computable class.

use crn_numeric::{QVec, Rational};

/// A rational-linear function `z ↦ ∇ · z` with a nonnegative gradient.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RationalLinear {
    gradient: QVec,
}

impl RationalLinear {
    /// Creates the linear function with the given gradient.
    ///
    /// # Panics
    ///
    /// Panics if the gradient has a negative component (the continuous class
    /// contains only nonnegative-valued functions on the positive orthant).
    #[must_use]
    pub fn new(gradient: QVec) -> Self {
        assert!(
            gradient.is_nonnegative(),
            "rational-linear pieces must have nonnegative gradients"
        );
        RationalLinear { gradient }
    }

    /// The gradient `∇`.
    #[must_use]
    pub fn gradient(&self) -> &QVec {
        &self.gradient
    }

    /// The dimension `d`.
    #[must_use]
    pub fn dim(&self) -> usize {
        self.gradient.dim()
    }

    /// Evaluates `∇ · z`.
    #[must_use]
    pub fn eval(&self, z: &QVec) -> Rational {
        self.gradient.dot(z)
    }
}

/// A minimum of finitely many rational-linear functions,
/// `f̂(z) = min_k ∇_k · z`, the canonical representative of the continuous
/// obliviously-computable class on the positive orthant (Lemma 8 of \[9\],
/// quoted in the proof of Theorem 8.2).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MinOfLinear {
    pieces: Vec<RationalLinear>,
}

impl MinOfLinear {
    /// Builds the minimum of the given gradients.
    ///
    /// # Panics
    ///
    /// Panics if no gradients are supplied, dimensions disagree, or a gradient
    /// has a negative component.
    #[must_use]
    pub fn new(gradients: Vec<QVec>) -> Self {
        assert!(!gradients.is_empty(), "need at least one linear piece");
        let dim = gradients[0].dim();
        assert!(
            gradients.iter().all(|g| g.dim() == dim),
            "gradient dimensions disagree"
        );
        MinOfLinear {
            pieces: gradients.into_iter().map(RationalLinear::new).collect(),
        }
    }

    /// The linear pieces.
    #[must_use]
    pub fn pieces(&self) -> &[RationalLinear] {
        &self.pieces
    }

    /// The dimension `d`.
    #[must_use]
    pub fn dim(&self) -> usize {
        self.pieces[0].dim()
    }

    /// Evaluates `min_k ∇_k · z`.
    #[must_use]
    pub fn eval(&self, z: &QVec) -> Rational {
        self.pieces
            .iter()
            .map(|p| p.eval(z))
            .min()
            .expect("at least one piece")
    }

    /// Checks superadditivity `f̂(a) + f̂(b) ≤ f̂(a + b)` on the rational grid
    /// `{0, 1, …, resolution}^d / 1` (a finite certificate; minima of linear
    /// functions are always superadditive, so this should never fail).
    #[must_use]
    pub fn is_superadditive_on_grid(&self, resolution: u64) -> bool {
        let points = grid(self.dim(), resolution);
        for a in &points {
            for b in &points {
                let sum = a.add(b);
                if self.eval(a) + self.eval(b) > self.eval(&sum) {
                    return false;
                }
            }
        }
        true
    }

    /// Checks positive-homogeneity `f̂(c·z) = c·f̂(z)` on a grid — the property
    /// that distinguishes the continuous (scaling-limit) class from the
    /// discrete one, whose periodic offsets break homogeneity.
    #[must_use]
    pub fn is_homogeneous_on_grid(&self, resolution: u64) -> bool {
        let points = grid(self.dim(), resolution);
        for z in &points {
            for c in 1..=4u64 {
                let scaled = z.scale(Rational::from(c));
                if self.eval(&scaled) != self.eval(z) * Rational::from(c) {
                    return false;
                }
            }
        }
        true
    }
}

fn grid(dim: usize, resolution: u64) -> Vec<QVec> {
    crn_numeric::NVec::box_iter(dim, resolution)
        .map(|x| x.iter().map(|&c| Rational::from(c)).collect())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn min_of_projections_is_continuous_min() {
        let f = MinOfLinear::new(vec![QVec::from(vec![1, 0]), QVec::from(vec![0, 1])]);
        assert_eq!(
            f.eval(&QVec::from(vec![Rational::from(3), Rational::from(7)])),
            Rational::from(3)
        );
        assert!(f.is_superadditive_on_grid(4));
        assert!(f.is_homogeneous_on_grid(4));
        assert_eq!(f.dim(), 2);
        assert_eq!(f.pieces().len(), 2);
    }

    #[test]
    fn fractional_gradients() {
        // The scaling limit of the Figure 7 example: min(z1, z2, (z1+z2)/2)
        // — note (z1+z2)/2 >= min(z1,z2) so the third piece is redundant in
        // the limit, matching Figure 4b's shape.
        let f = MinOfLinear::new(vec![
            QVec::from(vec![1, 0]),
            QVec::from(vec![0, 1]),
            QVec::from(vec![Rational::new(1, 2), Rational::new(1, 2)]),
        ]);
        let z = QVec::from(vec![Rational::from(2), Rational::from(6)]);
        assert_eq!(f.eval(&z), Rational::from(2));
    }

    #[test]
    #[should_panic(expected = "nonnegative")]
    fn negative_gradient_rejected() {
        let _ = RationalLinear::new(QVec::from(vec![-1, 0]));
    }

    #[test]
    #[should_panic(expected = "at least one")]
    fn empty_min_rejected() {
        let _ = MinOfLinear::new(vec![]);
    }

    proptest! {
        #[test]
        fn min_of_linear_is_always_superadditive(
            g1 in proptest::collection::vec(0i64..5, 2),
            g2 in proptest::collection::vec(0i64..5, 2),
            a in proptest::collection::vec(0i64..10, 2),
            b in proptest::collection::vec(0i64..10, 2),
        ) {
            let f = MinOfLinear::new(vec![QVec::from(g1), QVec::from(g2)]);
            let a = QVec::from(a);
            let b = QVec::from(b);
            prop_assert!(f.eval(&a) + f.eval(&b) <= f.eval(&a.add(&b)));
        }
    }
}
