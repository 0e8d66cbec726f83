//! The ∞-scaling of Theorem 8.2: the correspondence with continuous
//! rate-independent CRNs (Chalk, Kornerup, Reeves, Soloveichik).

use crn_continuous::MinOfLinear;
use crn_numeric::{NVec, QVec, Rational};

use crate::spec::EventuallyMin;

/// The ∞-scaling `f̂(z) = lim_{c→∞} f(⌊cz⌋)/c` of a function with an
/// eventual-min representation (Definition 8.1 / Theorem 8.2).
///
/// For `f(x) = min_k g_k(x)` eventually, the scaling limit is the minimum of
/// the *linear parts* of the pieces: `f̂(z) = min_k ∇g_k · z` (the bounded
/// periodic offsets vanish in the limit), which is exactly the function class
/// obliviously-computable by continuous CRNs.
#[derive(Debug, Clone, PartialEq)]
pub struct InfinityScaling {
    gradients: Vec<QVec>,
}

impl InfinityScaling {
    /// Computes the scaling limit of an eventual-min representation.
    #[must_use]
    pub fn of(eventual: &EventuallyMin) -> Self {
        InfinityScaling {
            gradients: eventual
                .pieces()
                .iter()
                .map(|g| g.gradient().clone())
                .collect(),
        }
    }

    /// The gradients `∇g_k` of the pieces.
    #[must_use]
    pub fn gradients(&self) -> &[QVec] {
        &self.gradients
    }

    /// Evaluates `f̂(z) = min_k ∇g_k · z` at a rational point.
    ///
    /// # Panics
    ///
    /// Panics if there are no pieces (an [`EventuallyMin`] always has one).
    #[must_use]
    pub fn eval(&self, z: &QVec) -> Rational {
        self.gradients
            .iter()
            .map(|g| g.dot(z))
            .min()
            .expect("at least one piece")
    }

    /// Converts into the continuous-CRN function class of Chalk et al.: a
    /// min-of-rational-linear function on the positive orthant.
    #[must_use]
    pub fn to_min_of_linear(&self) -> MinOfLinear {
        MinOfLinear::new(self.gradients.clone())
    }

    /// Empirically measures the convergence `|f(⌊cz⌋)/c − f̂(z)|` for a
    /// discrete function oracle at scaling factor `c` (the data series of
    /// experiment E11).
    #[must_use]
    pub fn scaling_error(&self, f: &dyn Fn(&NVec) -> u64, z: &QVec, c: u64) -> f64 {
        let scaled: NVec = z
            .iter()
            .map(|&zi| (zi * Rational::from(c)).floor().max(0) as u64)
            .collect();
        let discrete = f(&scaled) as f64 / c as f64;
        (discrete - self.eval(z).to_f64()).abs()
    }
}

/// Verifies Theorem 8.2 numerically: the scaling error at factors
/// `c, 2c, 4c, …` is (weakly) decreasing towards zero for strictly positive
/// `z`.  Returns the error series.
#[must_use]
pub fn scaling_error_series(
    scaling: &InfinityScaling,
    f: &dyn Fn(&NVec) -> u64,
    z: &QVec,
    factors: &[u64],
) -> Vec<(u64, f64)> {
    factors
        .iter()
        .map(|&c| (c, scaling.scaling_error(f, z, c)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::quilt::QuiltAffine;

    fn min_eventual() -> EventuallyMin {
        let g1 = QuiltAffine::affine(&QVec::from(vec![1, 0]), Rational::ONE).unwrap();
        let g2 = QuiltAffine::affine(&QVec::from(vec![0, 1]), Rational::from(3)).unwrap();
        EventuallyMin::new(NVec::zeros(2), vec![g1, g2]).unwrap()
    }

    #[test]
    fn scaling_drops_constant_offsets() {
        // min(x1 + 1, x2 + 3) scales to min(z1, z2).
        let scaling = InfinityScaling::of(&min_eventual());
        assert_eq!(scaling.gradients().len(), 2);
        let z = QVec::from(vec![Rational::from(2), Rational::from(5)]);
        assert_eq!(scaling.eval(&z), Rational::from(2));
        let z = QVec::from(vec![Rational::from(7), Rational::from(5)]);
        assert_eq!(scaling.eval(&z), Rational::from(5));
    }

    #[test]
    fn scaling_of_quilt_affine_is_its_linear_part() {
        // floor(3x/2) scales to (3/2) z.
        let g = QuiltAffine::floor_linear(&QVec::from(vec![Rational::new(3, 2)]), 2);
        let eventual = EventuallyMin::new(NVec::zeros(1), vec![g]).unwrap();
        let scaling = InfinityScaling::of(&eventual);
        assert_eq!(
            scaling.eval(&QVec::from(vec![Rational::from(4)])),
            Rational::from(6)
        );
    }

    #[test]
    fn scaling_error_decreases_with_c() {
        let g = QuiltAffine::floor_linear(&QVec::from(vec![Rational::new(3, 2)]), 2);
        let eventual = EventuallyMin::new(NVec::zeros(1), vec![g]).unwrap();
        let scaling = InfinityScaling::of(&eventual);
        let f = |x: &NVec| 3 * x[0] / 2;
        let z = QVec::from(vec![Rational::new(7, 3)]);
        let series = scaling_error_series(&scaling, &f, &z, &[1, 4, 16, 64, 256]);
        assert!(series.last().unwrap().1 < series.first().unwrap().1 + 1e-9);
        assert!(series.last().unwrap().1 < 0.02);
    }

    #[test]
    fn conversion_to_continuous_class() {
        let scaling = InfinityScaling::of(&min_eventual());
        let continuous = scaling.to_min_of_linear();
        let z = QVec::from(vec![Rational::from(3), Rational::from(4)]);
        assert_eq!(continuous.eval(&z), Rational::from(3));
        assert!(continuous.is_superadditive_on_grid(4));
    }
}
