//! Declarative specifications of obliviously-computable functions: the shape
//! required by Theorem 5.2.

use std::collections::BTreeMap;

use crn_numeric::{NVec, WideInt};

use crate::error::CoreError;
use crate::quilt::QuiltAffine;

/// An *eventual-min* representation: for all `x ≥ n`,
/// `f(x) = min_k g_k(x)` for a finite set of quilt-affine functions
/// (condition (ii) of Theorem 5.2).
#[derive(Debug, Clone, PartialEq)]
pub struct EventuallyMin {
    threshold: NVec,
    pieces: Vec<QuiltAffine>,
}

impl EventuallyMin {
    /// Creates an eventual-min representation valid for `x ≥ threshold`.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidSpec`] if there are no pieces or their
    /// dimensions disagree with the threshold's.
    pub fn new(threshold: NVec, pieces: Vec<QuiltAffine>) -> Result<Self, CoreError> {
        if pieces.is_empty() {
            return Err(CoreError::InvalidSpec(
                "eventual-min representation needs at least one quilt-affine piece".into(),
            ));
        }
        if pieces.iter().any(|g| g.dim() != threshold.dim()) {
            return Err(CoreError::InvalidSpec(
                "piece dimension differs from threshold dimension".into(),
            ));
        }
        Ok(EventuallyMin { threshold, pieces })
    }

    /// The threshold `n` above which the representation is valid.
    #[must_use]
    pub fn threshold(&self) -> &NVec {
        &self.threshold
    }

    /// The quilt-affine pieces `g_1, …, g_m`.
    #[must_use]
    pub fn pieces(&self) -> &[QuiltAffine] {
        &self.pieces
    }

    /// The input dimension `d`.
    #[must_use]
    pub fn dim(&self) -> usize {
        self.threshold.dim()
    }

    /// Evaluates `min_k g_k(x)` exactly (meaningful for `x ≥ threshold`, but
    /// defined everywhere).
    #[must_use]
    pub fn eval(&self, x: &NVec) -> WideInt {
        self.pieces
            .iter()
            .map(|g| g.exact(x))
            .min()
            .expect("at least one piece")
    }
}

/// A full recursive specification matching the three conditions of
/// Theorem 5.2: an eventual-min representation for `x ≥ n`, plus a
/// recursively specified fixed-input restriction for every `x(i) = j < n(i)`,
/// with a constant at dimension zero.
///
/// Such a spec is exactly the data the Lemma 6.2 construction compiles into an
/// output-oblivious CRN, and exactly what the Section 7 characterization
/// extracts from an obliviously-computable semilinear function.
#[derive(Debug, Clone, PartialEq)]
pub enum ObliviousSpec {
    /// Dimension 0: a constant value.
    Constant(u64),
    /// Dimension ≥ 1.
    Compound {
        /// The eventual-min representation valid for `x ≥ threshold`.
        eventual: EventuallyMin,
        /// For each input `i` and each `j < threshold(i)`, the spec of the
        /// restriction `f[x(i) → j]` (of dimension one less).
        restrictions: BTreeMap<(usize, u64), ObliviousSpec>,
    },
}

impl ObliviousSpec {
    /// Builds a compound spec, checking that every required restriction is
    /// present and has the right dimension.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidSpec`] when a restriction for some
    /// `(i, j)` with `j < threshold(i)` is missing or has the wrong dimension.
    pub fn compound(
        eventual: EventuallyMin,
        restrictions: BTreeMap<(usize, u64), ObliviousSpec>,
    ) -> Result<Self, CoreError> {
        let dim = eventual.dim();
        for i in 0..dim {
            for j in 0..eventual.threshold()[i] {
                match restrictions.get(&(i, j)) {
                    None => {
                        return Err(CoreError::InvalidSpec(format!(
                            "missing restriction for input {i} fixed to {j}"
                        )))
                    }
                    Some(spec) if spec.dim() != dim - 1 => {
                        return Err(CoreError::InvalidSpec(format!(
                            "restriction for input {i} fixed to {j} has dimension {} (expected {})",
                            spec.dim(),
                            dim - 1
                        )))
                    }
                    Some(_) => {}
                }
            }
        }
        Ok(ObliviousSpec::Compound {
            eventual,
            restrictions,
        })
    }

    /// The input dimension `d`.
    #[must_use]
    pub fn dim(&self) -> usize {
        match self {
            ObliviousSpec::Constant(_) => 0,
            ObliviousSpec::Compound { eventual, .. } => eventual.dim(),
        }
    }

    /// Evaluates the specified function at `x`.
    ///
    /// For `x ≥ n` this is the eventual min; otherwise some input `x(i) = j`
    /// with `j < n(i)` exists and the value is delegated to that restriction —
    /// exactly the decomposition used by equation (1) in the proof of
    /// Lemma 6.2.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::OutOfRange`] if the minimum is outside `u64`:
    /// negative (an eventual piece is negative where it is the minimum, so
    /// the spec does not describe a function into `N`) or past `u64::MAX`,
    /// as a `fn` value is classified.
    pub fn eval(&self, x: &NVec) -> Result<u64, CoreError> {
        match self {
            ObliviousSpec::Constant(c) => Ok(*c),
            ObliviousSpec::Compound {
                eventual,
                restrictions,
            } => {
                let n = eventual.threshold();
                if x.ge(n) {
                    let value = eventual.eval(x);
                    value.to_u64().ok_or_else(|| match value.to_i128() {
                        // A negative value is some piece's offset plus a
                        // nonnegative `∇g·x`, so it fits i128.
                        Some(v) if v < 0 => {
                            CoreError::OutOfRange(format!("f({x}) = {v} is negative"))
                        }
                        _ => CoreError::OutOfRange(format!("f({x}) is past u64::MAX")),
                    })
                } else {
                    let (i, j) = (0..x.dim())
                        .find_map(|i| (x[i] < n[i]).then_some((i, x[i])))
                        .expect("some coordinate is below the threshold");
                    restrictions
                        .get(&(i, j))
                        .ok_or_else(|| {
                            CoreError::InvalidSpec(format!(
                                "missing restriction for input {i} fixed to {j}"
                            ))
                        })?
                        .eval(&x.without_component(i))
                }
            }
        }
    }

    /// Checks that the specified function is nondecreasing on `[0, bound]^d`
    /// (condition (i) of Theorem 5.2), returning a violating pair if any.
    ///
    /// # Errors
    ///
    /// Propagates evaluation errors.
    pub fn check_nondecreasing_on_box(
        &self,
        bound: u64,
    ) -> Result<Option<(NVec, NVec)>, CoreError> {
        let dim = self.dim();
        for x in NVec::box_iter(dim, bound) {
            let fx = self.eval(&x)?;
            for i in (0..dim).filter(|&i| x[i] < bound) {
                let mut y = x.clone();
                y[i] += 1;
                if self.eval(&y)? < fx {
                    return Ok(Some((x, y)));
                }
            }
        }
        Ok(None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crn_numeric::{QVec, Rational};

    fn min_of_two_lines() -> EventuallyMin {
        // min(x1 + 1, x2 + 1) for x >= (0,0).
        let g1 = QuiltAffine::affine(&QVec::from(vec![1, 0]), Rational::ONE).unwrap();
        let g2 = QuiltAffine::affine(&QVec::from(vec![0, 1]), Rational::ONE).unwrap();
        EventuallyMin::new(NVec::zeros(2), vec![g1, g2]).unwrap()
    }

    #[test]
    fn eventual_min_evaluates_min() {
        let em = min_of_two_lines();
        assert_eq!(em.eval(&NVec::from(vec![3, 5])), WideInt::from(4i64));
        assert_eq!(em.eval(&NVec::from(vec![5, 3])), WideInt::from(4i64));
        assert_eq!(em.dim(), 2);
        assert_eq!(em.pieces().len(), 2);
    }

    #[test]
    fn eventual_min_requires_pieces_and_consistent_dims() {
        assert!(EventuallyMin::new(NVec::zeros(1), vec![]).is_err());
        let g = QuiltAffine::constant(2, 1);
        assert!(EventuallyMin::new(NVec::zeros(1), vec![g]).is_err());
    }

    #[test]
    fn constant_spec() {
        let spec = ObliviousSpec::Constant(4);
        assert_eq!(spec.dim(), 0);
        assert_eq!(spec.eval(&NVec::zeros(0)).unwrap(), 4);
    }

    /// A spec for min(1, x): threshold n = 1, eventual piece the constant 1,
    /// restriction at x = 0 the constant 0 (the Figure 2 example).
    fn min_one_spec() -> ObliviousSpec {
        let eventual =
            EventuallyMin::new(NVec::from(vec![1]), vec![QuiltAffine::constant(1, 1)]).unwrap();
        let mut restrictions = BTreeMap::new();
        restrictions.insert((0usize, 0u64), ObliviousSpec::Constant(0));
        ObliviousSpec::compound(eventual, restrictions).unwrap()
    }

    #[test]
    fn min_one_spec_evaluates_correctly() {
        let spec = min_one_spec();
        for x in 0..6u64 {
            assert_eq!(spec.eval(&NVec::from(vec![x])).unwrap(), x.min(1));
        }
        assert!(spec.check_nondecreasing_on_box(6).unwrap().is_none());
    }

    #[test]
    fn missing_restriction_rejected() {
        let eventual =
            EventuallyMin::new(NVec::from(vec![2]), vec![QuiltAffine::constant(1, 1)]).unwrap();
        // Threshold 2 needs restrictions for j = 0 and j = 1; provide only j = 0.
        let mut restrictions = BTreeMap::new();
        restrictions.insert((0usize, 0u64), ObliviousSpec::Constant(0));
        assert!(matches!(
            ObliviousSpec::compound(eventual, restrictions),
            Err(CoreError::InvalidSpec(_))
        ));
    }

    #[test]
    fn wrong_restriction_dimension_rejected() {
        let eventual =
            EventuallyMin::new(NVec::from(vec![1, 1]), vec![QuiltAffine::constant(2, 1)]).unwrap();
        let mut restrictions = BTreeMap::new();
        // Restrictions of a 2-D function must be 1-D; a constant (0-D) is wrong.
        restrictions.insert((0usize, 0u64), ObliviousSpec::Constant(0));
        restrictions.insert((1usize, 0u64), ObliviousSpec::Constant(0));
        assert!(ObliviousSpec::compound(eventual, restrictions).is_err());
    }

    #[test]
    fn compound_spec_with_nontrivial_finite_region() {
        // f(x1, x2) = min(x1 + 1, x2 + 1) for x >= (1,1); f = 0 if any input is 0.
        let mut restrictions = BTreeMap::new();
        let zero_line = ObliviousSpec::compound(
            EventuallyMin::new(NVec::zeros(1), vec![QuiltAffine::constant(1, 0)]).unwrap(),
            BTreeMap::new(),
        )
        .unwrap();
        restrictions.insert((0usize, 0u64), zero_line.clone());
        restrictions.insert((1usize, 0u64), zero_line);
        let spec = ObliviousSpec::compound(
            EventuallyMin::new(NVec::from(vec![1, 1]), min_of_two_lines().pieces().to_vec())
                .unwrap(),
            restrictions,
        )
        .unwrap();
        assert_eq!(spec.eval(&NVec::from(vec![0, 7])).unwrap(), 0);
        assert_eq!(spec.eval(&NVec::from(vec![7, 0])).unwrap(), 0);
        assert_eq!(spec.eval(&NVec::from(vec![2, 4])).unwrap(), 3);
        // Not nondecreasing? It is: f jumps from 0 (at x1=0) to min+1 values,
        // which are >= 0.
        assert!(spec.check_nondecreasing_on_box(5).unwrap().is_none());
    }
}
