//! Error type for the characterization and synthesis pipeline.

use std::fmt;

/// Errors raised while analysing or synthesizing obliviously-computable
/// functions.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum CoreError {
    /// A quilt-affine function was required to be nonnegative (to admit the
    /// Lemma 6.1 construction) but takes a negative value.
    NegativeQuiltValue(String),
    /// A quilt-affine function was required to be nondecreasing but has a
    /// negative finite difference.
    NotNondecreasing(String),
    /// An evaluation produced a non-integer where an integer was required.
    NotInteger(String),
    /// A value, or an intermediate product or sum, does not fit the integer
    /// type that holds it.
    OutOfRange(String),
    /// The requested analysis could not complete within its search bounds.
    AnalysisInconclusive(String),
    /// A specification was structurally invalid (dimension mismatch, missing
    /// restriction, ...).
    InvalidSpec(String),
    /// An error bubbled up from CRN construction.
    Model(crn_model::CrnError),
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::NegativeQuiltValue(msg) => {
                write!(f, "quilt-affine function takes a negative value: {msg}")
            }
            CoreError::NotNondecreasing(msg) => write!(f, "function is not nondecreasing: {msg}"),
            CoreError::NotInteger(msg) => write!(f, "value is not an integer: {msg}"),
            CoreError::OutOfRange(msg) => write!(f, "value out of range: {msg}"),
            CoreError::AnalysisInconclusive(msg) => {
                write!(f, "analysis inconclusive within search bounds: {msg}")
            }
            CoreError::InvalidSpec(msg) => write!(f, "invalid specification: {msg}"),
            CoreError::Model(e) => write!(f, "CRN construction failed: {e}"),
        }
    }
}

impl std::error::Error for CoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CoreError::Model(e) => Some(e),
            _ => None,
        }
    }
}

impl From<crn_model::CrnError> for CoreError {
    fn from(value: crn_model::CrnError) -> Self {
        CoreError::Model(value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_source() {
        let e = CoreError::InvalidSpec("missing restriction".into());
        assert!(e.to_string().contains("missing restriction"));
        let wrapped = CoreError::from(crn_model::CrnError::NotOutputOblivious);
        assert!(std::error::Error::source(&wrapped).is_some());
        assert!(wrapped.to_string().contains("CRN construction failed"));
    }

    #[test]
    fn is_send_sync_error() {
        fn check<E: std::error::Error + Send + Sync>() {}
        check::<CoreError>();
    }
}
