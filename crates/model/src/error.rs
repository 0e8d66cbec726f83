//! Error type for CRN construction and analysis.

use std::fmt;

/// Errors raised while building or analysing CRNs.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum CrnError {
    /// A species name was expected to exist but does not.
    UnknownSpecies(String),
    /// The input vector's dimension does not match the CRN's input arity.
    DimensionMismatch {
        /// Number of input species declared by the CRN.
        expected: usize,
        /// Dimension of the supplied input vector.
        actual: usize,
    },
    /// A role (input/output/leader) was declared inconsistently.
    InvalidRoles(String),
    /// An exhaustive search exceeded its configured limits.
    SearchLimitExceeded {
        /// Human-readable description of which limit was hit.
        limit: String,
    },
    /// The requested operation requires an output-oblivious CRN but the CRN
    /// consumes its output species.
    NotOutputOblivious,
    /// A renaming or module import would collapse two distinct species onto
    /// the same name.  Species names are user-controlled (they arrive through
    /// the `.crn` parser), so this is a recoverable input error, not a bug.
    SpeciesCollision {
        /// The name two distinct species would share.
        name: String,
    },
    /// Firing a reaction would push a species count past `u64::MAX`.  Counts
    /// are never wrapped, so an exploration or simulation that meets such a
    /// firing stops with this error instead of a value.
    CountOverflow {
        /// The reaction, as written in the CRN.
        reaction: String,
        /// The species whose count overflows.
        species: String,
    },
    /// A mass-action propensity, or the total of a configuration's
    /// propensities, is past the largest `f64`.  A simulation that meets
    /// such a configuration stops with this error: it cannot draw a
    /// reaction or a waiting time from an infinite rate.
    PropensityOverflow {
        /// The reaction, as written in the CRN, at which the in-order sum
        /// of propensities stops being finite.
        reaction: String,
    },
}

impl fmt::Display for CrnError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CrnError::UnknownSpecies(name) => write!(f, "unknown species `{name}`"),
            CrnError::DimensionMismatch { expected, actual } => write!(
                f,
                "input dimension mismatch: CRN has {expected} input species, got {actual}"
            ),
            CrnError::InvalidRoles(msg) => write!(f, "invalid species roles: {msg}"),
            CrnError::SearchLimitExceeded { limit } => {
                write!(f, "exhaustive search exceeded limit: {limit}")
            }
            CrnError::NotOutputOblivious => {
                write!(f, "operation requires an output-oblivious CRN")
            }
            CrnError::SpeciesCollision { name } => {
                write!(f, "two distinct species would collapse onto `{name}`")
            }
            CrnError::CountOverflow { reaction, species } => write!(
                f,
                "count overflow: firing `{reaction}` would push the count of `{species}` past {}",
                u64::MAX
            ),
            CrnError::PropensityOverflow { reaction } => write!(
                f,
                "propensity overflow: the total propensity passes {:e} at `{reaction}`",
                f64::MAX
            ),
        }
    }
}

impl std::error::Error for CrnError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        assert_eq!(
            CrnError::UnknownSpecies("W".into()).to_string(),
            "unknown species `W`"
        );
        assert!(CrnError::DimensionMismatch {
            expected: 2,
            actual: 3
        }
        .to_string()
        .contains("2 input species"));
        assert!(CrnError::SearchLimitExceeded {
            limit: "10000 configurations".into()
        }
        .to_string()
        .contains("10000"));
        assert_eq!(
            CrnError::SpeciesCollision { name: "W0".into() }.to_string(),
            "two distinct species would collapse onto `W0`"
        );
    }

    #[test]
    fn is_std_error() {
        fn assert_error<E: std::error::Error + Send + Sync>() {}
        assert_error::<CrnError>();
    }
}
