//! Umbrella crate for the `composable-crn` workspace: a full reproduction of
//! "Composable computation in discrete chemical reaction networks"
//! (Severson, Haley, Doty; PODC 2019).
//!
//! The workspace is organised as one crate per subsystem; this crate simply
//! re-exports them under stable names so that examples and downstream users
//! can depend on a single package:
//!
//! * [`model`] — the discrete CRN model, stable computation, composition;
//! * [`sim`] — stochastic simulation (the Gillespie kernel behind
//!   ensembles, spot checks and convergence series);
//! * [`semilinear`] — semilinear sets and functions;
//! * [`geometry`] — regions, recession cones, arrangements (Section 7);
//! * [`core`] — quilt-affine functions, the Theorem 5.2 characterization,
//!   Lemma 6.1/6.2 synthesis, Lemma 4.1 witnesses, the Theorem 8.2 scaling;
//! * [`continuous`] — the continuous (rate-independent) CRN function class
//!   (min of rational-linear functions);
//! * [`popproto`] — population protocols and pairwise-collision scheduling;
//! * [`numeric`] — exact rationals and lattice utilities;
//! * [`lang`] — the textual `.crn` language (parser, printer, lowering)
//!   behind the `crn` CLI (`crates/cli`);
//! * [`obs`] — the opt-in metrics/span registry behind `--profile`;
//! * [`sync`] — the concurrency facade every crate threads and counts
//!   through: `std::sync`/`std::thread` re-exports in normal builds, a
//!   deterministic model-checking scheduler under `--cfg crn_model_check`.
//!
//! ```
//! use composable_crn::model::examples;
//! use composable_crn::numeric::NVec;
//!
//! let min = examples::min_crn();
//! let verdict = composable_crn::model::check_stable_computation(
//!     &min, &NVec::from(vec![2, 5]), 2, 10_000).unwrap();
//! assert!(verdict.is_correct());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use crn_continuous as continuous;
pub use crn_core as core;
pub use crn_geometry as geometry;
pub use crn_lang as lang;
pub use crn_model as model;
pub use crn_numeric as numeric;
pub use crn_obs as obs;
pub use crn_popproto as popproto;
pub use crn_semilinear as semilinear;
pub use crn_sim as sim;
pub use crn_sync as sync;

#[cfg(test)]
mod tests {
    use crate::model::examples;
    use crate::numeric::NVec;

    /// Mirrors the crate-level doctest so the front-page example is also
    /// checked by the ordinary unit-test run.
    #[test]
    fn crate_doc_example_computes_min() {
        let min = examples::min_crn();
        let verdict =
            crate::model::check_stable_computation(&min, &NVec::from(vec![2, 5]), 2, 10_000)
                .unwrap();
        assert!(verdict.is_correct());
    }
}
