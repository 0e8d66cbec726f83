//! Stochastic simulation of discrete chemical reaction networks.
//!
//! The paper's model (Section 2.2) is a continuous-time Markov process; its
//! correctness notion ("stable computation") is rate-independent, but the
//! simulator lets us *measure* the constructions: convergence time versus
//! input size (experiment E9), composition overhead (E10), and the behaviour
//! of the Figure 1 examples (E1).  The crate has two simulators:
//!
//! * exact Gillespie stochastic simulation ([`gillespie`]) on the dense
//!   compiled kernel, with mass-action propensities maintained
//!   **incrementally** through the reaction dependency graph of
//!   [`crn_model::CompiledCrn`] (the sparse seed implementation survives as
//!   [`SparseGillespie`], the differential oracle), fanned out by the
//!   parallel ensemble runner ([`ensemble`]) across scoped threads with
//!   decorrelated seed streams and worker-count independent (bit-identical)
//!   results; and
//! * the seeded uniform runner ([`convergence`]), a fair discrete scheduler
//!   that fires a uniformly drawn applicable reaction until the CRN is
//!   silent or a step bound is hit, behind the box-wide spot checks of
//!   [`runner`].
//!
//! Both share the dense-kernel pieces ([`kernel`]): the incremental
//! propensity table, whose exact running total and block sums let a
//! Gillespie step select a reaction without re-adding or scanning every
//! propensity, and the incrementally-maintained applicable set.  The
//! [`runner`] module also builds the convergence-versus-input-size series,
//! with summary statistics from [`stats`].  A count that a firing would push
//! past `u64::MAX` stops either simulator with
//! [`crn_model::CrnError::CountOverflow`], and a total propensity past the
//! largest `f64` stops the Gillespie simulator with
//! [`crn_model::CrnError::PropensityOverflow`].
//!
//! ```
//! use crn_model::examples;
//! use crn_numeric::NVec;
//! use crn_sim::ConvergenceKernel;
//!
//! let min = examples::min_crn();
//! let report = ConvergenceKernel::new(&min)
//!     .run_to_silence(&NVec::from(vec![30, 40]), 7, 100_000)
//!     .unwrap();
//! assert_eq!(report.output, 30);
//! assert!(report.silent);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod convergence;
pub mod ensemble;
pub mod gillespie;
pub mod kernel;
pub mod runner;
pub mod stats;

pub use convergence::{ConvergenceKernel, ConvergenceReport};
pub use ensemble::{Ensemble, SeedStream, TrialAccumulator};
pub use gillespie::{Gillespie, GillespieOutcome, SparseGillespie};
pub use kernel::{ApplicableSet, PropensityTable};
pub use runner::{convergence_series, ConvergencePoint, TrialSummary};
pub use stats::{Summary, SummaryAccumulator};
