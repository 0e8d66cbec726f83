//! Stochastic simulation of discrete chemical reaction networks.
//!
//! The paper's model (Section 2.2) is a continuous-time Markov process; its
//! correctness notion ("stable computation") is rate-independent, but the
//! simulator lets us *measure* the constructions: convergence time versus
//! input size (experiment E9), composition overhead (E10), and the behaviour
//! of the Figure 1 examples (E1).  The crate has one simulator: Gillespie
//! stochastic simulation ([`gillespie`]), the exact jump chain timed by its
//! expected holding times, on the dense compiled
//! kernel, with mass-action propensities maintained **incrementally** through
//! the reaction dependency graph of [`crn_model::CompiledCrn`].  The sparse
//! seed implementation survives as [`SparseGillespie`], the differential
//! oracle that the tests replay it against seed for seed.
//!
//! Stable computation holds on every fair execution (footnote 2 of the
//! paper), and a chain that gives every applicable reaction a positive
//! chance is fair with probability 1, so the one sampler serves every
//! caller: the parallel ensemble runner ([`ensemble`]) fans it out across
//! scoped threads with decorrelated seed streams and worker-count
//! independent (bit-identical) results, and the box-wide spot checks of
//! [`runner`] behind `crn verify --spot` run it once per input.
//!
//! The dense kernel ([`kernel`]) is the incremental propensity table, whose
//! exact running total and block sums let a step select a reaction without
//! re-adding or scanning every propensity.  The [`runner`] module also
//! builds the convergence-versus-input-size series, with summary statistics
//! from [`stats`].  A count that a firing would push past `u64::MAX` stops
//! the simulator with [`crn_model::CrnError::CountOverflow`], and a total
//! propensity past the largest `f64` stops it with
//! [`crn_model::CrnError::PropensityOverflow`].
//!
//! ```
//! use crn_model::examples;
//! use crn_numeric::NVec;
//! use crn_sim::Gillespie;
//!
//! let min = examples::min_crn();
//! let start = min.initial_configuration(&NVec::from(vec![30, 40])).unwrap();
//! let outcome = Gillespie::new(min.crn(), 7).run(&start, 100_000).unwrap();
//! assert!(outcome.silent);
//! assert_eq!(outcome.final_configuration.count(min.output()), 30);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ensemble;
pub mod gillespie;
pub mod kernel;
pub mod runner;
pub mod stats;

pub use ensemble::{Ensemble, SeedStream, TrialAccumulator};
pub use gillespie::{Gillespie, GillespieOutcome, SparseGillespie};
pub use kernel::PropensityTable;
pub use runner::{convergence_series, ConvergencePoint, TrialSummary};
pub use stats::{Summary, SummaryAccumulator};
