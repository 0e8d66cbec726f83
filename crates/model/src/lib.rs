//! The discrete chemical reaction network (CRN) model of Severson, Haley and
//! Doty, "Composable computation in discrete chemical reaction networks"
//! (PODC 2019), Section 2.
//!
//! A CRN is a finite set of species and reactions `(R, P) ∈ N^S × N^S`.  A
//! configuration assigns an integer count to every species; a reaction is
//! applicable when its reactants are present and firing it replaces them by
//! its products.  This crate provides:
//!
//! * the core data model ([`Species`], [`Reaction`], [`Configuration`], [`Crn`]),
//! * the shared compiled-CRN layer ([`CompiledCrn`], [`DenseState`]): dense
//!   species-indexed reaction tables plus the reaction dependency graph,
//!   consumed by both the reachability engine and the `crn-sim` simulator,
//! * *function CRNs* ([`FunctionCrn`]) with designated input species, output
//!   species and an optional leader, including the stable-computation
//!   semantics of Section 2.2,
//! * exhaustive bounded reachability and stable-computation checking
//!   ([`reachability`]), with a conservation-law refutation oracle,
//! * a static-analysis layer ([`analysis`]): the exact stoichiometry matrix,
//!   integer conservation laws, producible/fireable liveness and the typed
//!   structural and semantic lints `C001`–`C009` (siphons, traps,
//!   T-invariants and species bounds behind the analysis-v2 codes),
//! * the structural predicates of Section 2.3 (output-oblivious,
//!   output-monotonic) and the transformation of Observation 2.4,
//! * composition by concatenation (Observation 2.2 / Lemma 2.3) generalized
//!   to the n-stage, capture-proof [`compose::Pipeline`] engine, fan-out and
//!   fixed-input hardcoding (Observation 5.3) in [`compose`] and [`transform`],
//! * the worked example CRNs of Figures 1 and 2 in [`examples`].
//!
//! # Quick example
//!
//! ```
//! use crn_model::examples;
//! use crn_numeric::NVec;
//!
//! // The single-reaction CRN X1 + X2 -> Y stably computes min(x1, x2).
//! let min = examples::min_crn();
//! let verdict = crn_model::reachability::check_stable_computation(
//!     &min,
//!     &NVec::from(vec![3, 5]),
//!     3,
//!     10_000,
//! ).unwrap();
//! assert!(verdict.is_correct());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analysis;
pub mod compiled;
pub mod compose;
pub mod config;
pub mod crn;
pub mod error;
pub mod examples;
pub mod function;
pub mod reachability;
pub mod reaction;
pub mod species;
pub mod transform;

pub use analysis::{
    conservation_basis, lint, nonnegative_laws, ConservationLaw, Lint, LintCode, Liveness,
    Stoichiometry,
};
pub use compiled::{CompiledCrn, CompiledReaction, DenseState};
pub use compose::{concatenate, fan_out, parallel_union, PipeSource, Pipeline, StageId};
pub use config::Configuration;
pub use crn::Crn;
pub use error::CrnError;
pub use function::{FunctionCrn, Roles};
pub use reachability::{
    check_on_box, check_stable_computation, max_output_reachable, reachable_configurations,
    target_reachable, target_reachable_exhaustive, BoxCheck, BoxCheckStats, InvariantOracle,
    ReachabilityLimits, StableComputationVerdict,
};
pub use reaction::Reaction;
pub use species::{Species, SpeciesSet};
pub use transform::{
    bimolecularize, hardcode_input, import_module, make_output_oblivious, rename_species,
};
