//! Static analysis of CRNs: stoichiometry, conservation laws, liveness and
//! structural lints.
//!
//! CRNs are Petri nets, so a large class of trajectory facts is decidable
//! without exploring any state space:
//!
//! * [`Stoichiometry`] — the exact integer net-change matrix `N`;
//! * [`conservation_basis`] / [`nonnegative_laws`] — P-invariants `v·N = 0`,
//!   computed with exact rational arithmetic and scaled to primitive integer
//!   vectors; a law weighing two configurations differently refutes
//!   reachability between them (see
//!   [`InvariantOracle`](crate::reachability::InvariantOracle));
//! * [`t_invariant_basis`] / [`nonnegative_t_semiflows`] — T-invariants
//!   `N·f = 0` (certificates of repeatable reaction cycles), by the same
//!   elimination and Farkas machinery on the transposed matrix;
//! * [`minimal_siphons`] / [`minimal_traps`] — minimal structural deadlock
//!   and lock-in sets by seeded saturation, capped at [`SIPHON_NODE_CAP`];
//! * [`SpeciesBounds`] — per-species reachable-count intervals from
//!   monotone potentials, liveness and signed laws, which the reachability
//!   engine consumes to refuse, prove, or perfect-hash box points;
//! * [`Liveness`] — a producible-species / fireable-reaction fixpoint whose
//!   negative verdicts are exact (dead means dead);
//! * [`lint`] — stable-coded structural findings `C001`–`C009` consumed by
//!   the `crn lint` CLI subcommand ([`lint_full`] adds the "analysis
//!   incomplete" notes emitted when an enumeration cap truncated).
//!
//! Enumerations that can truncate ([`FARKAS_ROW_CAP`], [`SIPHON_NODE_CAP`],
//! or an `i128` overflow in the Farkas core) surface the fact in their result
//! types: truncation is always *sound* (everything returned is genuine) but
//! claims built on absence must check the flag.

mod bounds;
mod invariants;
mod lints;
mod liveness;
mod siphons;
mod stoichiometry;
mod t_invariants;

pub use bounds::{CountIntervals, SpeciesBounds};
pub use invariants::{
    conservation_basis, nonnegative_laws, nonnegative_laws_capped, ConservationLaw,
    SemiflowEnumeration, FARKAS_ROW_CAP,
};
pub use lints::{lint, lint_full, Lint, LintCode, LintOutcome};
pub use liveness::Liveness;
pub use siphons::{minimal_siphons, minimal_traps, StructuralSets, SIPHON_NODE_CAP};
pub use stoichiometry::Stoichiometry;
pub use t_invariants::{
    nonnegative_t_semiflows, t_invariant_basis, TInvariant, TSemiflowEnumeration,
};
