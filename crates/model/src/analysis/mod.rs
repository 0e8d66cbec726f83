//! Static analysis of CRNs: stoichiometry, conservation laws, liveness and
//! structural lints.
//!
//! CRNs are Petri nets, so a large class of trajectory facts is decidable
//! without exploring any state space:
//!
//! * [`Stoichiometry`] — the exact integer net-change matrix `N`;
//! * [`nonnegative_laws`] — nonnegative P-invariants `v·N = 0` (P-semiflows),
//!   primitive integer vectors by the Farkas construction, which bound
//!   species counts; a law weighing two configurations differently refutes
//!   reachability between them;
//! * [`nonnegative_t_semiflows`] — nonnegative T-invariants `N·f = 0`
//!   (certificates of repeatable reaction cycles), by the same Farkas
//!   machinery on the transposed matrix; an untruncated empty enumeration
//!   certifies that no firing sequence returns to a configuration it left;
//! * [`minimal_siphons`] / [`minimal_traps`] — minimal structural deadlock
//!   and lock-in sets by seeded saturation, capped at [`SIPHON_NODE_CAP`];
//! * [`SpeciesBounds`] — the decreasing monotone-potential cone: which
//!   species some potential bounds (lints `C008` and `C009`);
//! * [`Liveness`] — a producible-species / fireable-reaction fixpoint whose
//!   negative verdicts are exact (dead means dead);
//! * [`lint`] — stable-coded structural findings `C001`–`C009` consumed by
//!   the `crn lint` CLI subcommand ([`lint_full`] adds the "analysis
//!   incomplete" notes emitted when an enumeration cap truncated);
//! * [`CrnAnalysis`] — the per-CRN bundle of these artifacts, computed at
//!   most once each and shared by [`CrnAnalysis::lint`] and the box engine.
//!
//! Enumerations that can truncate ([`FARKAS_ROW_CAP`], [`SIPHON_NODE_CAP`],
//! or an `i128` overflow in the Farkas core) surface the fact in their result
//! types: truncation is always *sound* (everything returned is genuine) but
//! claims built on absence must check the flag.

mod bounds;
mod invariants;
mod lints;
mod liveness;
mod shared;
mod siphons;
mod stoichiometry;
mod t_invariants;

pub use bounds::SpeciesBounds;
pub use invariants::{
    nonnegative_laws, nonnegative_laws_capped, ConservationLaw, SemiflowEnumeration, FARKAS_ROW_CAP,
};
pub use lints::{lint, lint_full, Lint, LintCode, LintOutcome};
pub use liveness::Liveness;
pub use shared::CrnAnalysis;
pub use siphons::{minimal_siphons, minimal_traps, StructuralSets, SIPHON_NODE_CAP};
pub use stoichiometry::Stoichiometry;
pub use t_invariants::{nonnegative_t_semiflows, TInvariant, TSemiflowEnumeration};
