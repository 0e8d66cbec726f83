//! Rate-independent continuous CRN computation: the real-valued function
//! class of Chalk, Kornerup, Reeves and Soloveichik (reference \[9\] of the
//! paper), which Section 8 relates to the discrete class via the ∞-scaling.
//!
//! A function `f̂ : R^d_{≥0} → R_{≥0}` is obliviously-computable by a
//! continuous CRN iff it is superadditive, positive-continuous, and piecewise
//! rational-linear; on the strictly positive orthant it is a minimum of
//! finitely many rational-linear functions.  This crate provides that class
//! ([`MinOfLinear`]) and its membership predicates, which the Theorem 8.2
//! ∞-scaling of `crn-core` lands in (experiment E11).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod minlinear;

pub use minlinear::{MinOfLinear, RationalLinear};
