//! Exact rational arithmetic and lattice utilities for the `composable-crn` workspace.
//!
//! Every algorithm in the paper "Composable computation in discrete chemical
//! reaction networks" (Severson, Haley, Doty; PODC 2019) is stated over exact
//! integers `N`, `Z` and rationals `Q`: quilt-affine gradients live in `Q^d`,
//! periodic offsets in `Q`, configurations in `N^S`, hyperplane normals in
//! `Z^d`.  This crate provides those scalar and vector types with exact
//! (overflow-checked) arithmetic so that the characterization and synthesis
//! machinery built on top never silently loses precision.
//!
//! # Quick example
//!
//! ```
//! use crn_numeric::{Rational, QVec, ZVec};
//!
//! let half = Rational::new(1, 2);
//! let three_halves = Rational::new(3, 2);
//! assert_eq!(half + Rational::ONE, three_halves);
//!
//! // The gradient of the quilt-affine function floor(3x/2).
//! let gradient = QVec::from(vec![three_halves]);
//! let x = ZVec::from(vec![5]);
//! assert_eq!(gradient.dot_z(&x), Rational::new(15, 2));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod congruence;
mod gcd;
mod order;
mod rational;
mod vector;

pub use congruence::{CongruenceClass, ResidueIter};
pub use gcd::{checked_gcd_i128, checked_lcm_i128, gcd_i128, gcd_u64, lcm_i128, lcm_u64};
pub use order::{
    dominates, find_dominating_pair, is_increasing, pointwise_le, pointwise_max, pointwise_min,
};
pub use rational::{ParseRationalError, Rational};
pub use vector::{BoxIter, NVec, QVec, ZVec};
