//! The primary contribution of "Composable computation in discrete chemical
//! reaction networks" (Severson, Haley, Doty; PODC 2019), as an executable
//! library.
//!
//! The paper characterizes the functions `f : N^d → N` stably computable by
//! **output-oblivious** CRNs (with an initial leader): exactly the
//! nondecreasing functions that are *eventually a minimum of quilt-affine
//! functions*, all of whose fixed-input restrictions are recursively of the
//! same form (Theorem 5.2).  This crate implements every constructive and
//! analytic ingredient of that result:
//!
//! | Paper | Module |
//! |---|---|
//! | Definition 5.1 (quilt-affine functions) | [`quilt`] |
//! | Eventual-min representations / Theorem 5.2 specs | [`spec`] |
//! | Theorem 3.1 and Theorem 9.2 (1-D, with and without leader) | [`one_dim`] |
//! | Lemma 6.1 and Lemma 6.2 (CRN constructions) | [`synthesis`] |
//! | Lemma 4.1 / Theorem 5.4 (impossibility witnesses) | [`impossibility`] |
//! | Section 7 (domain decomposition → characterization) | [`mod@characterize`] |
//! | Theorem 8.2 (scaling limit, continuous correspondence) | [`scaling`] |
//!
//! ```
//! use crn_core::quilt::QuiltAffine;
//! use crn_core::synthesis::quilt_crn;
//! use crn_model::check_stable_computation;
//! use crn_numeric::{NVec, QVec, Rational};
//!
//! // floor(3x/2) as a quilt-affine function, compiled to an output-oblivious CRN.
//! let g = QuiltAffine::floor_linear(&QVec::from(vec![Rational::new(3, 2)]), 2);
//! let crn = quilt_crn(&g).unwrap();
//! assert!(crn.is_output_oblivious());
//! let verdict = check_stable_computation(&crn, &NVec::from(vec![5]), 7, 10_000).unwrap();
//! assert!(verdict.is_correct());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod characterize;
pub mod error;
pub mod impossibility;
pub mod one_dim;
pub mod quilt;
pub mod scaling;
pub mod spec;
pub mod synthesis;

pub use characterize::{characterize, Characterization};
pub use error::CoreError;
pub use impossibility::{find_lemma41_witness, Lemma41Witness};
pub use one_dim::{analyze_1d, synthesize_1d_leader, synthesize_1d_leaderless, Structure1D};
pub use quilt::QuiltAffine;
pub use scaling::InfinityScaling;
pub use spec::{EventuallyMin, ObliviousSpec};
pub use synthesis::{quilt_crn, synthesize};
