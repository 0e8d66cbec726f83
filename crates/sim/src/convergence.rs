//! Running a function CRN until it converges (is silent), firing a reaction
//! drawn uniformly from the applicable ones at every step.
//!
//! Uniform choice over applicable reactions is a *fair* scheduler in the
//! sense of footnote 2 of the paper: every configuration that stays
//! reachable is eventually reached with probability 1, so a run converges to
//! the stably-computed output.  This is the discrete runner behind
//! `crn verify --spot`'s smoke runs; timed simulation is [`crate::gillespie`].
//!
//! Runs execute on the dense kernel: the CRN is compiled once, the
//! configuration is fired in place, and the applicable set is maintained
//! incrementally through the compiled dependency graph instead of rescanned
//! every step.  [`ConvergenceKernel`] keeps the compiled CRN and the scratch
//! alive so a batch of inputs (e.g. [`crate::runner::spot_check_on_box`])
//! compiles once and allocates per run only what the report itself needs.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crn_model::{CompiledCrn, CrnError, DenseState, FunctionCrn};
use crn_numeric::NVec;

use crate::kernel::ApplicableSet;

/// The result of running a function CRN on one input until silence (or a step
/// bound).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConvergenceReport {
    /// The count of the output species when the run stopped.
    pub output: u64,
    /// The number of reactions fired.
    pub steps: u64,
    /// Whether the CRN became silent (no reaction applicable).
    pub silent: bool,
}

/// A reusable seeded uniform runner for one function CRN: the compiled
/// tables, dense state and applicable-set scratch persist across runs (the
/// crate-level example runs one).
#[derive(Debug, Clone)]
pub struct ConvergenceKernel<'a> {
    crn: &'a FunctionCrn,
    compiled: CompiledCrn,
    state: DenseState,
    applicable: ApplicableSet,
}

impl<'a> ConvergenceKernel<'a> {
    /// Compiles `crn` once and readies the scratch.
    #[must_use]
    pub fn new(crn: &'a FunctionCrn) -> Self {
        let compiled = CompiledCrn::compile(crn.crn());
        // The stride must also cover the role species the start configuration
        // is built from (they can come from a different interner).
        let stride = crn.role_stride().max(compiled.stride());
        ConvergenceKernel {
            crn,
            compiled,
            state: DenseState::zero(stride),
            applicable: ApplicableSet::new(),
        }
    }

    /// Runs on input `x` until no reaction is applicable or `max_steps`
    /// reactions have fired.  Each step fires the applicable reaction at a
    /// uniform index into the ascending applicable set, drawn by
    /// `gen_range` from `StdRng::seed_from_u64(seed)`, so a seed names one
    /// trajectory.
    ///
    /// # Errors
    ///
    /// Returns [`CrnError::DimensionMismatch`] if `x` has the wrong arity and
    /// [`CrnError::CountOverflow`] if a firing would push a count past
    /// `u64::MAX`.
    pub fn run_to_silence(
        &mut self,
        x: &NVec,
        seed: u64,
        max_steps: u64,
    ) -> Result<ConvergenceReport, CrnError> {
        let start = self.crn.initial_configuration(x)?;
        self.state.load(&start);
        self.applicable.rebuild(&self.compiled, self.state.counts());
        let mut rng = StdRng::seed_from_u64(seed);
        let mut steps = 0u64;
        let silent = loop {
            if steps >= max_steps {
                break false;
            }
            let applicable = self.applicable.indices();
            if applicable.is_empty() {
                break true;
            }
            let r = applicable[rng.gen_range(0..applicable.len())];
            self.state
                .apply(&self.compiled.reactions()[r])
                .map_err(|species| self.crn.crn().count_overflow(r, species))?;
            self.applicable
                .refresh_after(&self.compiled, self.state.counts(), r);
            steps += 1;
        };
        Ok(ConvergenceReport {
            output: self.state.count(self.crn.output()),
            steps,
            silent,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crn_model::{examples, Crn};

    #[test]
    fn min_converges_to_min_under_uniform_scheduler() {
        let min = examples::min_crn();
        let report = ConvergenceKernel::new(&min)
            .run_to_silence(&NVec::from(vec![9, 4]), 3, 100_000)
            .unwrap();
        assert!(report.silent);
        assert_eq!(report.output, 4);
        assert_eq!(report.steps, 4);
    }

    #[test]
    fn max_converges_to_max_under_fair_schedulers() {
        let max = examples::max_crn();
        let mut kernel = ConvergenceKernel::new(&max);
        for seed in 0..3 {
            let r = kernel
                .run_to_silence(&NVec::from(vec![6, 11]), seed, 100_000)
                .unwrap();
            assert!(r.silent);
            assert_eq!(r.output, 11);
        }
    }

    #[test]
    fn seeded_runs_replay_their_trajectories() {
        // X -> Y; X -> A; A -> Y: every run ends with all of x as Y, after
        // x + (firings of X -> A) steps, so the step count exposes every
        // draw.  The pinned values make any change to the seeding or the
        // draw fail here.
        let mut crn = Crn::new();
        for reaction in ["X -> Y", "X -> A", "A -> Y"] {
            crn.parse_reaction(reaction).unwrap();
        }
        let crn = FunctionCrn::with_named_roles(crn, &["X"], "Y", None).unwrap();
        let mut kernel = ConvergenceKernel::new(&crn);
        let runs: Vec<(u64, u64)> = (0..5)
            .map(|seed| {
                let r = kernel
                    .run_to_silence(&NVec::from(vec![10]), seed, 100_000)
                    .unwrap();
                assert!(r.silent);
                (r.output, r.steps)
            })
            .collect();
        assert_eq!(runs, [(10, 14), (10, 17), (10, 16), (10, 16), (10, 16)]);
    }

    #[test]
    fn step_limit_reported_as_not_silent() {
        let double = examples::double_crn();
        let report = ConvergenceKernel::new(&double)
            .run_to_silence(&NVec::from(vec![50]), 0, 5)
            .unwrap();
        assert!(!report.silent);
        assert_eq!(report.steps, 5);
    }

    #[test]
    fn wrong_arity_is_an_error() {
        let min = examples::min_crn();
        assert!(ConvergenceKernel::new(&min)
            .run_to_silence(&NVec::from(vec![1]), 0, 10)
            .is_err());
    }

    #[test]
    fn a_count_overflow_is_an_error() {
        let mut crn = Crn::new();
        crn.parse_reaction("X -> 9223372036854775807 Y").unwrap();
        let crn = FunctionCrn::with_named_roles(crn, &["X"], "Y", None).unwrap();
        let mut kernel = ConvergenceKernel::new(&crn);
        let two = kernel.run_to_silence(&NVec::from(vec![2]), 0, 10).unwrap();
        assert_eq!(two.output, u64::MAX - 1);
        assert_eq!(
            kernel.run_to_silence(&NVec::from(vec![3]), 0, 10),
            Err(CrnError::CountOverflow {
                reaction: "X -> 9223372036854775807Y".into(),
                species: "Y".into(),
            })
        );
    }

    #[test]
    fn reused_kernel_matches_fresh_runs() {
        let max = examples::max_crn();
        let mut kernel = ConvergenceKernel::new(&max);
        for (x1, x2) in [(3u64, 5u64), (5, 3), (0, 0), (7, 1)] {
            let x = NVec::from(vec![x1, x2]);
            let reused = kernel.run_to_silence(&x, 9, 100_000).unwrap();
            let fresh = ConvergenceKernel::new(&max)
                .run_to_silence(&x, 9, 100_000)
                .unwrap();
            assert_eq!(reused, fresh);
        }
    }
}
