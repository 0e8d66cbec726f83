//! Running a function CRN until it converges (is silent) under a scheduler.
//!
//! Runs execute on the dense kernel: the CRN is compiled once, the
//! configuration is fired in place, and the applicable set is maintained
//! incrementally through the compiled dependency graph instead of rescanned
//! every step.  [`ConvergenceKernel`] keeps the compiled CRN and the scratch
//! alive so a batch of inputs (e.g. [`crate::runner::spot_check_on_box`])
//! compiles once and allocates per run only what the report itself needs.

use crn_model::{CompiledCrn, CrnError, DenseState, FunctionCrn};
use crn_numeric::NVec;

use crate::kernel::ApplicableSet;
use crate::scheduler::Scheduler;

/// The result of running a function CRN on one input until silence (or a step
/// bound).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConvergenceReport {
    /// The input supplied.
    pub input: NVec,
    /// The count of the output species when the run stopped.
    pub output: u64,
    /// The number of reactions fired.
    pub steps: u64,
    /// Whether the CRN became silent (no reaction applicable).
    pub silent: bool,
}

/// A reusable discrete-scheduler runner for one function CRN: the compiled
/// tables, dense state and applicable-set scratch persist across runs.
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

    /// The compiled form of the CRN.
    #[must_use]
    pub fn compiled(&self) -> &CompiledCrn {
        &self.compiled
    }

    /// Loads the initial configuration `I_x` and rebuilds the applicable set.
    fn start(&mut self, x: &NVec) -> Result<(), CrnError> {
        let start = self.crn.initial_configuration(x)?;
        self.state.load(&start);
        self.applicable.rebuild(&self.compiled, self.state.counts());
        Ok(())
    }

    /// Fires the scheduler's pick and refreshes the applicable set.  Returns
    /// `false` when the run stops (silent or scheduler halt).
    fn fire(&mut self, scheduler: &mut dyn Scheduler) -> bool {
        if self.applicable.is_empty() {
            return false;
        }
        match scheduler.select(&self.compiled, &self.state, self.applicable.indices()) {
            None => false,
            Some(i) => {
                self.state.apply(&self.compiled.reactions()[i]);
                self.applicable
                    .refresh_after(&self.compiled, self.state.counts(), i);
                true
            }
        }
    }

    /// Runs on input `x` under `scheduler` until no reaction is applicable,
    /// the scheduler declines to pick one, or `max_steps` is reached.
    ///
    /// # Errors
    ///
    /// Returns [`CrnError::DimensionMismatch`] if `x` has the wrong arity.
    pub fn run_to_silence(
        &mut self,
        x: &NVec,
        scheduler: &mut dyn Scheduler,
        max_steps: u64,
    ) -> Result<ConvergenceReport, CrnError> {
        self.start(x)?;
        let mut steps = 0u64;
        let silent = loop {
            if steps >= max_steps {
                break false;
            }
            // `fire` returns false both when nothing is applicable and when
            // the scheduler declines; either way the run halts as "silent".
            if !self.fire(scheduler) {
                break true;
            }
            steps += 1;
        };
        Ok(ConvergenceReport {
            input: x.clone(),
            output: self.state.count(self.crn.output()),
            steps,
            silent,
        })
    }

    /// The largest output count observed at any point of a single run
    /// (transient overshoot detection, used for the composition experiments
    /// of E10).
    ///
    /// # Errors
    ///
    /// Returns [`CrnError::DimensionMismatch`] if `x` has the wrong arity.
    pub fn peak_output(
        &mut self,
        x: &NVec,
        scheduler: &mut dyn Scheduler,
        max_steps: u64,
    ) -> Result<u64, CrnError> {
        self.start(x)?;
        let output = self.crn.output();
        let mut peak = self.state.count(output);
        let mut steps = 0u64;
        while steps < max_steps && self.fire(scheduler) {
            peak = peak.max(self.state.count(output));
            steps += 1;
        }
        Ok(peak)
    }
}

/// Runs `crn` on input `x` under `scheduler` until no reaction is applicable,
/// the scheduler declines to pick one, or `max_steps` is reached.
///
/// For output-oblivious CRNs driven by a fair scheduler, silence implies the
/// output equals the stably computed value; for non-oblivious CRNs (or unfair
/// schedulers) the report may show transient overshoot, which is exactly what
/// the Section 1.2 experiments demonstrate.
///
/// Compiles the CRN per call; batch drivers should hold a
/// [`ConvergenceKernel`] instead.
///
/// # Errors
///
/// Returns [`CrnError::DimensionMismatch`] if `x` has the wrong arity.
pub fn run_to_silence(
    crn: &FunctionCrn,
    x: &NVec,
    scheduler: &mut dyn Scheduler,
    max_steps: u64,
) -> Result<ConvergenceReport, CrnError> {
    ConvergenceKernel::new(crn).run_to_silence(x, scheduler, max_steps)
}

/// The largest output count observed at any point of a single run (transient
/// overshoot detection, used for the composition experiments of E10).
///
/// # Errors
///
/// Returns [`CrnError::DimensionMismatch`] if `x` has the wrong arity.
pub fn peak_output(
    crn: &FunctionCrn,
    x: &NVec,
    scheduler: &mut dyn Scheduler,
    max_steps: u64,
) -> Result<u64, CrnError> {
    ConvergenceKernel::new(crn).peak_output(x, scheduler, max_steps)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheduler::{PriorityScheduler, PropensityScheduler, UniformScheduler};
    use crn_model::examples;

    #[test]
    fn min_converges_to_min_under_uniform_scheduler() {
        let min = examples::min_crn();
        let mut sched = UniformScheduler::seeded(3);
        let report = run_to_silence(&min, &NVec::from(vec![9, 4]), &mut sched, 100_000).unwrap();
        assert!(report.silent);
        assert_eq!(report.output, 4);
        assert_eq!(report.steps, 4);
    }

    #[test]
    fn max_converges_to_max_under_fair_schedulers() {
        let max = examples::max_crn();
        for seed in 0..3 {
            let mut uniform = UniformScheduler::seeded(seed);
            let r = run_to_silence(&max, &NVec::from(vec![6, 11]), &mut uniform, 100_000).unwrap();
            assert!(r.silent);
            assert_eq!(r.output, 11);
            let mut weighted = PropensityScheduler::seeded(seed);
            let r = run_to_silence(&max, &NVec::from(vec![6, 11]), &mut weighted, 100_000).unwrap();
            assert!(r.silent);
            assert_eq!(r.output, 11);
        }
    }

    #[test]
    fn adversarial_schedule_overshoots_max() {
        // Fire the two input-consuming reactions first: the output transiently
        // reaches x1 + x2 before the clean-up reactions bring it back down.
        let max = examples::max_crn();
        let mut adversary = PriorityScheduler::new(vec![0, 1, 2, 3]);
        let peak = peak_output(&max, &NVec::from(vec![5, 7]), &mut adversary, 100_000).unwrap();
        assert_eq!(peak, 12);
        // Even so, the final silent output is correct (stable computation).
        let mut adversary = PriorityScheduler::new(vec![0, 1, 2, 3]);
        let r = run_to_silence(&max, &NVec::from(vec![5, 7]), &mut adversary, 100_000).unwrap();
        assert!(r.silent);
        assert_eq!(r.output, 7);
    }

    #[test]
    fn oblivious_crn_never_overshoots() {
        let min = examples::min_crn();
        for seed in 0..5 {
            let mut sched = UniformScheduler::seeded(seed);
            let peak = peak_output(&min, &NVec::from(vec![8, 3]), &mut sched, 100_000).unwrap();
            assert!(peak <= 3);
        }
    }

    #[test]
    fn step_limit_reported_as_not_silent() {
        let double = examples::double_crn();
        let mut sched = UniformScheduler::seeded(0);
        let report = run_to_silence(&double, &NVec::from(vec![50]), &mut sched, 5).unwrap();
        assert!(!report.silent);
        assert_eq!(report.steps, 5);
    }

    #[test]
    fn wrong_arity_is_an_error() {
        let min = examples::min_crn();
        let mut sched = UniformScheduler::seeded(0);
        assert!(run_to_silence(&min, &NVec::from(vec![1]), &mut sched, 10).is_err());
    }

    #[test]
    fn reused_kernel_matches_fresh_runs() {
        let max = examples::max_crn();
        let mut kernel = ConvergenceKernel::new(&max);
        for (x1, x2) in [(3u64, 5u64), (5, 3), (0, 0), (7, 1)] {
            let x = NVec::from(vec![x1, x2]);
            let reused = kernel
                .run_to_silence(&x, &mut UniformScheduler::seeded(9), 100_000)
                .unwrap();
            let fresh =
                run_to_silence(&max, &x, &mut UniformScheduler::seeded(9), 100_000).unwrap();
            assert_eq!(reused, fresh);
        }
    }
}
