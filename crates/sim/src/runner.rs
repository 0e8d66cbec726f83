//! Batch experiment runner: convergence-versus-input-size series (the data
//! behind experiments E1, E9 and E10) and box-wide spot checks.
//!
//! Repeated trials run on the [`Ensemble`] —
//! independent simulations fanned across scoped worker threads with
//! SplitMix64-decorrelated per-trial seeds — whose determinism contract makes
//! every public result here independent of the worker count.

use crn_model::{CrnError, FunctionCrn};
use crn_numeric::NVec;

use crate::convergence::ConvergenceKernel;
use crate::ensemble::{Ensemble, SeedStream};
use crate::stats::Summary;

/// Summary of repeated trials of one CRN on one input.
#[derive(Debug, Clone, PartialEq)]
pub struct TrialSummary {
    /// The input supplied to every trial.
    pub input: NVec,
    /// Statistics over the step counts of the trials.
    pub steps: Summary,
    /// Statistics over the simulated times (Gillespie only; zero otherwise).
    pub time: Summary,
    /// The set of distinct final outputs observed (a correct, converging CRN
    /// yields a single value here).
    pub outputs: Vec<u64>,
    /// Fraction of trials that reached silence before the step bound.
    pub silent_fraction: f64,
}

/// One point of a convergence-versus-input-size series.
#[derive(Debug, Clone, PartialEq)]
pub struct ConvergencePoint {
    /// Total input size `‖x‖₁`.
    pub input_size: u64,
    /// The input vector used at this point.
    pub input: NVec,
    /// Mean number of reactions fired until silence.
    pub mean_steps: f64,
    /// Mean simulated time until silence.
    pub mean_time: f64,
    /// Whether every trial produced the expected output.
    pub all_correct: bool,
}

/// Sweeps input sizes and measures convergence, producing the series plotted
/// in the E1/E9 experiments.  `make_input` maps a size `n` to the input vector
/// (e.g. `|n| NVec::from(vec![n, n])`), and `expected` gives the correct
/// output for that input.
///
/// # Errors
///
/// Propagates errors from [`Ensemble::run`].
pub fn convergence_series(
    crn: &FunctionCrn,
    sizes: &[u64],
    make_input: impl Fn(u64) -> NVec,
    expected: impl Fn(&NVec) -> u64,
    trials: u32,
    max_steps: u64,
    seed: u64,
) -> Result<Vec<ConvergencePoint>, CrnError> {
    let stream = SeedStream::new(seed);
    let mut series = Vec::with_capacity(sizes.len());
    for (k, &n) in sizes.iter().enumerate() {
        let input = make_input(n);
        let summary = Ensemble::new(crn).with_max_steps(max_steps).run(
            &input,
            trials,
            stream.seed(k as u64),
        )?;
        let want = expected(&input);
        series.push(ConvergencePoint {
            input_size: input.total(),
            input: input.clone(),
            mean_steps: summary.steps.mean,
            mean_time: summary.time.mean,
            all_correct: summary.outputs == vec![want] && summary.silent_fraction == 1.0,
        });
    }
    Ok(series)
}

/// Runs one seeded uniform trial per input in a box and checks the output
/// against `expected`; returns the number of mismatches.  This is the cheap
/// smoke test of `crn verify --spot` and the examples (the exhaustive
/// checker in `crn-model` provides the real guarantee).
///
/// The CRN is compiled once (one [`ConvergenceKernel`] reused across every
/// input) and the box is streamed lazily, so arbitrarily large boxes cost no
/// up-front materialization.  The `k`-th input of the box runs with seed
/// `SeedStream::new(seed).seed(k)`.
///
/// # Errors
///
/// Propagates errors from [`ConvergenceKernel::run_to_silence`].
pub fn spot_check_on_box(
    crn: &FunctionCrn,
    expected: impl Fn(&NVec) -> u64,
    bound: u64,
    max_steps: u64,
    seed: u64,
) -> Result<usize, CrnError> {
    let stream = SeedStream::new(seed);
    let mut kernel = ConvergenceKernel::new(crn);
    let mut mismatches = 0;
    for (k, x) in NVec::box_iter(crn.dim(), bound).enumerate() {
        let report = kernel.run_to_silence(&x, stream.seed(k as u64), max_steps)?;
        if !report.silent || report.output != expected(&x) {
            mismatches += 1;
        }
    }
    Ok(mismatches)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crn_model::examples;

    #[test]
    fn convergence_series_grows_with_input_size() {
        let max = examples::max_crn();
        let series = convergence_series(
            &max,
            &[5, 10, 20],
            |n| NVec::from(vec![n, n]),
            |x| x[0].max(x[1]),
            5,
            1_000_000,
            11,
        )
        .unwrap();
        assert_eq!(series.len(), 3);
        assert!(series.iter().all(|p| p.all_correct));
        assert!(series[0].mean_steps < series[2].mean_steps);
        assert!(series[0].input_size < series[2].input_size);
    }

    #[test]
    fn spot_check_box_all_pass_for_double() {
        let double = examples::double_crn();
        let mismatches = spot_check_on_box(&double, |x| 2 * x[0], 6, 100_000, 3).unwrap();
        assert_eq!(mismatches, 0);
    }

    #[test]
    fn spot_check_box_detects_wrong_spec() {
        let double = examples::double_crn();
        // Claiming the double CRN computes 3x must produce mismatches.
        let mismatches = spot_check_on_box(&double, |x| 3 * x[0], 4, 100_000, 3).unwrap();
        assert!(mismatches > 0);
    }
}
