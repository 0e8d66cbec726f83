//! Batch experiment runner: convergence-versus-input-size series (the data
//! behind experiments E1, E9 and E10) and box-wide spot checks.
//!
//! Repeated trials run on the [`Ensemble`] —
//! independent simulations fanned across scoped worker threads with
//! SplitMix64-decorrelated per-trial seeds — whose determinism contract makes
//! every public result here independent of the worker count.

use crn_model::{Configuration, CrnError, FunctionCrn};
use crn_numeric::NVec;

use crate::ensemble::{Ensemble, SeedStream};
use crate::gillespie::Gillespie;
use crate::stats::Summary;

/// Summary of repeated trials of one CRN on one input.
#[derive(Debug, Clone, PartialEq)]
pub struct TrialSummary {
    /// The input supplied to every trial.
    pub input: NVec,
    /// Statistics over the step counts of the trials.
    pub steps: Summary,
    /// Statistics over the trials' clocks: each is the expected time along
    /// the trial's reaction sequence ([`GillespieOutcome::time`]), so their
    /// mean estimates the expected time to silence.
    ///
    /// [`GillespieOutcome::time`]: crate::GillespieOutcome::time
    pub time: Summary,
    /// The set of distinct final outputs observed (a correct, converging CRN
    /// yields a single value here).
    pub outputs: Vec<u64>,
    /// The distinct final outputs of the trials that reached silence, in
    /// ascending order.  Only these are outputs of terminal configurations.
    pub silent_outputs: Vec<u64>,
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
    /// The mean over the trials of the expected time along each trial's
    /// reaction sequence ([`GillespieOutcome::time`]): an estimate of the
    /// expected time to silence.
    ///
    /// [`GillespieOutcome::time`]: crate::GillespieOutcome::time
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

/// The outcome of [`spot_check_on_box`].
///
/// A silent configuration is terminal, so a sampled run that falls silent
/// with an output other than f(x) proves that the CRN does not stably
/// compute f at x.  A run cut by the step bound proves nothing either way.
#[derive(Debug, Clone, PartialEq)]
pub struct SpotCheck {
    /// The first input, in box order, whose run fell silent with a wrong
    /// output.
    pub wrong: Option<WrongRun>,
    /// The number of inputs whose run hit the step bound before falling
    /// silent.
    pub cut: u64,
}

/// A sampled run that fell silent with an output other than the expected
/// one.
#[derive(Debug, Clone, PartialEq)]
pub struct WrongRun {
    /// The input the run started from.
    pub input: NVec,
    /// The output the claim expects at `input`.
    pub expected: u64,
    /// The output of the silent configuration the run ended in.
    pub output: u64,
    /// That silent configuration.
    pub final_configuration: Configuration,
}

/// Runs one seeded Gillespie trial per input in a box and checks each run
/// that falls silent against `expected`.  This is the smoke test of
/// `crn verify --spot` and the examples (the exhaustive checker in
/// `crn-model` provides the real guarantee).
///
/// The CRN is compiled once (one [`Gillespie`] reused across every input)
/// and the box is streamed lazily, so arbitrarily large boxes cost no
/// up-front materialization.  The `k`-th input of the box runs from `I_x`
/// after [`Gillespie::reseed`] with `SeedStream::new(seed).seed(k)`, on the
/// chain `crn sim` samples.
///
/// # Errors
///
/// Propagates errors from [`Gillespie::run`].
pub fn spot_check_on_box(
    crn: &FunctionCrn,
    expected: impl Fn(&NVec) -> u64,
    bound: u64,
    max_steps: u64,
    seed: u64,
) -> Result<SpotCheck, CrnError> {
    let stream = SeedStream::new(seed);
    let mut sim = Gillespie::new(crn.crn(), 0);
    let mut check = SpotCheck {
        wrong: None,
        cut: 0,
    };
    for (k, x) in NVec::box_iter(crn.dim(), bound).enumerate() {
        sim.reseed(stream.seed(k as u64));
        let run = sim.run(&crn.initial_configuration(&x)?, max_steps)?;
        if !run.silent {
            check.cut += 1;
            continue;
        }
        let output = run.final_configuration.count(crn.output());
        let want = expected(&x);
        if output != want && check.wrong.is_none() {
            check.wrong = Some(WrongRun {
                input: x,
                expected: want,
                output,
                final_configuration: run.final_configuration,
            });
        }
    }
    Ok(check)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crn_model::{examples, Crn};

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
        let check = spot_check_on_box(&double, |x| 2 * x[0], 6, 100_000, 3).unwrap();
        assert_eq!((check.wrong, check.cut), (None, 0));
    }

    #[test]
    fn spot_check_box_detects_wrong_spec() {
        let double = examples::double_crn();
        // Claiming the double CRN computes 3x is wrong from x = 1 on.
        let check = spot_check_on_box(&double, |x| 3 * x[0], 4, 100_000, 3).unwrap();
        let wrong = check.wrong.unwrap();
        assert_eq!(
            (wrong.input, wrong.expected, wrong.output),
            (NVec::from(vec![1]), 3, 2)
        );
        assert_eq!(wrong.final_configuration.count(double.output()), 2);
        assert_eq!(check.cut, 0);
    }

    #[test]
    fn the_kth_input_replays_a_fresh_run_seeded_with_the_kth_stream_seed() {
        // X -> Y; X -> Z falls silent with output anywhere in [0, x], so
        // the first wrong input and its output name the seeds drawn.
        let mut crn = Crn::new();
        for reaction in ["X -> Y", "X -> Z"] {
            crn.parse_reaction(reaction).unwrap();
        }
        let crn = FunctionCrn::with_named_roles(crn, &["X"], "Y", None).unwrap();
        for seed in 0..8 {
            let check = spot_check_on_box(&crn, |x| x[0], 12, 1_000, seed).unwrap();
            let stream = SeedStream::new(seed);
            let fresh = NVec::box_iter(1, 12)
                .enumerate()
                .map(|(k, x)| {
                    let start = crn.initial_configuration(&x).unwrap();
                    let mut sim = Gillespie::new(crn.crn(), stream.seed(k as u64));
                    (x, sim.run(&start, 1_000).unwrap())
                })
                .find(|(x, run)| run.final_configuration.count(crn.output()) != x[0])
                .expect("some run loses an X to Z");
            let wrong = check.wrong.unwrap();
            assert_eq!(wrong.input, fresh.0, "seed {seed}");
            assert_eq!(wrong.final_configuration, fresh.1.final_configuration);
            assert_eq!(
                wrong.output,
                fresh.1.final_configuration.count(crn.output())
            );
            assert_eq!(check.cut, 0);
        }
    }

    #[test]
    fn a_flip_flop_is_cut_never_wrong() {
        // X -> Y + A leaves an A that flips between A and B forever: every
        // run from x > 0 ends with output x, but none falls silent.
        let mut crn = Crn::new();
        for reaction in ["X -> Y + A", "A -> B", "B -> A"] {
            crn.parse_reaction(reaction).unwrap();
        }
        let crn = FunctionCrn::with_named_roles(crn, &["X"], "Y", None).unwrap();
        let check = spot_check_on_box(&crn, |x| x[0], 4, 1_000, 7).unwrap();
        assert_eq!((check.wrong, check.cut), (None, 4));
    }

    #[test]
    fn a_count_overflow_is_an_error() {
        // X -> (2^63 - 1) Y: two firings fit in u64, a third does not.
        let mut crn = Crn::new();
        crn.parse_reaction("X -> 9223372036854775807 Y").unwrap();
        let crn = FunctionCrn::with_named_roles(crn, &["X"], "Y", None).unwrap();
        let f = |x: &NVec| x[0].wrapping_mul(9_223_372_036_854_775_807);
        assert_eq!(spot_check_on_box(&crn, f, 2, 10, 0).unwrap().wrong, None);
        assert_eq!(
            spot_check_on_box(&crn, f, 3, 10, 0),
            Err(CrnError::CountOverflow {
                reaction: "X -> 9223372036854775807Y".into(),
                species: "Y".into(),
            })
        );
    }
}
