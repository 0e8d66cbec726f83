//! `crn sim`: stochastic (Gillespie) ensemble simulation.

use crn_numeric::NVec;
use crn_sim::{Ensemble, TrialSummary};

use crate::args::Args;
use crate::commands::{load_or_usage, parse_input, resolve_link, usage_error};
use crate::commands::{EXIT_OK, EXIT_VERDICT};
use crate::json::Json;

/// Runs `crn sim <file> [--item NAME] [--input a,b,…] [--trials N]
/// [--workers W] [--seed S] [--max-steps N] [--json] [--deny-warnings]`.
///
/// Simulates each targeted `crn` item as an [`Ensemble`] of independent
/// Gillespie trials on its input — `--input` if given, otherwise the item's
/// `init` declaration.  A run *converges* when every trial reaches silence
/// with one common output value; when the item has a `computes` link the
/// output must also equal the linked function's value.  A simulation that
/// stops with an error (a count or propensity overflow) fails its item.
///
/// Structural lint findings on the document are echoed to stderr in short
/// form; with `--deny-warnings` any finding forces exit 1 even when every
/// trial converges.  Exit codes: 0 all converged (and correct), 1 otherwise
/// (or denied warning), 2 usage/parse errors.
pub fn run(raw: &[String]) -> i32 {
    let args = match Args::parse(
        raw,
        &["item", "input", "trials", "workers", "seed", "max-steps"],
        &["json", "deny-warnings"],
    ) {
        Ok(args) => args,
        Err(message) => return usage_error(&message),
    };
    let [path] = args.positionals.as_slice() else {
        return usage_error("`crn sim` needs exactly one file");
    };
    let (trials, workers, seed, max_steps) = match (
        args.u64_or("trials", 16),
        args.usize_or("workers", 0),
        args.u64_or("seed", 1),
        args.u64_or("max-steps", 10_000_000),
    ) {
        (Ok(a), Ok(b), Ok(c), Ok(d)) => (a, b, c, d),
        (Err(m), ..) | (_, Err(m), ..) | (_, _, Err(m), _) | (_, _, _, Err(m)) => {
            return usage_error(&m)
        }
    };
    let Ok(trials) = u32::try_from(trials.max(1)) else {
        return usage_error("`--trials` is too large");
    };
    let ws = match load_or_usage(path) {
        Ok(ws) => ws,
        Err(code) => return code,
    };
    let explicit_input = match args.value("input").map(parse_input).transpose() {
        Ok(input) => input,
        Err(message) => return usage_error(&message),
    };
    // Lint findings ride along on stderr, mirroring `crn verify`: a trial
    // that converges on a structurally defective CRN is still worth flagging.
    let summary = crate::commands::lint::collect(&ws, &ws.analyses());
    for warning in &summary.warnings {
        eprintln!(
            "warning[{}] {}: {}",
            warning.code, warning.item, warning.message
        );
    }
    for note in &summary.notes {
        eprintln!("note: {}: {}", note.item, note.message);
    }
    let denied_warnings = !summary.warnings.is_empty() && args.switch("deny-warnings");
    let targets: Vec<&String> = match args.value("item") {
        Some(name) => match ws.crns.iter().find(|(n, _)| n == name) {
            Some((n, _)) => vec![n],
            None => return usage_error(&format!("`{path}` has no crn item named `{name}`")),
        },
        None => {
            let simulable: Vec<&String> = ws
                .crns
                .iter()
                .filter(|(_, lowered)| {
                    // Zero-input CRNs need no init: their input is ().
                    explicit_input.is_some() || lowered.init.is_some() || lowered.crn.dim() == 0
                })
                .map(|(n, _)| n)
                .collect();
            if explicit_input.is_some() && simulable.len() > 1 {
                return usage_error(
                    "`--input` with several crn items is ambiguous; pick one with `--item NAME`",
                );
            }
            simulable
        }
    };
    if targets.is_empty() {
        if explicit_input.is_some() {
            return usage_error(&format!(
                "`--input` was given but `{path}` has no crn items to simulate"
            ));
        }
        println!("{path}: no crn items with an `init` declaration; nothing to simulate");
        return if denied_warnings {
            EXIT_VERDICT
        } else {
            EXIT_OK
        };
    }
    let mut exit = if denied_warnings {
        EXIT_VERDICT
    } else {
        EXIT_OK
    };
    let mut reports = Vec::new();
    for name in targets {
        // Resolved defensively: an unresolved target is a usage error
        // (exit 2), never a panic.
        let Some(lowered) = ws.crn(name) else {
            return usage_error(&format!("`{path}` has no crn item named `{name}`"));
        };
        let x = match (&explicit_input, &lowered.init) {
            (Some(input), _) => NVec::from(input.clone()),
            (None, Some(init)) => init.clone(),
            (None, None) if lowered.crn.dim() == 0 => NVec::zeros(0),
            (None, None) => {
                return usage_error(&format!(
                    "crn `{name}` has no `init` declaration; give an input with `--input a,b,…`"
                ))
            }
        };
        if x.dim() != lowered.crn.dim() {
            return usage_error(&format!(
                "crn `{name}` takes {} inputs, got {}",
                lowered.crn.dim(),
                x.dim()
            ));
        }
        // Resolve the expected output when a computes link exists (a dangling
        // link is a verdict failure here, consistent with `crn check`).
        // Only the one input point is evaluated (no box scan — `x` can be
        // huge), and evaluation failures are surfaced, not coerced to 0.
        let expected = match &lowered.computes {
            None => None,
            Some(computes) => {
                let value = resolve_link(&ws, name, computes).and_then(|target| {
                    target
                        .try_eval(&x)
                        .map_err(|e| format!("`{computes}` cannot be evaluated at {x}: {e}"))
                });
                match value {
                    Ok(value) => Some(value),
                    Err(problem) => {
                        if args.switch("json") {
                            reports.push(failure(name, &x, &problem));
                        } else {
                            println!("{path}: crn {name}: FAIL\n  {problem}");
                        }
                        exit = EXIT_VERDICT;
                        continue;
                    }
                }
            }
        };
        let mut ensemble = Ensemble::new(&lowered.crn).with_max_steps(max_steps);
        if workers > 0 {
            ensemble = ensemble.with_workers(workers);
        }
        let summary = match ensemble.run(&x, trials, seed) {
            Ok(summary) => summary,
            Err(e) => {
                let problem = format!("simulation failed: {e}");
                if args.switch("json") {
                    reports.push(failure(name, &x, &problem));
                } else {
                    println!("{path}: crn {name} on {x}: FAIL\n  {problem}");
                }
                exit = EXIT_VERDICT;
                continue;
            }
        };
        let judgement = judge(&summary, expected);
        if !judgement.correct {
            exit = EXIT_VERDICT;
        }
        if args.switch("json") {
            reports.push(Json::obj(vec![
                ("item", Json::str(name.as_str())),
                ("input", Json::uints(x.iter().copied())),
                ("trials", Json::UInt(u64::from(trials))),
                ("seed", Json::UInt(seed)),
                ("outputs", Json::uints(summary.outputs.iter().copied())),
                ("expected", expected.map_or(Json::Null, Json::UInt)),
                ("silent_fraction", Json::Float(summary.silent_fraction)),
                ("mean_steps", Json::Float(summary.steps.mean)),
                ("p95_steps", Json::Float(summary.steps.p95)),
                ("mean_time", Json::Float(summary.time.mean)),
                ("converged", Json::Bool(judgement.converged)),
                ("correct", Json::Bool(judgement.correct)),
            ]));
        } else {
            let outputs: Vec<String> = summary.outputs.iter().map(u64::to_string).collect();
            println!(
                "{path}: crn {name} on {x}: outputs {{{}}}, silent {:.0}%, mean steps {:.1}{}",
                outputs.join(", "),
                summary.silent_fraction * 100.0,
                summary.steps.mean,
                match expected {
                    None => String::new(),
                    Some(value) => format!(
                        ", expected {value}: {}",
                        verdict(&summary, &judgement, max_steps)
                    ),
                }
            );
        }
    }
    if args.switch("json") {
        let mut fields = vec![
            ("command", Json::str("sim")),
            ("file", Json::str(path.as_str())),
            ("results", Json::Arr(reports)),
        ];
        crate::commands::push_metrics(&mut fields);
        println!("{}", Json::obj(fields));
    }
    exit
}

/// The `--json` result of an item that failed with `problem` before its
/// ensemble could finish.
fn failure(name: &str, x: &NVec, problem: &str) -> Json {
    Json::obj(vec![
        ("item", Json::str(name)),
        ("input", Json::uints(x.iter().copied())),
        ("error", Json::str(problem)),
        ("converged", Json::Bool(false)),
        ("correct", Json::Bool(false)),
    ])
}

/// How an ensemble ended: `converged` when every trial reached silence with
/// one common output value, `correct` when it also equals the `computes`
/// link's value (if the item has one), and `gave_up` when it is not correct
/// only because some trial was cut by `--max-steps`.
pub(crate) struct Judgement {
    pub(crate) converged: bool,
    pub(crate) correct: bool,
    pub(crate) gave_up: bool,
}

/// Judges an ensemble summary against the expected output, for `crn sim`
/// and `crn profile` alike.  A silent configuration is terminal, so a silent
/// trial's output is final: one that differs from the expected value, or
/// without one from another silent output, contradicts the claim.  A trial
/// cut by `--max-steps` refutes nothing, so a run that is not correct with
/// no such contradiction and some trial cut gave up.
pub(crate) fn judge(summary: &TrialSummary, expected: Option<u64>) -> Judgement {
    let converged = summary.silent_fraction == 1.0 && summary.outputs.len() == 1;
    let (correct, contradicted) = match expected {
        None => (converged, summary.silent_outputs.len() > 1),
        Some(value) => (
            converged && summary.outputs == [value],
            summary.silent_outputs.iter().any(|&output| output != value),
        ),
    };
    let gave_up = !correct && !contradicted && summary.silent_fraction < 1.0;
    Judgement {
        converged,
        correct,
        gave_up,
    }
}

/// The verdict after `expected <value>: ` on a `crn sim` line: `ok`,
/// MISMATCH where a silent trial contradicts the claim (which covers two
/// silent trials that disagree), or the give-up.
fn verdict(summary: &TrialSummary, judgement: &Judgement, max_steps: u64) -> String {
    if judgement.correct {
        return "ok".to_owned();
    }
    if !judgement.gave_up {
        return "MISMATCH".to_owned();
    }
    let trials = summary.steps.count;
    let cut = ((1.0 - summary.silent_fraction) * trials as f64).round();
    format!("gave up ({cut} of {trials} trials hit --max-steps {max_steps} before falling silent)")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crn_sim::Summary;

    /// Four trials, `silent` of which fell silent, with these final outputs.
    fn trials(outputs: &[u64], silent_outputs: &[u64], silent: u32) -> TrialSummary {
        TrialSummary {
            input: NVec::zeros(1),
            steps: Summary::of(&[5.0; 4]),
            time: Summary::of(&[1.0; 4]),
            outputs: outputs.to_vec(),
            silent_outputs: silent_outputs.to_vec(),
            silent_fraction: f64::from(silent) / 4.0,
        }
    }

    #[test]
    fn a_run_gives_up_only_where_cut_trials_alone_stand_in_the_way() {
        let flag = |summary: &TrialSummary, expected| {
            let judgement = judge(summary, expected);
            (judgement.correct, judgement.gave_up)
        };
        // Two trials fell silent at 3 and two were cut at 2.
        let cut = trials(&[2, 3], &[3], 2);
        assert_eq!(flag(&cut, Some(3)), (false, true));
        assert_eq!(flag(&cut, None), (false, true));
        // A silent 3 refutes a claim of 2, whatever the cut trials do.
        assert_eq!(flag(&cut, Some(2)), (false, false));
        // Without a claim, two silent trials that disagree refute
        // convergence.
        let split = trials(&[1, 2, 5], &[1, 2], 2);
        assert_eq!(flag(&split, None), (false, false));
        // With every trial silent nothing was cut: a pass or a failure.
        let done = trials(&[3], &[3], 4);
        assert_eq!(flag(&done, Some(3)), (true, false));
        assert_eq!(flag(&done, Some(2)), (false, false));
    }
}
