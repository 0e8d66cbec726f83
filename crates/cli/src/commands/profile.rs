//! `crn profile`: check, verify and sim back to back, with a per-phase
//! breakdown.

use crn_model::BoxCheck;
use crn_numeric::NVec;
use crn_sim::Ensemble;

use crate::args::Args;
use crate::commands::sim::judge;
use crate::commands::verify::Sweep;
use crate::commands::{
    huge_box, load_or_usage, resolve_link, resolve_target, usage_error, EXIT_OK, EXIT_VERDICT,
};
use crate::json::Json;

/// Runs `crn profile <file> [--item NAME] [--bound N] [--trials N] [--seed S]
/// [--max-configs N] [--max-steps N] [--json]`.
///
/// Profiling-first sibling of running `crn check`, `crn verify` and `crn sim`
/// separately: the [`crn_obs`] layer is forced on, the document flows through
/// four phases — `load` (parse + lower), `check` (lint), `verify` (exhaustive
/// reachability for every `computes` link) and `sim` (one Gillespie ensemble
/// per item with an `init` declaration) — and stdout gets a per-phase wall
/// time breakdown.  With `--json` the report also carries the full versioned
/// `metrics` object, exactly as `--json --profile` would on the individual
/// commands.
///
/// The defaults (`--bound 3`, `--trials 8`) are deliberately smaller than the
/// verify/sim defaults: this command is a profiling sweep, not a gate.  Lint
/// findings are echoed to stderr as usual.  Each phase line counts the items
/// that failed apart from those that gave up, classified as `crn verify` and
/// `crn sim` classify them.  Exit codes: 0 every phase passed, 1 any verify or
/// sim item failed or gave up, 2 usage/parse errors.
pub fn run(raw: &[String]) -> i32 {
    let args = match Args::parse(
        raw,
        &[
            "item",
            "bound",
            "trials",
            "seed",
            "max-configs",
            "max-steps",
        ],
        &["json"],
    ) {
        Ok(args) => args,
        Err(message) => return usage_error(&message),
    };
    let [path] = args.positionals.as_slice() else {
        return usage_error("`crn profile` needs exactly one file");
    };
    let (bound, trials, seed, max_configs, max_steps) = match (
        args.u64_or("bound", 3),
        args.u64_or("trials", 8),
        args.u64_or("seed", 1),
        args.usize_or("max-configs", 200_000),
        args.u64_or("max-steps", 1_000_000),
    ) {
        (Ok(a), Ok(b), Ok(c), Ok(d), Ok(e)) => (a, b, c, d, e),
        (Err(m), ..)
        | (_, Err(m), ..)
        | (_, _, Err(m), ..)
        | (_, _, _, Err(m), _)
        | (_, _, _, _, Err(m)) => return usage_error(&m),
    };
    let Ok(trials) = u32::try_from(trials.max(1)) else {
        return usage_error("`--trials` is too large");
    };
    // Force profiling on for the phases; when the caller already enabled it
    // (global `--profile`), leave the registry lifecycle to the driver.
    let was_enabled = crn_obs::enabled();
    if !was_enabled {
        crn_obs::reset();
        crn_obs::set_enabled(true);
    }
    let outcome = phases(
        path,
        args.value("item"),
        bound,
        trials,
        seed,
        max_configs,
        max_steps,
    );
    let snapshot = crn_obs::snapshot();
    if !was_enabled {
        crn_obs::set_enabled(false);
        crn_obs::reset();
    }
    let (exit, report) = match outcome {
        Ok(result) => result,
        Err(code) => return code,
    };
    let nanos = |phase: &str| phase_nanos(&snapshot, phase);
    if args.switch("json") {
        let phase = |name: &str, extra: Vec<(&'static str, Json)>| {
            let mut fields = vec![
                ("name", Json::str(name)),
                ("nanos", Json::UInt(nanos(name))),
            ];
            fields.extend(extra);
            Json::obj(fields)
        };
        let fields = vec![
            ("command", Json::str("profile")),
            ("file", Json::str(path.as_str())),
            ("bound", Json::UInt(bound)),
            ("trials", Json::UInt(u64::from(trials))),
            ("seed", Json::UInt(seed)),
            (
                "phases",
                Json::Arr(vec![
                    phase("load", vec![]),
                    phase("check", vec![("warnings", Json::UInt(report.warnings))]),
                    phase(
                        "verify",
                        vec![
                            ("items", Json::UInt(report.verified)),
                            ("failures", Json::UInt(report.verify_failures)),
                            ("gave_up", Json::UInt(report.verify_gave_up)),
                        ],
                    ),
                    phase(
                        "sim",
                        vec![
                            ("items", Json::UInt(report.simulated)),
                            ("failures", Json::UInt(report.sim_failures)),
                            ("gave_up", Json::UInt(report.sim_gave_up)),
                        ],
                    ),
                ]),
            ),
            ("ok", Json::Bool(exit == EXIT_OK)),
            ("metrics", crate::json::metrics_json(&snapshot)),
        ];
        println!("{}", Json::obj(fields));
    } else {
        println!("{path}: profile (bound {bound}, trials {trials}, seed {seed})");
        println!("  load    {}", crn_obs::format_nanos(nanos("load")));
        println!(
            "  check   {}  ({} warning(s))",
            crn_obs::format_nanos(nanos("check")),
            report.warnings
        );
        println!(
            "  verify  {}  ({} item(s), {} failure(s), {} gave up)",
            crn_obs::format_nanos(nanos("verify")),
            report.verified,
            report.verify_failures,
            report.verify_gave_up
        );
        println!(
            "  sim     {}  ({} item(s), {} failure(s), {} gave up)",
            crn_obs::format_nanos(nanos("sim")),
            report.simulated,
            report.sim_failures,
            report.sim_gave_up
        );
    }
    exit
}

/// Per-phase outcome counts (wall times live in the span snapshot).  An
/// item that gave up, as `crn verify` or `crn sim` would report it, is
/// counted apart from the failures.
#[derive(Default)]
struct PhaseReport {
    warnings: u64,
    verified: u64,
    verify_failures: u64,
    verify_gave_up: u64,
    simulated: u64,
    sim_failures: u64,
    sim_gave_up: u64,
}

/// Total nanoseconds of the span named `phase`, wherever it nested (at the
/// root without the global `--profile`, under `cli.profile/` with it).
fn phase_nanos(snapshot: &crn_obs::MetricsSnapshot, phase: &str) -> u64 {
    snapshot
        .spans
        .iter()
        .find(|(path, _)| path == phase || path.ends_with(&format!("/{phase}")))
        .map_or(0, |(_, span)| span.total_nanos)
}

/// Runs the four phases; `Err` carries a usage exit code.
fn phases(
    path: &str,
    item: Option<&str>,
    bound: u64,
    trials: u32,
    seed: u64,
    max_configs: usize,
    max_steps: u64,
) -> Result<(i32, PhaseReport), i32> {
    let ws = {
        let _span = crn_obs::span("load");
        load_or_usage(path)?
    };
    if let Some(name) = item {
        if ws.crn(name).is_none() {
            return Err(usage_error(&format!(
                "`{path}` has no crn item named `{name}`"
            )));
        }
    }
    let verified = |name: &str| item.map_or(true, |only| only == name);
    if let Some(message) = ws
        .crns
        .iter()
        .filter(|(name, lowered)| verified(name) && lowered.computes.is_some())
        .find_map(|(_, lowered)| huge_box(bound, lowered.crn.dim()))
    {
        return Err(usage_error(&message));
    }
    let mut report = PhaseReport::default();
    // One analysis per crn item serves both the check and verify phases.
    let analyses = ws.analyses();
    let summary = {
        let _span = crn_obs::span("check");
        crate::commands::lint::collect(&ws, &analyses)
    };
    for warning in &summary.warnings {
        eprintln!(
            "warning[{}] {}: {}",
            warning.code, warning.item, warning.message
        );
    }
    for note in &summary.notes {
        eprintln!("note: {}: {}", note.item, note.message);
    }
    report.warnings = summary.warnings.len() as u64;
    let mut exit = EXIT_OK;
    {
        let _span = crn_obs::span("verify");
        for ((name, lowered), analysis) in ws.crns.iter().zip(&analyses) {
            if !verified(name) {
                continue;
            }
            let Some(computes) = lowered.computes.as_deref() else {
                continue;
            };
            report.verified += 1;
            let sweep = match resolve_target(&ws, name, computes, bound) {
                Err(problem) => Sweep::Fail(problem),
                Ok(target) => {
                    let eval = |x: &NVec| target.eval(x);
                    Sweep::of(BoxCheck::new(analysis, eval, bound, max_configs).run().0)
                }
            };
            match sweep {
                Sweep::Pass => continue,
                Sweep::Fail(_) => report.verify_failures += 1,
                Sweep::GaveUp(_) => report.verify_gave_up += 1,
            }
            exit = EXIT_VERDICT;
        }
    }
    // The simulations need none of the analyses.
    drop(analyses);
    {
        let _span = crn_obs::span("sim");
        for (name, lowered) in &ws.crns {
            if item.is_some_and(|only| only != name) {
                continue;
            }
            let x = match &lowered.init {
                Some(init) => init.clone(),
                None if lowered.crn.dim() == 0 => NVec::zeros(0),
                None => continue,
            };
            report.simulated += 1;
            let expected = lowered
                .computes
                .as_deref()
                .and_then(|computes| resolve_link(&ws, name, computes).ok())
                .and_then(|target| target.try_eval(&x).ok());
            // An ensemble error (a count or propensity overflow) fails the
            // item, as in `crn sim`.
            let ensemble = Ensemble::new(&lowered.crn).with_max_steps(max_steps);
            match ensemble.run(&x, trials, seed).map(|s| judge(&s, expected)) {
                Ok(judgement) if judgement.correct => continue,
                Ok(judgement) if judgement.gave_up => report.sim_gave_up += 1,
                _ => report.sim_failures += 1,
            }
            exit = EXIT_VERDICT;
        }
    }
    Ok((exit, report))
}
