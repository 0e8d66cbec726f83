//! `crn verify`: reachability-based verification of `computes` claims.

use crn_model::{BoxCheck, BoxCheckStats, CrnError, StableComputationVerdict};
use crn_sim::runner::{spot_check_on_box, SpotCheck};

use crate::args::Args;
use crate::commands::{
    huge_box, load_or_usage, resolve_target, usage_error, EXIT_OK, EXIT_VERDICT,
};
use crate::json::Json;

/// Runs `crn verify <file> [--item NAME] [--bound N] [--max-configs N]
/// [--stats] [--spot] [--max-steps N] [--seed S] [--json]
/// [--deny-warnings]`.
///
/// For each `crn` item with a `computes` link (or the named one), checks
/// stable computation of the linked function on every input of
/// `[0, bound]^d`: exhaustively via the box engine by default, or by
/// seeded stochastic spot checks with `--spot` (for CRNs whose reachable
/// space outgrows `--max-configs`).
///
/// `--spot` samples one Gillespie run per input, on the chain `crn sim`
/// samples, seeded from `--seed` and the input's index in the box.  A silent
/// configuration is terminal, so a run that falls silent with a wrong output
/// refutes the claim: the FAIL line names the first such input, its silent
/// configuration and its output.  A run cut by `--max-steps` proves nothing,
/// so cut runs alone make the item give up (exit 1).  A pass says only that
/// every sampled run fell silent with the expected output.
///
/// The box engine skips symmetry orbits, then runs a stubborn-set terminal
/// scan on certified-acyclic CRNs and a full verdict on the others; its
/// outcome equals a sequential loop of full verdicts over the box wherever
/// that loop finishes within `--max-configs`, which the tier-1 tests
/// cross-check.  The limit bounds the configurations one exploration
/// visits, and the terminal scan visits fewer, so the engine may pass a
/// point a full verdict gives up on.  A failing point is re-checked by the
/// unreduced exploration, so FAIL lines are the full verdict's.
///
/// `--stats` prints one line of engine counters per verified item to stderr
/// as JSON — points explored versus symmetry-replayed, explored
/// configurations — and, with `--json`, attaches the same object to the
/// item's report.  It is refused under `--spot`, which never runs a box
/// sweep.
///
/// Structural lint findings on the verified items are echoed to stderr in
/// short form (stdout carries the verdicts); with `--deny-warnings` any
/// finding forces exit 1 even when every verdict passes.  Exit codes: 0 all
/// pass, 1 any failing or unverifiable input (or denied warning), 2
/// usage/parse errors.
pub fn run(raw: &[String]) -> i32 {
    let args = match Args::parse(
        raw,
        &["item", "bound", "max-configs", "max-steps", "seed"],
        &["spot", "json", "deny-warnings", "stats"],
    ) {
        Ok(args) => args,
        Err(message) => return usage_error(&message),
    };
    let [path] = args.positionals.as_slice() else {
        return usage_error("`crn verify` needs exactly one file");
    };
    let (bound, max_configs, max_steps, seed) = match (
        args.u64_or("bound", 4),
        args.usize_or("max-configs", 200_000),
        args.u64_or("max-steps", 1_000_000),
        args.u64_or("seed", 7),
    ) {
        (Ok(a), Ok(b), Ok(c), Ok(d)) => (a, b, c, d),
        (Err(m), ..) | (_, Err(m), ..) | (_, _, Err(m), _) | (_, _, _, Err(m)) => {
            return usage_error(&m)
        }
    };
    if args.switch("stats") && args.switch("spot") {
        return usage_error(
            "`--stats` reports the exhaustive engines' box-sweep counters; drop `--spot`",
        );
    }
    let ws = match load_or_usage(path) {
        Ok(ws) => ws,
        Err(code) => return code,
    };
    // One analysis per crn item serves both the lints and the sweep.
    let analyses = ws.analyses();
    // Lint findings ride along on stderr so a verified-but-smelly document is
    // never silently blessed; stdout stays reserved for the verdicts.
    let summary = crate::commands::lint::collect(&ws, &analyses);
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
    // Indices into `ws.crns` (and `analyses`).
    let targets: Vec<usize> = match args.value("item") {
        Some(name) => match ws.crns.iter().position(|(n, _)| n == name) {
            Some(i) => {
                if ws.crns[i].1.computes.is_none() {
                    return usage_error(&format!(
                        "crn `{name}` has no `computes` link, so there is nothing to verify against"
                    ));
                }
                vec![i]
            }
            None => return usage_error(&format!("`{path}` has no crn item named `{name}`")),
        },
        None => (0..ws.crns.len())
            .filter(|&i| ws.crns[i].1.computes.is_some())
            .collect(),
    };
    if let Some(message) = targets
        .iter()
        .find_map(|&i| huge_box(bound, ws.crns[i].1.crn.dim()))
    {
        return usage_error(&message);
    }
    if targets.is_empty() {
        println!("{path}: no crn items with a `computes` link; nothing to verify");
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
    for i in targets {
        let (name, lowered) = &ws.crns[i];
        // The link was established above, but re-resolve defensively: an
        // inconsistency is a usage error (exit 2), never a panic.
        let Some(computes) = lowered.computes.as_deref() else {
            return usage_error(&format!(
                "crn `{name}` has no `computes` link, so there is nothing to verify against"
            ));
        };
        let json = args.switch("json");
        let fail = |message: String, reports: &mut Vec<Json>| {
            if json {
                reports.push(Json::obj(vec![
                    ("item", Json::str(name.as_str())),
                    ("computes", Json::str(computes)),
                    ("ok", Json::Bool(false)),
                    ("reason", Json::str(message.as_str())),
                ]));
            } else {
                println!(
                    "{path}: crn {name} vs {computes} on [0, {bound}]^{}: FAIL",
                    lowered.crn.dim()
                );
                println!("  {message}");
            }
            EXIT_VERDICT
        };
        let target = match resolve_target(&ws, name, computes, bound) {
            Ok(target) => target,
            Err(problem) => {
                exit = fail(problem, &mut reports);
                continue;
            }
        };
        let eval = |x: &crn_numeric::NVec| target.eval(x);
        let mut stats: Option<BoxCheckStats> = None;
        if args.switch("spot") {
            match spot_check_on_box(&lowered.crn, eval, bound, max_steps, seed) {
                Ok(SpotCheck {
                    wrong: None,
                    cut: 0,
                }) => {}
                // A silent configuration is terminal, so a wrong silent
                // output refutes the claim whatever the cut runs do.
                Ok(SpotCheck {
                    wrong: Some(run), ..
                }) => {
                    exit = fail(
                        format!(
                            "input {} expects {}: a sampled run falls silent at {} with output {}",
                            run.input,
                            run.expected,
                            run.final_configuration.display(lowered.crn.crn().species()),
                            run.output
                        ),
                        &mut reports,
                    );
                    continue;
                }
                Ok(SpotCheck { cut, .. }) => {
                    exit = fail(
                        format!(
                            "spot check gave up: {cut} input(s) did not fall silent within \
                             {max_steps} steps; retry with a larger --max-steps or without --spot"
                        ),
                        &mut reports,
                    );
                    continue;
                }
                Err(e) => {
                    exit = fail(format!("simulation failed: {e}"), &mut reports);
                    continue;
                }
            }
        } else {
            let (outcome, sweep_stats) =
                BoxCheck::new(&analyses[i], eval, bound, max_configs).run();
            if args.switch("stats") {
                stats = Some(sweep_stats);
            }
            if let Some(sweep_stats) = &stats {
                // One self-contained JSON line per item on stderr, so stdout
                // carries only the verdicts.
                eprintln!(
                    "{}",
                    Json::obj(vec![
                        ("item", Json::str(name.as_str())),
                        ("stats", stats_object(sweep_stats)),
                    ])
                );
            }
            match Sweep::of(outcome) {
                Sweep::Pass => {}
                Sweep::Fail(message) | Sweep::GaveUp(message) => {
                    exit = fail(message, &mut reports);
                    continue;
                }
            }
        }
        let method = if args.switch("spot") {
            "spot"
        } else {
            "exhaustive"
        };
        if json {
            let mut fields = vec![
                ("item", Json::str(name.as_str())),
                ("computes", Json::str(computes)),
                ("method", Json::str(method)),
                ("bound", Json::UInt(bound)),
                ("ok", Json::Bool(true)),
            ];
            if let Some(sweep_stats) = &stats {
                fields.push(("stats", stats_object(sweep_stats)));
            }
            reports.push(Json::obj(fields));
        } else {
            println!(
                "{path}: crn {name} vs {computes} on [0, {bound}]^{}: ok ({method})",
                lowered.crn.dim()
            );
        }
    }
    if args.switch("json") {
        let mut fields = vec![
            ("command", Json::str("verify")),
            ("file", Json::str(path.as_str())),
            ("results", Json::Arr(reports)),
        ];
        crate::commands::push_metrics(&mut fields);
        println!("{}", Json::obj(fields));
    }
    exit
}

/// How an exhaustive sweep ended, for `crn verify` and `crn profile` alike:
/// a pass, a FAIL, or a give-up, each failure with its message.
pub(crate) enum Sweep {
    Pass,
    Fail(String),
    GaveUp(String),
}

impl Sweep {
    /// Classifies a box sweep's outcome.  A failing verdict refutes the
    /// claim, and an overflowing count is a property of the CRN, which no
    /// other method or limit would get past; any other error is a limit the
    /// search hit.
    pub(crate) fn of(outcome: Result<Option<StableComputationVerdict>, CrnError>) -> Sweep {
        match outcome {
            Ok(None) => Sweep::Pass,
            Ok(Some(verdict)) => Sweep::Fail(format!(
                "input {} expects {}: {}",
                verdict.input,
                verdict.expected_output,
                verdict
                    .failure
                    .unwrap_or_else(|| "stable computation fails".to_owned())
            )),
            Err(e @ CrnError::CountOverflow { .. }) => Sweep::Fail(e.to_string()),
            Err(e) => Sweep::GaveUp(format!(
                "exhaustive search gave up: {e}; retry with --spot or a larger --max-configs"
            )),
        }
    }
}

/// The `--stats` engine counters as a JSON object.
fn stats_object(stats: &BoxCheckStats) -> Json {
    Json::obj(vec![
        ("points", Json::UInt(stats.points)),
        ("evaluated", Json::UInt(stats.evaluated)),
        ("symmetry_skipped", Json::UInt(stats.symmetry_skipped)),
        ("decided", Json::UInt(stats.decided)),
        ("configs_explored", Json::UInt(stats.configs_explored)),
    ])
}
