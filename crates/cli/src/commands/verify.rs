//! `crn verify`: reachability-based verification of `computes` claims.

use crn_model::{BoxCheck, BoxCheckStats};
use crn_sim::runner::spot_check_on_box;

use crate::args::Args;
use crate::commands::{load_or_usage, resolve_target, usage_error, EXIT_OK, EXIT_VERDICT};
use crate::json::Json;

/// Runs `crn verify <file> [--item NAME] [--bound N] [--max-configs N]
/// [--engine incremental|reference] [--stats] [--spot] [--max-steps N]
/// [--seed S] [--json] [--deny-warnings]`.
///
/// For each `crn` item with a `computes` link (or the named one), checks
/// stable computation of the linked function on every input of
/// `[0, bound]^d`: exhaustively via the reachability engine by default, or by
/// seeded stochastic spot checks with `--spot` (for CRNs whose reachable
/// space outgrows `--max-configs`).
///
/// `--engine` selects the exhaustive backend: `incremental` (default) runs
/// the incremental box engine (static verdicts, symmetry orbits, routed
/// decision passes: a stubborn-set terminal scan on certified-acyclic CRNs,
/// cross-point memoization on the others), `reference` the unpruned
/// hash-interned engine that builds a full verdict at every point — both
/// must produce identical verdicts wherever the reference finishes within
/// `--max-configs`, which the CI corpus smoke step cross-checks.  The limit
/// bounds the configurations one exploration stores, and the terminal scan
/// stores fewer, so the incremental engine may pass a point the reference
/// gives up on.  A failing point is re-checked by the unreduced
/// exploration, so FAIL lines are the reference engine's.  `--engine` is
/// meaningless under `--spot` and refused there.
///
/// `--stats` prints one line of engine counters per verified item to stderr
/// as JSON — points checked versus statically decided, cache-served or
/// symmetry-replayed, cache hit rate, explored configurations — and, with
/// `--json`, attaches the same object to the item's report.  Both engines
/// support it; counters the reference engine does not track (symmetry,
/// static and cache fields) stay zero.  It is refused under `--spot`, which
/// never runs a box sweep.
///
/// Structural lint findings on the verified items are echoed to stderr in
/// short form (stdout carries the verdicts); with `--deny-warnings` any
/// finding forces exit 1 even when every verdict passes.  Exit codes: 0 all
/// pass, 1 any failing or unverifiable input (or denied warning), 2
/// usage/parse errors.
pub fn run(raw: &[String]) -> i32 {
    let args = match Args::parse(
        raw,
        &[
            "item",
            "bound",
            "max-configs",
            "max-steps",
            "seed",
            "engine",
        ],
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
    let engine = args.value("engine").unwrap_or("incremental");
    if !matches!(engine, "incremental" | "reference") {
        return usage_error(&format!(
            "unknown engine `{engine}`; expected `incremental` or `reference`"
        ));
    }
    if args.value("engine").is_some() && args.switch("spot") {
        return usage_error("`--engine` selects the exhaustive backend; drop it or drop `--spot`");
    }
    if args.switch("stats") && args.switch("spot") {
        return usage_error(
            "`--stats` reports the exhaustive engines' box-sweep counters; drop `--spot`",
        );
    }
    let ws = match load_or_usage(path) {
        Ok(ws) => ws,
        Err(code) => return code,
    };
    // Lint findings ride along on stderr so a verified-but-smelly document is
    // never silently blessed; stdout stays reserved for the verdicts.
    let summary = crate::commands::lint::collect(&ws);
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
            Some((n, lowered)) => {
                if lowered.computes.is_none() {
                    return usage_error(&format!(
                        "crn `{name}` has no `computes` link, so there is nothing to verify against"
                    ));
                }
                vec![n]
            }
            None => return usage_error(&format!("`{path}` has no crn item named `{name}`")),
        },
        None => ws
            .crns
            .iter()
            .filter(|(_, lowered)| lowered.computes.is_some())
            .map(|(n, _)| n)
            .collect(),
    };
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
    for name in targets {
        // Both lookups were established above, but re-resolve defensively:
        // an inconsistency is a usage error (exit 2), never a panic.
        let Some(lowered) = ws.crn(name) else {
            return usage_error(&format!("`{path}` has no crn item named `{name}`"));
        };
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
                Ok(0) => {}
                Ok(mismatches) => {
                    exit = fail(
                        format!("{mismatches} input(s) missed the expected output within {max_steps} steps"),
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
            // Both engines share one verdict contract; the stdout success
            // line is engine-independent on purpose, so CI can diff the
            // incremental run against the reference engine byte for byte.
            let mut sweep = BoxCheck::new(&lowered.crn, eval, bound, max_configs);
            if engine == "reference" {
                sweep = sweep.reference();
            }
            let (outcome, sweep_stats) = sweep.run();
            if args.switch("stats") {
                stats = Some(sweep_stats);
            }
            if let Some(sweep_stats) = &stats {
                // One self-contained JSON line per item on stderr, so stdout
                // stays byte-comparable across engines.
                eprintln!(
                    "{}",
                    Json::obj(vec![
                        ("item", Json::str(name.as_str())),
                        ("stats", stats_object(sweep_stats)),
                    ])
                );
            }
            match outcome {
                Ok(None) => {}
                Ok(Some(verdict)) => {
                    exit = fail(
                        format!(
                            "input {} expects {}: {}",
                            verdict.input,
                            verdict.expected_output,
                            verdict
                                .failure
                                .unwrap_or_else(|| "stable computation fails".to_owned())
                        ),
                        &mut reports,
                    );
                    continue;
                }
                Err(e) => {
                    exit = fail(
                        format!("exhaustive search gave up: {e}; retry with --spot or a larger --max-configs"),
                        &mut reports,
                    );
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

/// The `--stats` engine counters as a JSON object.
fn stats_object(stats: &BoxCheckStats) -> Json {
    Json::obj(vec![
        ("points", Json::UInt(stats.points)),
        ("evaluated", Json::UInt(stats.evaluated)),
        ("symmetry_skipped", Json::UInt(stats.symmetry_skipped)),
        ("static_pass", Json::UInt(stats.static_pass)),
        ("static_fail", Json::UInt(stats.static_fail)),
        ("decided", Json::UInt(stats.decided)),
        ("cache_served", Json::UInt(stats.cache_served)),
        ("configs_explored", Json::UInt(stats.configs_explored)),
        ("cache_lookups", Json::UInt(stats.cache_lookups)),
        ("cache_hits", Json::UInt(stats.cache_hits)),
        ("cache_entries", Json::UInt(stats.cache_entries)),
        ("publish_suppressed", Json::UInt(stats.publish_suppressed)),
        ("cache_hit_rate", Json::Float(stats.cache_hit_rate())),
    ])
}
