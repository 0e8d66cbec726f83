//! `crn check`: parse, lower and validate one or more documents.

use crate::args::Args;
use crate::commands::lint::{LintNote, LintReport};
use crate::commands::{huge_box, resolve_link, usage_error, EXIT_OK, EXIT_USAGE, EXIT_VERDICT};
use crate::json::Json;
use crate::workspace::Workspace;

/// Runs `crn check <file>... [--bound N] [--json] [--deny-warnings]`.
///
/// Exit codes: 2 when any file does not parse or lower; 1 when every file
/// loads but some content is invalid (a `fn` presentation that is not
/// total/disjoint on the box, a `spec` that is not nondecreasing, a dangling
/// or dimension-mismatched `computes` link); 0 otherwise.  All files are
/// always examined (the worst class wins), so a batch `--json` report covers
/// every file even when one fails to load.
///
/// Structural lint findings (`C001`–`C009`, see `crn lint`) are printed as
/// non-blocking warnings and listed in the `--json` payload, along with any
/// "analysis incomplete" truncation notes; with `--deny-warnings` any
/// finding also forces exit 1 (notes never do).
pub fn run(raw: &[String]) -> i32 {
    let args = match Args::parse(raw, &["bound"], &["json", "deny-warnings"]) {
        Ok(args) => args,
        Err(message) => return usage_error(&message),
    };
    if args.positionals.is_empty() {
        return usage_error("`crn check` needs at least one file");
    }
    let bound = match args.u64_or("bound", 6) {
        Ok(bound) => bound,
        Err(message) => return usage_error(&message),
    };
    let mut exit = EXIT_OK;
    let mut reports = Vec::new();
    for path in &args.positionals {
        let ws = match Workspace::load(path) {
            Ok(ws) => ws,
            Err(message) => {
                exit = exit.max(EXIT_USAGE);
                if args.switch("json") {
                    reports.push(Json::obj(vec![
                        ("file", Json::str(path.as_str())),
                        ("ok", Json::Bool(false)),
                        ("problems", Json::Arr(vec![Json::str(message.as_str())])),
                    ]));
                } else {
                    eprintln!("{message}");
                }
                continue;
            }
        };
        let huge = ws
            .fns
            .iter()
            .map(|(_, f)| f.dim())
            .chain(ws.specs.iter().map(|(_, spec)| spec.dim()))
            .chain(
                ws.crns
                    .iter()
                    .filter(|(_, lowered)| lowered.computes.is_some())
                    .map(|(_, lowered)| lowered.crn.dim()),
            )
            .find_map(|dim| huge_box(bound, dim));
        if let Some(message) = huge {
            exit = exit.max(EXIT_USAGE);
            if args.switch("json") {
                reports.push(Json::obj(vec![
                    ("file", Json::str(path.as_str())),
                    ("ok", Json::Bool(false)),
                    ("problems", Json::Arr(vec![Json::str(message.as_str())])),
                ]));
            } else {
                usage_error(&message);
            }
            continue;
        }
        let mut problems: Vec<String> = Vec::new();
        for (name, f) in &ws.fns {
            if let Err(e) = f.validate_on_box(bound) {
                problems.push(format!(
                    "fn `{name}` is not a valid presentation on [0, {bound}]^{}: {e}",
                    f.dim()
                ));
            }
        }
        for (name, spec) in &ws.specs {
            match spec.check_nondecreasing_on_box(bound) {
                Ok(None) => {}
                Ok(Some((x, y))) => problems.push(format!(
                    "spec `{name}` is not nondecreasing: f({x}) > f({y}) although {x} ≤ {y}"
                )),
                Err(e) => problems.push(format!("spec `{name}` cannot be evaluated: {e}")),
            }
        }
        // The loops above evaluated every `fn` and `spec` on the box, so a
        // link only needs its target to exist with the crn's dimension.
        for (name, lowered) in &ws.crns {
            if let Some(computes) = &lowered.computes {
                if let Err(problem) = resolve_link(&ws, name, computes) {
                    problems.push(problem);
                }
            }
        }
        let summary = crate::commands::lint::collect(&ws, &ws.analyses());
        let warnings = summary.warnings;
        if args.switch("json") {
            reports.push(Json::obj(vec![
                ("file", Json::str(path.as_str())),
                ("crns", Json::UInt(ws.crns.len() as u64)),
                ("fns", Json::UInt(ws.fns.len() as u64)),
                ("specs", Json::UInt(ws.specs.len() as u64)),
                ("ok", Json::Bool(problems.is_empty())),
                (
                    "problems",
                    Json::Arr(problems.iter().map(|p| Json::str(p.as_str())).collect()),
                ),
                (
                    "warnings",
                    Json::Arr(warnings.iter().map(LintReport::to_json).collect()),
                ),
                (
                    "notes",
                    Json::Arr(summary.notes.iter().map(LintNote::to_json).collect()),
                ),
            ]));
        } else {
            if problems.is_empty() {
                println!(
                    "{path}: ok ({} crn, {} fn, {} spec item{})",
                    ws.crns.len(),
                    ws.fns.len(),
                    ws.specs.len(),
                    if ws.doc.items.len() == 1 { "" } else { "s" }
                );
                for (name, lowered) in &ws.crns {
                    let kind = match ws.pipeline(name) {
                        Some(info) => format!("pipeline {name} ({} stages)", info.stage_count),
                        None => format!("crn {name}"),
                    };
                    println!(
                        "  {kind}: {} species, {} reactions, output-oblivious: {}",
                        lowered.crn.species_count(),
                        lowered.crn.reaction_count(),
                        lowered.crn.is_output_oblivious()
                    );
                }
            } else {
                println!("{path}: INVALID");
                for problem in &problems {
                    println!("  {problem}");
                }
            }
            for warning in &warnings {
                println!(
                    "  warning[{}] {}: {}",
                    warning.code, warning.item, warning.message
                );
            }
            for note in &summary.notes {
                println!("  note {}: {}", note.item, note.message);
            }
        }
        if !problems.is_empty() || (!warnings.is_empty() && args.switch("deny-warnings")) {
            exit = exit.max(EXIT_VERDICT);
        }
    }
    if args.switch("json") {
        let mut fields = vec![
            ("command", Json::str("check")),
            ("files", Json::Arr(reports)),
        ];
        crate::commands::push_metrics(&mut fields);
        println!("{}", Json::obj(fields));
    }
    exit
}
