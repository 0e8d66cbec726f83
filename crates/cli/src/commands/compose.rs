//! `crn compose`: materialize a `pipeline` item into a self-contained `.crn`
//! document through the capture-proof composition engine.

use crn_lang::ast::{Document, Item};
use crn_lang::crn_to_item;

use crate::args::Args;
use crate::commands::lint::LintReport;
use crate::commands::{
    load_or_usage, resolve_link, usage_error, EXIT_OK, EXIT_USAGE, EXIT_VERDICT,
};
use crate::json::Json;

/// Runs `crn compose <file> [--item NAME] [-o OUT] [--json]
/// [--allow-non-oblivious] [--deny-warnings]`.
///
/// Composes the named `pipeline` item (or the document's only one) and emits
/// the result as a self-contained document: the linked `fn`/`spec` item (if
/// any) plus the composed CRN with its `computes` link, ready for
/// `crn verify OUT` and `crn sim OUT --input …`.
///
/// Observation 2.2 only covers wirings whose upstream modules are
/// output-oblivious, so a pipeline that feeds a non-oblivious stage forward
/// is refused with exit code 1 unless `--allow-non-oblivious` is given (the
/// escape hatch that reproduces the paper's Section 1.2 counterexample).
///
/// Structural lint findings (`C001`–`C009`, see `crn lint`) on the composed
/// CRN are printed to stderr — stdout carries the composed document — and
/// listed in the `--json` payload; with `--deny-warnings` any finding also
/// forces exit 1.  Exit codes: 0 composed, 1 refused wiring,
/// dangling/mismatched `computes` link, or denied warning, 2 usage/parse
/// errors.
pub fn run(raw: &[String]) -> i32 {
    let args = match Args::parse(
        raw,
        &["item", "o"],
        &["json", "allow-non-oblivious", "deny-warnings"],
    ) {
        Ok(args) => args,
        Err(message) => return usage_error(&message),
    };
    let [path] = args.positionals.as_slice() else {
        return usage_error("`crn compose` needs exactly one file");
    };
    let ws = match load_or_usage(path) {
        Ok(ws) => ws,
        Err(code) => return code,
    };
    let name: &str = match args.value("item") {
        Some(name) => match ws.pipeline(name) {
            Some(_) => name,
            None => return usage_error(&format!("`{path}` has no pipeline item named `{name}`")),
        },
        None => match ws.pipelines.as_slice() {
            [(name, _)] => name,
            [] => return usage_error(&format!("`{path}` has no pipeline items to compose")),
            _ => {
                return usage_error(
                    "the document has several pipeline items; pick one with `--item NAME`",
                )
            }
        },
    };
    let (Some(info), Some(lowered)) = (ws.pipeline(name), ws.crn(name)) else {
        return usage_error(&format!("`{path}` has no pipeline item named `{name}`"));
    };

    if !info.non_oblivious_feeders.is_empty() && !args.switch("allow-non-oblivious") {
        eprintln!(
            "error: pipeline `{name}` feeds non-output-oblivious stage{} {} into a downstream \
             module; Observation 2.2 does not apply, so the composed CRN may overproduce",
            if info.non_oblivious_feeders.len() == 1 {
                ""
            } else {
                "s"
            },
            info.non_oblivious_feeders
                .iter()
                .map(|s| format!("`{s}`"))
                .collect::<Vec<_>>()
                .join(", ")
        );
        eprintln!(
            "help: make the stage output-oblivious (e.g. via Observation 2.4), or pass \
             `--allow-non-oblivious` to compose anyway"
        );
        return EXIT_VERDICT;
    }

    // A dangling or dimension-mismatched computes link is a verdict failure,
    // consistent with `crn check`/`crn verify`.
    if let Some(computes) = lowered.computes.as_deref() {
        if let Err(problem) = resolve_link(&ws, name, computes) {
            eprintln!("error: {problem}");
            return EXIT_VERDICT;
        }
    }

    // Lint the composed CRN: capture-renamed internal species that end up
    // dead or an output that a stage still consumes are exactly the defects
    // composition can introduce.  Warnings go to stderr because stdout
    // carries the composed document.
    let summary = crate::commands::lint::collect(&ws, &ws.analyses());
    let warnings: Vec<LintReport> = summary
        .warnings
        .into_iter()
        .filter(|w| w.item == name)
        .collect();
    let notes: Vec<_> = summary
        .notes
        .into_iter()
        .filter(|n| n.item == name)
        .collect();
    if !args.switch("json") {
        for warning in &warnings {
            eprint!("{}", warning.rendered);
        }
        for note in &notes {
            eprintln!("note: {}: {}", note.item, note.message);
        }
    }
    let exit = if warnings.is_empty() || !args.switch("deny-warnings") {
        EXIT_OK
    } else {
        EXIT_VERDICT
    };

    let mut items = Vec::new();
    if let Some(computes) = lowered.computes.as_deref() {
        if let Some(linked) = ws
            .doc
            .items
            .iter()
            .find(|item| item.name() == computes && !item.is_crn_like())
        {
            items.push(linked.clone());
        }
    }
    items.push(Item::Crn(crn_to_item(
        name,
        &lowered.crn,
        lowered.computes.as_deref(),
        None,
    )));
    let text = crn_lang::print(&Document { items });

    // Write the output file first: a failed write must not leave a success
    // report on stdout (machine consumers parse the --json payload).
    if let Some(out) = args.value("o") {
        if let Err(e) = std::fs::write(out, &text) {
            eprintln!("error: cannot write `{out}`: {e}");
            return EXIT_USAGE;
        }
    }
    if args.switch("json") {
        let mut fields = vec![
            ("command", Json::str("compose")),
            ("file", Json::str(path.as_str())),
            ("item", Json::str(name)),
            ("stages", Json::UInt(info.stage_count as u64)),
            ("species", Json::UInt(lowered.crn.species_count() as u64)),
            ("reactions", Json::UInt(lowered.crn.reaction_count() as u64)),
            (
                "output_oblivious",
                Json::Bool(lowered.crn.is_output_oblivious()),
            ),
            (
                "non_oblivious_stages",
                Json::Arr(
                    info.non_oblivious_feeders
                        .iter()
                        .map(|s| Json::str(s.as_str()))
                        .collect(),
                ),
            ),
            (
                "warnings",
                Json::Arr(warnings.iter().map(LintReport::to_json).collect()),
            ),
            (
                "notes",
                Json::Arr(
                    notes
                        .iter()
                        .map(crate::commands::lint::LintNote::to_json)
                        .collect(),
                ),
            ),
            ("document", Json::str(text.as_str())),
        ];
        crate::commands::push_metrics(&mut fields);
        println!("{}", Json::obj(fields));
        return exit;
    }
    match args.value("o") {
        Some(out) => {
            eprintln!(
                "composed pipeline `{name}` ({} stages) -> {out}: {} species, {} reactions, \
                 output-oblivious: {}",
                info.stage_count,
                lowered.crn.species_count(),
                lowered.crn.reaction_count(),
                lowered.crn.is_output_oblivious()
            );
        }
        None => print!("{text}"),
    }
    exit
}
