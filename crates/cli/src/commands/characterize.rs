//! `crn characterize`: the Section 7 pipeline over `fn` items.

use crn_core::{characterize, Characterization, Lemma41Witness};
use crn_lang::ast::{Document, Item};
use crn_lang::spec_to_item;

use crate::args::Args;
use crate::commands::{huge_box, load_or_usage, usage_error, EXIT_OK, EXIT_VERDICT};
use crate::json::Json;

fn witness_text(witness: &Lemma41Witness) -> String {
    format!(
        "witness (Lemma 4.1): base {}, step {}, delta {}, {} elements verified",
        witness.base, witness.step, witness.delta, witness.verified_elements
    )
}

fn witness_json(witness: &Lemma41Witness) -> Json {
    Json::obj(vec![
        ("base", Json::uints(witness.base.iter().copied())),
        ("step", Json::uints(witness.step.iter().copied())),
        ("delta", Json::uints(witness.delta.iter().copied())),
        (
            "verified_elements",
            Json::UInt(witness.verified_elements as u64),
        ),
    ])
}

/// Runs `crn characterize <file> [--item NAME] [--bound N] [--json]`.
///
/// Characterizes every `fn` item (or the named one) on `[0, bound]^d`.
/// Exit codes: 0 when every examined function received a conclusive verdict
/// (obliviously computable *or* provably impossible), 1 when any verdict was
/// inconclusive, 2 on usage/parse errors, including a box with more than
/// 2^64 points.
pub fn run(raw: &[String]) -> i32 {
    let args = match Args::parse(raw, &["item", "bound"], &["json"]) {
        Ok(args) => args,
        Err(message) => return usage_error(&message),
    };
    let [path] = args.positionals.as_slice() else {
        return usage_error("`crn characterize` needs exactly one file");
    };
    let bound = match args.u64_or("bound", 8) {
        Ok(bound) => bound,
        Err(message) => return usage_error(&message),
    };
    let ws = match load_or_usage(path) {
        Ok(ws) => ws,
        Err(code) => return code,
    };
    let targets: Vec<&(String, crn_semilinear::SemilinearFunction)> = match args.value("item") {
        Some(name) => match ws.fns.iter().find(|(n, _)| n == name) {
            Some(entry) => vec![entry],
            None => return usage_error(&format!("`{path}` has no fn item named `{name}`")),
        },
        None => ws.fns.iter().collect(),
    };
    if let Some(message) = targets.iter().find_map(|(_, f)| huge_box(bound, f.dim())) {
        return usage_error(&message);
    }
    if targets.is_empty() {
        println!("{path}: no fn items to characterize");
        return EXIT_OK;
    }
    let mut exit = EXIT_OK;
    let mut reports = Vec::new();
    for (name, f) in targets {
        let outcome = characterize(f, bound);
        let json = args.switch("json");
        if !json {
            println!("{path}: fn {name} (bound {bound})");
        }
        match outcome {
            Ok(Characterization::ObliviouslyComputable { spec }) => {
                let doc = Document {
                    items: vec![Item::Spec(spec_to_item(&format!("{name}_spec"), &spec))],
                };
                let text = crn_lang::print(&doc);
                if json {
                    reports.push(Json::obj(vec![
                        ("item", Json::str(name.as_str())),
                        ("verdict", Json::str("computable")),
                        ("spec", Json::str(text.as_str())),
                    ]));
                } else {
                    println!("  verdict: obliviously computable");
                    print!("{text}");
                }
            }
            Ok(Characterization::NotObliviouslyComputable { reason, witness }) => {
                if json {
                    reports.push(Json::obj(vec![
                        ("item", Json::str(name.as_str())),
                        ("verdict", Json::str("impossible")),
                        ("reason", Json::str(reason.as_str())),
                        ("witness", witness.as_ref().map_or(Json::Null, witness_json)),
                    ]));
                } else {
                    println!("  verdict: not obliviously computable");
                    println!("  reason: {reason}");
                    if let Some(witness) = &witness {
                        println!("  {}", witness_text(witness));
                    }
                }
            }
            Ok(Characterization::Inconclusive { reason }) => {
                exit = EXIT_VERDICT;
                if json {
                    reports.push(Json::obj(vec![
                        ("item", Json::str(name.as_str())),
                        ("verdict", Json::str("inconclusive")),
                        ("reason", Json::str(reason.as_str())),
                    ]));
                } else {
                    println!("  verdict: inconclusive");
                    println!("  reason: {reason}");
                }
            }
            Err(e) => {
                exit = EXIT_VERDICT;
                if json {
                    reports.push(Json::obj(vec![
                        ("item", Json::str(name.as_str())),
                        ("verdict", Json::str("inconclusive")),
                        ("reason", Json::str(e.to_string().as_str())),
                    ]));
                } else {
                    println!("  verdict: inconclusive");
                    println!("  reason: {e}");
                }
            }
        }
    }
    if args.switch("json") {
        let mut fields = vec![
            ("command", Json::str("characterize")),
            ("file", Json::str(path.as_str())),
            ("bound", Json::UInt(bound)),
            ("results", Json::Arr(reports)),
        ];
        crate::commands::push_metrics(&mut fields);
        println!("{}", Json::obj(fields));
    }
    exit
}
