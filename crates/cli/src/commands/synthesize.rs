//! `crn synthesize`: compile a spec (or a characterizable `fn`) into an
//! output-oblivious CRN, emitted back in the `.crn` text format.

use crn_core::{characterize, synthesize, Characterization, ObliviousSpec};
use crn_lang::ast::{Document, Item};
use crn_lang::{crn_to_item, spec_to_item};

use crate::args::Args;
use crate::commands::{huge_box, load_or_usage, usage_error, EXIT_OK, EXIT_USAGE, EXIT_VERDICT};

/// The item `crn synthesize` compiles: a spec as it stands, or a `fn` once
/// characterized.
enum Source<'a> {
    Spec(&'a ObliviousSpec),
    Fn(&'a crn_semilinear::SemilinearFunction),
}

/// Characterizes a `fn` item and returns its spec, or the exit code for a
/// non-computable verdict (already reported on stderr).
fn characterized_spec(
    name: &str,
    f: &crn_semilinear::SemilinearFunction,
    bound: u64,
) -> Result<ObliviousSpec, i32> {
    match characterize(f, bound) {
        Ok(Characterization::ObliviouslyComputable { spec }) => Ok(spec),
        Ok(Characterization::NotObliviouslyComputable { reason, .. }) => {
            eprintln!("error: fn `{name}` is not obliviously computable: {reason}");
            Err(EXIT_VERDICT)
        }
        Ok(Characterization::Inconclusive { reason }) => {
            eprintln!("error: characterization of fn `{name}` is inconclusive: {reason}");
            Err(EXIT_VERDICT)
        }
        Err(e) => {
            eprintln!("error: characterization of fn `{name}` failed: {e}");
            Err(EXIT_VERDICT)
        }
    }
}

/// Runs `crn synthesize <file> [--item NAME] [--bound N] [-o OUT]`.
///
/// The source item may be a `spec` (compiled directly via Lemma 6.1/6.2) or a
/// `fn` (characterized first; synthesis proceeds only on a computable
/// verdict).  Without `--item`, a document with exactly one `spec` item (or,
/// failing that, exactly one `fn` item) is unambiguous.
///
/// The emitted document contains the spec and the constructed CRN with a
/// `computes` link, so `crn verify OUT` and `crn sim OUT --input …` work with
/// no further wiring.  Exit codes: 0 on success, 1 when the function is
/// impossible/inconclusive or the construction fails, 2 on usage/parse
/// errors, including a source item whose box `[0, bound]^d` has more than
/// 2^64 points.
pub fn run(raw: &[String]) -> i32 {
    let args = match Args::parse(raw, &["item", "bound", "o"], &[]) {
        Ok(args) => args,
        Err(message) => return usage_error(&message),
    };
    let [path] = args.positionals.as_slice() else {
        return usage_error("`crn synthesize` needs exactly one file");
    };
    let bound = match args.u64_or("bound", 8) {
        Ok(bound) => bound,
        Err(message) => return usage_error(&message),
    };
    let ws = match load_or_usage(path) {
        Ok(ws) => ws,
        Err(code) => return code,
    };

    // Pick the source item, refuse a box it cannot be characterized on, and
    // obtain its oblivious spec.
    let find_spec = |name: &str| ws.specs.iter().find(|(n, _)| n == name);
    let find_fn = |name: &str| ws.fns.iter().find(|(n, _)| n == name);
    let (name, source) = match args.value("item") {
        Some(name) => match (find_spec(name), find_fn(name)) {
            (Some((n, spec)), _) => (n, Source::Spec(spec)),
            (None, Some((n, f))) => (n, Source::Fn(f)),
            (None, None) => {
                return usage_error(&format!("`{path}` has no spec or fn item named `{name}`"))
            }
        },
        None => match (ws.specs.as_slice(), ws.fns.as_slice()) {
            ([(n, spec)], _) => (n, Source::Spec(spec)),
            ([], [(n, f)]) => (n, Source::Fn(f)),
            _ => {
                return usage_error(
                    "the document has several candidate items; pick one with `--item NAME`",
                )
            }
        },
    };
    let dim = match source {
        Source::Spec(spec) => spec.dim(),
        Source::Fn(f) => f.dim(),
    };
    if let Some(message) = huge_box(bound, dim) {
        return usage_error(&message);
    }
    let spec = match source {
        Source::Spec(spec) => spec.clone(),
        Source::Fn(f) => match characterized_spec(name, f, bound) {
            Ok(spec) => spec,
            Err(code) => return code,
        },
    };

    let crn = match synthesize(&spec) {
        Ok(crn) => crn,
        Err(e) => {
            eprintln!("error: the Lemma 6.2 construction failed: {e}");
            return EXIT_VERDICT;
        }
    };
    let spec_name = format!("{name}_spec");
    let crn_name = format!("{name}_crn");
    let doc = Document {
        items: vec![
            Item::Spec(spec_to_item(&spec_name, &spec)),
            Item::Crn(crn_to_item(&crn_name, &crn, Some(&spec_name), None)),
        ],
    };
    let text = crn_lang::print(&doc);
    match args.value("o") {
        Some(out) => {
            if let Err(e) = std::fs::write(out, &text) {
                eprintln!("error: cannot write `{out}`: {e}");
                return EXIT_USAGE;
            }
            eprintln!(
                "synthesized `{name}` -> {out}: {} species, {} reactions, output-oblivious: {}",
                crn.species_count(),
                crn.reaction_count(),
                crn.is_output_oblivious()
            );
        }
        None => print!("{text}"),
    }
    EXIT_OK
}
