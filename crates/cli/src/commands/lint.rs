//! `crn lint`: structural static analysis with stable warning codes.
//!
//! Runs the `crn_model::analysis` lints (`C001`–`C009`) over every `crn` and
//! `pipeline` item of each document and reports the findings as
//! span-anchored, compiler-style warnings.  Findings never block by default
//! (exit 0); `--deny-warnings` promotes any finding to exit 1, which is what
//! the CI corpus smoke step asserts on the adversarial document.

use crn_lang::ast::Item;
use crn_lang::span::{Diagnostic, Span};
use crn_model::analysis::CrnAnalysis;

use crate::args::Args;
use crate::commands::{usage_error, EXIT_OK, EXIT_USAGE, EXIT_VERDICT};
use crate::json::Json;
use crate::workspace::Workspace;

/// One rendered lint finding, ready for human and JSON output.
pub(crate) struct LintReport {
    /// The `crn`/`pipeline` item the finding is about.
    pub item: String,
    /// The stable code, e.g. `"C003"`.
    pub code: &'static str,
    /// The finding's message (species names substituted in).
    pub message: String,
    /// 1-based source line of the anchoring span.
    pub line: usize,
    /// 1-based source column of the anchoring span.
    pub col: usize,
    /// The full compiler-style rendering (`warning: …` with source excerpt).
    pub rendered: String,
}

impl LintReport {
    /// The finding as a JSON object (for `--json` payloads).
    pub(crate) fn to_json(&self) -> Json {
        Json::obj(vec![
            ("item", Json::str(self.item.as_str())),
            ("code", Json::str(self.code)),
            ("message", Json::str(self.message.as_str())),
            ("line", Json::UInt(self.line as u64)),
            ("col", Json::UInt(self.col as u64)),
        ])
    }
}

/// One "analysis incomplete" note: an internal enumeration cap truncated a
/// lint's search, so its silence is not a proof of absence.
pub(crate) struct LintNote {
    /// The `crn`/`pipeline` item the truncated analysis ran on.
    pub item: String,
    /// The note text (starts with "analysis incomplete:").
    pub message: String,
}

impl LintNote {
    /// The note as a JSON object (for `--json` payloads).
    pub(crate) fn to_json(&self) -> Json {
        Json::obj(vec![
            ("item", Json::str(self.item.as_str())),
            ("message", Json::str(self.message.as_str())),
        ])
    }
}

/// The full lint result of one workspace: span-anchored warnings plus the
/// truncation notes.
pub(crate) struct LintSummary {
    pub warnings: Vec<LintReport>,
    pub notes: Vec<LintNote>,
}

/// Runs every analysis lint over every `crn`/`pipeline` item of `ws`, each
/// through its analysis in `analyses` (see [`Workspace::analyses`]),
/// anchoring each finding to the most specific source span available:
/// the offending reaction when the lint is reaction-anchored, the `output`
/// declaration for output-starvation findings, the first reaction mentioning
/// the species for dead-species findings, and the whole item otherwise
/// (composed pipelines have no per-reaction source).
pub(crate) fn collect(ws: &Workspace, analyses: &[CrnAnalysis<'_>]) -> LintSummary {
    let mut reports = Vec::new();
    let mut notes = Vec::new();
    for ((name, lowered), analysis) in ws.crns.iter().zip(analyses) {
        let ast = ws
            .doc
            .items
            .iter()
            .find(|item| item.is_crn_like() && item.name() == name);
        let item_span = ast.map(Item::span).unwrap_or_default();
        let crn_ast = match ast {
            Some(Item::Crn(ci)) => Some(ci),
            _ => None,
        };
        let outcome = analysis.lint();
        for message in outcome.notes {
            notes.push(LintNote {
                item: name.clone(),
                message,
            });
        }
        for finding in outcome.findings {
            let species_name = finding
                .species
                .map(|s| lowered.crn.crn().species().name(s).to_owned());
            let span = anchor_span(crn_ast, &finding, species_name.as_deref(), item_span);
            let diagnostic = Diagnostic::new(
                format!("[{}] {}: {}", finding.code, name, finding.message),
                span,
            );
            let (line, col) = diagnostic.line_col(&ws.source);
            reports.push(LintReport {
                item: name.clone(),
                code: finding.code.as_str(),
                message: finding.message.clone(),
                line,
                col,
                rendered: diagnostic.render_with_level(&ws.source, &ws.path, "warning"),
            });
        }
    }
    LintSummary {
        warnings: reports,
        notes,
    }
}

/// The most specific span for one finding (see [`collect`]).
fn anchor_span(
    crn_ast: Option<&crn_lang::ast::CrnItem>,
    finding: &crn_model::Lint,
    species_name: Option<&str>,
    item_span: Span,
) -> Span {
    let Some(ci) = crn_ast else {
        return item_span;
    };
    if let Some(r) = finding.reaction {
        if let Some(reaction) = ci.reactions.get(r) {
            return reaction.span;
        }
    }
    if finding.code == crn_model::LintCode::OutputExcluded {
        return ci.output_span;
    }
    if let Some(name) = species_name {
        let mentions = |side: &[(u64, String)]| side.iter().any(|(_, s)| s == name);
        if let Some(reaction) = ci
            .reactions
            .iter()
            .find(|rx| mentions(&rx.reactants) || mentions(&rx.products))
        {
            return reaction.span;
        }
    }
    item_span
}

/// Runs `crn lint <file>... [--json] [--deny-warnings]`.
///
/// Exit codes: 2 when any file does not parse or lower; 1 when
/// `--deny-warnings` is given and any finding was reported; 0 otherwise
/// (findings alone never block).
pub fn run(raw: &[String]) -> i32 {
    let args = match Args::parse(raw, &[], &["json", "deny-warnings"]) {
        Ok(args) => args,
        Err(message) => return usage_error(&message),
    };
    if args.positionals.is_empty() {
        return usage_error("`crn lint` needs at least one file");
    }
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
                        ("error", Json::str(message.as_str())),
                    ]));
                } else {
                    eprintln!("{message}");
                }
                continue;
            }
        };
        let summary = collect(&ws, &ws.analyses());
        if args.switch("json") {
            reports.push(Json::obj(vec![
                ("file", Json::str(path.as_str())),
                ("ok", Json::Bool(true)),
                (
                    "warnings",
                    Json::Arr(summary.warnings.iter().map(LintReport::to_json).collect()),
                ),
                (
                    "notes",
                    Json::Arr(summary.notes.iter().map(LintNote::to_json).collect()),
                ),
            ]));
        } else {
            if summary.warnings.is_empty() {
                println!("{path}: clean ({} crn items linted)", ws.crns.len());
            } else {
                println!(
                    "{path}: {} warning{}",
                    summary.warnings.len(),
                    if summary.warnings.len() == 1 { "" } else { "s" }
                );
                for finding in &summary.warnings {
                    print!("{}", finding.rendered);
                }
            }
            // Truncation notes are never silent: a capped enumeration means
            // the absence of a finding is not a proof of absence.
            for note in &summary.notes {
                println!("note: {}: {}", note.item, note.message);
            }
        }
        if !summary.warnings.is_empty() && args.switch("deny-warnings") {
            exit = exit.max(EXIT_VERDICT);
        }
    }
    if args.switch("json") {
        let mut fields = vec![
            ("command", Json::str("lint")),
            ("files", Json::Arr(reports)),
        ];
        crate::commands::push_metrics(&mut fields);
        println!("{}", Json::obj(fields));
    }
    exit
}
