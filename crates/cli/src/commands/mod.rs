//! The `crn` subcommands.
//!
//! Every command returns a process exit code with a fixed meaning:
//!
//! | code | meaning |
//! |---|---|
//! | 0 | success: the command ran and its verdict is positive |
//! | 1 | verdict failure: the command ran but found a negative answer (a failing input, an invalid presentation, an inconclusive characterization, a non-converging simulation) |
//! | 2 | usage or parse error: bad flags, unreadable file, or a `.crn` document that does not parse/lower |
//!
//! Corpus CI steps assert on these classes, so they are part of the CLI's
//! contract; see `DESIGN.md`.

pub mod characterize;
pub mod check;
pub mod compose;
pub mod fmt;
pub mod lint;
pub mod profile;
pub mod sim;
pub mod synthesize;
pub mod verify;

use crate::json::Json;
use crate::workspace::{Target, Workspace};

/// Success.
pub const EXIT_OK: i32 = 0;
/// The command ran but its verdict is negative.
pub const EXIT_VERDICT: i32 = 1;
/// Bad usage, unreadable input, or a document that does not parse/lower.
pub const EXIT_USAGE: i32 = 2;

/// Loads a workspace, mapping failures to a printed message + exit 2.
pub(crate) fn load_or_usage(path: &str) -> Result<Workspace, i32> {
    Workspace::load(path).map_err(|message| {
        eprintln!("{message}");
        EXIT_USAGE
    })
}

/// Prints a usage error and returns exit 2.
pub(crate) fn usage_error(message: &str) -> i32 {
    eprintln!("error: {message}");
    eprintln!("run `crn help` for usage");
    EXIT_USAGE
}

/// Why `--bound` is refused for an item of dimension `dim`, if it is: a box
/// `[0, bound]^dim` with more points than fit in `u64` (see
/// [`crn_model::reachability::box_point_count`]) cannot be swept, so
/// `verify`, `check` and `profile` exit 2 on it before doing any work.
pub(crate) fn huge_box(bound: u64, dim: usize) -> Option<String> {
    crn_model::reachability::box_point_count(dim, bound)
        .is_none()
        .then(|| {
            format!("`--bound {bound}` is too large: [0, {bound}]^{dim} has more than 2^64 points")
        })
}

/// Resolves the `computes` link of a crn item (existence + dimension check
/// only; no box validation).  Returns a human-readable problem on failure.
pub(crate) fn resolve_link<'a>(
    ws: &'a Workspace,
    crn_name: &str,
    computes: &str,
) -> Result<Target<'a>, String> {
    let target = ws.target(computes).ok_or_else(|| {
        format!("crn `{crn_name}` computes `{computes}`, but no fn or spec item has that name")
    })?;
    // Do not trust the caller to have resolved the crn: an unresolved name
    // here is a usage problem to report, not a precondition to panic on.
    let crn = ws
        .crn(crn_name)
        .ok_or_else(|| format!("no crn or pipeline item named `{crn_name}`"))?;
    if crn.crn.dim() != target.dim() {
        return Err(format!(
            "crn `{crn_name}` has {} inputs but `{computes}` has {} parameters",
            crn.crn.dim(),
            target.dim()
        ));
    }
    Ok(target)
}

/// Resolves the `computes` target of a crn item, additionally validating
/// that it evaluates on the whole box `[0, bound]^d` so a later
/// [`Target::eval`] sweep cannot silently coerce failures to 0.  Commands
/// that evaluate a single point should use [`resolve_link`] +
/// [`Target::try_eval`] instead (a box sized by the input magnitude would
/// enumerate `(max+1)^d` points).  The validation, one evaluation per box
/// point, runs under the `cli.target.validate` span.
pub(crate) fn resolve_target<'a>(
    ws: &'a Workspace,
    crn_name: &str,
    computes: &str,
    bound: u64,
) -> Result<Target<'a>, String> {
    let target = resolve_link(ws, crn_name, computes)?;
    let _span = crn_obs::span("cli.target.validate");
    target
        .validate_on_box(bound)
        .map_err(|e| format!("`{computes}` {e}"))?;
    Ok(target)
}

/// Appends the versioned `metrics` object (see [`crate::json::metrics_json`])
/// to a `--json` report's top-level fields when profiling is enabled.  The
/// field is absent without `--profile`, so stdout stays byte-identical for
/// unprofiled runs.
pub(crate) fn push_metrics(fields: &mut Vec<(&str, Json)>) {
    if crn_obs::enabled() {
        fields.push(("metrics", crate::json::metrics_json(&crn_obs::snapshot())));
    }
}

/// Parses a comma-separated input vector such as `3,5`.
pub(crate) fn parse_input(text: &str) -> Result<Vec<u64>, String> {
    text.split(',')
        .map(|part| {
            part.trim()
                .parse::<u64>()
                .map_err(|_| format!("`--input` needs comma-separated counts, got `{text}`"))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn input_vector_parsing() {
        assert_eq!(parse_input("3,5").unwrap(), vec![3, 5]);
        assert_eq!(parse_input(" 7 ").unwrap(), vec![7]);
        assert!(parse_input("3;5").is_err());
        assert!(parse_input("").is_err());
    }

    #[test]
    fn resolve_target_checks_names_and_dims() {
        let ws = Workspace::from_source(
            "mem.crn",
            "fn one(x) { case x >= 0: 1; }\n\
             crn c { inputs X1 X2; output Y; computes one; X1 + X2 -> Y; }\n\
             crn d { inputs X; output Y; computes nope; X -> Y; }\n",
        )
        .unwrap();
        let err = resolve_target(&ws, "c", "one", 3).unwrap_err();
        assert!(err.contains("2 inputs"), "{err}");
        let err = resolve_target(&ws, "d", "nope", 3).unwrap_err();
        assert!(err.contains("no fn or spec item"), "{err}");
    }
}
