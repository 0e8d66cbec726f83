//! `crn-cli`: the `crn` command-line driver.
//!
//! The binary turns the workspace into a batch service: `.crn` documents
//! written in the `crn-lang` text format flow through every layer —
//! parsing (`crn-lang`), the Section 7 characterization and Lemma 6.1/6.2
//! synthesis (`crn-core`), exhaustive reachability checking (`crn-model`) and
//! stochastic ensemble simulation (`crn-sim`) — with no Rust code written by
//! the user.
//!
//! | subcommand | pipeline stage |
//! |---|---|
//! | `crn check` | parse + lower + validate (plus non-blocking lint warnings) |
//! | `crn lint` | structural + semantic static analysis: stable codes `C001`–`C009` |
//! | `crn characterize` | semilinear `fn` → spec / impossibility witness |
//! | `crn synthesize` | spec (or `fn`) → output-oblivious CRN, emitted as text |
//! | `crn compose` | `pipeline` item → composed CRN via the capture-proof engine |
//! | `crn verify` | CRN vs `computes` link on a box, exhaustive or spot |
//! | `crn sim` | Gillespie ensemble with `--trials/--workers/--seed` |
//! | `crn profile` | check + verify + sim back to back, per-phase breakdown |
//! | `crn fmt` | canonical formatting (`--check` gates the corpus in CI) |
//!
//! The global `--profile` flag (any command, any position) turns on the
//! [`crn_obs`] metrics layer and prints a profile table on stderr after the
//! command finishes; stdout stays byte-identical except for the versioned
//! `metrics` object that `--json` reports then embed.
//!
//! Exit codes are a contract: `0` success, `1` verdict failure, `2`
//! usage/parse error (see [`commands`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod args;
pub mod commands;
pub mod json;
pub mod workspace;

pub use commands::{EXIT_OK, EXIT_USAGE, EXIT_VERDICT};

const USAGE: &str = "\
crn — characterize, synthesize, verify and simulate CRNs from .crn files

USAGE:
  crn <command> [arguments] [--profile]

COMMANDS:
  check <file>...        parse, lower and validate documents; prints
                         non-blocking lint warnings
                         [--bound N=6] [--json] [--deny-warnings]
  lint <file>...         structural + semantic static analysis (stable codes
                         C001-C009: dead species, unfireable reactions,
                         consumed output, starved leader, excluded output,
                         unmarked siphon, output-locking trap, unbounded
                         species, transient reaction)
                         [--json] [--deny-warnings]
  characterize <file>    run the Section 7 pipeline on fn items
                         [--item NAME] [--bound N=8] [--json]
  synthesize <file>      compile a spec (or characterizable fn) to a CRN
                         [--item NAME] [--bound N=8] [-o OUT]
  compose <file>         materialize a pipeline item into a composed CRN;
                         lint warnings for the composed item go to stderr
                         [--item NAME] [-o OUT] [--json]
                         [--allow-non-oblivious] [--deny-warnings]
  verify <file>          check `computes` links by exhaustive reachability;
                         lint warnings go to stderr
                         [--item NAME] [--bound N=4] [--max-configs N=200000]
                         [--engine incremental|reference] [--stats] [--spot]
                         [--max-steps N=1000000] [--seed S=7] [--json]
                         [--deny-warnings]
                         --max-configs bounds the configurations one
                         exploration stores; on acyclic CRNs the incremental
                         engine stores only stubborn-set successors, so it
                         may pass a point the reference engine gives up on
  sim <file>             Gillespie ensemble simulation; lint warnings go to
                         stderr
                         [--item NAME] [--input a,b,...] [--trials N=16]
                         [--workers W=auto] [--seed S=1]
                         [--max-steps N=10000000] [--json] [--deny-warnings]
  profile <file>         run the check, verify and sim phases back to back
                         with profiling on and report a per-phase breakdown
                         [--item NAME] [--bound N=3] [--trials N=8]
                         [--seed S=1] [--max-configs N=200000]
                         [--max-steps N=1000000] [--json]
  fmt <file>...          canonical formatting [--write | --check]
  help                   print this message

GLOBAL FLAGS:
  --profile              collect metrics and spans during the command and
                         print a deterministic profile table on stderr after
                         it finishes; with --json the report also embeds a
                         versioned `metrics` object.  Stdout is byte-identical
                         with and without --profile (except that opt-in
                         object).

EXIT CODES:
  0  success             1  verdict failure        2  usage or parse error
  Lint warnings never change the exit code unless --deny-warnings is given,
  which promotes any warning to exit 1.
";

/// Runs the CLI on `args` (without the program name) and returns the process
/// exit code.
///
/// The global `--profile` switch may appear anywhere in `args`; it is
/// stripped before dispatch, turns the [`crn_obs`] layer on for the duration
/// of the command, and prints the collected profile table on stderr *after*
/// the command has fully returned — so the table can never interleave with
/// the command's own stderr output (lint warnings, `--stats` lines).
#[must_use]
pub fn run(args: &[String]) -> i32 {
    let mut args: Vec<String> = args.to_vec();
    let given = args.len();
    args.retain(|arg| arg != "--profile");
    let profiling = args.len() != given;
    if profiling {
        crn_obs::reset();
        crn_obs::set_enabled(true);
    }
    let code = dispatch(&args);
    if profiling {
        // The `cli.<command>` span guard has dropped by now, so the snapshot
        // includes the whole command.  Disable and reset before printing so
        // in-process callers (tests) can run commands back to back.
        let snapshot = crn_obs::snapshot();
        crn_obs::set_enabled(false);
        crn_obs::reset();
        eprint!("{}", snapshot.render_table());
    }
    code
}

/// Dispatches one subcommand, timing it under a `cli.<command>` span.
fn dispatch(args: &[String]) -> i32 {
    let Some((command, rest)) = args.split_first() else {
        eprint!("{USAGE}");
        return EXIT_USAGE;
    };
    let _span = crn_obs::span(&format!("cli.{command}"));
    match command.as_str() {
        "check" => commands::check::run(rest),
        "lint" => commands::lint::run(rest),
        "characterize" => commands::characterize::run(rest),
        "synthesize" => commands::synthesize::run(rest),
        "compose" => commands::compose::run(rest),
        "verify" => commands::verify::run(rest),
        "sim" => commands::sim::run(rest),
        "profile" => commands::profile::run(rest),
        "fmt" => commands::fmt::run(rest),
        "help" | "--help" | "-h" => {
            print!("{USAGE}");
            EXIT_OK
        }
        other => {
            eprintln!("error: unknown command `{other}`");
            eprint!("{USAGE}");
            EXIT_USAGE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_command_and_unknown_command_are_usage_errors() {
        assert_eq!(run(&[]), EXIT_USAGE);
        assert_eq!(run(&["frobnicate".to_owned()]), EXIT_USAGE);
    }

    #[test]
    fn help_succeeds() {
        assert_eq!(run(&["help".to_owned()]), EXIT_OK);
    }
}
