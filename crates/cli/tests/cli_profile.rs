//! Observability-surface tests: `--profile` must never change a command's
//! stdout or exit code, the profile table must follow any lint warnings on
//! stderr, `--stats` must work under every exhaustive engine, `--json` must
//! embed the versioned `metrics` object exactly when profiling, and the
//! counters the determinism contract covers must not depend on the worker
//! count.

use std::path::{Path, PathBuf};
use std::process::Command;

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("repo root exists")
}

fn corpus_files() -> Vec<String> {
    let dir = repo_root().join("corpus");
    let mut files: Vec<String> = std::fs::read_dir(&dir)
        .expect("corpus directory exists")
        .map(|entry| entry.expect("readable corpus entry").path())
        .filter(|path| path.extension().is_some_and(|ext| ext == "crn"))
        .map(|path| {
            format!(
                "corpus/{}",
                path.file_name().expect("file name").to_string_lossy()
            )
        })
        .collect();
    files.sort();
    files
}

/// Runs the `crn` binary from the repo root; returns (exit, stdout, stderr).
fn run_crn(args: &[&str]) -> (i32, String, String) {
    let output = Command::new(env!("CARGO_BIN_EXE_crn"))
        .args(args)
        .current_dir(repo_root())
        .output()
        .expect("the crn binary runs");
    (
        output.status.code().expect("exit code"),
        String::from_utf8(output.stdout).expect("utf-8 stdout"),
        String::from_utf8(output.stderr).expect("utf-8 stderr"),
    )
}

/// Writes `content` to a fresh scratch file and returns its path as a string.
fn scratch(name: &str, content: &str) -> String {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(name);
    std::fs::write(&path, content).unwrap();
    path.to_str().unwrap().to_owned()
}

const DOUBLE_DOC: &str = "\
fn double2x(x) {
  case x >= 0: 2 x;
}

crn double {
  inputs X;
  output Y;
  computes double2x;
  init X = 5;
  X -> 2Y;
}
";

#[test]
fn profile_flag_keeps_stdout_and_exit_identical_across_the_corpus() {
    for file in corpus_files() {
        for base in [
            vec!["check", file.as_str()],
            vec!["lint", file.as_str()],
            vec!["fmt", file.as_str(), "--check"],
            vec!["verify", file.as_str(), "--bound", "3"],
            vec!["sim", file.as_str(), "--trials", "3", "--seed", "1"],
        ] {
            let (plain_code, plain_out, _) = run_crn(&base);
            let mut profiled = base.clone();
            profiled.push("--profile");
            let (prof_code, prof_out, prof_err) = run_crn(&profiled);
            assert_eq!(
                plain_code, prof_code,
                "--profile changed the exit code of crn {base:?}"
            );
            assert_eq!(
                plain_out, prof_out,
                "--profile changed the stdout of crn {base:?}"
            );
            assert!(
                prof_err.contains("== profile =="),
                "crn {profiled:?} printed no profile table:\n{prof_err}"
            );
        }
    }
}

#[test]
fn profile_table_comes_after_every_lint_warning() {
    // lint_adversarial.crn trips several lint warnings; the table must come
    // strictly after the last of them, never interleaved.
    let (_, _, stderr) = run_crn(&[
        "verify",
        "corpus/lint_adversarial.crn",
        "--bound",
        "2",
        "--profile",
    ]);
    let table = stderr
        .find("== profile ==")
        .expect("the profile table is on stderr");
    let last_warning = stderr.rfind("warning[").expect("lint warnings appear");
    assert!(
        last_warning < table,
        "a lint warning was printed after the profile table:\n{stderr}"
    );
    assert!(
        !stderr[table..].contains("warning["),
        "a lint warning interleaved into the profile table:\n{stderr}"
    );
}

#[test]
fn stats_works_under_every_exhaustive_engine() {
    let path = scratch("profile_stats.crn", DOUBLE_DOC);
    for engine in ["incremental", "reference"] {
        let (code, _, stderr) = run_crn(&[
            "verify", &path, "--bound", "3", "--engine", engine, "--stats",
        ]);
        assert_eq!(
            code, 0,
            "verify --engine {engine} --stats failed:\n{stderr}"
        );
        assert!(
            stderr.contains("\"stats\":{\"points\":"),
            "--engine {engine} printed no stats line:\n{stderr}"
        );
        assert!(
            stderr.contains("\"publish_suppressed\":"),
            "--engine {engine} stats lack publish_suppressed:\n{stderr}"
        );
    }
    // The retired engines are usage errors, with or without `--stats`.
    for engine in ["baseline", "pruned", "seed"] {
        let (code, _, stderr) = run_crn(&[
            "verify", &path, "--bound", "3", "--engine", engine, "--stats",
        ]);
        assert_eq!(code, 2, "--engine {engine} must be refused:\n{stderr}");
    }
    // `--spot` never runs a box sweep, so `--stats` stays a usage error there.
    let (code, _, stderr) = run_crn(&["verify", &path, "--bound", "3", "--spot", "--stats"]);
    assert_eq!(code, 2, "--spot --stats must be refused:\n{stderr}");
}

#[test]
fn json_embeds_versioned_metrics_exactly_when_profiling() {
    let path = scratch("profile_json.crn", DOUBLE_DOC);
    let (code, plain, _) = run_crn(&["verify", &path, "--bound", "3", "--json"]);
    assert_eq!(code, 0);
    assert!(
        !plain.contains("\"metrics\""),
        "unprofiled --json must not embed metrics:\n{plain}"
    );
    let (code, profiled, _) = run_crn(&["verify", &path, "--bound", "3", "--json", "--profile"]);
    assert_eq!(code, 0);
    assert!(
        profiled.contains("\"metrics\":{\"version\":1,"),
        "profiled --json must embed the versioned metrics object:\n{profiled}"
    );
    assert!(
        profiled.contains("\"model.box.points\":"),
        "the metrics object must carry the box-sweep counters:\n{profiled}"
    );
}

#[test]
fn profile_subcommand_reports_all_four_phases() {
    let path = scratch("profile_cmd.crn", DOUBLE_DOC);
    let (code, stdout, stderr) = run_crn(&["profile", &path]);
    assert_eq!(code, 0, "crn profile failed:\n{stdout}\n{stderr}");
    for phase in ["load", "check", "verify", "sim"] {
        assert!(
            stdout.contains(&format!("\n  {phase}")),
            "phase `{phase}` missing from the breakdown:\n{stdout}"
        );
    }
    let (code, json, _) = run_crn(&["profile", &path, "--json"]);
    assert_eq!(code, 0);
    assert!(json.contains("\"command\":\"profile\""), "{json}");
    assert!(json.contains("\"phases\":["), "{json}");
    assert!(json.contains("\"metrics\":{\"version\":1,"), "{json}");

    // A false `computes` claim is a verdict failure (exit 1), not a usage
    // error, and a missing file is exit 2 — the standard exit contract.
    let wrong = scratch(
        "profile_wrong.crn",
        &DOUBLE_DOC.replace("case x >= 0: 2 x;", "case x >= 0: 3 x;"),
    );
    let (code, _, _) = run_crn(&["profile", &wrong]);
    assert_eq!(code, 1);
    let (code, _, _) = run_crn(&["profile", "no_such_file.crn"]);
    assert_eq!(code, 2);
}

/// Extracts the integer value of `"name":` from a one-line JSON report.
fn json_counter(json: &str, name: &str) -> u64 {
    let key = format!("\"{name}\":");
    let start = json
        .find(&key)
        .unwrap_or_else(|| panic!("{name} in {json}"))
        + key.len();
    json[start..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect::<String>()
        .parse()
        .expect("integer counter")
}

#[test]
fn interleaving_independent_counters_match_at_every_worker_count() {
    let path = scratch("profile_workers.crn", DOUBLE_DOC);
    let mut step_counts = Vec::new();
    for workers in ["1", "2", "4"] {
        let (code, stdout, stderr) = run_crn(&[
            "sim",
            &path,
            "--trials",
            "8",
            "--seed",
            "3",
            "--workers",
            workers,
            "--json",
            "--profile",
        ]);
        assert_eq!(code, 0, "sim --workers {workers} failed:\n{stderr}");
        step_counts.push((
            json_counter(&stdout, "sim.steps"),
            json_counter(&stdout, "sim.trials"),
        ));
    }
    assert!(step_counts[0].0 > 0, "sim recorded no steps");
    assert_eq!(
        step_counts[0], step_counts[1],
        "sim.steps/sim.trials differ between 1 and 2 workers"
    );
    assert_eq!(
        step_counts[0], step_counts[2],
        "sim.steps/sim.trials differ between 1 and 4 workers"
    );
}
