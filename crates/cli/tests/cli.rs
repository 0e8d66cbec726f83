//! Exit-code contract tests: one per class (0 success, 1 verdict failure,
//! 2 usage/parse error) for each command family, driven through the real
//! binary.

use std::path::PathBuf;
use std::process::Command;

fn run_crn(args: &[&str]) -> (i32, String, String) {
    let output = Command::new(env!("CARGO_BIN_EXE_crn"))
        .args(args)
        .output()
        .expect("the crn binary runs");
    (
        output.status.code().expect("exit code"),
        String::from_utf8_lossy(&output.stdout).into_owned(),
        String::from_utf8_lossy(&output.stderr).into_owned(),
    )
}

/// Writes `content` to a fresh scratch file and returns its path.
fn scratch(name: &str, content: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(name);
    std::fs::write(&path, content).unwrap();
    path
}

const VALID_DOC: &str = "\
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
fn exit_0_success_class() {
    let path = scratch("ok.crn", VALID_DOC);
    let path = path.to_str().unwrap();
    for args in [
        vec!["check", path],
        vec!["characterize", path],
        vec!["verify", path, "--bound", "3"],
        vec!["sim", path, "--trials", "3"],
        vec!["fmt", path, "--check"],
        vec!["help"],
    ] {
        let (code, stdout, stderr) = run_crn(&args);
        assert_eq!(code, 0, "crn {args:?}: expected 0\n{stdout}\n{stderr}");
    }
}

#[test]
fn exit_1_verdict_failure_class() {
    // The CRN computes 2x but claims 3x: parse and lowering succeed, the
    // verify verdict does not.
    let wrong = VALID_DOC.replace("case x >= 0: 2 x;", "case x >= 0: 3 x;");
    let path = scratch("wrong_claim.crn", &wrong);
    let path = path.to_str().unwrap();
    let (code, stdout, _) = run_crn(&["verify", path, "--bound", "3"]);
    assert_eq!(code, 1, "verify of a false claim must exit 1\n{stdout}");
    assert!(stdout.contains("FAIL"), "{stdout}");

    let (code, stdout, _) = run_crn(&["sim", path, "--trials", "3"]);
    assert_eq!(code, 1, "sim of a false claim must exit 1\n{stdout}");
    assert!(stdout.contains("MISMATCH"), "{stdout}");

    // A fn whose cases overlap is a check verdict failure (it parses fine).
    let overlapping = scratch(
        "overlap.crn",
        "fn f(x) {\n  case x >= 0: 1;\n  case x >= 1: 2;\n}\n",
    );
    let (code, stdout, _) = run_crn(&["check", overlapping.to_str().unwrap()]);
    assert_eq!(code, 1, "check of an overlapping fn must exit 1\n{stdout}");
    assert!(stdout.contains("INVALID"), "{stdout}");

    // A spec computes-target that is not N-valued (f(0) = -1) must fail
    // verify/sim rather than being silently coerced to expected output 0.
    let bad_spec = scratch(
        "bad_spec_target.crn",
        "spec s(x) {\n  min x - 1;\n}\n\ncrn monus {\n  inputs X;\n  output Y;\n  computes s;\n  init X = 0;\n  2X -> X + Y;\n}\n",
    );
    let (code, stdout, _) = run_crn(&["verify", bad_spec.to_str().unwrap(), "--bound", "3"]);
    assert_eq!(
        code, 1,
        "verify against an unevaluable spec must exit 1\n{stdout}"
    );
    assert!(stdout.contains("FAIL"), "{stdout}");
    let (code, stdout, _) = run_crn(&["sim", bad_spec.to_str().unwrap(), "--trials", "2"]);
    assert_eq!(
        code, 1,
        "sim against an unevaluable spec must exit 1\n{stdout}"
    );
    assert!(stdout.contains("cannot be evaluated"), "{stdout}");

    // A never-silent CRN does not converge.
    let restless = scratch(
        "restless.crn",
        "crn clock {\n  inputs X;\n  output Y;\n  init X = 1;\n  X -> X + Y;\n}\n",
    );
    let (code, stdout, _) = run_crn(&[
        "sim",
        restless.to_str().unwrap(),
        "--trials",
        "2",
        "--max-steps",
        "50",
    ]);
    assert_eq!(code, 1, "sim of a restless CRN must exit 1\n{stdout}");
}

const PIPELINE_DOC: &str = "\
crn min_stage {
  inputs X1 X2;
  output Y;
  X1 + X2 -> Y;
}

crn max_stage {
  inputs X1 X2;
  output Y;
  X1 -> Z1 + Y;
  X2 -> Z2 + Y;
  Z1 + Z2 -> K;
  K + Y -> 0;
}

crn dbl {
  inputs X;
  output Y;
  X -> 2Y;
}

pipeline good {
  inputs a b;
  stage m = min_stage(a, b);
  stage d = dbl(m);
  output d;
}

pipeline bad {
  inputs a b;
  stage m = max_stage(a, b);
  stage d = dbl(m);
  output d;
}
";

#[test]
fn compose_exit_code_classes() {
    let path = scratch("pipelines.crn", PIPELINE_DOC);
    let path = path.to_str().unwrap();
    // 0: a sound pipeline composes; the emitted document is printed.
    let (code, stdout, stderr) = run_crn(&["compose", path, "--item", "good"]);
    assert_eq!(code, 0, "{stderr}");
    assert!(stdout.contains("crn good {"), "{stdout}");
    // 1: a non-oblivious feeder is refused with a diagnostic...
    let (code, _, stderr) = run_crn(&["compose", path, "--item", "bad"]);
    assert_eq!(code, 1, "non-oblivious feeder must exit 1");
    assert!(stderr.contains("non-output-oblivious"), "{stderr}");
    assert!(stderr.contains("`m`"), "{stderr}");
    // ...unless the Section 1.2 escape hatch is taken.
    let (code, stdout, _) = run_crn(&[
        "compose",
        path,
        "--item",
        "bad",
        "--allow-non-oblivious",
        "--json",
    ]);
    assert_eq!(code, 0);
    assert!(
        stdout.contains("\"non_oblivious_stages\":[\"m\"]"),
        "{stdout}"
    );
    // 2: usage errors — ambiguous target, unknown item, no pipelines at all.
    let (code, _, _) = run_crn(&["compose", path]);
    assert_eq!(code, 2, "two pipelines without --item is ambiguous");
    let (code, _, _) = run_crn(&["compose", path, "--item", "nope"]);
    assert_eq!(code, 2);
    let plain = scratch("no_pipelines.crn", VALID_DOC);
    let (code, _, _) = run_crn(&["compose", plain.to_str().unwrap()]);
    assert_eq!(code, 2);
}

#[test]
fn pipeline_targets_flow_through_check_verify_and_sim() {
    let doc = format!(
        "fn two_min(x1, x2) {{\n  case x1 <= x2: 2 x1;\n  otherwise: 2 x2;\n}}\n\n\
         {PIPELINE_DOC}"
    );
    let doc = doc.replace(
        "pipeline good {\n  inputs a b;\n  stage m = min_stage(a, b);\n  stage d = dbl(m);\n  output d;\n}",
        "pipeline good {\n  inputs a b;\n  stage m = min_stage(a, b);\n  stage d = dbl(m);\n  output d;\n  computes two_min;\n}",
    );
    let path = scratch("pipeline_targets.crn", &doc);
    let path = path.to_str().unwrap();
    let (code, stdout, _) = run_crn(&["check", path]);
    assert_eq!(code, 0, "{stdout}");
    assert!(stdout.contains("pipeline good (2 stages)"), "{stdout}");
    let (code, stdout, _) = run_crn(&["verify", path, "--item", "good", "--bound", "3"]);
    assert_eq!(code, 0, "{stdout}");
    let (code, stdout, _) = run_crn(&[
        "sim", path, "--item", "good", "--input", "2,5", "--trials", "3",
    ]);
    assert_eq!(code, 0, "{stdout}");
    assert!(stdout.contains("expected 4: ok"), "{stdout}");
}

#[test]
fn synthesize_of_a_zero_parameter_spec_re_enters_the_pipeline() {
    // The constant CRN synthesized from `spec five() { min 5; }` has no
    // inputs; the emitted `inputs;` declaration must parse, verify and
    // simulate (a zero-input CRN needs no init: its input is `()`).
    let src = scratch("five.crn", "spec five() {\n  min 5;\n}\n");
    let out = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("five_out.crn");
    let (code, _, stderr) = run_crn(&[
        "synthesize",
        src.to_str().unwrap(),
        "-o",
        out.to_str().unwrap(),
    ]);
    assert_eq!(code, 0, "{stderr}");
    for command in ["check", "verify", "sim"] {
        let (code, stdout, stderr) = run_crn(&[command, out.to_str().unwrap()]);
        assert_eq!(
            code, 0,
            "crn {command} on zero-input doc\n{stdout}\n{stderr}"
        );
    }
    let (_, stdout, _) = run_crn(&["sim", out.to_str().unwrap(), "--json"]);
    assert!(stdout.contains("\"outputs\":[5]"), "{stdout}");
}

/// A document that verifies clean but trips C003 (its output is consumed
/// non-catalytically), so lint warnings and verdicts can move independently.
const WARNING_DOC: &str = "\
fn maxish(x1, x2) {
  case x1 >= x2: x1;
  otherwise: x2;
}

crn max {
  inputs X1 X2;
  output Y;
  computes maxish;
  X1 -> Z1 + Y;
  X2 -> Z2 + Y;
  Z1 + Z2 -> K;
  K + Y -> 0;
}
";

#[test]
fn verify_engines_agree_and_honor_deny_warnings() {
    let path = scratch("engines.crn", WARNING_DOC);
    let path = path.to_str().unwrap();
    // Both exhaustive engines pass with byte-identical stdout, and the C003
    // finding lands on stderr without touching the exit code.
    let mut stdouts = Vec::new();
    for engine in ["incremental", "reference"] {
        let (code, stdout, stderr) = run_crn(&["verify", path, "--bound", "3", "--engine", engine]);
        assert_eq!(code, 0, "--engine {engine}\n{stdout}\n{stderr}");
        assert!(stderr.contains("warning[C003]"), "{stderr}");
        stdouts.push(stdout);
    }
    for (i, stdout) in stdouts.iter().enumerate().skip(1) {
        assert_eq!(stdout, &stdouts[0], "engine #{i} stdout diverged");
    }
    // --deny-warnings promotes the finding to exit 1 even though every
    // verdict passes; the verdicts themselves still print.
    let (code, stdout, stderr) = run_crn(&["verify", path, "--bound", "3", "--deny-warnings"]);
    assert_eq!(code, 1, "{stdout}\n{stderr}");
    assert!(stdout.contains("ok (exhaustive)"), "{stdout}");
    // An unknown engine — including the retired ones — and --engine under
    // --spot are usage errors.
    for engine in ["frobnicate", "baseline", "pruned", "seed"] {
        let (code, _, _) = run_crn(&["verify", path, "--engine", engine]);
        assert_eq!(code, 2, "--engine {engine}");
    }
    let (code, _, _) = run_crn(&["verify", path, "--spot", "--engine", "reference"]);
    assert_eq!(code, 2);
}

#[test]
fn verify_stats_reports_engine_counters() {
    let path = scratch("stats.crn", WARNING_DOC);
    let path = path.to_str().unwrap();
    // One JSON line of counters per item on stderr; the max-style CRN is
    // input-symmetric, so the strict lower triangle of [0,3]^2 is replayed.
    let (code, stdout, stderr) = run_crn(&["verify", path, "--bound", "3", "--stats"]);
    assert_eq!(code, 0, "{stdout}\n{stderr}");
    let line = stderr
        .lines()
        .find(|l| l.starts_with("{\"item\":\"max\""))
        .unwrap_or_else(|| panic!("no stats line in stderr:\n{stderr}"));
    assert!(line.contains("\"points\":16"), "{line}");
    assert!(line.contains("\"symmetry_skipped\":6"), "{line}");
    assert!(line.contains("\"cache_hit_rate\":"), "{line}");
    // --json attaches the same counters to the item's report on stdout.
    let (code, stdout, _) = run_crn(&["verify", path, "--bound", "3", "--stats", "--json"]);
    assert_eq!(code, 0, "{stdout}");
    assert!(stdout.contains("\"stats\":{\"points\":16"), "{stdout}");
    // The reference engine reports its counters too (the ones it does not
    // track stay zero): it checks all 16 points in full, 203 configurations
    // in total.  Only the spot checker has no box sweep to describe.
    let (code, _, stderr) = run_crn(&[
        "verify",
        path,
        "--bound",
        "3",
        "--stats",
        "--engine",
        "reference",
    ]);
    assert_eq!(code, 0, "{stderr}");
    for counter in [
        "\"symmetry_skipped\":0",
        "\"decided\":16",
        "\"configs_explored\":203",
    ] {
        assert!(stderr.contains(counter), "{counter}: {stderr}");
    }
    let (code, _, _) = run_crn(&["verify", path, "--stats", "--spot"]);
    assert_eq!(code, 2);
}

#[test]
fn verify_survives_code_offsets_past_i64() {
    // The dead reaction `D -> 2^62 B` has a mixed-radix code offset past
    // i64 in the interval-box code.  The offset only matters where the
    // reaction applies, and it never does, so the sweep passes — in debug
    // builds too, where the offset arithmetic once panicked on overflow.
    let path = scratch(
        "offset_overflow.crn",
        "fn ident(x) {\n  case x >= 0: x;\n}\n\n\
         crn offsets {\n  inputs X;\n  output Y;\n  computes ident;\n  \
         X -> Y;\n  D -> 4611686018427387904B;\n}\n",
    );
    let path = path.to_str().unwrap();
    for engine in ["incremental", "reference"] {
        let (code, stdout, stderr) = run_crn(&["verify", path, "--bound", "2", "--engine", engine]);
        assert_eq!(code, 0, "--engine {engine}\n{stdout}\n{stderr}");
        assert!(stdout.contains("ok (exhaustive)"), "{stdout}");
    }
}

#[test]
fn sim_echoes_lint_warnings_and_honors_deny_warnings() {
    let path = scratch("sim_warnings.crn", WARNING_DOC);
    let path = path.to_str().unwrap();
    let (code, _, stderr) = run_crn(&["sim", path, "--input", "2,3", "--trials", "3"]);
    assert_eq!(code, 0, "{stderr}");
    assert!(stderr.contains("warning[C003]"), "{stderr}");
    let (code, stdout, stderr) = run_crn(&[
        "sim",
        path,
        "--input",
        "2,3",
        "--trials",
        "3",
        "--deny-warnings",
    ]);
    assert_eq!(code, 1, "{stdout}\n{stderr}");
    assert!(stdout.contains("expected 3: ok"), "{stdout}");
}

#[test]
fn lint_json_is_byte_identical_across_runs() {
    // The JSON payload is a machine interface: two runs over the same file
    // must agree byte for byte (stable finding order, stable note order).
    let path = scratch("lint_determinism.crn", WARNING_DOC);
    let path = path.to_str().unwrap();
    let (code, first, _) = run_crn(&["lint", path, "--json"]);
    assert_eq!(code, 0);
    assert!(first.contains("\"code\":\"C003\""), "{first}");
    for _ in 0..2 {
        let (code, again, _) = run_crn(&["lint", path, "--json"]);
        assert_eq!(code, 0);
        assert_eq!(first, again, "lint --json must be deterministic");
    }
}

#[test]
fn multi_file_check_json_reports_every_file() {
    let good = scratch("json_good.crn", VALID_DOC);
    let bad = scratch("json_bad.crn", "crn broken {");
    let (code, stdout, _) = run_crn(&[
        "check",
        good.to_str().unwrap(),
        bad.to_str().unwrap(),
        "--json",
    ]);
    assert_eq!(code, 2, "a parse failure is the worst class\n{stdout}");
    // Both files appear in the JSON report, the good one with its results.
    assert!(stdout.contains("json_good.crn"), "{stdout}");
    assert!(stdout.contains("json_bad.crn"), "{stdout}");
    assert!(stdout.contains("\"ok\":true"), "{stdout}");
    assert!(stdout.contains("\"ok\":false"), "{stdout}");
}

#[test]
fn exit_2_usage_or_parse_error_class() {
    // No command at all.
    let (code, _, _) = run_crn(&[]);
    assert_eq!(code, 2);
    // Unknown command and unknown flag.
    let (code, _, _) = run_crn(&["frobnicate"]);
    assert_eq!(code, 2);
    let (code, _, _) = run_crn(&["check", "--nope"]);
    assert_eq!(code, 2);
    // Missing file.
    let (code, _, stderr) = run_crn(&["check", "definitely-not-here.crn"]);
    assert_eq!(code, 2);
    assert!(stderr.contains("cannot read"), "{stderr}");
    // Parse error, with a rendered span diagnostic.
    let bad = scratch("bad.crn", "crn broken {\n  X + Y;\n}\n");
    let (code, _, stderr) = run_crn(&["check", bad.to_str().unwrap()]);
    assert_eq!(code, 2);
    assert!(stderr.contains("error:"), "{stderr}");
    assert!(stderr.contains("bad.crn:2"), "{stderr}");
    // Lowering error (init names a non-input species).
    let bad_init = scratch(
        "bad_init.crn",
        "crn c {\n  inputs X;\n  output Y;\n  init Y = 1;\n  X -> Y;\n}\n",
    );
    let (code, _, stderr) = run_crn(&["check", bad_init.to_str().unwrap()]);
    assert_eq!(code, 2);
    assert!(stderr.contains("not an input"), "{stderr}");
    // Wrong arity for --input.
    let good = scratch("good_arity.crn", VALID_DOC);
    let (code, _, _) = run_crn(&["sim", good.to_str().unwrap(), "--input", "1,2,3"]);
    assert_eq!(code, 2);
}
