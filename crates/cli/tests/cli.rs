//! Exit-code contract tests: one per class (0 success, 1 verdict failure,
//! 2 usage/parse error) for each command family, driven through the real
//! binary.

use std::path::PathBuf;
use std::process::{Command, Stdio};

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

    // A trial cut by --max-steps refutes nothing, so sim gives up rather
    // than printing MISMATCH: on mod3 the budget runs out long before
    // silence, and the flip-flop never falls silent although every output
    // equals the claim.
    for (doc, input, trials, budget, line) in [
        (
            "mod3.crn",
            "30000",
            "2",
            "1000",
            "expected 10000: gave up (2 of 2 trials hit --max-steps 1000 before falling silent)",
        ),
        (
            "cyclic_identity.crn",
            "4",
            "4",
            "1000000",
            "expected 4: gave up (4 of 4 trials hit --max-steps 1000000 before falling silent)",
        ),
    ] {
        let doc = corpus(doc);
        let args = [
            "sim",
            &doc,
            "--input",
            input,
            "--trials",
            trials,
            "--max-steps",
            budget,
        ];
        let (code, stdout, _) = run_crn(&args);
        assert_eq!(code, 1, "{args:?}: a give-up still exits 1\n{stdout}");
        assert!(stdout.contains(line), "{args:?}: {stdout}");
        assert!(!stdout.contains("MISMATCH"), "{args:?}: {stdout}");
    }
    // Likewise `verify --spot`: the flip-flop's runs are cut, never wrong.
    let flip_flop = corpus("cyclic_identity.crn");
    let args = [
        "verify",
        &flip_flop,
        "--bound",
        "2",
        "--spot",
        "--max-steps",
        "10000",
    ];
    let (code, stdout, _) = run_crn(&args);
    assert_eq!(code, 1, "{stdout}");
    assert!(
        stdout.contains(
            "spot check gave up: 2 input(s) did not fall silent within 10000 steps; \
             retry with a larger --max-steps or without --spot"
        ),
        "{stdout}"
    );
    // A run that falls silent with a wrong output refutes the claim.
    let (code, stdout, _) = run_crn(&["verify", path, "--bound", "3", "--spot"]);
    assert_eq!(code, 1, "{stdout}");
    assert!(
        stdout.contains("input (1) expects 3: a sampled run falls silent at {2 Y} with output 2"),
        "{stdout}"
    );

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

    // A value past u64::MAX is inconclusive at its point.  Read as 0, f(4)
    // made this nondecreasing f a false impossibility, printed with exit 0.
    let big = scratch(
        "big_fn.crn",
        "fn big(x) {\n  case x <= 2: 0;\n  otherwise: 9223372036854775807 x - 9223372036854775806;\n}\n",
    );
    let (code, stdout, _) = run_crn(&["characterize", big.to_str().unwrap()]);
    assert_eq!(code, 1, "characterize must not settle on f(4)\n{stdout}");
    assert!(stdout.contains("verdict: inconclusive"), "{stdout}");
    assert!(stdout.contains("f(4) cannot be evaluated: "), "{stdout}");
    assert!(!stdout.contains("not obliviously computable"), "{stdout}");

    // In two dimensions the affine fits run on i64: a value past i64::MAX
    // is inconclusive at its point.  Read as 0, or wrapped by a cast, such
    // values made these nondecreasing functions "not affine".
    for (name, body, point) in [
        (
            "big2",
            "case x1 + x2 <= 2: 0;\n  otherwise: 9223372036854775807 x1 + 9223372036854775807 x2 - 9223372036854775806;",
            "f(0, 3) = 18446744073709551615 is past i64::MAX",
        ),
        (
            "min62",
            "case x1 <= x2: 4611686018427387904 x1;\n  otherwise: 4611686018427387904 x2;",
            "f(2, 2) = 9223372036854775808 is past i64::MAX",
        ),
    ] {
        let path = scratch(
            &format!("{name}_fn.crn"),
            &format!("fn {name}(x1, x2) {{\n  {body}\n}}\n"),
        );
        for bound in ["3", "8"] {
            let (code, stdout, _) =
                run_crn(&["characterize", path.to_str().unwrap(), "--bound", bound]);
            assert_eq!(code, 1, "{name} at bound {bound}\n{stdout}");
            assert!(stdout.contains("verdict: inconclusive"), "{stdout}");
            assert!(stdout.contains(point), "{stdout}");
            assert!(!stdout.contains("not affine"), "{stdout}");
        }
    }

    // In one dimension the eventual piece's offsets run on i64 too: a value
    // past i64::MAX is inconclusive at its point.  Cast, f(2) became the
    // spec `min -1`, printed as obliviously computable with exit 0.
    let big1 = scratch(
        "big1_fn.crn",
        "fn big1(x) {\n  case x <= 1: 0;\n  otherwise: 18446744073709551615;\n}\n",
    );
    let (code, stdout, _) = run_crn(&["characterize", big1.to_str().unwrap()]);
    assert_eq!(
        code, 1,
        "characterize must not print a spec that is not f\n{stdout}"
    );
    assert!(stdout.contains("verdict: inconclusive"), "{stdout}");
    assert!(
        stdout.contains("f(2) = 18446744073709551615 is past i64::MAX"),
        "{stdout}"
    );
    assert!(!stdout.contains("big1_spec"), "{stdout}");

    // A quilt-affine value past i64::MAX is an error that says so: never a
    // decrease, "not an integer", or a number wrapped past i128.
    let steep = scratch(
        "steep_spec.crn",
        "spec s(x) {\n  min 18446744073709551615 x;\n}\n",
    );
    let (code, _, stderr) = run_crn(&["synthesize", steep.to_str().unwrap()]);
    assert_eq!(code, 1, "{stderr}");
    assert!(
        stderr.contains("18446744073709551615 is past i64::MAX"),
        "{stderr}"
    );
    assert!(!stderr.contains("not nondecreasing"), "{stderr}");
    // A spec's value is read as exactly as the same `fn` case's: 2^64 - 2
    // at (2) is a value (it was "past i64::MAX", a false FAIL), and at (3)
    // both name the point as past u64::MAX.
    let half = scratch(
        "half_steep_spec.crn",
        "spec s(x) {\n  min 9223372036854775807 x;\n}\n",
    );
    let (code, synthesized, stderr) = run_crn(&["synthesize", half.to_str().unwrap()]);
    assert_eq!(code, 0, "{stderr}");
    let synthesized = scratch("half_steep_crn.crn", &synthesized);
    let synthesized = synthesized.to_str().unwrap();
    let half_fn = scratch(
        "half_steep_fn.crn",
        "fn big(x) {\n  case x >= 0: 9223372036854775807 x;\n}\n\ncrn c {\n  inputs X;\n  output Y;\n  computes big;\n  X -> 9223372036854775807 Y;\n}\n",
    );
    let half_fn = half_fn.to_str().unwrap();
    for (doc, past) in [
        (synthesized, "f((3)) is past u64::MAX"),
        (half_fn, "value at (3) is an integer past u64::MAX"),
    ] {
        for command in ["verify", "check"] {
            let (code, stdout, _) = run_crn(&[command, doc, "--bound", "2"]);
            assert_eq!(code, 0, "{command} {doc}\n{stdout}");
            let (code, stdout, _) = run_crn(&[command, doc, "--bound", "3"]);
            assert_eq!(code, 1, "{command} {doc}\n{stdout}");
            assert!(stdout.contains(past), "{stdout}");
            assert!(!stdout.contains("not an integer"), "{stdout}");
        }
        let (code, stdout, _) = run_crn(&["sim", doc, "--input", "2"]);
        assert_eq!(code, 0, "{stdout}");
        assert!(
            stdout.contains("expected 18446744073709551614: ok"),
            "{stdout}"
        );
    }
    let linked = scratch(
        "steep_link.crn",
        "spec s(x) {\n  min 18446744073709551615 x;\n}\n\ncrn c {\n  inputs X;\n  output Y;\n  computes s;\n  X -> Y;\n}\n",
    );
    let (code, stdout, _) = run_crn(&[
        "sim",
        linked.to_str().unwrap(),
        "--input",
        "18446744073709551615",
    ]);
    assert_eq!(code, 1, "{stdout}");
    assert!(
        stdout.contains("f((18446744073709551615)) is past u64::MAX"),
        "{stdout}"
    );
    let negative = stdout
        .as_bytes()
        .windows(2)
        .any(|w| w[0] == b'-' && w[1].is_ascii_digit());
    assert!(!negative, "{stdout}");

    // A count past i64::MAX is that count in a domain test, and a value
    // past u64::MAX is named as such.  A cast once read u64::MAX as -1, so
    // no piece covered it, and both values were "not a nonnegative integer".
    let past_u64 = scratch(
        "past_u64.crn",
        "fn f(x) {\n  case x >= 0: 18446744073709551615 x;\n}\n\ncrn c {\n  inputs X;\n  output Y;\n  computes f;\n  X -> Y;\n}\n",
    );
    let past_u64 = past_u64.to_str().unwrap();
    let (code, stdout, _) = run_crn(&["sim", past_u64, "--input", "18446744073709551615"]);
    assert_eq!(code, 1, "{stdout}");
    assert!(
        stdout.contains("value at (18446744073709551615) is an integer past u64::MAX"),
        "{stdout}"
    );
    assert!(!stdout.contains("no piece covers"), "{stdout}");
    let (code, stdout, _) = run_crn(&["check", past_u64]);
    assert_eq!(code, 1, "{stdout}");
    assert!(
        stdout.contains("value at (2) is an integer past u64::MAX"),
        "{stdout}"
    );
    assert!(!stdout.contains("not a nonnegative integer"), "{stdout}");

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

    // A count past u64::MAX fails the simulated item (its --json report
    // too) and `crn profile`'s verify phase.
    let overflow = corpus("count_overflow.crn");
    let (code, stdout, _) = run_crn(&["sim", &overflow, "--input", "3", "--json"]);
    assert_eq!(code, 1, "sim of an overflowing count must exit 1\n{stdout}");
    assert!(
        stdout.contains(r#""correct":false"#) && stdout.contains("count overflow"),
        "{stdout}"
    );
    let (code, stdout, _) = run_crn(&["profile", &overflow]);
    assert_eq!(code, 1, "{stdout}");
    assert!(
        stdout.contains("(1 item(s), 1 failure(s), 0 gave up)"),
        "{stdout}"
    );

    // A propensity past f64's range fails the item too: the roulette cannot
    // weigh `200 X -> Y` on a million X, so no trial may run biased.
    let huge = scratch(
        "huge_propensity.crn",
        "crn huge {\n  inputs X;\n  output Z;\n  init X = 1000000;\n  200 X -> Y;\n  X -> Z;\n}\n",
    );
    let huge = huge.to_str().unwrap();
    let (code, stdout, _) = run_crn(&[
        "sim",
        huge,
        "--input",
        "1000000",
        "--max-steps",
        "1000",
        "--json",
    ]);
    assert_eq!(
        code, 1,
        "sim of an infinite propensity must exit 1\n{stdout}"
    );
    assert!(
        stdout.contains(r#""correct":false"#)
            && stdout.contains("propensity overflow")
            && stdout.contains("200X -> Y"),
        "{stdout}"
    );
    let (code, stdout, _) = run_crn(&["profile", huge]);
    assert_eq!(code, 1, "{stdout}");
    assert!(
        stdout.contains("sim") && stdout.contains("(1 item(s), 1 failure(s), 0 gave up)"),
        "{stdout}"
    );

    // `crn profile` counts a give-up as `crn sim` and `crn verify` report
    // it, apart from the failures, and still exits 1: mod3's trials hit
    // --max-steps, and figure1_max's exploration hits --max-configs.
    for (doc, limits, phase) in [
        ("mod3.crn", &["--max-steps", "5"][..], "sim"),
        (
            "figure1_max.crn",
            &["--bound", "2", "--max-configs", "5"][..],
            "verify",
        ),
    ] {
        let doc = corpus(doc);
        let mut args = vec!["profile", &doc];
        args.extend(limits);
        let (code, stdout, _) = run_crn(&args);
        assert_eq!(code, 1, "{stdout}");
        let line = stdout
            .lines()
            .find(|l| l.trim_start().starts_with(phase))
            .unwrap_or_else(|| panic!("no {phase} line\n{stdout}"));
        assert!(
            line.ends_with("(1 item(s), 0 failure(s), 1 gave up)"),
            "{stdout}"
        );
        args.push("--json");
        let (code, json, _) = run_crn(&args);
        assert_eq!(code, 1, "{json}");
        assert!(
            json.contains(r#""items":1,"failures":0,"gave_up":1"#),
            "{json}"
        );
    }
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
fn check_names_each_invalid_target_once_and_a_negative_spec_value_as_negative() {
    // The item loop evaluates every `fn` and `spec` on the box; a `computes`
    // link only resolves its target, so each failure is printed once.
    let half = scratch(
        "check_once_half_spec.crn",
        "spec half(x) {\n  min 9223372036854775807 x;\n}\n",
    );
    let (code, synthesized, stderr) = run_crn(&["synthesize", half.to_str().unwrap()]);
    assert_eq!(code, 0, "{stderr}");
    let synthesized = scratch("check_once_half_crn.crn", &synthesized);
    let half_fn = scratch(
        "check_once_half_fn.crn",
        "fn big(x) {\n  case x >= 0: 9223372036854775807 x;\n}\n\ncrn c {\n  inputs X;\n  output Y;\n  computes big;\n  X -> 9223372036854775807 Y;\n}\n",
    );
    for (doc, reason) in [
        (&synthesized, "f((3)) is past u64::MAX"),
        (&half_fn, "value at (3) is an integer past u64::MAX"),
    ] {
        let (code, stdout, _) = run_crn(&["check", doc.to_str().unwrap(), "--bound", "3"]);
        assert_eq!(code, 1, "{stdout}");
        assert_eq!(stdout.matches(reason).count(), 1, "{stdout}");
    }

    // A negative spec value is an integer, reported as negative.
    let negative = scratch("negative_spec.crn", "spec s(x) {\n  min x - 1;\n}\n");
    let (code, stdout, _) = run_crn(&["check", negative.to_str().unwrap()]);
    assert_eq!(code, 1, "{stdout}");
    assert!(
        stdout
            .contains("spec `s` cannot be evaluated: value out of range: f((0)) = -1 is negative"),
        "{stdout}"
    );
    assert!(!stdout.contains("not an integer"), "{stdout}");
}

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
    // The box engine passes, and the C003 finding lands on stderr without
    // touching the exit code.
    let (code, stdout, stderr) = run_crn(&["verify", path, "--bound", "3"]);
    assert_eq!(code, 0, "{stdout}\n{stderr}");
    assert!(stdout.contains("ok (exhaustive)"), "{stdout}");
    assert!(stderr.contains("warning[C003]"), "{stderr}");
    // --deny-warnings promotes the finding to exit 1 even though every
    // verdict passes; the verdicts themselves still print.
    let (code, stdout, stderr) = run_crn(&["verify", path, "--bound", "3", "--deny-warnings"]);
    assert_eq!(code, 1, "{stdout}\n{stderr}");
    assert!(stdout.contains("ok (exhaustive)"), "{stdout}");
    // There is one box engine: `--engine` is an unknown flag whatever its
    // value, with or without --spot.
    for engine in ["incremental", "reference", "baseline", "pruned", "seed"] {
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
    assert!(line.contains("\"configs_explored\":"), "{line}");
    // --json attaches the same counters to the item's report on stdout.
    let (code, stdout, _) = run_crn(&["verify", path, "--bound", "3", "--stats", "--json"]);
    assert_eq!(code, 0, "{stdout}");
    assert!(stdout.contains("\"stats\":{\"points\":16"), "{stdout}");
    // Only the spot checker has no box sweep to describe.
    let (code, _, _) = run_crn(&["verify", path, "--stats", "--spot"]);
    assert_eq!(code, 2);
}

#[test]
fn verify_survives_code_offsets_past_i64() {
    // The dead reaction `D -> 2^62 B` never applies, so the sweep passes.
    // Its coefficient overflows any code that weighs species by their
    // interval widths, which once panicked in debug builds.
    let path = scratch(
        "offset_overflow.crn",
        "fn ident(x) {\n  case x >= 0: x;\n}\n\n\
         crn offsets {\n  inputs X;\n  output Y;\n  computes ident;\n  \
         X -> Y;\n  D -> 4611686018427387904B;\n}\n",
    );
    let path = path.to_str().unwrap();
    let (code, stdout, stderr) = run_crn(&["verify", path, "--bound", "2"]);
    assert_eq!(code, 0, "{stdout}\n{stderr}");
    assert!(stdout.contains("ok (exhaustive)"), "{stdout}");
}

#[test]
fn coefficients_past_i64_are_usage_errors() {
    // The engine stores net deltas as signed 64-bit counts, so a side whose
    // total coefficient of one species exceeds i64::MAX is rejected at
    // lowering (exit 2) by every command, never analyzed with a wrapped
    // delta.  i64::MAX itself still verifies.
    let doc = |side: &str| {
        format!(
            "fn big(x) {{\n  case x >= 0: 9223372036854775807 x;\n}}\n\n\
             crn c {{\n  inputs X;\n  output Y;\n  computes big;\n  X -> {side};\n}}\n"
        )
    };
    for (name, side) in [
        ("single.crn", "9223372036854775808 Y"),
        ("sum.crn", "5000000000000000000 Y + 5000000000000000000 Y"),
        (
            "wrap.crn",
            "10000000000000000000 Y + 10000000000000000000 Y",
        ),
    ] {
        let path = scratch(name, &doc(side));
        let path = path.to_str().unwrap();
        for args in [&["lint", path][..], &["check", path], &["verify", path]] {
            let (code, stdout, stderr) = run_crn(args);
            assert_eq!(code, 2, "crn {args:?} on {side}\n{stdout}\n{stderr}");
            assert!(
                stderr.contains("total stoichiometric coefficient of `Y` exceeds"),
                "{stderr}"
            );
        }
    }
    let path = scratch("max.crn", &doc("9223372036854775807 Y"));
    let (code, stdout, stderr) = run_crn(&["verify", path.to_str().unwrap(), "--bound", "1"]);
    assert_eq!(code, 0, "{stdout}\n{stderr}");
    assert!(stdout.contains("ok (exhaustive)"), "{stdout}");
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
    // Lowering error (a fn value whose common denominator is past i128).
    let coprime = scratch(
        "coprime_denominators.crn",
        "fn g(x1, x2) {\n  case x1 >= 0: 1/18446744073709551615 x1 + 1/18446744073709551614 x2;\n}\n",
    );
    let (code, _, stderr) = run_crn(&["check", coprime.to_str().unwrap()]);
    assert_eq!(code, 2);
    assert!(
        stderr.contains("case 1 of fn `g`") && stderr.contains("does not fit i128"),
        "{stderr}"
    );
    // Wrong arity for --input.
    let good = scratch("good_arity.crn", VALID_DOC);
    let (code, _, _) = run_crn(&["sim", good.to_str().unwrap(), "--input", "1,2,3"]);
    assert_eq!(code, 2);
}

/// `corpus/<name>` as an absolute path.
fn corpus(name: &str) -> String {
    format!("{}/../../corpus/{name}", env!("CARGO_MANIFEST_DIR"))
}

#[test]
fn boxes_past_u64_points_are_refused_up_front() {
    // [0, 2^64 - 1] has 2^64 points, one more than a u64 cursor indexes;
    // collecting it once aborted the process on a 1.5 GB allocation.
    let double = corpus("figure1_double.crn");
    for command in ["verify", "check", "profile", "characterize", "synthesize"] {
        let (code, _, stderr) = run_crn(&[command, &double, "--bound", "18446744073709551615"]);
        assert_eq!(code, 2, "crn {command}\n{stderr}");
        assert!(
            stderr.contains("[0, 18446744073709551615]^1"),
            "crn {command} names the box:\n{stderr}"
        );
    }
    // Two inputs overflow at a far smaller bound: (2^32)^2 = 2^64.
    let min = corpus("figure1_min.crn");
    let (code, _, stderr) = run_crn(&["verify", &min, "--bound", "4294967295"]);
    assert_eq!(code, 2, "{stderr}");
    assert!(stderr.contains("[0, 4294967295]^2"), "{stderr}");
}

#[test]
fn a_closed_stdout_ends_the_output_without_a_panic() {
    let mut docs: Vec<String> = std::fs::read_dir(corpus(""))
        .unwrap()
        .map(|entry| entry.unwrap().path())
        .filter(|path| path.extension().is_some_and(|ext| ext == "crn"))
        .map(|path| path.to_str().unwrap().to_owned())
        .collect();
    docs.sort();
    let mut child = Command::new(env!("CARGO_BIN_EXE_crn"))
        .arg("check")
        .args(&docs)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("the crn binary runs");
    // Close the read end before the command writes its first line.
    drop(child.stdout.take());
    let output = child.wait_with_output().expect("crn check finishes");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(output.status.code(), Some(0), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
}

#[test]
fn sim_json_reports_an_unevaluable_link_as_a_failed_item() {
    // f(2) = 2^65 - 2 is past u64::MAX, so the link cannot be evaluated at
    // the input: under --json the item fails inside the one JSON object on
    // stdout, as a simulation failure does, and exits 1.
    let past_u64 = scratch(
        "past_u64_json.crn",
        "fn f(x) {\n  case x >= 0: 18446744073709551615 x;\n}\n\ncrn c {\n  inputs X;\n  output Y;\n  computes f;\n  X -> Y;\n}\n",
    );
    let (code, stdout, _) = run_crn(&["sim", past_u64.to_str().unwrap(), "--input", "2", "--json"]);
    assert_eq!(code, 1, "{stdout}");
    let report = json::parse(&stdout).unwrap_or_else(|e| panic!("{e}\n{stdout}"));
    let results = match report.get("results") {
        Some(json::Value::Arr(results)) => results,
        other => panic!("no results array: {other:?}\n{stdout}"),
    };
    let [item] = results.as_slice() else {
        panic!("one result expected\n{stdout}");
    };
    assert_eq!(item.get("item"), Some(&json::Value::Str("c".into())));
    assert_eq!(item.get("correct"), Some(&json::Value::Bool(false)));
    assert_eq!(item.get("converged"), Some(&json::Value::Bool(false)));
    assert!(
        matches!(item.get("error"), Some(json::Value::Str(error))
            if error.contains("value at (2) is an integer past u64::MAX")),
        "{stdout}"
    );
}

/// Just enough of a JSON reader (RFC 8259) to check that a command's stdout
/// is one JSON document and to look into it.
mod json {
    #[derive(Debug, PartialEq)]
    pub enum Value {
        Null,
        Bool(bool),
        Number(f64),
        Str(String),
        Arr(Vec<Value>),
        Obj(Vec<(String, Value)>),
    }

    impl Value {
        /// The field `key` of an object.
        pub fn get(&self, key: &str) -> Option<&Value> {
            match self {
                Value::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
                _ => None,
            }
        }
    }

    /// Parses `text` as exactly one JSON value, with only whitespace around
    /// it.
    pub fn parse(text: &str) -> Result<Value, String> {
        let mut reader = Reader {
            bytes: text.as_bytes(),
            at: 0,
        };
        let value = reader.value()?;
        reader.skip_whitespace();
        if reader.at < reader.bytes.len() {
            return Err(reader.error("the end of the text"));
        }
        Ok(value)
    }

    struct Reader<'a> {
        bytes: &'a [u8],
        at: usize,
    }

    impl Reader<'_> {
        fn error(&self, wanted: &str) -> String {
            format!("expected {wanted} at byte {}", self.at)
        }

        fn skip_whitespace(&mut self) {
            while matches!(self.bytes.get(self.at), Some(b' ' | b'\t' | b'\n' | b'\r')) {
                self.at += 1;
            }
        }

        fn next(&mut self) -> Option<u8> {
            let byte = self.bytes.get(self.at).copied();
            self.at += 1;
            byte
        }

        fn value(&mut self) -> Result<Value, String> {
            self.skip_whitespace();
            let rest = &self.bytes[self.at.min(self.bytes.len())..];
            for (word, value) in [
                ("null", Value::Null),
                ("true", Value::Bool(true)),
                ("false", Value::Bool(false)),
            ] {
                if rest.starts_with(word.as_bytes()) {
                    self.at += word.len();
                    return Ok(value);
                }
            }
            match rest.first() {
                Some(b'"') => self.string().map(Value::Str),
                Some(b'[') => {
                    self.at += 1;
                    self.items(b']', Self::value).map(Value::Arr)
                }
                Some(b'{') => {
                    self.at += 1;
                    let field = |reader: &mut Self| {
                        reader.skip_whitespace();
                        let key = reader.string()?;
                        reader.skip_whitespace();
                        if reader.next() != Some(b':') {
                            return Err(reader.error("`:`"));
                        }
                        Ok((key, reader.value()?))
                    };
                    self.items(b'}', field).map(Value::Obj)
                }
                _ => self.number(),
            }
        }

        /// The comma-separated items of an array or object, through `close`.
        fn items<T>(
            &mut self,
            close: u8,
            item: impl Fn(&mut Self) -> Result<T, String>,
        ) -> Result<Vec<T>, String> {
            let mut items = Vec::new();
            self.skip_whitespace();
            if self.bytes.get(self.at) == Some(&close) {
                self.at += 1;
                return Ok(items);
            }
            loop {
                items.push(item(self)?);
                self.skip_whitespace();
                match self.next() {
                    Some(b',') => {}
                    Some(byte) if byte == close => return Ok(items),
                    _ => return Err(self.error("`,` or the closing bracket")),
                }
            }
        }

        fn string(&mut self) -> Result<String, String> {
            if self.next() != Some(b'"') {
                return Err(self.error("a string"));
            }
            let mut text = Vec::new();
            loop {
                match self.next() {
                    Some(b'"') => return String::from_utf8(text).map_err(|e| e.to_string()),
                    Some(b'\\') => {
                        let escaped = match self.next() {
                            Some(b'u') => {
                                let hex = self.bytes.get(self.at..self.at + 4);
                                self.at += 4;
                                hex.and_then(|hex| std::str::from_utf8(hex).ok())
                                    .and_then(|hex| u32::from_str_radix(hex, 16).ok())
                                    .and_then(char::from_u32)
                                    .ok_or_else(|| self.error("four hex digits"))?
                            }
                            Some(b'b') => '\u{8}',
                            Some(b'f') => '\u{c}',
                            Some(b'n') => '\n',
                            Some(b'r') => '\r',
                            Some(b't') => '\t',
                            Some(byte @ (b'"' | b'\\' | b'/')) => char::from(byte),
                            _ => return Err(self.error("an escape")),
                        };
                        text.extend_from_slice(escaped.encode_utf8(&mut [0; 4]).as_bytes());
                    }
                    Some(byte) if byte >= 0x20 => text.push(byte),
                    _ => return Err(self.error("the closing quote")),
                }
            }
        }

        fn number(&mut self) -> Result<Value, String> {
            let start = self.at;
            while matches!(
                self.bytes.get(self.at),
                Some(b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9')
            ) {
                self.at += 1;
            }
            std::str::from_utf8(&self.bytes[start..self.at])
                .ok()
                .filter(|text| !text.is_empty() && !text.starts_with('+'))
                .and_then(|text| text.parse().ok())
                .map(Value::Number)
                .ok_or_else(|| {
                    self.at = start;
                    self.error("a value")
                })
        }
    }

    #[test]
    fn reads_one_document_and_refuses_two() {
        let value = parse(r#" {"a":[1,-2.5e3,true,null],"b":"x\"A\n"} "#).unwrap();
        assert_eq!(
            value.get("a"),
            Some(&Value::Arr(vec![
                Value::Number(1.0),
                Value::Number(-2500.0),
                Value::Bool(true),
                Value::Null,
            ]))
        );
        assert_eq!(value.get("b"), Some(&Value::Str("x\"A\n".into())));
        assert!(parse("x: FAIL\n{}").is_err());
        assert!(parse("{}\n{}").is_err());
        assert!(parse(r#"{"a":1,}"#).is_err());
    }
}
