//! Corpus tests: every `corpus/*.crn` file parses, round-trips through the
//! canonical pretty-printer, and the CLI's outputs over the corpus match the
//! checked-in goldens under `corpus/expected/`.

use std::path::{Path, PathBuf};
use std::process::Command;

use crn_cli::workspace::Workspace;
use crn_model::analysis::CrnAnalysis;
use crn_model::{
    check_stable_computation, BoxCheck, CrnError, FunctionCrn, StableComputationVerdict,
};
use crn_numeric::NVec;

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("repo root exists")
}

fn corpus_files() -> Vec<PathBuf> {
    let dir = repo_root().join("corpus");
    let mut files: Vec<PathBuf> = std::fs::read_dir(&dir)
        .expect("corpus directory exists")
        .map(|entry| entry.expect("readable corpus entry").path())
        .filter(|path| path.extension().is_some_and(|ext| ext == "crn"))
        .collect();
    files.sort();
    assert!(
        files.len() >= 10,
        "the corpus must keep at least 10 .crn files, found {}",
        files.len()
    );
    files
}

/// Runs the `crn` binary from the repo root; returns (exit code, stdout).
fn run_crn(args: &[&str]) -> (i32, String) {
    let output = Command::new(env!("CARGO_BIN_EXE_crn"))
        .args(args)
        .current_dir(repo_root())
        .output()
        .expect("the crn binary runs");
    (
        output.status.code().expect("exit code"),
        String::from_utf8(output.stdout).expect("utf-8 stdout"),
    )
}

#[test]
fn every_corpus_file_round_trips_bit_identically() {
    for path in corpus_files() {
        let source = std::fs::read_to_string(&path).expect("corpus file reads");
        let doc = crn_lang::parse(&source)
            .unwrap_or_else(|e| panic!("{} does not parse: {e}", path.display()));
        let once = crn_lang::print(&doc);
        let reparsed = crn_lang::parse(&once)
            .unwrap_or_else(|e| panic!("printed {} does not re-parse: {e}", path.display()));
        assert_eq!(
            reparsed,
            doc,
            "{}: printing changed the AST",
            path.display()
        );
        assert_eq!(
            crn_lang::print(&reparsed),
            once,
            "{}: printing is not a fixed point",
            path.display()
        );
    }
}

#[test]
fn every_corpus_file_passes_check() {
    for path in corpus_files() {
        let rel = format!("corpus/{}", path.file_name().unwrap().to_str().unwrap());
        let (code, _) = run_crn(&["check", &rel]);
        assert_eq!(code, 0, "crn check {rel} failed");
    }
}

/// Golden outputs: (corpus stem, subcommand, extra args, expected exit code).
const GOLDENS: &[(&str, &str, &[&str], i32)] = &[
    ("figure1_min", "characterize", &[], 0),
    ("max_impossible", "characterize", &[], 0),
    ("figure7", "characterize", &[], 0),
    ("staircase", "characterize", &[], 0),
    ("mod3", "characterize", &[], 0),
    ("equation2", "characterize", &[], 0),
    ("figure1_max", "verify", &[], 0),
    ("cyclic_identity", "verify", &[], 0),
    // Counts past u64::MAX are errors, never wrapped values: the fixture's
    // claim is the wrapped count, so a wrapping add would pass both.
    ("count_overflow", "verify", &["--bound", "3"], 1),
    ("count_overflow", "sim", &["--input", "3"], 1),
    ("figure1_min", "check", &[], 0),
    ("figure1_double", "sim", &["--trials", "4"], 0),
    // A seeded ensemble pinned to the bit: on this CRN every trial fires
    // the same number of reactions, so `mean_time` is what pins the
    // trajectories.  Each trial's clock sums `1 / total` over its firings,
    // and the mean divides the in-order sum of the trials' clocks: IEEE
    // division and addition alone, rounded the same on every platform, so
    // the value does not depend on the platform's libm.
    (
        "figure1_max",
        "sim",
        &[
            "--input", "200,300", "--trials", "8", "--seed", "7", "--json",
        ],
        0,
    ),
    ("pipeline_two_min", "check", &[], 0),
    ("pipeline_two_min", "compose", &[], 0),
    ("pipeline_adversarial", "compose", &[], 0),
    // `crn lint` goldens: one per corpus document, pinning the full
    // span-rendered warning output (exit 0 — findings never block without
    // --deny-warnings; see lint_deny_warnings_exit_code below).
    ("add", "lint", &[], 0),
    ("coefficient_overflow", "lint", &[], 0),
    ("compound_spec", "lint", &[], 0),
    ("count_overflow", "lint", &[], 0),
    ("cyclic_identity", "lint", &[], 0),
    ("equation2", "lint", &[], 0),
    ("figure1_double", "lint", &[], 0),
    ("figure1_max", "lint", &[], 0),
    ("figure1_min", "lint", &[], 0),
    ("figure7", "lint", &[], 0),
    ("floor_three_halves", "lint", &[], 0),
    ("lint_adversarial", "lint", &[], 0),
    ("max_impossible", "lint", &[], 0),
    ("min_one", "lint", &[], 0),
    ("min_spec", "lint", &[], 0),
    ("mod3", "lint", &[], 0),
    ("pipeline_adversarial", "lint", &[], 0),
    ("pipeline_non_oblivious", "lint", &[], 0),
    ("pipeline_two_min", "lint", &[], 0),
    ("siphon_deadlock", "lint", &[], 0),
    ("staircase", "lint", &[], 0),
    ("t_invariant_cycle", "lint", &[], 0),
    ("truncated_subtraction", "lint", &[], 0),
];

#[test]
fn corpus_golden_outputs_match() {
    for &(stem, command, extra, expected_code) in GOLDENS {
        let rel = format!("corpus/{stem}.crn");
        let mut args = vec![command, rel.as_str()];
        args.extend_from_slice(extra);
        let (code, stdout) = run_crn(&args);
        let golden_path = repo_root().join(format!("corpus/expected/{stem}.{command}.txt"));
        let golden = std::fs::read_to_string(&golden_path)
            .unwrap_or_else(|e| panic!("golden {} missing: {e}", golden_path.display()));
        assert_eq!(code, expected_code, "crn {command} {rel}: wrong exit code");
        assert_eq!(
            stdout,
            golden,
            "crn {command} {rel}: output drifted from {}",
            golden_path.display()
        );
    }
}

#[test]
fn lint_deny_warnings_exit_code() {
    // --deny-warnings promotes findings to exit 1 — the adversarial fixture
    // (which trips every structural code C001–C005, plus the C006 shadow of
    // its dead chain) must fail, clean documents must not.
    let (code, stdout) = run_crn(&["lint", "corpus/lint_adversarial.crn", "--deny-warnings"]);
    assert_eq!(
        code, 1,
        "adversarial doc must fail --deny-warnings\n{stdout}"
    );
    for code_id in ["C001", "C002", "C003", "C004", "C005", "C006"] {
        assert!(stdout.contains(code_id), "missing {code_id}:\n{stdout}");
    }
    // The analysis-v2 fixtures cover the semantic codes C006–C009.
    let (code, stdout) = run_crn(&["lint", "corpus/siphon_deadlock.crn", "--deny-warnings"]);
    assert_eq!(
        code, 1,
        "siphon fixture must fail --deny-warnings\n{stdout}"
    );
    for code_id in ["C006", "C007", "C008"] {
        assert!(stdout.contains(code_id), "missing {code_id}:\n{stdout}");
    }
    let (code, stdout) = run_crn(&["lint", "corpus/t_invariant_cycle.crn", "--deny-warnings"]);
    assert_eq!(code, 1, "cycle fixture must fail --deny-warnings\n{stdout}");
    assert!(stdout.contains("C009"), "missing C009:\n{stdout}");
    let (code, stdout) = run_crn(&["lint", "corpus/add.crn", "--deny-warnings"]);
    assert_eq!(code, 0, "clean doc must pass --deny-warnings\n{stdout}");
    // `crn check --deny-warnings` follows the same contract.
    let (code, _) = run_crn(&["check", "corpus/lint_adversarial.crn", "--deny-warnings"]);
    assert_eq!(code, 1, "check --deny-warnings must fail on the fixture");
    let (code, _) = run_crn(&["check", "corpus/lint_adversarial.crn"]);
    assert_eq!(code, 0, "warnings alone must not fail plain check");
}

#[test]
fn overflowing_coefficients_never_verify_ok() {
    // `coefficient_overflow`'s only conservation law overflows i128; the
    // sweep must not pass it on a wrapped invariant.  `count_overflow`
    // makes more copies of its output than u64 holds at x = 3; neither the
    // sweep nor the spot check may pass it on a wrapped count.  The box
    // engine's outcome on both is compared with sequential full verdicts in
    // `box_engine_matches_sequential_full_verdicts_on_every_corpus_link`.
    for args in [
        &["verify", "corpus/coefficient_overflow.crn", "--bound", "1"][..],
        &["verify", "corpus/count_overflow.crn", "--bound", "3"],
        &[
            "verify",
            "corpus/count_overflow.crn",
            "--bound",
            "3",
            "--spot",
        ],
    ] {
        let (code, stdout) = run_crn(args);
        assert_eq!(code, 1, "{args:?}: {stdout}");
        assert!(!stdout.contains("ok"), "{args:?}: {stdout}");
    }
}

/// The per-point reference of the box engine: a sequential loop of full
/// verdicts over the box in lexicographic order, sharing no code with the
/// sweep driver.
fn sequential_full_verdicts(
    crn: &FunctionCrn,
    f: impl Fn(&NVec) -> u64,
    bound: u64,
    max_configurations: usize,
) -> Result<Option<StableComputationVerdict>, CrnError> {
    for x in NVec::box_iter(crn.dim(), bound) {
        let verdict = check_stable_computation(crn, &x, f(&x), max_configurations)?;
        if !verdict.is_correct() {
            return Ok(Some(verdict));
        }
    }
    Ok(None)
}

#[test]
fn box_engine_matches_sequential_full_verdicts_on_every_corpus_link() {
    // Every `computes` link of the corpus, swept as `crn verify --bound 2`
    // sweeps it: the whole outcome — each field of the first failing
    // verdict, or the error — must equal the sequential loop's.  The links
    // include an uncertified CRN (`cyclic_identity`, decided by full
    // verdicts) and an error path (`coefficient_overflow`).
    const BOUND: u64 = 2;
    const MAX_CONFIGS: usize = 200_000;
    let mut compared = Vec::new();
    for path in corpus_files() {
        let ws = Workspace::load(path.to_str().unwrap()).expect("corpus documents load");
        for (name, lowered) in &ws.crns {
            let Some(computes) = lowered.computes.as_deref() else {
                continue;
            };
            let target = ws.target(computes).expect("corpus links resolve");
            target
                .validate_on_box(BOUND)
                .expect("corpus links evaluate");
            let f = |x: &NVec| target.eval(x);
            let crn = &lowered.crn;
            let (sweep, _) = BoxCheck::new(&CrnAnalysis::of(crn), f, BOUND, MAX_CONFIGS).run();
            let reference = sequential_full_verdicts(crn, f, BOUND, MAX_CONFIGS);
            let stem = path.file_stem().unwrap().to_string_lossy().into_owned();
            assert_eq!(sweep, reference, "{stem}: crn {name} vs {computes}");
            compared.push((stem, reference));
        }
    }
    assert_eq!(compared.len(), 13, "{compared:?}");
    let outcome = |stem: &str| &compared.iter().find(|(s, _)| s == stem).unwrap().1;
    assert!(outcome("coefficient_overflow").is_err());
    assert!(outcome("cyclic_identity").is_ok());
}

#[test]
fn synthesized_figure7_lints_without_truncation() {
    // The Lemma 6.2 construction for Figure 7 (31 species, 28 reactions):
    // its potential cone must enumerate within the Farkas row cap.
    let out = repo_root().join("target/verify-scratch/cli_figure7_synth.crn");
    std::fs::create_dir_all(out.parent().unwrap()).unwrap();
    let out_str = out.to_str().unwrap();
    let (code, _) = run_crn(&["synthesize", "corpus/figure7.crn", "-o", out_str]);
    assert_eq!(code, 0, "synthesize failed");
    let output = Command::new(env!("CARGO_BIN_EXE_crn"))
        .args(["lint", out_str])
        .current_dir(repo_root())
        .output()
        .expect("the crn binary runs");
    assert_eq!(output.status.code(), Some(0));
    for stream in [&output.stdout, &output.stderr] {
        let text = String::from_utf8_lossy(stream);
        assert!(!text.contains("analysis incomplete"), "{text}");
    }
}

#[test]
fn synthesized_constructions_lint_to_their_goldens() {
    // The Lemma 6.2 constructions join many modules, so their structural
    // analysis (siphons, traps, the potential cone) is far larger than the
    // source documents'.  Each is linted from its own directory, so the
    // rendered file name is the bare one the goldens under
    // `corpus/expected/synthesized/` hold.
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("synthesized_lint");
    std::fs::create_dir_all(&dir).unwrap();
    for stem in ["staircase", "min_spec", "figure7", "compound_spec", "mod3"] {
        let file = format!("{stem}.crn");
        let out = dir.join(&file);
        let (code, _) = run_crn(&[
            "synthesize",
            &format!("corpus/{stem}.crn"),
            "-o",
            out.to_str().unwrap(),
        ]);
        assert_eq!(code, 0, "synthesize {stem}");
        for (flags, extension) in [(&[][..], "txt"), (&["--json"][..], "json")] {
            let output = Command::new(env!("CARGO_BIN_EXE_crn"))
                .arg("lint")
                .args(flags)
                .arg(&file)
                .current_dir(&dir)
                .output()
                .expect("the crn binary runs");
            assert_eq!(output.status.code(), Some(0), "lint {flags:?} {stem}");
            let golden_path = repo_root().join(format!(
                "corpus/expected/synthesized/{stem}.lint.{extension}"
            ));
            let golden = std::fs::read_to_string(&golden_path)
                .unwrap_or_else(|e| panic!("golden {} missing: {e}", golden_path.display()));
            assert_eq!(
                String::from_utf8(output.stdout).expect("utf-8 stdout"),
                golden,
                "crn lint {flags:?} of synthesized {stem}: output drifted from {}",
                golden_path.display()
            );
        }
    }
}

#[test]
fn characterized_specs_re_enter_the_pipeline() {
    // The spec a `characterize` run prints is itself a valid document: it
    // parses, lowers, and evaluates to the same values as the source fn.
    let (code, stdout) = run_crn(&["characterize", "corpus/staircase.crn", "--json"]);
    assert_eq!(code, 0);
    assert!(stdout.contains("\"verdict\":\"computable\""), "{stdout}");
    // Extract the spec text from the JSON by slicing between the markers
    // (the emitter escapes newlines as \n).
    let start = stdout.find("\"spec\":\"").expect("spec field") + "\"spec\":\"".len();
    let end = stdout[start..].find("\"}").expect("spec end") + start;
    let spec_text = stdout[start..end].replace("\\n", "\n");
    let doc = crn_lang::parse(&spec_text).expect("emitted spec parses");
    let crn_lang::ast::Item::Spec(item) = &doc.items[0] else {
        panic!("expected a spec item");
    };
    let spec = crn_lang::lower_spec(item).expect("emitted spec lowers");
    for x in 0..10u64 {
        let expected = if x < 3 { 0 } else { 2 * x + x % 2 };
        assert_eq!(
            spec.eval(&crn_numeric::NVec::from(vec![x])).unwrap(),
            expected,
            "staircase spec wrong at {x}"
        );
    }
}

#[test]
fn synthesize_compose_verify_sim_pipeline_from_the_cli() {
    // The composition acceptance pipeline, CLI-only: `crn synthesize` emits a
    // min module (whose composed species are full of dotted names), a
    // `pipeline` item wires that module into a doubler, `crn compose`
    // materializes 2·min(x1,x2), and `crn verify`/`crn sim` confirm it.
    let dir = repo_root().join("target/verify-scratch");
    std::fs::create_dir_all(&dir).unwrap();
    let module = dir.join("cli_compose_module.crn");
    let (code, _) = run_crn(&[
        "synthesize",
        "corpus/min_spec.crn",
        "-o",
        module.to_str().unwrap(),
    ]);
    assert_eq!(code, 0, "synthesize failed");

    let mut pipeline_doc = std::fs::read_to_string(&module).unwrap();
    pipeline_doc.push_str(
        "\nfn two_min(x1, x2) {\n  case x1 <= x2: 2 x1;\n  otherwise: 2 x2;\n}\n\n\
         crn dbl {\n  inputs X;\n  output Y;\n  X -> 2Y;\n}\n\n\
         pipeline two_min {\n  inputs a b;\n  stage m = min2_crn(a, b);\n  \
         stage d = dbl(m);\n  output d;\n  computes two_min;\n}\n",
    );
    let doc_path = dir.join("cli_compose_pipeline.crn");
    std::fs::write(&doc_path, pipeline_doc).unwrap();

    let composed = dir.join("cli_compose_out.crn");
    let (code, _) = run_crn(&[
        "compose",
        doc_path.to_str().unwrap(),
        "-o",
        composed.to_str().unwrap(),
    ]);
    assert_eq!(code, 0, "compose failed");

    // The emitted document is canonical and self-contained.
    let text = std::fs::read_to_string(&composed).unwrap();
    let doc = crn_lang::parse(&text).expect("composed document parses");
    assert_eq!(crn_lang::print(&doc), text, "composed output not canonical");

    let (code, stdout) = run_crn(&["verify", composed.to_str().unwrap(), "--bound", "2"]);
    assert_eq!(code, 0, "verify failed:\n{stdout}");
    let (code, stdout) = run_crn(&[
        "sim",
        composed.to_str().unwrap(),
        "--input",
        "4,7",
        "--trials",
        "6",
        "--json",
    ]);
    assert_eq!(code, 0, "sim failed:\n{stdout}");
    assert!(stdout.contains("\"outputs\":[8]"), "{stdout}");
    assert!(stdout.contains("\"correct\":true"), "{stdout}");
}

#[test]
fn composing_reserved_looking_names_never_panics() {
    // Acceptance criterion: modules whose species are literally named W0,
    // Y_out, L or f0.X1 flow from the parser into composition and the CLI
    // must either succeed (fresh interned wires) or exit 2 — never panic.
    let (code, stdout) = run_crn(&["compose", "corpus/pipeline_adversarial.crn"]);
    assert_eq!(code, 0, "adversarial compose must succeed\n{stdout}");
    let (code, _) = run_crn(&["verify", "corpus/pipeline_adversarial.crn", "--bound", "3"]);
    assert_eq!(code, 0, "adversarial verify must pass");
}

#[test]
fn synthesize_verify_sim_pipeline_from_the_cli() {
    // The acceptance pipeline: `crn synthesize` on a min-style spec emits a
    // document that `crn verify` confirms exhaustively on a box and
    // `crn sim` converges on — no Rust code, only CLI invocations.
    let out = repo_root().join("target/verify-scratch/cli_min_pipeline.crn");
    std::fs::create_dir_all(out.parent().unwrap()).unwrap();
    let out_str = out.to_str().unwrap();
    let (code, _) = run_crn(&["synthesize", "corpus/min_spec.crn", "-o", out_str]);
    assert_eq!(code, 0, "synthesize failed");

    // The emitted document is canonical: it round-trips bit-identically.
    let text = std::fs::read_to_string(&out).unwrap();
    let doc = crn_lang::parse(&text).expect("synthesized document parses");
    assert_eq!(
        crn_lang::print(&doc),
        text,
        "synthesized output not canonical"
    );

    let (code, stdout) = run_crn(&["verify", out_str, "--bound", "3"]);
    assert_eq!(code, 0, "verify failed:\n{stdout}");
    assert!(stdout.contains("ok (exhaustive)"), "{stdout}");

    let (code, stdout) = run_crn(&["sim", out_str, "--input", "6,9", "--trials", "6", "--json"]);
    assert_eq!(code, 0, "sim failed:\n{stdout}");
    // The whole result is pinned, `mean_time` to the bit: every trial fires
    // the same number of reactions, so the clock is what pins the
    // trajectories, and the 16-reaction CRN spans two roulette blocks.  As
    // for the `figure1_max` sim golden, `mean_time` is IEEE division and
    // addition alone, so it is the same on every platform.
    let results = r#""results":[{"item":"min2_crn","input":[6,9],"trials":6,"seed":1,"outputs":[6],"expected":6,"silent_fraction":1,"mean_steps":86,"p95_steps":86,"mean_time":9.331775678779048,"converged":true,"correct":true}]"#;
    assert!(stdout.contains(results), "{stdout}");
}
