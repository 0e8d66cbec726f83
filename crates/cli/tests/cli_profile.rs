//! Observability-surface tests: `--profile` must never change a command's
//! stdout or exit code, the profile table must follow any lint warnings on
//! stderr, `--stats` must work under every exhaustive engine, `--json` must
//! embed the versioned `metrics` object exactly when profiling, the route
//! counters must name the route of every decided point, and the counters the
//! determinism contract covers must not depend on the worker count.

use std::path::{Path, PathBuf};
use std::process::Command;

use crn_model::analysis::CrnAnalysis;
use crn_model::{BoxCheck, Crn, FunctionCrn};
use crn_numeric::NVec;

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
    let (code, _, stderr) = run_crn(&["verify", &path, "--bound", "3", "--stats"]);
    assert_eq!(code, 0, "verify --stats failed:\n{stderr}");
    assert!(
        stderr.contains("\"stats\":{\"points\":"),
        "verify --stats printed no stats line:\n{stderr}"
    );
    assert!(
        stderr.contains("\"configs_explored\":"),
        "verify --stats lacks configs_explored:\n{stderr}"
    );
    // There is one box engine: `--engine` is an unknown flag, with or
    // without `--stats`.
    for engine in ["incremental", "reference", "baseline", "pruned", "seed"] {
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
fn one_analysis_serves_lint_and_verify_per_item() {
    // `crn verify` lints every crn item and sweeps the linked ones through
    // one shared analysis, so the potential cone is enumerated once per
    // item; the sweep's set-up shows as its own spans.
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"));
    std::fs::create_dir_all(&dir).unwrap();
    let min2 = dir.join("one_analysis_min2.crn");
    let min2 = min2.to_str().unwrap();
    let (code, _, stderr) = run_crn(&["synthesize", "corpus/min_spec.crn", "-o", min2]);
    assert_eq!(code, 0, "{stderr}");
    let (code, json, _) = run_crn(&["verify", min2, "--bound", "2", "--json", "--profile"]);
    assert_eq!(code, 0, "{json}");
    assert_eq!(json_counter(&json, "model.analysis.species_bounds"), 1);
    for span in ["model.box.analyze", "model.box.plan", "model.analysis.lint"] {
        assert!(
            json.contains(&format!("/{span}\":")),
            "{span} missing:\n{json}"
        );
    }
    // Three crn items (two stages and the composed pipeline), one verified.
    for command in ["verify", "profile"] {
        let (code, json, _) = run_crn(&[
            command,
            "corpus/pipeline_two_min.crn",
            "--bound",
            "2",
            "--json",
            "--profile",
        ]);
        assert_eq!(code, 0, "crn {command}:\n{json}");
        assert_eq!(
            json_counter(&json, "model.analysis.species_bounds"),
            3,
            "crn {command}"
        );
    }
}

/// The calls recorded under every span path ending in `/name` of a one-line
/// JSON report.
fn span_calls(json: &str, name: &str) -> u64 {
    let key = format!("/{name}\":{{\"count\":");
    json.match_indices(&key)
        .map(|(at, _)| {
            json[at + key.len()..]
                .chars()
                .take_while(char::is_ascii_digit)
                .collect::<String>()
                .parse::<u64>()
                .expect("integer span count")
        })
        .sum()
}

#[test]
fn per_crn_set_up_shows_one_span_per_artifact_and_item() {
    // The cone enumeration used to hide inside `model.analysis.lint`; each
    // initializer of the shared analysis now has a span of its own, entered
    // once per crn item.  The sweep's acyclicity certificate reads the
    // T-semiflows that lint already enumerated, so it has no span.
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"));
    std::fs::create_dir_all(&dir).unwrap();
    let fig7 = dir.join("set_up_spans_fig7.crn");
    let fig7 = fig7.to_str().unwrap();
    let (code, _, stderr) = run_crn(&["synthesize", "corpus/figure7.crn", "-o", fig7]);
    assert_eq!(code, 0, "{stderr}");
    let document = std::fs::read_to_string(fig7).unwrap();
    let items = document
        .lines()
        .filter(|line| line.starts_with("crn "))
        .count();
    assert_eq!(items, 1, "{document}");
    let (code, json, _) = run_crn(&["verify", fig7, "--bound", "1", "--json", "--profile"]);
    assert_eq!(code, 0, "{json}");
    for span in ["model.analysis.bounds", "model.analysis.t_semiflows"] {
        assert_eq!(span_calls(&json, span), 1, "{span}:\n{json}");
    }
    // Lint's own enumerations show under its span, once per item.
    for span in [
        "model.analysis.semiflows",
        "model.analysis.siphons",
        "model.analysis.traps",
    ] {
        assert_eq!(span_calls(&json, span), 1, "{span}:\n{json}");
        assert!(
            json.contains(&format!("model.analysis.lint/{span}\":")),
            "{span} outside lint:\n{json}"
        );
    }
}

#[test]
fn route_counters_count_the_points_each_route_decides() {
    // `add` on [0,96]^2 is certified acyclic, so every decided point is a
    // terminal scan.  Nothing conflicts with `X1 -> Y` or `X2 -> Y`, so
    // every scan is one run that stores nothing: the index never grows, and
    // no run branches.
    let (code, json, _) = run_crn(&[
        "verify",
        "corpus/add.crn",
        "--bound",
        "96",
        "--json",
        "--profile",
    ]);
    assert_eq!(code, 0, "{json}");
    assert_eq!(json_counter(&json, "model.box.decided"), 4753);
    assert_eq!(json_counter(&json, "model.route.scan"), 4753);
    assert_eq!(json_counter(&json, "model.arena.grows"), 0, "{json}");
    assert_eq!(json_counter(&json, "model.box.branched"), 0, "{json}");
    assert!(!json.contains("model.route.verdict"), "{json}");
    // The synthesized staircase is certified too, and the cyclic fixture
    // has no acyclicity certificate.
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"));
    std::fs::create_dir_all(&dir).unwrap();
    let staircase = dir.join("route_counters_staircase.crn");
    let staircase = staircase.to_str().unwrap();
    let (code, _, stderr) = run_crn(&["synthesize", "corpus/staircase.crn", "-o", staircase]);
    assert_eq!(code, 0, "{stderr}");
    for (file, route) in [
        (staircase, "model.route.scan"),
        ("corpus/cyclic_identity.crn", "model.route.verdict"),
    ] {
        let (code, json, _) = run_crn(&["verify", file, "--bound", "1", "--json", "--profile"]);
        assert_eq!(code, 0, "{file}:\n{json}");
        let decided = json_counter(&json, "model.box.decided");
        assert!(decided > 0, "{file}:\n{json}");
        assert_eq!(json_counter(&json, route), decided, "{file}:\n{json}");
        assert_eq!(json.matches("\"model.route.").count(), 1, "{file}:\n{json}");
    }
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

    // `crn verify` has no worker flag, so the sweep runs in process: on
    // every route, the route counter and the `model.box.*` counters match
    // at 1, 2 and 4 workers, and a pinned count runs that many `worker`
    // spans, the calling thread's included.  No other test here profiles in
    // process.
    let fanout = format!(
        "X -> {}",
        (1..=31)
            .map(|i| format!("A{i}"))
            .collect::<Vec<_>>()
            .join(" + ")
    );
    // Each sweep names its route and how many of its points branch: the
    // fork `X -> Y; X -> Z; Z -> Y` branches at every start but x = 0.
    type Sweep<'a> = (&'a [&'a str], &'a str, &'a str, &'a str, u64);
    let sweeps: [Sweep; 4] = [
        (&["X1 + X2 -> Y"], "model.route.scan", "X1 X2", "Y", 0),
        (&[&fanout], "model.route.scan", "X", "A1", 0),
        (
            &["X -> Y + A", "A -> B", "B -> A"],
            "model.route.verdict",
            "X",
            "Y",
            0,
        ),
        (
            &["X -> Y", "X -> Z", "Z -> Y"],
            "model.route.scan",
            "X",
            "Y",
            6,
        ),
    ];
    crn_obs::set_enabled(true);
    for (reactions, route, inputs, output, branched) in sweeps {
        let mut crn = Crn::new();
        for reaction in reactions {
            crn.parse_reaction(reaction).unwrap();
        }
        let inputs: Vec<&str> = inputs.split(' ').collect();
        let crn = FunctionCrn::with_named_roles(crn, &inputs, output, None).unwrap();
        let analysis = CrnAnalysis::of(&crn);
        let f = |x: &NVec| x.as_slice().iter().copied().min().unwrap_or(0);
        let mut counts = Vec::new();
        for workers in [1, 2, 4] {
            crn_obs::reset();
            let (outcome, stats) = BoxCheck::new(&analysis, f, 6, 10_000)
                .workers(workers)
                .run();
            assert_eq!(outcome, Ok(None), "{route} at {workers} workers");
            let snapshot = crn_obs::snapshot();
            assert_eq!(
                worker_spans(&snapshot),
                workers as u64,
                "{route} at {workers} workers"
            );
            let sweep: Vec<(String, u64)> = snapshot
                .counters
                .into_iter()
                .filter(|(name, _)| {
                    name.starts_with("model.box.") || name.starts_with("model.route.")
                })
                .collect();
            assert!(
                sweep.contains(&(route.to_owned(), stats.decided)) && stats.decided > 0,
                "{route} at {workers} workers: {sweep:?}"
            );
            assert!(
                sweep.contains(&("model.box.branched".to_owned(), branched))
                    && stats.branched == branched,
                "{route} at {workers} workers: {sweep:?}"
            );
            counts.push(sweep);
        }
        assert_eq!(counts[0], counts[1], "{route}: 1 and 2 workers differ");
        assert_eq!(counts[0], counts[2], "{route}: 1 and 4 workers differ");
    }
    // Under the default count, the calling thread first projects the rest
    // of a sweep after its 16th draw, which is the last of a 16-point box:
    // no helper starts, whatever the pace.
    crn_obs::reset();
    let min = crn_model::examples::min_crn();
    let (outcome, stats) =
        BoxCheck::new(&CrnAnalysis::of(&min), |x: &NVec| x[0].min(x[1]), 3, 10_000).run();
    assert_eq!((outcome, stats.points), (Ok(None), 16));
    let snapshot = crn_obs::snapshot();
    assert_eq!(worker_spans(&snapshot), 1);
    assert!(snapshot
        .gauges
        .contains(&("model.box.workers".to_owned(), 1)));
    crn_obs::set_enabled(false);
}

/// The `worker` spans a profiled in-process sweep recorded.
fn worker_spans(snapshot: &crn_obs::MetricsSnapshot) -> u64 {
    snapshot
        .spans
        .iter()
        .filter(|(path, _)| path.ends_with("/worker"))
        .map(|(_, span)| span.count)
        .sum()
}
