//! `crn-perfbench`: the workload benchmark of the `crn` CLI.
//!
//! ```text
//! crn-perfbench --workload <name|all> [--seed N] [--seconds S] [--trace 0|1]
//!               [--size full|smoke]
//! ```
//!
//! Workloads (see `workloads.rs` and README.md): `verify_synth`,
//! `verify_fig1`, `synth_pipeline`, `sim_ensemble`.  Every pass runs in its
//! own child process, one case after another (a closed loop with one
//! client), until the `--seconds` budget would be exceeded.  With
//! `--trace 0` the benchmark reports the end-to-end metrics (medians over
//! the passes); with `--trace 1` it alternates untraced and traced passes
//! and reports the per-layer metrics.  Every case's verdict is checked
//! against a known answer; the last stdout line is one JSON object, and any
//! mismatch makes the exit code 1.
//!
//! Run it from the repository root, which holds `corpus/`; scratch files go
//! under `target/perfbench/`.

mod pass;
mod procfs;
mod report;
mod traced;
mod tracer;
mod workloads;

use std::collections::BTreeMap;
use std::io::Read as _;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use pass::MARK;
use report::{median, result_line, END_TO_END, PER_LAYER};
use workloads::{plan, Size, Workload};

/// Where scratch documents and span files go, relative to the checkout root.
const WORK_DIR: &str = "target/perfbench";
/// A child still running after this long is killed and its cases fail.
const CHILD_TIMEOUT: Duration = Duration::from_secs(150);
/// No run makes more passes than this, however short they are.
const MAX_PASSES: usize = 60;

#[derive(Debug, Clone, Copy)]
enum Mode {
    Untraced,
    Traced,
}

#[derive(Debug)]
struct Options {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: u64,
    trace: bool,
    size: Size,
    /// Set in a child process: which pass to run, and its scratch directory.
    child: Option<(Mode, PathBuf)>,
}

const USAGE: &str = "usage: crn-perfbench --workload <verify_synth|verify_fig1|synth_pipeline|\
sim_ensemble|all> [--seed N=1] [--seconds S=10] [--trace 0|1] [--size full|smoke]";

fn parse_options(args: &[String]) -> Result<Options, String> {
    let mut options = Options {
        workloads: Vec::new(),
        seed: 1,
        seconds: 10,
        trace: false,
        size: Size::Full,
        child: None,
    };
    let mut mode = None;
    let mut scratch = None;
    let mut rest = args.iter();
    while let Some(flag) = rest.next() {
        let value = rest
            .next()
            .ok_or_else(|| format!("`{flag}` needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("`{flag}` needs a whole number, got `{value}`"))
        };
        match flag.as_str() {
            "--workload" if value == "all" => options.workloads = Workload::ALL.to_vec(),
            "--workload" => {
                options.workloads =
                    vec![Workload::parse(value)
                        .ok_or_else(|| format!("unknown workload `{value}`"))?];
            }
            "--seed" => options.seed = number()?,
            "--seconds" => options.seconds = number()?,
            "--trace" => match value.as_str() {
                "0" => options.trace = false,
                "1" => options.trace = true,
                _ => return Err(format!("`--trace` is 0 or 1, got `{value}`")),
            },
            "--size" => {
                options.size =
                    Size::parse(value).ok_or_else(|| format!("unknown size `{value}`"))?;
            }
            "--child" => {
                mode = Some(match value.as_str() {
                    "untraced" => Mode::Untraced,
                    "traced" => Mode::Traced,
                    _ => return Err(format!("unknown pass `{value}`")),
                });
            }
            "--scratch" => scratch = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    if options.workloads.is_empty() {
        return Err("`--workload` is required".into());
    }
    options.child = match (mode, scratch) {
        (Some(mode), Some(scratch)) => Some((mode, scratch)),
        (None, None) => None,
        _ => return Err("`--child` and `--scratch` go together".into()),
    };
    Ok(options)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let options = match parse_options(&args) {
        Ok(options) => options,
        Err(message) => {
            eprintln!("error: {message}\n{USAGE}");
            std::process::exit(2);
        }
    };
    if let Some((mode, scratch)) = &options.child {
        std::process::exit(child_main(&options, *mode, scratch));
    }
    if !Path::new("corpus").is_dir() {
        eprintln!("error: no `corpus/` here; run from the repository root");
        std::process::exit(2);
    }
    let mut attempted = 0;
    let mut failed = 0;
    let mut metrics = Vec::new();
    let several = options.workloads.len() > 1;
    for &workload in &options.workloads {
        let outcome = measure(&options, workload);
        attempted += outcome.attempted;
        failed += outcome.failed;
        for (name, value, unit) in outcome.metrics {
            let name = if several {
                format!("{}.{name}", workload.name())
            } else {
                name
            };
            metrics.push((name, value, unit));
        }
    }
    println!("{}", result_line(attempted, failed, &metrics));
    std::process::exit(i32::from(failed > 0));
}

/// Runs one pass inside a child process.
fn child_main(options: &Options, mode: Mode, scratch: &Path) -> i32 {
    let workload = options.workloads[0];
    let plan = plan(workload, options.size, options.seed, scratch);
    let result = std::fs::create_dir_all(scratch)
        .map_err(|e| format!("cannot create `{}`: {e}", scratch.display()))
        .and_then(|()| match mode {
            Mode::Untraced => pass::run(&plan),
            Mode::Traced => traced::run(&plan, &trace_path(workload)),
        });
    let _ = std::fs::remove_dir_all(scratch);
    match result {
        Ok(()) => 0,
        Err(message) => {
            eprintln!("error: {message}");
            1
        }
    }
}

fn trace_path(workload: Workload) -> String {
    format!("{WORK_DIR}/trace-{}.json", workload.name())
}

/// What one child process reported.
#[derive(Debug, Default)]
struct ChildRun {
    /// Spawn to exit, in seconds.
    elapsed: f64,
    /// One verdict per case of the plan, in order.
    cases: Vec<Result<(), String>>,
    metrics: BTreeMap<String, f64>,
    fingerprints: Vec<String>,
}

fn spawn_child(options: &Options, workload: Workload, mode: Mode, index: usize) -> ChildRun {
    let scratch = PathBuf::from(format!(
        "{WORK_DIR}/{}-{}-{index}",
        workload.name(),
        std::process::id()
    ));
    let cases = plan(workload, options.size, options.seed, &scratch).cases;
    let start = Instant::now();
    let exe = std::env::current_exe().expect("the benchmark knows its own path");
    let mut command = Command::new(exe);
    command
        .args(["--workload", workload.name()])
        .args(["--seed", &options.seed.to_string()])
        .args(["--size", options.size.name()])
        .args([
            "--child",
            match mode {
                Mode::Untraced => "untraced",
                Mode::Traced => "traced",
            },
        ])
        .arg("--scratch")
        .arg(&scratch)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped());
    let (status, stdout, stderr) = run_with_timeout(&mut command)
        .unwrap_or_else(|message| (Err(message), String::new(), String::new()));
    let _ = std::fs::remove_dir_all(&scratch);
    let mut run = ChildRun {
        elapsed: start.elapsed().as_secs_f64(),
        ..ChildRun::default()
    };
    let mut results: Vec<Option<Result<(), String>>> = vec![None; cases.len()];
    // Marker lines split stdout: the text before a `case` marker is that
    // case's CLI output.
    let mut pieces = stdout.split(MARK);
    let mut case_stdout = pieces.next().unwrap_or("");
    for piece in pieces {
        let (line, after) = piece.split_once('\n').unwrap_or((piece, ""));
        let (kind, rest) = line.trim().split_once(' ').unwrap_or((line.trim(), ""));
        let mut fields = rest.splitn(3, ' ');
        let slot = |i: Option<&str>| {
            i.and_then(|i| i.parse::<usize>().ok())
                .filter(|&i| i < cases.len())
        };
        match kind {
            "case" => {
                let (i, exit, panicked) = (slot(fields.next()), fields.next(), fields.next());
                if let (Some(i), Some(exit)) = (i, exit.and_then(|e| e.parse().ok())) {
                    results[i] = Some(if panicked == Some("1") {
                        Err("panicked".into())
                    } else {
                        cases[i].expect.check_cli(exit, case_stdout)
                    });
                }
            }
            "check" => {
                if let Some(i) = slot(fields.next()) {
                    results[i] = Some(match (fields.next(), fields.next()) {
                        (Some("ok"), _) => Ok(()),
                        (_, reason) => Err(reason.unwrap_or("failed").to_owned()),
                    });
                }
            }
            "metric" => {
                if let Some((name, value)) = rest.split_once(' ') {
                    if let Ok(value) = value.parse() {
                        run.metrics.insert(name.to_owned(), value);
                    }
                }
            }
            "fingerprint" => run.fingerprints.push(rest.to_owned()),
            _ => {}
        }
        case_stdout = after;
    }
    let tail: String = stderr.lines().rev().take(3).collect::<Vec<_>>().join(" | ");
    run.cases = results
        .into_iter()
        .map(|result| match (&status, result) {
            (Ok(()), Some(result)) => result,
            (Ok(()), None) => Err(format!("the child gave no result; stderr: {tail}")),
            (Err(why), _) => Err(format!("the child {why}; stderr: {tail}")),
        })
        .collect();
    run
}

/// Runs `command` to completion, killing it after [`CHILD_TIMEOUT`]; returns
/// whether it exited successfully (or why not), its stdout and its stderr.
type ChildOutput = (Result<(), String>, String, String);

fn run_with_timeout(command: &mut Command) -> Result<ChildOutput, String> {
    let mut child = command
        .spawn()
        .map_err(|e| format!("cannot start the child: {e}"))?;
    let mut stdout = child.stdout.take().expect("stdout is piped");
    let mut stderr = child.stderr.take().expect("stderr is piped");
    std::thread::scope(|scope| {
        let out = scope.spawn(move || {
            let mut text = String::new();
            let _ = stdout.read_to_string(&mut text);
            text
        });
        let err = scope.spawn(move || {
            let mut text = String::new();
            let _ = stderr.read_to_string(&mut text);
            text
        });
        let deadline = Instant::now() + CHILD_TIMEOUT;
        let status = loop {
            let why = match child.try_wait() {
                Ok(Some(status)) if status.success() => break Ok(()),
                Ok(Some(status)) => break Err(format!("exited with {status}")),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(10));
                    continue;
                }
                Ok(None) => format!("was killed after {} s", CHILD_TIMEOUT.as_secs()),
                Err(e) => format!("could not be waited for: {e}"),
            };
            let _ = child.kill();
            let _ = child.wait();
            break Err(why);
        };
        let out = out.join().expect("stdout reader does not panic");
        let err = err.join().expect("stderr reader does not panic");
        Ok((status, out, err))
    })
}

struct Outcome {
    attempted: u64,
    failed: u64,
    metrics: Vec<(String, f64, &'static str)>,
}

fn values(runs: &[ChildRun], name: &str) -> Vec<f64> {
    runs.iter()
        .filter_map(|r| r.metrics.get(name).copied())
        .collect()
}

/// Runs passes of `workload` until the budget would be exceeded, then
/// prints the human-readable report and returns the metrics.
fn measure(options: &Options, workload: Workload) -> Outcome {
    let budget = options.seconds as f64;
    let start = Instant::now();
    let mut untraced: Vec<ChildRun> = Vec::new();
    let mut traced: Vec<ChildRun> = Vec::new();
    loop {
        untraced.push(spawn_child(
            options,
            workload,
            Mode::Untraced,
            untraced.len(),
        ));
        if options.trace {
            traced.push(spawn_child(options, workload, Mode::Traced, traced.len()));
        }
        let elapsed: Vec<f64> = untraced.iter().map(|r| r.elapsed).collect();
        let traced_elapsed: Vec<f64> = traced.iter().map(|r| r.elapsed).collect();
        let round = median(&elapsed) + median(&traced_elapsed);
        if start.elapsed().as_secs_f64() + round > budget || untraced.len() >= MAX_PASSES {
            break;
        }
    }

    let plan_cases = plan(workload, options.size, options.seed, Path::new(WORK_DIR)).cases;
    let mut attempted = 0u64;
    let mut failed = 0u64;
    let mut failures = Vec::new();
    for (kind, runs) in [("untraced", &untraced), ("traced", &traced)] {
        for (pass, run) in runs.iter().enumerate() {
            for (case, result) in plan_cases.iter().zip(&run.cases) {
                attempted += 1;
                if let Err(reason) = result {
                    failed += 1;
                    failures.push(format!(
                        "  FAILED {kind} pass {pass} `{}`: {reason}",
                        case.name
                    ));
                }
            }
        }
    }

    println!(
        "{}: size {}; passes: {} untraced{}, each in its own process, one case at a time",
        workload.name(),
        options.size.name(),
        untraced.len(),
        if options.trace {
            format!(", {} traced", traced.len())
        } else {
            String::new()
        }
    );
    println!("  workers: {}", workers_note(workload));
    if workload.seeded() {
        println!(
            "  seed {}: every simulation trial seed derives from it",
            options.seed
        );
    } else {
        println!(
            "  seed {}: ignored; {} is deterministic",
            options.seed,
            workload.name()
        );
    }
    for line in &failures {
        println!("{line}");
    }
    #[allow(clippy::cast_precision_loss)]
    let failed_frac = failed as f64 / attempted.max(1) as f64;
    println!("  failed_frac {failed_frac} frac ({failed} of {attempted} cases)");

    let mut metrics = Vec::new();
    if options.trace {
        for (name, unit) in PER_LAYER {
            let value = match name {
                "obs.overhead_frac" => {
                    let base = median(&values(&untraced, "wall_s"));
                    if base > 0.0 {
                        median(&values(&traced, "obs.traced_wall_s")) / base - 1.0
                    } else {
                        0.0
                    }
                }
                "process.cpu_s" => median(&values(&untraced, name)),
                _ => median(&values(&traced, name)),
            };
            metrics.push((name.to_owned(), value, unit));
        }
        let first = traced.first().map(|r| &r.fingerprints);
        let stable = traced.iter().all(|r| Some(&r.fingerprints) == first);
        for fingerprint in first.into_iter().flatten() {
            println!("  fingerprint {fingerprint}");
        }
        println!(
            "  fingerprints identical across {} traced passes: {stable}",
            traced.len()
        );
        println!("  spans: {}", trace_path(workload));
    } else {
        for (name, unit) in END_TO_END {
            let samples = values(&untraced, name);
            let shown: Vec<String> = samples.iter().map(|v| format!("{v:.6}")).collect();
            println!("  {name} per pass ({unit}): {}", shown.join(" "));
            metrics.push((name.to_owned(), median(&samples), unit));
        }
    }
    for (name, value, unit) in &metrics {
        println!("  {name:<32} {value} {unit}");
    }
    Outcome {
        attempted,
        failed,
        metrics,
    }
}

/// The worker threads each workload's cases may use (the box has `nproc`).
fn workers_note(workload: Workload) -> &'static str {
    match workload {
        Workload::VerifySynth | Workload::VerifyFig1 | Workload::SynthPipeline => {
            "box sweeps use check_on_box's default, min(nproc, points / 8) threads"
        }
        Workload::SimEnsemble => "crn sim --workers 2 (clamped to nproc)",
    }
}
