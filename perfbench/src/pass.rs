//! The untraced pass: one child process sets the workload up and runs every
//! case through `crn_cli::run` with the argv a user would type, tracing off.
//!
//! The child shares stdout with the CLI it drives, so it brackets the CLI's
//! output with marker lines (see [`mark`]); the parent splits stdout on them
//! and checks each case's exit code and stdout against its known answer.

use std::io::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use crate::procfs;
use crate::report::median;
use crate::workloads::{Plan, Prep};

/// Starts every line the child writes for the parent.
pub const MARK: &str = "\u{1e}perfbench";

/// Set-up runs this often per child; the child reports the median.
const SETUP_REPEATS: usize = 21;

/// Writes one marker line for the parent.
pub fn mark(kind: &str, rest: &str) {
    println!("{MARK} {kind} {rest}");
}

pub fn metric(name: &str, value: f64) {
    mark("metric", &format!("{name} {value}"));
}

/// Prepares the workload's inputs the way a user would: read the corpus
/// documents and `crn synthesize` the constructions into the scratch dir.
fn prepare(prep: &[Prep]) -> Result<(), String> {
    for step in prep {
        match step {
            Prep::Read(path) => {
                let bytes =
                    std::fs::read(path).map_err(|e| format!("cannot read `{path}`: {e}"))?;
                std::hint::black_box(bytes);
            }
            Prep::Synthesize { from, to } => {
                let argv = ["synthesize", from, "-o", to].map(str::to_owned);
                let code = crn_cli::run(&argv);
                if code != crn_cli::EXIT_OK {
                    return Err(format!("`crn synthesize {from}` exited {code}"));
                }
            }
            Prep::Write { to, text } => {
                std::fs::write(to, text).map_err(|e| format!("cannot write `{to}`: {e}"))?;
            }
        }
    }
    Ok(())
}

/// Runs the untraced pass and reports `setup_s`, `wall_s`, `peak_rss_mb`
/// and `process.cpu_s`.
pub fn run(plan: &Plan) -> Result<(), String> {
    let mut setups = Vec::with_capacity(SETUP_REPEATS);
    for _ in 0..SETUP_REPEATS {
        let start = Instant::now();
        prepare(&plan.prep)?;
        setups.push(start.elapsed().as_secs_f64());
    }
    mark("setup-done", "");
    let cpu_before = procfs::cpu_seconds().unwrap_or(0.0);
    let start = Instant::now();
    for (i, case) in plan.cases.iter().enumerate() {
        let argv = case.command.argv();
        let (exit, panicked) = match catch_unwind(AssertUnwindSafe(|| crn_cli::run(&argv))) {
            Ok(code) => (code, 0),
            Err(_) => (-1, 1),
        };
        mark("case", &format!("{i} {exit} {panicked}"));
    }
    let wall = start.elapsed().as_secs_f64();
    let cpu = procfs::cpu_seconds().unwrap_or(0.0) - cpu_before;
    let peak_kib = procfs::status_kib("VmHWM").ok_or("cannot read VmHWM")?;
    metric("setup_s", median(&setups));
    metric("wall_s", wall);
    #[allow(clippy::cast_precision_loss)]
    metric("peak_rss_mb", peak_kib as f64 / 1024.0);
    metric("process.cpu_s", cpu);
    std::io::stdout().flush().map_err(|e| e.to_string())
}
