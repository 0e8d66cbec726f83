//! Runs every workload at smoke size, traced, twice: every known-answer
//! check must pass and the deterministic fingerprints must be identical.

use std::path::Path;
use std::process::Command;

/// One traced smoke run of `workload`: its fingerprint lines and last line.
fn traced_smoke_run(workload: &str, seed: &str) -> (Vec<String>, String) {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark lives inside the repository");
    let output = Command::new(env!("CARGO_BIN_EXE_crn-perfbench"))
        .current_dir(root)
        .args(["--workload", workload, "--size", "smoke", "--seconds", "1"])
        .args(["--trace", "1", "--seed", seed])
        .output()
        .expect("the benchmark runs");
    let stdout = String::from_utf8(output.stdout).expect("stdout is UTF-8");
    assert!(output.status.success(), "{workload} failed:\n{stdout}");
    let fingerprints = stdout
        .lines()
        .filter_map(|l| l.trim().strip_prefix("fingerprint "))
        .map(str::to_owned)
        .collect();
    let last = stdout.lines().last().unwrap_or_default().to_owned();
    (fingerprints, last)
}

/// The smoke-size `verify_synth` fingerprints: the synthesized staircase on
/// `[0,1]` and min_spec on `[0,2]^2`, both explored on one worker.
const PINNED_VERIFY_SYNTH: [&str; 2] = [
    "{\"case\": \"verify staircase [0,1]\", \"verdict\": \"ok\", \"points\": 2, \
     \"symmetry_skipped\": 0, \"static_pass\": 0, \"static_fail\": 0, \
     \"decided\": 2, \"configs_explored\": 48392}",
    "{\"case\": \"verify min_spec [0,2]\", \"verdict\": \"ok\", \"points\": 9, \
     \"symmetry_skipped\": 0, \"static_pass\": 5, \"static_fail\": 0, \
     \"decided\": 4, \"configs_explored\": 9649}",
];

/// One test, so no two benchmark runs write the same span file at once.
#[test]
fn traced_smoke_runs_are_correct_and_repeat_their_fingerprints() {
    for workload in [
        "verify_synth",
        "verify_fig1",
        "synth_pipeline",
        "sim_ensemble",
    ] {
        let (first, last) = traced_smoke_run(workload, "5");
        assert!(
            last.starts_with("{\"correct\": true,"),
            "{workload}: {last}"
        );
        for metric in ["\"reachability.configs_explored\"", "\"sim.silent_frac\""] {
            assert!(last.contains(metric), "{workload} lacks {metric}");
        }
        assert!(!first.is_empty(), "{workload} printed no fingerprint");
        let (second, _) = traced_smoke_run(workload, "5");
        assert_eq!(first, second, "{workload} fingerprints differ between runs");
        if workload == "verify_synth" {
            assert_eq!(first, PINNED_VERIFY_SYNTH);
        }
    }
}
