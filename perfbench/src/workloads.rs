//! The workload matrix: the documents each workload prepares, the cases it
//! runs in order, and the known answer every case must reproduce.
//!
//! No known answer comes from the engine under test:
//! - Lemma 6.2 constructions are correct by the paper, so every verify case
//!   on a synthesized CRN must pass;
//! - the one known failure (Figure 1's `max` CRN linked to `add2`) is derived
//!   by hand in [`MAX_VS_ADD2`];
//! - simulation outputs are `f(x)` evaluated by hand from the `fn`/`spec`
//!   (see [`sim_cases`]);
//! - characterize verdicts are the checked-in `corpus/expected/*` goldens.

use std::path::Path;

use crn_sim::SeedStream;

/// How large the inputs are: `Full` is the measured size, `Smoke` runs every
/// case and every known-answer check in seconds (the benchmark's own tests).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    Full,
    Smoke,
}

impl Size {
    pub fn parse(text: &str) -> Option<Size> {
        match text {
            "full" => Some(Size::Full),
            "smoke" => Some(Size::Smoke),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Size::Full => "full",
            Size::Smoke => "smoke",
        }
    }
}

/// One named workload of the benchmark.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    VerifySynth,
    VerifyFig1,
    SynthPipeline,
    SimEnsemble,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::VerifySynth,
        Workload::VerifyFig1,
        Workload::SynthPipeline,
        Workload::SimEnsemble,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::VerifySynth => "verify_synth",
            Workload::VerifyFig1 => "verify_fig1",
            Workload::SynthPipeline => "synth_pipeline",
            Workload::SimEnsemble => "sim_ensemble",
        }
    }

    pub fn parse(text: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == text)
    }

    /// Whether the workload's inputs depend on `--seed`.  Verify and
    /// synthesis are deterministic; only the simulation trial seeds vary.
    pub fn seeded(self) -> bool {
        self == Workload::SimEnsemble
    }
}

/// A step that prepares a workload's inputs before its first case.
#[derive(Debug, Clone)]
pub enum Prep {
    /// Read a corpus document.
    Read(String),
    /// `crn synthesize <from> -o <to>`: the document's Lemma 6.2 construction.
    Synthesize { from: String, to: String },
    /// Write a document the benchmark defines itself.
    Write { to: String, text: &'static str },
}

/// One `crn` invocation, typed; [`Command::argv`] is what a user would type.
#[derive(Debug, Clone)]
pub enum Command {
    Characterize {
        doc: String,
    },
    Synthesize {
        doc: String,
        out: String,
    },
    Lint {
        doc: String,
    },
    Verify {
        doc: String,
        bound: u64,
        max_configs: Option<usize>,
    },
    Sim {
        doc: String,
        input: Vec<u64>,
        trials: u32,
        workers: usize,
        seed: u64,
    },
}

/// `crn verify`'s default `--max-configs`.
pub const DEFAULT_MAX_CONFIGS: usize = 200_000;
/// `crn characterize` and `crn synthesize`'s default `--bound`.
pub const CHARACTERIZE_BOUND: u64 = 8;
/// `crn sim`'s default `--max-steps`.
pub const SIM_MAX_STEPS: u64 = 10_000_000;

impl Command {
    /// The arguments after `crn`, exactly as a user would type them.
    pub fn argv(&self) -> Vec<String> {
        match self {
            Command::Characterize { doc } => vec!["characterize".into(), doc.clone()],
            Command::Synthesize { doc, out } => {
                vec!["synthesize".into(), doc.clone(), "-o".into(), out.clone()]
            }
            Command::Lint { doc } => vec!["lint".into(), doc.clone()],
            Command::Verify {
                doc,
                bound,
                max_configs,
            } => {
                let mut argv = vec![
                    "verify".into(),
                    doc.clone(),
                    "--bound".into(),
                    bound.to_string(),
                ];
                if let Some(max) = max_configs {
                    argv.extend(["--max-configs".into(), max.to_string()]);
                }
                argv
            }
            Command::Sim {
                doc,
                input,
                trials,
                workers,
                seed,
            } => vec![
                "sim".into(),
                doc.clone(),
                "--input".into(),
                input
                    .iter()
                    .map(u64::to_string)
                    .collect::<Vec<_>>()
                    .join(","),
                "--trials".into(),
                trials.to_string(),
                "--workers".into(),
                workers.to_string(),
                "--seed".into(),
                seed.to_string(),
            ],
        }
    }
}

/// The known answer a case must reproduce.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Expect {
    /// Exit 0 and stdout byte-identical to the checked-in golden file.
    Golden(String),
    /// Exit 0; there is no verdict to compare (synthesize, lint).
    Success,
    /// Exit 0 with an exhaustive `ok` verdict.
    Passes,
    /// Exit 1 with the lexicographically first failure at `input`, where the
    /// linked function expects `expected`.
    FailsAt { input: Vec<u64>, expected: u64 },
    /// Exit 0; every trial falls silent with exactly this output.
    Output(u64),
}

/// Renders a point the way `crn` prints inputs: `(1, 1)`.
pub fn point_text(x: &[u64]) -> String {
    let parts: Vec<String> = x.iter().map(u64::to_string).collect();
    format!("({})", parts.join(", "))
}

impl Expect {
    /// Checks one CLI invocation's exit code and stdout against the answer.
    pub fn check_cli(&self, exit: i32, stdout: &str) -> Result<(), String> {
        if stdout.contains("gave up") {
            return Err("gave up on a limit".into());
        }
        let want_exit = if matches!(self, Expect::FailsAt { .. }) {
            1
        } else {
            0
        };
        if exit != want_exit {
            return Err(format!("exit code {exit}, expected {want_exit}"));
        }
        let found = match self {
            Expect::Golden(path) => {
                let golden = std::fs::read_to_string(path)
                    .map_err(|e| format!("cannot read golden `{path}`: {e}"))?;
                stdout == golden
            }
            Expect::Success => true,
            Expect::Passes => stdout.contains(": ok (exhaustive)") && !stdout.contains("FAIL"),
            Expect::FailsAt { input, expected } => {
                stdout.contains(&format!("input {} expects {expected}:", point_text(input)))
            }
            Expect::Output(value) => {
                stdout.contains(&format!("outputs {{{value}}}, silent 100%"))
                    && stdout.contains(&format!("expected {value}: ok"))
            }
        };
        if found {
            Ok(())
        } else {
            Err(format!(
                "stdout does not match {self:?}: {}",
                stdout.trim().lines().last().unwrap_or("")
            ))
        }
    }
}

/// One case of a workload.
#[derive(Debug, Clone)]
pub struct Case {
    pub name: String,
    pub command: Command,
    pub expect: Expect,
}

/// A workload's inputs and cases at one size, seed and scratch directory.
#[derive(Debug, Clone)]
pub struct Plan {
    pub prep: Vec<Prep>,
    pub cases: Vec<Case>,
}

/// Figure 1's `max` CRN linked to `add2 = x1 + x2`.  `max` and `add2` agree
/// whenever an input is 0, and the box is scanned lexicographically, so the
/// first failing input is `(1, 1)`: `max` stabilizes at 1 but `add2` expects 2.
pub const MAX_VS_ADD2: &str = "\
# Figure 1's max CRN linked to x1 + x2: a known FAIL, first at (1, 1).
fn add2(x1, x2) {
  case x1 >= 0: x1 + x2;
}

crn max {
  inputs X1 X2;
  output Y;
  computes add2;
  X1 -> Z1 + Y;
  X2 -> Z2 + Y;
  Z1 + Z2 -> K;
  K + Y -> 0;
}
";

fn corpus(stem: &str) -> String {
    format!("corpus/{stem}.crn")
}

fn scratch_doc(scratch: &Path, stem: &str) -> String {
    scratch.join(format!("{stem}.crn")).display().to_string()
}

fn verify(doc: String, bound: u64, max_configs: Option<usize>, expect: Expect) -> Case {
    let stem = Path::new(&doc)
        .file_stem()
        .map_or_else(String::new, |s| s.to_string_lossy().into_owned());
    Case {
        name: format!("verify {stem} [0,{bound}]"),
        command: Command::Verify {
            doc,
            bound,
            max_configs,
        },
        expect,
    }
}

/// The cases of `workload` at `size`.  Every path in the plan is relative to
/// the checkout root or inside `scratch`.
pub fn plan(workload: Workload, size: Size, seed: u64, scratch: &Path) -> Plan {
    let full = size == Size::Full;
    let big = Some(20_000_000);
    match workload {
        Workload::VerifySynth => {
            let (staircase, min_spec) = if full { (2, 5) } else { (1, 2) };
            Plan {
                prep: synthesized(&["staircase", "min_spec"], scratch),
                cases: vec![
                    verify(
                        scratch_doc(scratch, "staircase"),
                        staircase,
                        big,
                        Expect::Passes,
                    ),
                    verify(
                        scratch_doc(scratch, "min_spec"),
                        min_spec,
                        big,
                        Expect::Passes,
                    ),
                ],
            }
        }
        Workload::VerifyFig1 => {
            let bounds = if full { [40, 96, 64, 40] } else { [4, 6, 8, 4] };
            let fail_doc = scratch_doc(scratch, "max_vs_add2");
            Plan {
                prep: vec![
                    Prep::Read(corpus("figure1_max")),
                    Prep::Read(corpus("add")),
                    Prep::Read(corpus("figure1_min")),
                    Prep::Write {
                        to: fail_doc.clone(),
                        text: MAX_VS_ADD2,
                    },
                ],
                cases: vec![
                    verify(corpus("figure1_max"), bounds[0], big, Expect::Passes),
                    verify(corpus("add"), bounds[1], None, Expect::Passes),
                    verify(corpus("figure1_min"), bounds[2], None, Expect::Passes),
                    verify(
                        fail_doc,
                        bounds[3],
                        None,
                        Expect::FailsAt {
                            input: vec![1, 1],
                            expected: 2,
                        },
                    ),
                ],
            }
        }
        Workload::SynthPipeline => synth_pipeline(full, scratch),
        Workload::SimEnsemble => Plan {
            prep: {
                let mut prep = synthesized(&["staircase", "min_spec"], scratch);
                prep.push(Prep::Read(corpus("figure1_max")));
                prep
            },
            cases: sim_cases(full, seed, scratch),
        },
    }
}

fn synthesized(stems: &[&str], scratch: &Path) -> Vec<Prep> {
    stems
        .iter()
        .map(|stem| Prep::Synthesize {
            from: corpus(stem),
            to: scratch_doc(scratch, stem),
        })
        .collect()
}

fn characterize(stem: &str) -> Case {
    Case {
        name: format!("characterize {stem}"),
        command: Command::Characterize { doc: corpus(stem) },
        expect: Expect::Golden(format!("corpus/expected/{stem}.characterize.txt")),
    }
}

/// characterize (where the document has a `fn`), synthesize, lint the output
/// and verify it at bound 1 — bound 0 for `compound_spec`, whose bound-1 box
/// takes minutes — then characterize the two impossible functions.
fn synth_pipeline(full: bool, scratch: &Path) -> Plan {
    let constructions: [(&str, bool, u64); 5] = [
        ("figure7", true, 1),
        ("staircase", true, 1),
        ("min_spec", false, 1),
        ("compound_spec", false, 0),
        ("mod3", true, 1),
    ];
    let mut cases = Vec::new();
    let mut prep = Vec::new();
    for (stem, has_fn, bound) in constructions {
        prep.push(Prep::Read(corpus(stem)));
        if has_fn {
            cases.push(characterize(stem));
        }
        let out = scratch_doc(scratch, stem);
        cases.push(Case {
            name: format!("synthesize {stem}"),
            command: Command::Synthesize {
                doc: corpus(stem),
                out: out.clone(),
            },
            expect: Expect::Success,
        });
        cases.push(Case {
            name: format!("lint {stem}"),
            command: Command::Lint { doc: out.clone() },
            expect: Expect::Success,
        });
        cases.push(verify(
            out,
            if full { bound } else { 0 },
            None,
            Expect::Passes,
        ));
    }
    for stem in ["max_impossible", "equation2"] {
        prep.push(Prep::Read(corpus(stem)));
        cases.push(characterize(stem));
    }
    Plan { prep, cases }
}

/// The ensemble cases.  Expected outputs are `f(x)` by hand:
/// `staircase(x) = 2x` for even `x >= 3`, `min2` and `max2` as named.
fn sim_cases(full: bool, seed: u64, scratch: &Path) -> Vec<Case> {
    let (scale, trials) = if full { (100, 64) } else { (1, 4) };
    let (x, a, b) = (100 * scale, 200 * scale, 300 * scale);
    let seeds = SeedStream::new(seed);
    let case = |i: u64, label: &str, doc: String, input: Vec<u64>, want: u64| Case {
        name: format!("sim {label} {}", point_text(&input)),
        command: Command::Sim {
            doc,
            input,
            trials,
            workers: 2,
            seed: seeds.seed(i),
        },
        expect: Expect::Output(want),
    };
    vec![
        case(
            0,
            "staircase",
            scratch_doc(scratch, "staircase"),
            vec![x],
            2 * x,
        ),
        case(
            1,
            "min_spec",
            scratch_doc(scratch, "min_spec"),
            vec![a, b],
            a.min(b),
        ),
        case(
            2,
            "figure1_max",
            corpus("figure1_max"),
            vec![a, b],
            a.max(b),
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn argv_is_what_a_user_types() {
        let command = Command::Verify {
            doc: "corpus/add.crn".into(),
            bound: 96,
            max_configs: None,
        };
        assert_eq!(
            command.argv(),
            ["verify", "corpus/add.crn", "--bound", "96"]
        );
        let command = Command::Sim {
            doc: "x.crn".into(),
            input: vec![3, 5],
            trials: 4,
            workers: 2,
            seed: 9,
        };
        assert_eq!(
            command.argv().join(" "),
            "sim x.crn --input 3,5 --trials 4 --workers 2 --seed 9"
        );
    }

    #[test]
    fn known_answers_reject_wrong_verdicts() {
        let fail = Expect::FailsAt {
            input: vec![1, 1],
            expected: 2,
        };
        let line = "d: crn max vs add2 on [0, 4]^2: FAIL\n  input (1, 1) expects 2: x\n";
        assert!(fail.check_cli(1, line).is_ok());
        assert!(fail.check_cli(0, line).is_err());
        let moved = line.replace("(1, 1)", "(1, 2)");
        assert!(fail.check_cli(1, &moved).is_err());
        let ok = "d: crn a vs f on [0, 2]^1: ok (exhaustive)\n";
        assert!(Expect::Passes.check_cli(0, ok).is_ok());
        assert!(Expect::Passes.check_cli(1, ok).is_err());
        let gave_up = "d: FAIL\n  exhaustive search gave up: limit\n";
        assert!(Expect::Passes.check_cli(0, gave_up).is_err());
        let sim = "d: crn m on (2, 3): outputs {2}, silent 100%, mean steps 2.0, expected 2: ok\n";
        assert!(Expect::Output(2).check_cli(0, sim).is_ok());
        assert!(Expect::Output(3).check_cli(0, sim).is_err());
    }

    #[test]
    fn only_the_ensemble_depends_on_the_seed() {
        let scratch = Path::new("scratch");
        for workload in Workload::ALL {
            let argv = |seed| -> Vec<Vec<String>> {
                plan(workload, Size::Smoke, seed, scratch)
                    .cases
                    .iter()
                    .map(|c| c.command.argv())
                    .collect()
            };
            assert_eq!(argv(1) != argv(2), workload.seeded(), "{workload:?}");
        }
    }
}
