//! The traced pass: the same cases as the untraced pass, made by calling each
//! layer's public functions in the order the CLI command calls them, with a
//! benchmark-side span around every call and `crn-obs` enabled.
//!
//! Engine counters come from `crn_obs::snapshot()` only (never from
//! `BoxCheckStats`), and the reachability layer is reached only through
//! `check_on_box`.  After the pass, probes time the analysis functions that
//! `lint_full` and the box analysis share (`SpeciesBounds::of`, semiflows,
//! siphons) once per analysed CRN; they are outside the pass's wall time.
//!
//! Each case also yields a fingerprint of deterministic counters: species
//! and reaction counts of synthesized CRNs, verdicts, box point classes,
//! configurations explored and Gillespie steps at the given seed.  Sweep
//! counters enter it only where they are interleaving-free: a one-worker
//! sweep, or a passing sweep that never consulted the cross-point memo.

use std::fs;
use std::time::Instant;

use crn_cli::workspace::Target;
use crn_core::{characterize, Characterization};
use crn_lang::ast::{Document, Item};
use crn_lang::lower::{lower_document, LoweredDocument};
use crn_lang::{crn_to_item, spec_to_item};
use crn_model::analysis::{
    lint_full, minimal_siphons, minimal_traps, nonnegative_laws_capped, nonnegative_t_semiflows,
    SpeciesBounds, Stoichiometry, FARKAS_ROW_CAP, SIPHON_NODE_CAP,
};
use crn_model::{check_on_box, CompiledCrn};
use crn_numeric::NVec;
use crn_obs::MetricsSnapshot;
use crn_sim::Ensemble;

use crate::pass::{mark, metric};
use crate::procfs;
use crate::report::json_string;
use crate::tracer::Tracer;
use crate::workloads::{
    point_text, Command, Expect, Plan, Prep, CHARACTERIZE_BOUND, DEFAULT_MAX_CONFIGS, SIM_MAX_STEPS,
};

/// Counts accumulated over the pass (set-up included).
#[derive(Debug, Default)]
struct Totals {
    bytes_parsed: u64,
    species: u64,
    reactions: u64,
    truncations: u64,
    points: u64,
    static_decided: u64,
    symmetry_skipped: u64,
    cache_served: u64,
    configs_explored: u64,
    memo_lookups: u64,
    memo_hits: u64,
    arena_collisions: u64,
    arena_grows: u64,
    /// `(VmHWM after − VmRSS before, configs explored)` of the sweep that
    /// raised the peak resident set the most.
    peak_sweep: Option<(u64, u64)>,
    sim_steps: u64,
    sim_refreshes: u64,
    trials: u64,
    silent_trials: u64,
    worker_nanos: u64,
    worker_capacity_nanos: u64,
}

/// One case's deterministic counters, rendered as JSON fields.
#[derive(Debug)]
struct Fingerprint(Vec<(&'static str, String)>);

impl Fingerprint {
    fn num(&mut self, key: &'static str, value: impl ToString) {
        self.0.push((key, value.to_string()));
    }

    fn text(&mut self, key: &'static str, value: &str) {
        self.0.push((key, json_string(value)));
    }

    fn to_json(&self, case: &str) -> String {
        let mut fields = vec![format!("\"case\": {}", json_string(case))];
        fields.extend(self.0.iter().map(|(k, v)| format!("\"{k}\": {v}")));
        format!("{{{}}}", fields.join(", "))
    }
}

fn counter(snapshot: &MetricsSnapshot, name: &str) -> u64 {
    snapshot
        .counters
        .iter()
        .find(|(n, _)| n == name)
        .map_or(0, |(_, v)| *v)
}

fn gauge(snapshot: &MetricsSnapshot, name: &str) -> u64 {
    snapshot
        .gauges
        .iter()
        .find(|(n, _)| n == name)
        .map_or(0, |(_, v)| *v)
}

fn span_nanos(snapshot: &MetricsSnapshot, suffix: &str) -> u64 {
    snapshot
        .spans
        .iter()
        .filter(|(path, _)| path.ends_with(suffix))
        .map(|(_, s)| s.total_nanos)
        .sum()
}

fn kib(field: &str) -> u64 {
    procfs::status_kib(field).unwrap_or(0)
}

struct Traced {
    tracer: Tracer,
    totals: Totals,
    /// Documents whose CRNs the pass analysed (lint, verify, sim), in order.
    analysed: Vec<String>,
}

impl Traced {
    /// Reads, parses and lowers a document, as `Workspace::load` does.
    fn load(&mut self, path: &str) -> Result<LoweredDocument, String> {
        let source = self
            .tracer
            .span("bench.read", |_| fs::read_to_string(path))
            .map_err(|e| format!("cannot read `{path}`: {e}"))?;
        self.totals.bytes_parsed += source.len() as u64;
        let doc = self
            .tracer
            .span("lang.parse", |_| crn_lang::parse(&source))
            .map_err(|d| d.render(&source, path))?;
        self.tracer
            .span("lang.lower", |_| lower_document(&doc))
            .map_err(|d| d.render(&source, path))
    }

    /// Lints every crn item, as `crn verify`, `crn sim` and `crn lint` do;
    /// returns the number of findings.
    fn lint_all(&mut self, doc: &LoweredDocument, path: &str) -> usize {
        if !self.analysed.iter().any(|p| p == path) {
            self.analysed.push(path.to_owned());
        }
        let mut findings = 0;
        for (_, lowered) in &doc.crns {
            let outcome = self
                .tracer
                .span("analysis.lint", |_| lint_full(&lowered.crn));
            self.totals.truncations += outcome.notes.len() as u64;
            findings += outcome.findings.len();
        }
        findings
    }

    /// `crn synthesize <from> -o <to>`: returns (species, reactions).
    fn synthesize(&mut self, from: &str, to: &str) -> Result<(usize, usize), String> {
        let doc = self.load(from)?;
        let (name, spec) = match (doc.specs.as_slice(), doc.fns.as_slice()) {
            ([(name, spec)], _) => (name.clone(), spec.clone()),
            ([], [(name, f)]) => {
                let verdict = self
                    .tracer
                    .span("core.characterize", |_| characterize(f, CHARACTERIZE_BOUND));
                match verdict {
                    Ok(Characterization::ObliviouslyComputable { spec }) => (name.clone(), spec),
                    _ => return Err(format!("fn `{name}` is not obliviously computable")),
                }
            }
            _ => return Err(format!("`{from}` has no single spec or fn item")),
        };
        let crn = self
            .tracer
            .span("core.synthesize", |_| crn_core::synthesize(&spec))
            .map_err(|e| format!("the Lemma 6.2 construction failed: {e}"))?;
        let (species, reactions) = (crn.species_count(), crn.reaction_count());
        self.totals.species += species as u64;
        self.totals.reactions += reactions as u64;
        let spec_name = format!("{name}_spec");
        let crn_name = format!("{name}_crn");
        let document = Document {
            items: vec![
                Item::Spec(spec_to_item(&spec_name, &spec)),
                Item::Crn(crn_to_item(&crn_name, &crn, Some(&spec_name), None)),
            ],
        };
        let text = self
            .tracer
            .span("lang.print", |_| crn_lang::print(&document));
        self.tracer
            .span("bench.write", |_| fs::write(to, text))
            .map_err(|e| format!("cannot write `{to}`: {e}"))?;
        Ok((species, reactions))
    }

    fn prepare(&mut self, prep: &[Prep]) -> Result<(), String> {
        for step in prep {
            match step {
                Prep::Read(path) => {
                    let bytes = self
                        .tracer
                        .span("bench.read", |_| fs::read(path))
                        .map_err(|e| format!("cannot read `{path}`: {e}"))?;
                    std::hint::black_box(bytes);
                }
                Prep::Synthesize { from, to } => {
                    self.synthesize(from, to)?;
                }
                Prep::Write { to, text } => self
                    .tracer
                    .span("bench.write", |_| fs::write(to, text))
                    .map_err(|e| format!("cannot write `{to}`: {e}"))?,
            }
        }
        Ok(())
    }

    fn run_case(
        &mut self,
        command: &Command,
        expect: &Expect,
        fp: &mut Fingerprint,
    ) -> Result<(), String> {
        match command {
            Command::Characterize { doc: path } => {
                let doc = self.load(path)?;
                let mut verdicts = Vec::new();
                for (_, f) in &doc.fns {
                    let verdict = self
                        .tracer
                        .span("core.characterize", |_| characterize(f, CHARACTERIZE_BOUND));
                    verdicts.push(match verdict {
                        Ok(Characterization::ObliviouslyComputable { .. }) => {
                            "obliviously computable"
                        }
                        Ok(Characterization::NotObliviouslyComputable { .. }) => {
                            "not obliviously computable"
                        }
                        _ => "inconclusive",
                    });
                }
                fp.text("verdicts", &verdicts.join("; "));
                let Expect::Golden(golden) = expect else {
                    return Ok(());
                };
                let golden = fs::read_to_string(golden)
                    .map_err(|e| format!("cannot read golden `{golden}`: {e}"))?;
                let want: Vec<&str> = golden
                    .lines()
                    .filter_map(|l| l.strip_prefix("  verdict: "))
                    .collect();
                if verdicts == want {
                    Ok(())
                } else {
                    Err(format!("verdicts {verdicts:?}, golden says {want:?}"))
                }
            }
            Command::Synthesize { doc, out } => {
                let (species, reactions) = self.synthesize(doc, out)?;
                fp.num("species", species);
                fp.num("reactions", reactions);
                Ok(())
            }
            Command::Lint { doc: path } => {
                let doc = self.load(path)?;
                let findings = self.lint_all(&doc, path);
                fp.num("findings", findings);
                Ok(())
            }
            Command::Verify {
                doc: path,
                bound,
                max_configs,
            } => self.verify(
                path,
                *bound,
                max_configs.unwrap_or(DEFAULT_MAX_CONFIGS),
                expect,
                fp,
            ),
            Command::Sim {
                doc: path,
                input,
                trials,
                workers,
                seed,
            } => {
                let doc = self.load(path)?;
                self.lint_all(&doc, path);
                let [(name, lowered)] = doc.crns.as_slice() else {
                    return Err(format!("`{path}` does not hold exactly one crn item"));
                };
                let x = NVec::from(input.clone());
                if let Some(computes) = &lowered.computes {
                    target(&doc, computes)?.try_eval(&x)?;
                }
                crn_obs::reset();
                let summary = self
                    .tracer
                    .span("sim.ensemble", |_| {
                        Ensemble::new(&lowered.crn)
                            .with_max_steps(SIM_MAX_STEPS)
                            .with_workers(*workers)
                            .run(&x, *trials, *seed)
                    })
                    .map_err(|e| format!("simulation of crn `{name}` failed: {e}"))?;
                let snapshot = crn_obs::snapshot();
                let steps = counter(&snapshot, "sim.steps");
                let t = &mut self.totals;
                t.sim_steps += steps;
                t.sim_refreshes += counter(&snapshot, "sim.propensity_refreshes");
                t.trials += u64::from(*trials);
                #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
                let silent = (summary.silent_fraction * f64::from(*trials)).round() as u64;
                t.silent_trials += silent;
                let ensemble = span_nanos(&snapshot, "sim.ensemble");
                let sim_workers = gauge(&snapshot, "sim.workers").max(1);
                // One worker runs inline, with no worker span: busy throughout.
                t.worker_nanos += if sim_workers == 1 {
                    ensemble
                } else {
                    span_nanos(&snapshot, "sim.ensemble/worker")
                };
                t.worker_capacity_nanos += sim_workers * ensemble;
                fp.num("steps", steps);
                fp.text("outputs", &point_text(&summary.outputs));
                match expect {
                    Expect::Output(want)
                        if summary.outputs == [*want] && summary.silent_fraction == 1.0 =>
                    {
                        Ok(())
                    }
                    _ => Err(format!(
                        "outputs {:?}, silent {}, expected {expect:?}",
                        summary.outputs, summary.silent_fraction
                    )),
                }
            }
        }
    }

    /// `crn verify <path> --bound <bound> --max-configs <max>`.
    fn verify(
        &mut self,
        path: &str,
        bound: u64,
        max: usize,
        expect: &Expect,
        fp: &mut Fingerprint,
    ) -> Result<(), String> {
        let doc = self.load(path)?;
        self.lint_all(&doc, path);
        let (mut outcomes, mut verdicts) = (Vec::new(), Vec::new());
        for (name, lowered) in &doc.crns {
            let Some(computes) = &lowered.computes else {
                continue;
            };
            let target = target(&doc, computes)?;
            target
                .validate_on_box(bound)
                .map_err(|e| format!("crn `{name}`: `{computes}` {e}"))?;
            let (rss_before, peak_before) = (kib("VmRSS"), kib("VmHWM"));
            crn_obs::reset();
            let outcome = self.tracer.span("reachability.sweep", |_| {
                check_on_box(&lowered.crn, |x| target.eval(x), bound, max)
            });
            let snapshot = crn_obs::snapshot();
            let peak_after = kib("VmHWM");
            let c = |name: &str| counter(&snapshot, name);
            let configs = c("model.box.configs_explored");
            let t = &mut self.totals;
            t.points += c("model.box.points");
            t.static_decided += c("model.box.static_pass") + c("model.box.static_fail");
            t.symmetry_skipped += c("model.box.symmetry_skipped");
            t.cache_served += c("model.box.cache_served");
            t.configs_explored += configs;
            t.memo_lookups += c("model.memo.lookups");
            t.memo_hits += c("model.memo.hits");
            t.arena_collisions += c("model.arena.collisions");
            t.arena_grows += c("model.arena.grows");
            if peak_after > peak_before {
                let raised = peak_after.saturating_sub(rss_before) * 1024;
                if t.peak_sweep.map_or(true, |(best, _)| raised > best) {
                    t.peak_sweep = Some((raised, configs));
                }
            }
            let verdict = match &outcome {
                Ok(None) => "ok".to_owned(),
                Ok(Some(v)) => format!("fail at {} expecting {}", v.input, v.expected_output),
                Err(e) => format!("gave up: {e}"),
            };
            fp.text("verdict", &verdict);
            fp.num("points", c("model.box.points"));
            fp.num("symmetry_skipped", c("model.box.symmetry_skipped"));
            let one_worker = gauge(&snapshot, "model.box.workers") <= 1;
            if one_worker || (verdict == "ok" && c("model.memo.lookups") == 0) {
                fp.num("static_pass", c("model.box.static_pass"));
                fp.num("static_fail", c("model.box.static_fail"));
                fp.num("decided", c("model.box.decided"));
                fp.num("configs_explored", configs);
            }
            outcomes.push(outcome);
            verdicts.push(verdict);
        }
        match (expect, outcomes.as_slice()) {
            (Expect::Passes, [_, ..]) if outcomes.iter().all(|v| matches!(v, Ok(None))) => Ok(()),
            (Expect::FailsAt { input, expected }, [Ok(Some(v))])
                if v.input.as_slice() == input.as_slice() && v.expected_output == *expected =>
            {
                Ok(())
            }
            _ => Err(format!("verdicts {verdicts:?} do not match {expect:?}")),
        }
    }

    /// Times the analyses `lint_full` and the box analysis share, once per
    /// crn item of every analysed document, under a `bench.probe` root.
    fn probe(&mut self) -> Result<(), String> {
        let paths = self.analysed.clone();
        self.tracer.span("bench.probe", |tracer| {
            for path in &paths {
                let source =
                    fs::read_to_string(path).map_err(|e| format!("cannot read `{path}`: {e}"))?;
                let doc = crn_lang::parse(&source).map_err(|d| d.render(&source, path))?;
                let doc = lower_document(&doc).map_err(|d| d.render(&source, path))?;
                for (_, lowered) in &doc.crns {
                    let compiled = CompiledCrn::compile(lowered.crn.crn());
                    let stoich = Stoichiometry::of(&compiled);
                    std::hint::black_box(
                        tracer.span("analysis.bounds", |_| SpeciesBounds::of(&compiled)),
                    );
                    std::hint::black_box(tracer.span("analysis.semiflows", |_| {
                        nonnegative_laws_capped(&stoich, FARKAS_ROW_CAP)
                    }));
                    std::hint::black_box(tracer.span("analysis.t_semiflows", |_| {
                        nonnegative_t_semiflows(&stoich, FARKAS_ROW_CAP)
                    }));
                    std::hint::black_box(tracer.span("analysis.siphons", |_| {
                        (
                            minimal_siphons(&compiled, SIPHON_NODE_CAP),
                            minimal_traps(&compiled, SIPHON_NODE_CAP),
                        )
                    }));
                }
            }
            Ok(())
        })
    }
}

/// The `fn` or `spec` item named `name`, as `Workspace::target` resolves it.
fn target<'a>(doc: &'a LoweredDocument, name: &str) -> Result<Target<'a>, String> {
    if let Some((_, f)) = doc.fns.iter().find(|(n, _)| n == name) {
        return Ok(Target::SemilinearFn(f));
    }
    doc.specs
        .iter()
        .find(|(n, _)| n == name)
        .map(|(_, s)| Target::Spec(s))
        .ok_or_else(|| format!("no fn or spec item named `{name}`"))
}

fn ratio(numerator: f64, denominator: f64) -> f64 {
    if denominator > 0.0 {
        numerator / denominator
    } else {
        0.0
    }
}

/// Runs set-up, the traced pass and the probes; reports every per-layer
/// metric the child can measure, one `check` line per case and one
/// fingerprint per case, and writes the spans to `trace_path`.
pub fn run(plan: &Plan, trace_path: &str) -> Result<(), String> {
    crn_obs::reset();
    crn_obs::set_enabled(true);
    let mut traced = Traced {
        tracer: Tracer::new(),
        totals: Totals::default(),
        analysed: Vec::new(),
    };
    // Root spans stay open across the `Traced` calls below, whose layer
    // spans nest under them through the tracer's open-span stack.
    let setup = traced.tracer.open("bench.setup");
    let prepared = traced.prepare(&plan.prep);
    traced.tracer.close(setup);
    prepared?;
    let start = Instant::now();
    let mut fingerprints = Vec::new();
    for (i, case) in plan.cases.iter().enumerate() {
        let mut fp = Fingerprint(Vec::new());
        let root = traced.tracer.open(format!("bench.case {}", case.name));
        let result = traced.run_case(&case.command, &case.expect, &mut fp);
        traced.tracer.close(root);
        match result {
            Ok(()) => mark("check", &format!("{i} ok")),
            Err(reason) => mark("check", &format!("{i} fail {}", reason.replace('\n', " "))),
        }
        fingerprints.push(fp.to_json(&case.name));
    }
    let wall = start.elapsed().as_secs_f64();
    let peak_kib = kib("VmHWM");
    traced.probe()?;
    crn_obs::set_enabled(false);
    emit_metrics(&traced, wall, peak_kib);
    for fingerprint in &fingerprints {
        mark("fingerprint", fingerprint);
    }
    let file = format!(
        "{{\"spans\": {},\n\"fingerprints\": [\n  {}\n]}}\n",
        traced.tracer.to_json(),
        fingerprints.join(",\n  ")
    );
    fs::write(trace_path, file).map_err(|e| format!("cannot write `{trace_path}`: {e}"))
}

#[allow(clippy::cast_precision_loss)]
fn emit_metrics(traced: &Traced, wall: f64, peak_kib: u64) {
    let t = &traced.totals;
    let tracer = &traced.tracer;
    let parse = tracer.total("lang.parse");
    let lower = tracer.total("lang.lower");
    let sweep = tracer.total("reachability.sweep");
    let ensemble = tracer.total("sim.ensemble");
    let layers = tracer.self_by_layer("bench.probe");
    let layer = |name: &str| layers.get(name).copied().unwrap_or(0.0);
    metric("lang.parse_s", parse);
    metric("lang.lower_s", lower);
    metric(
        "lang.bytes_per_s",
        ratio(t.bytes_parsed as f64, parse + lower),
    );
    metric("lang.self_s", layer("lang"));
    metric("core.characterize_s", tracer.total("core.characterize"));
    metric("core.synthesize_s", tracer.total("core.synthesize"));
    metric("core.species_emitted", t.species as f64);
    metric("core.reactions_emitted", t.reactions as f64);
    metric("core.self_s", layer("core"));
    metric("analysis.lint_s", tracer.total("analysis.lint"));
    metric("analysis.bounds_s", tracer.total("analysis.bounds"));
    metric("analysis.semiflows_s", tracer.total("analysis.semiflows"));
    metric(
        "analysis.t_semiflows_s",
        tracer.total("analysis.t_semiflows"),
    );
    metric("analysis.siphons_s", tracer.total("analysis.siphons"));
    metric("analysis.truncations", t.truncations as f64);
    metric("analysis.self_s", layer("analysis"));
    metric("reachability.sweep_s", sweep);
    metric("reachability.configs_explored", t.configs_explored as f64);
    metric(
        "reachability.configs_per_s",
        ratio(t.configs_explored as f64, sweep),
    );
    metric("reachability.points", t.points as f64);
    metric("reachability.static_decided", t.static_decided as f64);
    metric("reachability.symmetry_skipped", t.symmetry_skipped as f64);
    metric("reachability.cache_served", t.cache_served as f64);
    metric(
        "reachability.skipped_frac",
        ratio(
            (t.static_decided + t.symmetry_skipped + t.cache_served) as f64,
            t.points as f64,
        ),
    );
    metric(
        "reachability.memo_hit_rate",
        ratio(t.memo_hits as f64, t.memo_lookups as f64),
    );
    metric("reachability.arena_collisions", t.arena_collisions as f64);
    metric("reachability.arena_grows", t.arena_grows as f64);
    metric(
        "reachability.bytes_per_config",
        t.peak_sweep
            .map_or(0.0, |(bytes, configs)| ratio(bytes as f64, configs as f64)),
    );
    metric("reachability.self_s", layer("reachability"));
    metric("sim.ensemble_s", ensemble);
    metric("sim.steps", t.sim_steps as f64);
    metric("sim.steps_per_s", ratio(t.sim_steps as f64, ensemble));
    metric(
        "sim.refreshes_per_step",
        ratio(t.sim_refreshes as f64, t.sim_steps as f64),
    );
    metric(
        "sim.worker_busy_frac",
        ratio(t.worker_nanos as f64, t.worker_capacity_nanos as f64),
    );
    metric(
        "sim.silent_frac",
        if t.trials == 0 {
            1.0
        } else {
            t.silent_trials as f64 / t.trials as f64
        },
    );
    metric("sim.self_s", layer("sim"));
    metric("bench.self_s", layer("bench"));
    metric("obs.traced_wall_s", wall);
    metric("process.traced_peak_rss_mb", peak_kib as f64 / 1024.0);
}
