//! Experiment generators shared by the Criterion benchmarks.
//!
//! Each public function regenerates the data behind one figure or worked
//! example of the paper (the experiment ids E1–E12 of the repo-root
//! `DESIGN.md`), returning the rows as plain data so that the bench targets
//! under `benches/` can print the tables recorded in the repo-root
//! `EXPERIMENTS.md` and then time the computation.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::time::Instant;

use crn_core::characterize::{characterize, Characterization};
use crn_core::impossibility::find_lemma41_witness;
use crn_core::one_dim::{analyze_1d, synthesize_1d_leader, synthesize_1d_leaderless};
use crn_core::quilt::QuiltAffine;
use crn_core::scaling::InfinityScaling;
use crn_core::spec::{EventuallyMin, ObliviousSpec};
use crn_core::synthesis::{quilt_crn, synthesize};
use crn_geometry::Arrangement;
use crn_model::compose::concatenate;
use crn_model::{examples, BoxCheck, Configuration, FunctionCrn};
use crn_numeric::{NVec, QVec, Rational};
use crn_popproto::run_pairwise;
use crn_semilinear::examples as sl;
use crn_sim::runner::convergence_series;
use crn_sim::ConvergencePoint;

/// A named Figure 1 case: the CRN, its input builder and expected output.
type Fig1Case = (&'static str, FunctionCrn, fn(u64) -> NVec, fn(&NVec) -> u64);

/// Size of a constructed CRN as `(species, reactions)`.
pub type CrnSize = (usize, usize);

/// E1: convergence of the Figure 1 example CRNs versus input size.
///
/// Returns `(name, series)` for the double, min and max CRNs.
#[must_use]
pub fn fig1_convergence(sizes: &[u64], trials: u32) -> Vec<(&'static str, Vec<ConvergencePoint>)> {
    let cases: Vec<Fig1Case> = vec![
        (
            "double (X -> 2Y)",
            examples::double_crn(),
            |n| NVec::from(vec![n]),
            |x| 2 * x[0],
        ),
        (
            "min (X1+X2 -> Y)",
            examples::min_crn(),
            |n| NVec::from(vec![n, n]),
            |x| x[0].min(x[1]),
        ),
        (
            "max (4 reactions)",
            examples::max_crn(),
            |n| NVec::from(vec![n, n]),
            |x| x[0].max(x[1]),
        ),
    ];
    cases
        .into_iter()
        .map(|(name, crn, make, expect)| {
            let series = convergence_series(&crn, sizes, make, expect, trials, 10_000_000, 42)
                .expect("series");
            (name, series)
        })
        .collect()
}

/// E3: the value table and finite differences of the Figure 3a function
/// `⌊3x/2⌋`, together with the species/reaction counts of its Lemma 6.1 CRN.
#[must_use]
pub fn fig3_quilt_table(bound: u64) -> (Vec<(u64, i64)>, usize, usize) {
    let g = QuiltAffine::floor_linear(QVec::from(vec![Rational::new(3, 2)]), 2);
    let table: Vec<(u64, i64)> = (0..=bound)
        .map(|x| (x, g.eval(&NVec::from(vec![x])).expect("integer value")))
        .collect();
    let crn = quilt_crn(&g).expect("quilt CRN");
    (table, crn.species_count(), crn.reaction_count())
}

/// E4/E7: characterize the Figure 7 example, returning the number of
/// quilt-affine pieces and the synthesized CRN's size.
#[must_use]
pub fn fig7_characterization(bound: u64) -> (usize, usize, usize) {
    let f = sl::figure7_example();
    let Characterization::ObliviouslyComputable { spec } = characterize(&f, bound).expect("runs")
    else {
        panic!("Figure 7 example must be obliviously computable");
    };
    let pieces = match &spec {
        ObliviousSpec::Compound { eventual, .. } => eventual.pieces().len(),
        ObliviousSpec::Constant(_) => 0,
    };
    let crn = synthesize(&spec).expect("synthesizable");
    (pieces, crn.species_count(), crn.reaction_count())
}

/// E5: the Theorem 3.1 structure (threshold, period, deltas) of the 1-D
/// staircase example, plus its CRN sizes with and without a leader.
#[must_use]
pub fn fig5_one_dim() -> (u64, u64, Vec<u64>, CrnSize, Option<CrnSize>) {
    let f = |x: u64| if x < 3 { 0 } else { 2 * x + x % 2 };
    let s = analyze_1d(f, 8, 4, 12).expect("structure");
    let leader = synthesize_1d_leader(&s);
    let leaderless = synthesize_1d_leaderless(&s, f)
        .ok()
        .map(|c| (c.species_count(), c.reaction_count()));
    (
        s.threshold(),
        s.period,
        s.deltas,
        (leader.species_count(), leader.reaction_count()),
        leaderless,
    )
}

/// E6: the Lemma 4.1 witness for `max` and the overproduction it predicts.
#[must_use]
pub fn fig6_lemma41() -> (NVec, NVec, NVec, u64) {
    let f = |x: &NVec| x[0].max(x[1]);
    let witness = find_lemma41_witness(&f, 2, 4, 6).expect("max has a witness");
    let overshoot = crn_core::impossibility::overproduction_after_stripping(
        &examples::max_crn(),
        &NVec::from(vec![2, 3]),
        100_000,
    )
    .expect("reachability fits");
    (witness.base, witness.step, witness.delta, overshoot)
}

/// E8: region counts and recession-cone dimensions of the Figure 8c
/// arrangement (two pairs of parallel hyperplanes in `N^3`).
#[must_use]
pub fn fig8_region_census(bound: u64) -> Vec<(usize, usize)> {
    let hyperplanes = vec![
        crn_geometry::Hyperplane::new(crn_numeric::ZVec::from(vec![1, -1, 0]), 1),
        crn_geometry::Hyperplane::new(crn_numeric::ZVec::from(vec![-1, 1, 0]), 1),
        crn_geometry::Hyperplane::new(crn_numeric::ZVec::from(vec![0, 1, -1]), 1),
        crn_geometry::Hyperplane::new(crn_numeric::ZVec::from(vec![0, -1, 1]), 1),
    ];
    let arrangement = Arrangement::from_hyperplanes(3, hyperplanes, 1);
    let regions = arrangement.eventual_regions_in_box(bound);
    let mut census: Vec<(usize, usize)> = Vec::new();
    for d in 0..=3usize {
        let count = regions
            .iter()
            .filter(|r| r.recession_cone().dimension() == d)
            .count();
        census.push((d, count));
    }
    census
}

/// E9: construction sizes (species, reactions) of the paper's constructions
/// for a range of parameters.
#[must_use]
pub fn construction_sizes() -> Vec<(String, usize, usize)> {
    let mut rows = Vec::new();
    for p in [1u64, 2, 3, 4] {
        let g = QuiltAffine::floor_linear(QVec::from(vec![Rational::new(1, p as i128)]), p);
        let crn = quilt_crn(&g).expect("quilt CRN");
        rows.push((
            format!("Lemma 6.1, d=1, p={p}"),
            crn.species_count(),
            crn.reaction_count(),
        ));
    }
    for p in [1u64, 2, 3] {
        let g = QuiltAffine::floor_linear(
            QVec::from(vec![
                Rational::new(1, p as i128),
                Rational::new(1, p as i128),
            ]),
            p,
        );
        let crn = quilt_crn(&g).expect("quilt CRN");
        rows.push((
            format!("Lemma 6.1, d=2, p={p}"),
            crn.species_count(),
            crn.reaction_count(),
        ));
    }
    for n in [1u64, 3, 6] {
        let f = move |x: u64| x.min(n);
        let s = analyze_1d(f, n + 1, 2, 8).expect("structure");
        let crn = synthesize_1d_leader(&s);
        rows.push((
            format!("Theorem 3.1, min(x,{n})"),
            crn.species_count(),
            crn.reaction_count(),
        ));
    }
    for n in [2u64, 4] {
        let f = move |x: u64| x.saturating_sub(n);
        let s = analyze_1d(f, n + 1, 2, 8).expect("structure");
        let crn = synthesize_1d_leaderless(&s, f).expect("superadditive");
        rows.push((
            format!("Theorem 9.2, (x-{n})+ leaderless"),
            crn.species_count(),
            crn.reaction_count(),
        ));
    }
    // Lemma 6.2 on the Figure 2 function min(1, x).
    let eventual =
        EventuallyMin::new(NVec::from(vec![1]), vec![QuiltAffine::constant(1, 1)]).unwrap();
    let mut restrictions = std::collections::BTreeMap::new();
    restrictions.insert((0usize, 0u64), ObliviousSpec::Constant(0));
    let spec = ObliviousSpec::compound(eventual, restrictions).unwrap();
    let crn = synthesize(&spec).expect("synthesizable");
    rows.push((
        "Lemma 6.2, min(1,x)".to_owned(),
        crn.species_count(),
        crn.reaction_count(),
    ));
    rows
}

/// E10: composition overhead — steps to convergence for the composed
/// `2·min(x1,x2)` pipeline versus the monolithic CRN computing it directly.
#[must_use]
pub fn composition_overhead(sizes: &[u64], trials: u32) -> Vec<(u64, f64, f64)> {
    let composed = concatenate(&examples::min_crn(), &examples::double_crn()).expect("composes");
    let mut monolithic = crn_model::Crn::new();
    monolithic.parse_reaction("X1 + X2 -> 2Y").expect("valid");
    let monolithic =
        FunctionCrn::with_named_roles(monolithic, &["X1", "X2"], "Y", None).expect("roles");
    let series_a = convergence_series(
        &composed,
        sizes,
        |n| NVec::from(vec![n, n]),
        |x| 2 * x[0].min(x[1]),
        trials,
        10_000_000,
        7,
    )
    .expect("series");
    let series_b = convergence_series(
        &monolithic,
        sizes,
        |n| NVec::from(vec![n, n]),
        |x| 2 * x[0].min(x[1]),
        trials,
        10_000_000,
        7,
    )
    .expect("series");
    sizes
        .iter()
        .zip(series_a.iter().zip(&series_b))
        .map(|(&n, (a, b))| (n, a.mean_steps, b.mean_steps))
        .collect()
}

/// E11: scaling-limit error `|f(⌊cz⌋)/c − f̂(z)|` for `⌊3x/2⌋` at increasing
/// scale factors.
#[must_use]
pub fn scaling_error_series(factors: &[u64]) -> Vec<(u64, f64)> {
    let g = QuiltAffine::floor_linear(QVec::from(vec![Rational::new(3, 2)]), 2);
    let eventual = EventuallyMin::new(NVec::zeros(1), vec![g]).unwrap();
    let scaling = InfinityScaling::of(&eventual);
    let f = |x: &NVec| 3 * x[0] / 2;
    let z = QVec::from(vec![Rational::new(7, 3)]);
    crn_core::scaling::scaling_error_series(&scaling, &f, &z, factors)
}

/// E12: interaction counts of the Figure 1 CRNs under pairwise-collision
/// (population-protocol style) scheduling.
#[must_use]
pub fn popproto_interactions(sizes: &[u64]) -> Vec<(u64, u64, u64)> {
    sizes
        .iter()
        .map(|&n| {
            let min = run_pairwise(
                &examples::min_crn(),
                &NVec::from(vec![n, n]),
                3,
                100_000_000,
            )
            .expect("runs");
            let max = run_pairwise(
                &examples::max_crn(),
                &NVec::from(vec![n, n]),
                3,
                100_000_000,
            )
            .expect("runs");
            (n, min.collisions, max.collisions)
        })
        .collect()
}

/// Times `repeats` runs of `work`, returning (seconds, last result).
fn time_repeats<T>(repeats: u32, mut work: impl FnMut() -> T) -> (f64, T) {
    assert!(repeats > 0);
    let start = Instant::now();
    let mut last = work();
    for _ in 1..repeats {
        last = work();
    }
    (start.elapsed().as_secs_f64().max(1e-12), last)
}

/// The E17 query sweep with the invariant oracle: for every `(x1, x2)` in
/// `[0, bound]^2`, is the pure configuration `{Y: x1 + x2}` reachable from
/// `I_(x1, x2)` of the `max` CRN?  The conservation laws `X1 + Y - Z2 - K`
/// and `X2 + Y - Z1 - K` refute every point except the origin without
/// exploring a single configuration, so this measures the static
/// short-circuit.  Returns the per-point verdicts in row-major order.
#[must_use]
pub fn e17_box_oracle(bound: u64) -> Vec<bool> {
    e17_box_verdicts(bound, crn_model::target_reachable)
}

/// The E17 query sweep on the exhaustive engine (no oracle): every query
/// explores the full state space of `I_(x1, x2)` before answering.
#[must_use]
pub fn e17_box_exhaustive(bound: u64) -> Vec<bool> {
    e17_box_verdicts(bound, crn_model::target_reachable_exhaustive)
}

fn e17_box_verdicts(
    bound: u64,
    decide: impl Fn(
        &crn_model::Crn,
        &Configuration,
        &Configuration,
        usize,
    ) -> Result<bool, crn_model::CrnError>,
) -> Vec<bool> {
    let max = examples::max_crn();
    let y = max.output();
    let mut verdicts = Vec::with_capacity(((bound + 1) * (bound + 1)) as usize);
    for x1 in 0..=bound {
        for x2 in 0..=bound {
            let start = max
                .initial_configuration(&NVec::from(vec![x1, x2]))
                .expect("in range");
            let target = Configuration::from_counts(vec![(y, x1 + x2)]);
            verdicts.push(decide(max.crn(), &start, &target, 1_000_000).expect("fits"));
        }
    }
    verdicts
}

/// E17 headline measurement: queries/sec for the `max` box sweep with the
/// invariant oracle versus the exhaustive engine.  Returns
/// `(oracle_queries_per_sec, exhaustive_queries_per_sec, speedup,
/// verdicts_identical)`.
#[must_use]
pub fn e17_box_check(bound: u64, repeats: u32) -> (f64, f64, f64, bool) {
    let queries = f64::from(repeats) * ((bound + 1) * (bound + 1)) as f64;
    let (oracle_secs, oracle_verdicts) = time_repeats(repeats, || e17_box_oracle(bound));
    let (exhaustive_secs, exhaustive_verdicts) =
        time_repeats(repeats, || e17_box_exhaustive(bound));
    (
        queries / oracle_secs,
        queries / exhaustive_secs,
        exhaustive_secs / oracle_secs,
        oracle_verdicts == exhaustive_verdicts,
    )
}

/// The E19 headline workload: the incremental box check (static verdicts,
/// symmetry orbits, cross-point memoization, packed exploration) of the
/// `max` CRN against `max(x1, x2)` on `[0, bound]^2`.  Pinned to one worker
/// so the measured speedup over the reference engine is purely algorithmic.
#[must_use]
pub fn e19_box_incremental(bound: u64) -> Option<crn_model::StableComputationVerdict> {
    let max = examples::max_crn();
    let sweep = BoxCheck::new(&max, |x| x[0].max(x[1]), bound, 1_000_000);
    sweep.workers(1).run().0.expect("fits")
}

/// The E19 baseline: the same box on the reference engine (hash interning,
/// a full verdict at every point, no static analysis), on one worker.
#[must_use]
pub fn e19_box_reference(bound: u64) -> Option<crn_model::StableComputationVerdict> {
    let max = examples::max_crn();
    let sweep = BoxCheck::new(&max, |x| x[0].max(x[1]), bound, 1_000_000);
    sweep.reference().workers(1).run().0.expect("fits")
}

/// E19 headline measurement: verdicts/sec for the `max` CRN box check on the
/// incremental engine versus the reference engine.  Returns
/// `(incremental_verdicts_per_sec, reference_verdicts_per_sec, speedup,
/// results_identical)`.  The verdict count assumes the full `(bound + 1)^2`
/// box is scanned, which holds because the `max` CRN passes everywhere.
///
/// # Panics
///
/// Panics if the `max` CRN unexpectedly fails somewhere in the box.
#[must_use]
pub fn e19_box_check(bound: u64, repeats: u32) -> (f64, f64, f64, bool) {
    let verdicts = f64::from(repeats) * ((bound + 1) * (bound + 1)) as f64;
    // One unmeasured pass each, so first-call page faults and lazy buffer
    // growth are not billed to either engine.
    let _ = e19_box_incremental(bound);
    let _ = e19_box_reference(bound);
    let (incremental_secs, incremental_result) =
        time_repeats(repeats, || e19_box_incremental(bound));
    let (reference_secs, reference_result) = time_repeats(repeats, || e19_box_reference(bound));
    assert!(
        incremental_result.is_none(),
        "the max CRN must pass the whole box for the verdict count to be exact"
    );
    (
        verdicts / incremental_secs,
        verdicts / reference_secs,
        reference_secs / incremental_secs,
        incremental_result == reference_result,
    )
}

/// One row of the E14 dense-kernel throughput experiment.
#[derive(Debug, Clone)]
pub struct KernelThroughputRow {
    /// Workload name (CRN and input).
    pub name: String,
    /// Reactions fired per run (identical across engines and repeats — the
    /// dense kernel replays the sparse oracle seed-for-seed).
    pub steps: u64,
    /// Steps per second on the dense incremental-propensity kernel.
    pub dense_steps_per_sec: f64,
    /// Steps per second on the sparse seed implementation.
    pub sparse_steps_per_sec: f64,
    /// `dense_steps_per_sec / sparse_steps_per_sec`.
    pub speedup: f64,
    /// Whether the two engines produced bit-identical outcomes.
    pub identical: bool,
}

/// E14 (single-run half): Gillespie steps/sec of the dense compiled kernel
/// versus the sparse seed implementation on the Figure 1 CRNs at input
/// size `n`.
///
/// Both engines run the same seed, so besides the timing the rows double as
/// a differential check: `identical` must be true on every row.
#[must_use]
pub fn e14_kernel_throughput(n: u64, repeats: u32) -> Vec<KernelThroughputRow> {
    let cases: Vec<(String, FunctionCrn, NVec)> = vec![
        (
            format!("double (X -> 2Y), x={n}"),
            examples::double_crn(),
            NVec::from(vec![n]),
        ),
        (
            format!("min (X1+X2 -> Y), x=({n},{n})"),
            examples::min_crn(),
            NVec::from(vec![n, n]),
        ),
        (
            format!("max (4 reactions), x=({n},{n})"),
            examples::max_crn(),
            NVec::from(vec![n, n]),
        ),
    ];
    cases
        .into_iter()
        .map(|(name, crn, x)| {
            let start = crn.initial_configuration(&x).expect("arity");
            // One simulator per engine, reseeded per repeat: what the
            // ensemble runner does per trial.
            let mut dense = crn_sim::Gillespie::new(crn.crn().clone(), 0);
            let (dense_secs, dense_out) = time_repeats(repeats, || {
                dense.reseed(1);
                dense.run(&start, 100_000_000)
            });
            let mut sparse = crn_sim::SparseGillespie::new(crn.crn().clone(), 0);
            let (sparse_secs, sparse_out) = time_repeats(repeats, || {
                sparse.reseed(1);
                sparse.run(&start, 100_000_000)
            });
            let steps = dense_out.steps;
            let total_steps = steps as f64 * f64::from(repeats);
            KernelThroughputRow {
                name,
                steps,
                dense_steps_per_sec: total_steps / dense_secs,
                sparse_steps_per_sec: total_steps / sparse_secs,
                speedup: sparse_secs / dense_secs,
                identical: dense_out == sparse_out,
            }
        })
        .collect()
}

/// One row of the E14 ensemble-scaling experiment.
#[derive(Debug, Clone)]
pub struct EnsembleScalingRow {
    /// Worker-thread count.
    pub workers: usize,
    /// Completed trials per second.
    pub trials_per_sec: f64,
    /// Throughput relative to one worker.
    pub speedup_vs_one: f64,
    /// Whether this worker count reproduced the one-worker summary exactly
    /// (the ensemble determinism contract).
    pub identical: bool,
}

/// E14 (ensemble half): trial throughput of
/// [`crn_sim::measure_convergence_with_workers`] on the `max` CRN at input
/// `(n, n)`, for each worker count.
///
/// The determinism contract makes every row's `TrialSummary` bit-identical
/// to the one-worker run; `identical` records that check.  Wall-clock
/// scaling is bounded by the machine's core count.
#[must_use]
pub fn e14_ensemble_scaling(
    n: u64,
    trials: u32,
    worker_counts: &[usize],
) -> Vec<EnsembleScalingRow> {
    let max = examples::max_crn();
    let x = NVec::from(vec![n, n]);
    // One timed 1-worker pass serves as both the baseline summary (every
    // other worker count must reproduce it bit-for-bit) and the unit of the
    // speedup column.
    let (one_secs, baseline) = time_repeats(1, || {
        crn_sim::measure_convergence_with_workers(&max, &x, trials, 100_000_000, 5, 1)
            .expect("arity")
    });
    worker_counts
        .iter()
        .map(|&workers| {
            let (secs, summary) = time_repeats(1, || {
                crn_sim::measure_convergence_with_workers(&max, &x, trials, 100_000_000, 5, workers)
                    .expect("arity")
            });
            EnsembleScalingRow {
                workers,
                trials_per_sec: f64::from(trials) / secs,
                speedup_vs_one: one_secs / secs,
                identical: summary == baseline,
            }
        })
        .collect()
}

/// One E15 row: `crn-lang` front-end throughput on a document.
#[derive(Debug, Clone)]
pub struct LangThroughputRow {
    /// Which document.
    pub name: String,
    /// Document size in bytes.
    pub bytes: usize,
    /// Number of top-level items.
    pub items: usize,
    /// Documents parsed per second (lex + parse only).
    pub parse_docs_per_sec: f64,
    /// Parse throughput in MB/s.
    pub parse_mb_per_sec: f64,
    /// Documents parsed *and lowered* to semantic objects per second.
    pub compile_docs_per_sec: f64,
}

/// Parses and lowers every item of `source`, returning the item count
/// (panics on malformed input — E15 documents are known-good).  Lowering
/// goes through `lower_document` so documents with `pipeline` items compose
/// too.
fn lang_compile(source: &str) -> usize {
    let doc = crn_lang::parse(source).expect("E15 document parses");
    crn_lang::lower_document(&doc).expect("E15 document lowers");
    doc.items.len()
}

/// The E15 documents: the largest checked-in corpus file, plus a large
/// synthesized document (the Lemma 6.2 construction for the corpus
/// `gated_min` spec, printed back to text — ~90 species of dotted composed
/// names, the densest text the pipeline produces).
#[must_use]
pub fn e15_documents() -> Vec<(String, String)> {
    let corpus = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../corpus");
    let largest = std::fs::read_dir(&corpus)
        .expect("corpus directory exists")
        .filter_map(|entry| {
            let path = entry.ok()?.path();
            (path.extension()? == "crn").then_some(path)
        })
        .max_by_key(|path| std::fs::metadata(path).map(|m| m.len()).unwrap_or(0))
        .expect("corpus has .crn files");
    let largest_name = largest.file_name().unwrap().to_string_lossy().into_owned();
    let largest_text = std::fs::read_to_string(&largest).expect("corpus file reads");

    let spec_source =
        std::fs::read_to_string(corpus.join("compound_spec.crn")).expect("compound_spec exists");
    let doc = crn_lang::parse(&spec_source).expect("compound_spec parses");
    let crn_lang::Item::Spec(spec_item) = &doc.items[0] else {
        panic!("compound_spec.crn starts with a spec item");
    };
    let spec = crn_lang::lower_spec(spec_item).expect("spec lowers");
    let crn = synthesize(&spec).expect("Lemma 6.2 synthesis succeeds");
    let synthesized = crn_lang::print(&crn_lang::Document {
        items: vec![
            crn_lang::Item::Spec(spec_item.clone()),
            crn_lang::Item::Crn(crn_lang::crn_to_item(
                "gated_min_crn",
                &crn,
                Some(&spec_item.name),
                None,
            )),
        ],
    });
    vec![
        (largest_name, largest_text),
        ("synthesized gated_min".to_owned(), synthesized),
    ]
}

/// E15: parse and parse+lower throughput of the `crn-lang` front end.
#[must_use]
pub fn e15_lang_throughput(repeats: u32) -> Vec<LangThroughputRow> {
    e15_documents()
        .into_iter()
        .map(|(name, text)| {
            let items = lang_compile(&text);
            let (parse_secs, _) = time_repeats(repeats, || crn_lang::parse(&text).expect("parses"));
            let (compile_secs, _) = time_repeats(repeats, || lang_compile(&text));
            LangThroughputRow {
                name,
                bytes: text.len(),
                items,
                parse_docs_per_sec: f64::from(repeats) / parse_secs,
                parse_mb_per_sec: text.len() as f64 * f64::from(repeats) / 1e6 / parse_secs,
                compile_docs_per_sec: f64::from(repeats) / compile_secs,
            }
        })
        .collect()
}

/// One E16 row: composition-engine build cost for an n-stage chain.
#[derive(Debug, Clone)]
pub struct CompositionScalingRow {
    /// Number of chained stages.
    pub stages: usize,
    /// Species of the composed CRN.
    pub species: usize,
    /// Reactions of the composed CRN.
    pub reactions: usize,
    /// Seconds for one `Pipeline::build` of the whole chain.
    pub pipeline_secs: f64,
    /// Build time per stage (`pipeline_secs / stages`) — flat when the
    /// engine is linear in the chain length.
    pub secs_per_stage: f64,
    /// Seconds for the same chain built by repeated two-level
    /// `concatenate` calls, which re-import the accumulated CRN at every
    /// step (quadratic) — the baseline the engine replaces.
    pub chained_secs: f64,
}

/// Builds an n-stage doubling chain with the pipeline engine in one pass
/// (the E16 workload, exposed so the Criterion target can time it directly).
#[must_use]
pub fn e16_pipeline_chain(stages: usize) -> crn_model::FunctionCrn {
    let mut pipeline = crn_model::Pipeline::new(1);
    let double = examples::double_crn();
    let mut previous = crn_model::compose::PipeSource::Global(0);
    for k in 0..stages {
        let id = pipeline
            .add_stage(&format!("s{k}"), &double, &[previous])
            .expect("chain wiring is valid");
        previous = crn_model::compose::PipeSource::Stage(id);
    }
    let crn_model::compose::PipeSource::Stage(last) = previous else {
        panic!("at least one stage");
    };
    pipeline.build(last).expect("chain builds")
}

/// Builds the same chain by folding `concatenate` (the pre-engine way).
fn concatenate_chain(stages: usize) -> crn_model::FunctionCrn {
    let double = examples::double_crn();
    let mut acc = double.clone();
    for _ in 1..stages {
        acc = concatenate(&acc, &double).expect("chain composes");
    }
    acc
}

/// E16: build cost of composing an n-stage module chain, one `Pipeline`
/// build versus folded two-level concatenation.
#[must_use]
pub fn e16_composition_scaling(sizes: &[usize], repeats: u32) -> Vec<CompositionScalingRow> {
    sizes
        .iter()
        .map(|&stages| {
            let (pipeline_secs, composed) = time_repeats(repeats, || e16_pipeline_chain(stages));
            let (chained_secs, _) = time_repeats(repeats, || concatenate_chain(stages));
            CompositionScalingRow {
                stages,
                species: composed.species_count(),
                reactions: composed.reaction_count(),
                pipeline_secs: pipeline_secs / f64::from(repeats),
                secs_per_stage: pipeline_secs / f64::from(repeats) / stages as f64,
                chained_secs: chained_secs / f64::from(repeats),
            }
        })
        .collect()
}

/// One E20 Gillespie ensemble run: the `double` CRN at `x = 200`, 16 trials,
/// one worker, fixed seed.  Small enough to repeat, large enough that the
/// per-step instrumentation (a handful of local `u64` increments) would show
/// up if it cost anything.
#[must_use]
pub fn e20_ensemble_run() -> crn_sim::TrialSummary {
    crn_sim::Ensemble::new(&examples::double_crn())
        .with_max_steps(1_000_000)
        .with_workers(1)
        .run(&NVec::from(vec![200]), 16, 7)
        .expect("the double CRN ensemble runs")
}

/// E20: relative cost of the `crn_obs` registry being *enabled* (as under
/// `--profile`, but with nothing rendered) versus the disabled default, on
/// the incremental box check and on a Gillespie ensemble.  Returns
/// `(box_overhead, sim_overhead)` as fractions (`0.02` = 2% slower enabled);
/// negative values mean the enabled runs happened to be faster (noise).
///
/// The two configurations are interleaved round-robin for `rounds` rounds so
/// slow clock drift (thermal throttling, a noisy co-tenant) cancels instead
/// of being billed to whichever configuration ran second.  Restores the
/// registry to disabled-and-empty before returning, so the measurement never
/// leaks into later benchmarks.
#[must_use]
pub fn e20_obs_overhead(bound: u64, rounds: u32) -> (f64, f64) {
    crn_obs::set_enabled(false);
    crn_obs::reset();
    // One unmeasured pass each, so first-call page faults and lazy buffer
    // growth are not billed to either configuration.
    let _ = e19_box_incremental(bound);
    let _ = e20_ensemble_run();
    let (mut box_off, mut box_on, mut sim_off, mut sim_on) = (0.0, 0.0, 0.0, 0.0);
    for _ in 0..rounds.max(1) {
        crn_obs::set_enabled(false);
        let (t, _) = time_repeats(3, || e19_box_incremental(bound));
        box_off += t;
        let (t, _) = time_repeats(10, e20_ensemble_run);
        sim_off += t;
        crn_obs::set_enabled(true);
        let (t, _) = time_repeats(3, || e19_box_incremental(bound));
        box_on += t;
        let (t, _) = time_repeats(10, e20_ensemble_run);
        sim_on += t;
        // Reset per round so the enabled registry stays small: the steady
        // state under `--profile` is a bounded set of names, not unbounded
        // accumulation.
        crn_obs::reset();
    }
    crn_obs::set_enabled(false);
    crn_obs::reset();
    (box_on / box_off - 1.0, sim_on / sim_off - 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig1_series_are_correct_and_growing() {
        let series = fig1_convergence(&[4, 16], 3);
        assert_eq!(series.len(), 3);
        for (name, points) in &series {
            assert!(
                points.iter().all(|p| p.all_correct),
                "{name} produced a wrong output"
            );
            assert!(points[0].mean_steps <= points[1].mean_steps);
        }
    }

    #[test]
    fn fig3_table_matches_closed_form() {
        let (table, species, reactions) = fig3_quilt_table(8);
        assert_eq!(table.len(), 9);
        for (x, v) in table {
            assert_eq!(v as u64, 3 * x / 2);
        }
        assert_eq!(species, 5);
        assert_eq!(reactions, 3);
    }

    #[test]
    fn fig5_structure_matches_staircase() {
        let (threshold, period, deltas, leader_size, leaderless) = fig5_one_dim();
        assert!(threshold >= 3);
        assert_eq!(period, 2);
        assert_eq!(deltas.iter().sum::<u64>(), 4);
        assert!(leader_size.0 > 0 && leader_size.1 > 0);
        // The staircase is not superadditive (f(3)=7 > f(1)+f(2)=0), so the
        // leaderless construction refuses.
        assert!(leaderless.is_none());
    }

    #[test]
    fn fig6_witness_and_overshoot() {
        let (_base, step, delta, overshoot) = fig6_lemma41();
        assert!(!step.is_zero());
        assert!(!delta.is_zero());
        assert_eq!(overshoot, 5);
    }

    #[test]
    fn fig7_characterization_has_three_pieces() {
        let (pieces, species, reactions) = fig7_characterization(8);
        assert_eq!(pieces, 3);
        assert!(species > 10);
        assert!(reactions > 10);
    }

    #[test]
    fn fig8_census_matches_caption() {
        let census = fig8_region_census(6);
        assert_eq!(census, vec![(0, 0), (1, 1), (2, 4), (3, 4)]);
    }

    #[test]
    fn construction_sizes_grow_with_period() {
        let rows = construction_sizes();
        assert!(rows.len() >= 10);
        let d2: Vec<_> = rows.iter().filter(|(n, _, _)| n.contains("d=2")).collect();
        assert!(d2[0].2 < d2[2].2, "reactions grow with the period");
    }

    #[test]
    fn scaling_errors_shrink() {
        let series = scaling_error_series(&[1, 8, 64]);
        assert!(series[2].1 <= series[0].1 + 1e-9);
    }

    #[test]
    fn popproto_interactions_grow_with_size() {
        let rows = popproto_interactions(&[4, 16]);
        assert!(rows[0].1 <= rows[1].1);
        assert!(rows[0].2 <= rows[1].2);
    }

    #[test]
    fn e17_oracle_and_exhaustive_verdicts_are_bit_identical() {
        let verdicts = e17_box_oracle(2);
        // Only the origin query (target {Y: 0}, all counts zero besides the
        // untouched debris) is reachable; every other point is refuted.
        assert_eq!(verdicts.len(), 9);
        assert_eq!(verdicts.iter().filter(|&&v| v).count(), 1);
        assert!(verdicts[0], "origin query must be reachable");
        assert_eq!(verdicts, e17_box_exhaustive(2));
        let (oracle_qps, exhaustive_qps, speedup, identical) = e17_box_check(2, 1);
        assert!(identical, "oracle changed a verdict");
        assert!(oracle_qps > 0.0 && exhaustive_qps > 0.0 && speedup > 0.0);
    }

    #[test]
    fn e19_box_check_engines_are_bit_identical() {
        let (incremental_vps, reference_vps, speedup, identical) = e19_box_check(2, 1);
        assert!(identical, "incremental and reference box verdicts diverged");
        assert!(incremental_vps > 0.0 && reference_vps > 0.0 && speedup > 0.0);
        // And on a failing box the incremental scan picks the same first
        // failure, byte for byte — through the symmetry-replay path (min is
        // input-symmetric, so the box is orbit-reduced).
        let min = examples::min_crn();
        let sweep = BoxCheck::new(&min, |x| x[0].max(x[1]), 2, 100_000).workers(1);
        let incremental = sweep.run().0.unwrap();
        let reference = sweep.reference().run().0.unwrap();
        assert_eq!(incremental, reference);
        assert_eq!(incremental.unwrap().input, NVec::from(vec![0, 1]));
    }

    #[test]
    fn e14_kernel_rows_are_identical_and_positive() {
        let rows = e14_kernel_throughput(64, 2);
        assert_eq!(rows.len(), 3);
        for row in &rows {
            assert!(row.identical, "{}: engines diverged", row.name);
            assert!(row.steps > 0, "{}: fired nothing", row.name);
            assert!(row.dense_steps_per_sec > 0.0);
            assert!(row.sparse_steps_per_sec > 0.0);
            assert!(row.speedup > 0.0);
        }
    }

    #[test]
    fn e14_ensemble_scaling_is_deterministic_across_workers() {
        let rows = e14_ensemble_scaling(32, 8, &[1, 2, 4]);
        assert_eq!(rows.len(), 3);
        for row in &rows {
            assert!(row.identical, "workers={}: summary diverged", row.workers);
            assert!(row.trials_per_sec > 0.0);
            assert!(row.speedup_vs_one > 0.0);
        }
    }

    #[test]
    fn e15_lang_throughput_measures_both_documents() {
        let rows = e15_lang_throughput(3);
        assert_eq!(rows.len(), 2);
        for row in &rows {
            assert!(
                row.bytes > 0 && row.items > 0,
                "{}: empty document",
                row.name
            );
            assert!(row.parse_docs_per_sec > 0.0);
            assert!(row.compile_docs_per_sec > 0.0);
        }
        // The synthesized document dwarfs the corpus files.
        assert!(rows[1].bytes > rows[0].bytes);
    }

    #[test]
    fn e16_chains_grow_linearly_in_size() {
        let rows = e16_composition_scaling(&[4, 8], 1);
        assert_eq!(rows.len(), 2);
        // Chain structure: one wire per stage, doubling reactions plus no
        // leader (double_crn is leaderless) — species and reactions scale
        // with the stage count.
        assert_eq!(rows[0].species, 1 + 4);
        assert_eq!(rows[0].reactions, 4);
        assert_eq!(rows[1].species, 1 + 8);
        assert_eq!(rows[1].reactions, 8);
        // Both construction paths agree on the composed function.
        let via_pipeline = e16_pipeline_chain(3);
        let via_concat = concatenate_chain(3);
        for x in 0..3u64 {
            for crn in [&via_pipeline, &via_concat] {
                let v =
                    crn_model::check_stable_computation(crn, &NVec::from(vec![x]), 8 * x, 100_000)
                        .unwrap();
                assert!(v.is_correct(), "8x failed at {x}");
            }
        }
    }

    #[test]
    fn composition_overhead_is_reported() {
        let rows = composition_overhead(&[4, 8], 3);
        assert_eq!(rows.len(), 2);
        // The composed pipeline fires more reactions than the monolithic CRN.
        assert!(rows[1].1 > rows[1].2);
    }
}
