//! Integration tests spanning the whole workspace: semilinear presentation →
//! characterization → synthesis → model-level verification → simulation.

use std::path::Path;

use composable_crn::core::characterize::{characterize, Characterization};
use composable_crn::core::one_dim::{analyze_semilinear_1d, synthesize_1d_leader};
use composable_crn::core::spec::ObliviousSpec;
use composable_crn::core::synthesis::synthesize;
use composable_crn::lang::lower::lower_document;
use composable_crn::model::analysis::CrnAnalysis;
use composable_crn::model::{
    check_stable_computation, BoxCheck, CrnError, FunctionCrn, StableComputationVerdict,
};
use composable_crn::numeric::NVec;
use composable_crn::popproto::run_pairwise;
use composable_crn::semilinear::examples as sl;
use composable_crn::sim::runner::spot_check_on_box;
use composable_crn::sim::Gillespie;

#[test]
fn one_dimensional_pipeline_from_presentation_to_simulation() {
    // Semilinear presentation -> Theorem 3.1 structure -> CRN -> verification
    // by exhaustive reachability, SSA, and pairwise-collision scheduling.
    let f = sl::staircase_1d();
    let structure = analyze_semilinear_1d(&f, 8, 4).unwrap();
    let crn = synthesize_1d_leader(&structure);
    assert!(crn.is_output_oblivious());
    let mut sim = Gillespie::new(crn.crn(), 0);
    for x in 0..8u64 {
        let expected = f.eval(&NVec::from(vec![x])).unwrap();
        assert!(
            check_stable_computation(&crn, &NVec::from(vec![x]), expected, 200_000)
                .unwrap()
                .is_correct()
        );
        sim.reseed(x);
        let start = crn.initial_configuration(&NVec::from(vec![x])).unwrap();
        let run = sim.run(&start, 1_000_000).unwrap();
        assert!(run.silent);
        assert_eq!(run.final_configuration.count(crn.output()), expected);
        let pairwise = run_pairwise(&crn, &NVec::from(vec![x]), x + 1, 1_000_000).unwrap();
        assert!(pairwise.silent);
        assert_eq!(pairwise.output, expected);
    }
}

#[test]
fn two_dimensional_pipeline_for_the_figure7_example() {
    let f = sl::figure7_example();
    let Characterization::ObliviouslyComputable { spec } = characterize(&f, 8).unwrap() else {
        panic!("Figure 7 example must be obliviously computable");
    };
    // The spec reproduces f everywhere we look.
    for x in NVec::box_iter(2, 7) {
        assert_eq!(spec.eval(&x).unwrap(), f.eval(&x).unwrap());
    }
    // Synthesize and verify: exhaustive on tiny inputs, SSA spot checks beyond.
    let crn = synthesize(&spec).unwrap();
    assert!(crn.is_output_oblivious());
    for x in NVec::box_iter(2, 1) {
        let expected = f.eval(&x).unwrap();
        assert!(
            check_stable_computation(&crn, &x, expected, 500_000)
                .unwrap()
                .is_correct(),
            "exhaustive check failed at {x}"
        );
    }
    let spot = spot_check_on_box(&crn, |x| f.eval(x).unwrap(), 3, 2_000_000, 5).unwrap();
    assert_eq!((spot.wrong, spot.cut), (None, 0));
}

#[test]
fn synthesized_constructions_verify_exhaustively_at_useful_bounds() {
    // The Lemma 6.2 / Theorem 3.1 constructions are interleavings of nearly
    // independent modules; the stubborn-set terminal scan keeps their boxes
    // well inside the default limit, with the same counters at every worker
    // count.
    for (f, bound) in [
        (sl::staircase_1d(), 3),
        (sl::min2(), 6),
        (sl::figure7_example(), 6),
    ] {
        let Characterization::ObliviouslyComputable { spec } = characterize(&f, 8).unwrap() else {
            panic!("every case is obliviously computable");
        };
        let crn = synthesize(&spec).unwrap();
        let analysis = CrnAnalysis::of(&crn);
        let eval = |x: &NVec| f.eval(x).unwrap();
        let (outcome, stats) = BoxCheck::new(&analysis, eval, bound, 200_000)
            .workers(1)
            .run();
        assert_eq!(outcome, Ok(None), "[0,{bound}]^{}", crn.dim());
        for workers in [2, 4] {
            let (outcome, again) = BoxCheck::new(&analysis, eval, bound, 200_000)
                .workers(workers)
                .run();
            assert_eq!(outcome, Ok(None));
            assert_eq!(again, stats, "workers={workers}");
        }
    }
}

/// The spec `crn synthesize corpus/<stem>.crn` compiles: the document's
/// `spec` item, or its `fn` item characterized at the default bound 8.
fn corpus_spec(stem: &str) -> ObliviousSpec {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join(format!("corpus/{stem}.crn"));
    let source = std::fs::read_to_string(path).expect("corpus document exists");
    let doc = composable_crn::lang::parse(&source).expect("corpus document parses");
    let lowered = lower_document(&doc).expect("corpus document lowers");
    if let Some((_, spec)) = lowered.specs.into_iter().next() {
        return spec;
    }
    let (_, f) = &lowered.fns[0];
    let Characterization::ObliviouslyComputable { spec } = characterize(f, 8).unwrap() else {
        panic!("corpus/{stem}.crn is obliviously computable");
    };
    spec
}

/// Sweeps `crn` against `f` on `[0, bound]^d` with [`BoxCheck::run`] at the
/// default worker count, asserts the whole outcome equals a sequential loop
/// of full verdicts over the box in lexicographic order, and returns it.
fn sweep_matching_full_verdicts(
    crn: &FunctionCrn,
    f: impl Fn(&NVec) -> u64 + Sync,
    bound: u64,
) -> Result<Option<StableComputationVerdict>, CrnError> {
    const MAX_CONFIGS: usize = 200_000;
    let (sweep, _) = BoxCheck::new(&CrnAnalysis::of(crn), &f, bound, MAX_CONFIGS).run();
    let mut sequential = Ok(None);
    for x in NVec::box_iter(crn.dim(), bound) {
        match check_stable_computation(crn, &x, f(&x), MAX_CONFIGS) {
            Ok(verdict) if verdict.is_correct() => {}
            outcome => {
                sequential = outcome.map(Some);
                break;
            }
        }
    }
    assert_eq!(sweep, sequential, "[0,{bound}]^{}", crn.dim());
    sweep
}

#[test]
fn box_engine_matches_sequential_full_verdicts_on_synthesized_constructions() {
    // The box engine against its per-point reference on the paper's own
    // constructions: a passing sweep against the linked spec, and a failing
    // one against a claim wrong at a single point.
    for (stem, bound, wrong_at) in [("min_spec", 3, [1, 2]), ("figure7", 1, [1, 0])] {
        let spec = corpus_spec(stem);
        let crn = synthesize(&spec).unwrap();
        let linked = |x: &NVec| spec.eval(x).unwrap();
        assert_eq!(sweep_matching_full_verdicts(&crn, linked, bound), Ok(None));
        let wrong = |x: &NVec| linked(x) + u64::from(x.as_slice() == wrong_at);
        let verdict = sweep_matching_full_verdicts(&crn, wrong, bound)
            .unwrap()
            .unwrap_or_else(|| panic!("{stem}: the wrong claim passed"));
        assert_eq!(verdict.input, NVec::from(wrong_at.to_vec()), "{stem}");
        assert!(!verdict.is_correct() && verdict.failure.is_some(), "{stem}");
    }
}

#[test]
fn negative_results_are_consistent_across_layers() {
    // max: the characterization says impossible, and indeed every
    // output-oblivious candidate must overproduce (demonstrated by stripping
    // the Y-consuming reaction from the Figure 1 CRN).
    let verdict = characterize(&sl::max2(), 8).unwrap();
    assert!(verdict.is_impossible());
    let stripped_peak = composable_crn::core::impossibility::overproduction_after_stripping(
        &composable_crn::model::examples::max_crn(),
        &NVec::from(vec![3, 2]),
        200_000,
    )
    .unwrap();
    assert!(stripped_peak > 3);
    // The equation (2) counterexample is also rejected.
    assert!(characterize(&sl::equation2_counterexample(), 8)
        .unwrap()
        .is_impossible());
    // A decreasing function is rejected by monotonicity alone.
    assert!(characterize(&sl::truncated_subtraction_from(2), 6)
        .unwrap()
        .is_impossible());
}

#[test]
fn characterized_specs_round_trip_through_restrictions() {
    // Condition (iii) of Theorem 5.2: restrictions of computable functions
    // are computable, and the characterization's spec agrees with the
    // directly-restricted presentation.
    let f = sl::min2();
    let Characterization::ObliviouslyComputable { spec } = characterize(&f, 8).unwrap() else {
        panic!("min is obliviously computable");
    };
    if let ObliviousSpec::Compound { .. } = &spec {
        let restricted = f.restrict(0, 2).unwrap();
        let Characterization::ObliviouslyComputable { spec: rspec } =
            characterize(&restricted, 8).unwrap()
        else {
            panic!("min(2, x) is obliviously computable");
        };
        for x in 0..8u64 {
            assert_eq!(
                rspec.eval(&NVec::from(vec![x])).unwrap(),
                restricted.eval(&NVec::from(vec![x])).unwrap()
            );
        }
    }
}
