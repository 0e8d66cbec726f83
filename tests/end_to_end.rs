//! Integration tests spanning the whole workspace: semilinear presentation →
//! characterization → synthesis → model-level verification → simulation.

use composable_crn::core::characterize::{characterize, Characterization};
use composable_crn::core::one_dim::{analyze_semilinear_1d, synthesize_1d_leader};
use composable_crn::core::spec::ObliviousSpec;
use composable_crn::core::synthesis::synthesize;
use composable_crn::model::{check_stable_computation, BoxCheck};
use composable_crn::numeric::NVec;
use composable_crn::popproto::run_pairwise;
use composable_crn::semilinear::examples as sl;
use composable_crn::sim::convergence::run_to_silence;
use composable_crn::sim::runner::spot_check_on_box;
use composable_crn::sim::UniformScheduler;

#[test]
fn one_dimensional_pipeline_from_presentation_to_simulation() {
    // Semilinear presentation -> Theorem 3.1 structure -> CRN -> verification
    // by exhaustive reachability, SSA, and pairwise-collision scheduling.
    let f = sl::staircase_1d();
    let structure = analyze_semilinear_1d(&f, 8, 4).unwrap();
    let crn = synthesize_1d_leader(&structure);
    assert!(crn.is_output_oblivious());
    for x in 0..8u64 {
        let expected = f.eval(&NVec::from(vec![x])).unwrap();
        assert!(
            check_stable_computation(&crn, &NVec::from(vec![x]), expected, 200_000)
                .unwrap()
                .is_correct()
        );
        let mut scheduler = UniformScheduler::seeded(x);
        let report = run_to_silence(&crn, &NVec::from(vec![x]), &mut scheduler, 1_000_000).unwrap();
        assert!(report.silent);
        assert_eq!(report.output, expected);
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
    for x in NVec::enumerate_box(2, 7) {
        assert_eq!(spec.eval(&x).unwrap(), f.eval(&x).unwrap());
    }
    // Synthesize and verify: exhaustive on tiny inputs, SSA spot checks beyond.
    let crn = synthesize(&spec).unwrap();
    assert!(crn.is_output_oblivious());
    for x in NVec::enumerate_box(2, 1) {
        let expected = f.eval(&x).unwrap();
        assert!(
            check_stable_computation(&crn, &x, expected, 500_000)
                .unwrap()
                .is_correct(),
            "exhaustive check failed at {x}"
        );
    }
    let mismatches = spot_check_on_box(&crn, |x| f.eval(x).unwrap(), 3, 2_000_000, 5).unwrap();
    assert_eq!(mismatches, 0);
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
        let eval = |x: &NVec| f.eval(x).unwrap();
        let (outcome, stats) = BoxCheck::new(&crn, eval, bound, 200_000).workers(1).run();
        assert_eq!(outcome, Ok(None), "[0,{bound}]^{}", crn.dim());
        for workers in [2, 4] {
            let (outcome, again) = BoxCheck::new(&crn, eval, bound, 200_000)
                .workers(workers)
                .run();
            assert_eq!(outcome, Ok(None));
            assert_eq!(again, stats, "workers={workers}");
        }
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
        let restricted = f.restrict(0, 2);
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
