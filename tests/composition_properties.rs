//! Property-based integration tests for composition (Observation 2.2) and the
//! quilt-affine construction (Lemma 6.1), spanning `crn-core`, `crn-model`
//! and `crn-sim`.

use composable_crn::core::quilt::QuiltAffine;
use composable_crn::core::synthesis::{clamp_below_crn, quilt_crn};
use composable_crn::model::compose::{concatenate, PipeSource, Pipeline};
use composable_crn::model::{check_stable_computation, examples};
use composable_crn::numeric::{NVec, QVec, Rational};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Lemma 6.1: the quilt CRN for floor((a x1 + b x2)/q) computes it, for
    /// random small coefficients.
    #[test]
    fn quilt_crn_computes_floored_linear(a in 1u64..4, b in 1u64..4, q in 1u64..4, x1 in 0u64..4, x2 in 0u64..4) {
        let g = QuiltAffine::floor_linear(
            &QVec::from(vec![
                Rational::new(a as i128, q as i128),
                Rational::new(b as i128, q as i128),
            ]),
            q,
        );
        let crn = quilt_crn(&g).unwrap();
        prop_assert!(crn.is_output_oblivious());
        let expected = (a * x1 + b * x2) / q;
        let verdict = check_stable_computation(&crn, &NVec::from(vec![x1, x2]), expected, 200_000).unwrap();
        prop_assert!(verdict.is_correct());
    }

    /// Observation 2.2: composing an output-oblivious upstream CRN (multiply
    /// by k) with a downstream CRN (multiply by m) computes the composition.
    #[test]
    fn concatenation_computes_composition(k in 1u64..4, m in 1u64..4, x in 0u64..6) {
        let upstream = examples::multiply_crn(k);
        let downstream = examples::multiply_crn(m);
        let composed = concatenate(&upstream, &downstream).unwrap();
        prop_assert!(composed.is_output_oblivious());
        let verdict = check_stable_computation(&composed, &NVec::from(vec![x]), k * m * x, 500_000).unwrap();
        prop_assert!(verdict.is_correct());
    }

    /// Observation 2.1 in executable form: an output-oblivious CRN never
    /// reaches an output count above the value it stably computes.
    #[test]
    fn oblivious_crns_never_overshoot(x1 in 0u64..5, x2 in 0u64..5) {
        let min = examples::min_crn();
        let verdict = check_stable_computation(&min, &NVec::from(vec![x1, x2]), x1.min(x2), 100_000).unwrap();
        prop_assert!(verdict.is_correct());
        prop_assert_eq!(verdict.max_output_reachable, x1.min(x2));
    }

    /// The pipeline engine composes random chains of output-oblivious
    /// modules (multiply by `a`, clamp below `n`, multiply by `b`) and the
    /// result checks out against direct evaluation of `g ∘ f` via
    /// `check_stable_computation` — the Observation 2.2 guarantee, n-stage.
    #[test]
    fn random_oblivious_chains_compute_the_composition(
        a in 1u64..4, n in 0u64..3, b in 1u64..4, x in 0u64..5
    ) {
        let mut p = Pipeline::new(1);
        let s1 = p.add_stage("s1", &examples::multiply_crn(a), &[PipeSource::Global(0)]).unwrap();
        let s2 = p.add_stage("s2", &clamp_below_crn(n), &[PipeSource::Stage(s1)]).unwrap();
        let s3 = p.add_stage("s3", &examples::multiply_crn(b), &[PipeSource::Stage(s2)]).unwrap();
        prop_assert!(p.non_oblivious_feeders().is_empty());
        let composed = p.build(s3).unwrap();
        prop_assert!(composed.is_output_oblivious());
        let expected = b * (a * x).saturating_sub(n);
        let verdict = check_stable_computation(&composed, &NVec::from(vec![x]), expected, 500_000).unwrap();
        prop_assert!(verdict.is_correct(), "b((ax - n)+) failed at a={a} n={n} b={b} x={x}");
    }

    /// Fan-out edition: one global input feeds two random scaling modules
    /// whose wires meet in a min stage — and composing the same modules with
    /// species renamed to the engine's own wire names (`W0`, `Y_out`, `L`,
    /// `s1.out`) gives the same function (no capture).
    #[test]
    fn random_fan_out_is_capture_proof(a in 1u64..4, b in 1u64..4, x in 0u64..5) {
        let build = |upper: composable_crn::model::FunctionCrn,
                     lower: composable_crn::model::FunctionCrn| {
            let mut p = Pipeline::new(1);
            let s1 = p.add_stage("s1", &upper, &[PipeSource::Global(0)]).unwrap();
            let s2 = p.add_stage("s2", &lower, &[PipeSource::Global(0)]).unwrap();
            let m = p
                .add_stage("m", &examples::min_crn(), &[PipeSource::Stage(s1), PipeSource::Stage(s2)])
                .unwrap();
            p.build(m).unwrap()
        };
        let adversarial = |k: u64| {
            // k·x with species literally named after engine wires.
            let mut crn = composable_crn::model::Crn::new();
            crn.parse_reaction(&format!("W0 -> {k}Y_out + L")).unwrap();
            crn.parse_reaction("L -> 0").unwrap();
            composable_crn::model::FunctionCrn::with_named_roles(crn, &["W0"], "Y_out", None)
                .unwrap()
        };
        let expected = (a * x).min(b * x);
        let plain = build(examples::multiply_crn(a), examples::multiply_crn(b));
        let renamed = build(adversarial(a), adversarial(b));
        for composed in [plain, renamed] {
            let verdict =
                check_stable_computation(&composed, &NVec::from(vec![x]), expected, 500_000).unwrap();
            prop_assert!(verdict.is_correct(), "min(ax, bx) failed at a={a} b={b} x={x}");
        }
    }
}
