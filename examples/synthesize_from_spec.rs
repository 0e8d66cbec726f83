//! End-to-end use of the main theorem: characterize a semilinear function
//! (Section 7 pipeline), compile the resulting spec to an output-oblivious CRN
//! (Lemma 6.2), and verify the CRN by exhaustive search and simulation.
//!
//! Run with `cargo run --example synthesize_from_spec`.

use composable_crn::core::characterize::{characterize, Characterization};
use composable_crn::core::scaling::InfinityScaling;
use composable_crn::core::spec::ObliviousSpec;
use composable_crn::core::synthesis::synthesize;
use composable_crn::model::check_stable_computation;
use composable_crn::numeric::{NVec, QVec, Rational};
use composable_crn::semilinear::examples as sl;
use composable_crn::sim::runner::spot_check_on_box;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // The running example of Section 7.1 (Figure 7).
    let f = sl::figure7_example();
    let Characterization::ObliviouslyComputable { spec } = characterize(&f, 8)? else {
        panic!("the Figure 7 example is obliviously computable");
    };
    if let ObliviousSpec::Compound { eventual, .. } = &spec {
        println!(
            "eventual-min representation: threshold {}, {} quilt-affine pieces",
            eventual.threshold(),
            eventual.pieces().len()
        );
        for (k, piece) in eventual.pieces().iter().enumerate() {
            println!(
                "  g{}: gradient {}, period {}",
                k + 1,
                piece.gradient(),
                piece.period()
            );
        }
        // The scaling limit (Theorem 8.2): min of the gradients.
        let scaling = InfinityScaling::of(eventual);
        let z = QVec::from(vec![Rational::from(2), Rational::from(6)]);
        println!("scaling limit f̂(2, 6) = {}", scaling.eval(&z));
    }

    // Compile to a CRN via the Lemma 6.2 construction.
    let crn = synthesize(&spec)?;
    println!(
        "synthesized CRN: {} species, {} reactions, output-oblivious: {}, leader: {}",
        crn.species_count(),
        crn.reaction_count(),
        crn.is_output_oblivious(),
        crn.has_leader()
    );

    // Exhaustive verification on tiny inputs, stochastic spot checks beyond.
    for x1 in 0..2u64 {
        for x2 in 0..2u64 {
            let expected = f.eval(&NVec::from(vec![x1, x2]))?;
            let verdict =
                check_stable_computation(&crn, &NVec::from(vec![x1, x2]), expected, 500_000)?;
            println!(
                "exhaustive check f({x1},{x2}) = {expected}: {}",
                verdict.is_correct()
            );
        }
    }
    // Counts the inputs whose run was cut, plus the first one whose run fell
    // silent with a wrong output.
    let spot = spot_check_on_box(&crn, |x| f.eval(x).unwrap(), 4, 2_000_000, 23)?;
    let mismatches = spot.cut + u64::from(spot.wrong.is_some());
    println!("stochastic spot checks on [0,4]^2: {mismatches} mismatches");
    Ok(())
}
