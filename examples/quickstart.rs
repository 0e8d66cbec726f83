//! Quickstart: build the Figure 1 CRNs, verify them exhaustively, simulate
//! them stochastically, and compose two of them.
//!
//! Run with `cargo run --example quickstart`.

use composable_crn::model::compose::concatenate;
use composable_crn::model::{check_stable_computation, examples};
use composable_crn::numeric::NVec;
use composable_crn::sim::Gillespie;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // The three CRNs of Figure 1.
    let double = examples::double_crn();
    let min = examples::min_crn();
    let max = examples::max_crn();
    println!("double CRN:\n{}", double.crn().describe());
    println!("min CRN:\n{}", min.crn().describe());
    println!("max CRN:\n{}", max.crn().describe());
    println!(
        "output-oblivious? double={} min={} max={}",
        double.is_output_oblivious(),
        min.is_output_oblivious(),
        max.is_output_oblivious()
    );

    // Exhaustive verification of stable computation on one input each.
    for (name, crn, input, expected) in [
        ("2x", &double, NVec::from(vec![5]), 10),
        ("min", &min, NVec::from(vec![3, 7]), 3),
        ("max", &max, NVec::from(vec![3, 7]), 7),
    ] {
        let verdict = check_stable_computation(crn, &input, expected, 100_000)?;
        println!(
            "{name}({input}) = {expected}: stably computed = {}, reachable configurations = {}",
            verdict.is_correct(),
            verdict.reachable_configurations
        );
    }

    // Stochastic simulation of the max CRN: the output converges to max even
    // though it can transiently overshoot.
    let start = max.initial_configuration(&NVec::from(vec![40, 25]))?;
    let run = Gillespie::new(max.crn(), 1).run(&start, 1_000_000)?;
    println!(
        "SSA run of max on (40, 25): output {} after {} steps (silent: {})",
        run.final_configuration.count(max.output()),
        run.steps,
        run.silent
    );

    // Composition by concatenation (Section 2.3): 2·min(x1, x2).
    let two_min = concatenate(&min, &double)?;
    let verdict = check_stable_computation(&two_min, &NVec::from(vec![4, 9]), 8, 100_000)?;
    println!(
        "composed 2·min CRN ({} species, {} reactions) stably computes 2·min(4,9)={}: {}",
        two_min.species_count(),
        two_min.reaction_count(),
        8,
        verdict.is_correct()
    );
    Ok(())
}
