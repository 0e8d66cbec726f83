//! The symmetry detector on the paper's constructions: the synthesized
//! Lemma 6.2 CRNs of the corpus functions, a composed pipeline of them, and
//! the Figure 1 corpus CRNs all carry the input swap, and the detector must
//! find it.

use std::path::Path;

use composable_crn::core::characterize::{characterize, Characterization};
use composable_crn::core::synthesis::synthesize;
use composable_crn::lang::lower::{lower_document, LoweredDocument};
use composable_crn::model::analysis::CrnAnalysis;
use composable_crn::model::compose::concatenate;
use composable_crn::model::FunctionCrn;

fn corpus(stem: &str) -> LoweredDocument {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join(format!("corpus/{stem}.crn"));
    let source = std::fs::read_to_string(&path).expect("corpus document exists");
    let doc = composable_crn::lang::parse(&source).expect("corpus document parses");
    lower_document(&doc).expect("corpus document lowers")
}

/// The Lemma 6.2 construction of the document's one `spec`, or of its one
/// `fn` through the characterization, as `crn synthesize` builds it.
fn synthesized(stem: &str) -> FunctionCrn {
    let doc = corpus(stem);
    let spec = match (doc.specs.as_slice(), doc.fns.as_slice()) {
        ([(_, spec)], _) => spec.clone(),
        ([], [(_, f)]) => match characterize(f, 8).expect("characterizes") {
            Characterization::ObliviouslyComputable { spec } => spec,
            _ => panic!("`{stem}` is obliviously computable"),
        },
        _ => panic!("`{stem}` has one spec or fn"),
    };
    synthesize(&spec).expect("synthesizes")
}

/// The skip-orientation input permutations the detector finds on `crn`.
fn swaps(crn: &FunctionCrn) -> Vec<Vec<usize>> {
    CrnAnalysis::of(crn)
        .automorphisms()
        .iter()
        .map(|a| a.inputs().to_vec())
        .collect()
}

#[test]
fn synthesized_constructions_have_the_input_swap() {
    for stem in ["min_spec", "figure7", "compound_spec"] {
        assert_eq!(swaps(&synthesized(stem)), vec![vec![1, 0]], "{stem}");
    }
}

#[test]
fn a_pipeline_of_synthesized_modules_has_the_input_swap() {
    let min2 = synthesized("min_spec");
    let staircase = synthesized("staircase");
    assert!(swaps(&staircase).is_empty(), "one input, no orbits");
    let pipeline = concatenate(&min2, &staircase).expect("min2 feeds the staircase");
    assert_eq!(
        (pipeline.species_count(), pipeline.reaction_count()),
        (75, 58)
    );
    assert_eq!(swaps(&pipeline), vec![vec![1, 0]]);
}

#[test]
fn figure1_corpus_crns_have_the_input_swap() {
    for stem in ["figure1_max", "figure1_min", "add"] {
        let doc = corpus(stem);
        let [(_, lowered)] = doc.crns.as_slice() else {
            panic!("`{stem}` has one crn item");
        };
        assert_eq!(swaps(&lowered.crn), vec![vec![1, 0]], "{stem}");
    }
}
