//! Criterion benchmarks for the paper's constructions (experiments E9 and E10
//! of DESIGN.md): construction sizes, synthesis cost and composition overhead.

use std::time::Duration;

use criterion::{criterion_group, criterion_main, Criterion};
use crn_core::one_dim::{analyze_1d, synthesize_1d_leader};
use crn_core::quilt::QuiltAffine;
use crn_core::synthesis::quilt_crn;
use crn_numeric::{QVec, Rational};

fn configured() -> Criterion {
    Criterion::default()
        .sample_size(10)
        .measurement_time(Duration::from_secs(2))
        .warm_up_time(Duration::from_millis(300))
}

fn construction_sizes(c: &mut Criterion) {
    let rows = crn_bench::construction_sizes();
    eprintln!("\n[E9] construction sizes (species, reactions)");
    for (name, species, reactions) in &rows {
        eprintln!("  {name}: {species} species, {reactions} reactions");
    }
    c.bench_function("E9_construction_size_table", |b| {
        b.iter(crn_bench::construction_sizes);
    });
}

fn lemma61_synthesis_cost(c: &mut Criterion) {
    let mut group = c.benchmark_group("E9_lemma61_synthesis");
    for p in [2u64, 3, 4] {
        group.bench_function(format!("d2_p{p}"), |b| {
            let g = QuiltAffine::floor_linear(
                &QVec::from(vec![
                    Rational::new(1, p as i128),
                    Rational::new(1, p as i128),
                ]),
                p,
            );
            b.iter(|| quilt_crn(&g).expect("quilt CRN"));
        });
    }
    group.finish();
}

fn theorem31_synthesis_cost(c: &mut Criterion) {
    c.bench_function("E9_theorem31_pipeline", |b| {
        b.iter(|| {
            let s =
                analyze_1d(|x| if x < 3 { 0 } else { 2 * x + x % 2 }, 8, 4, 12).expect("structure");
            synthesize_1d_leader(&s)
        });
    });
}

fn composition_overhead(c: &mut Criterion) {
    let rows = crn_bench::composition_overhead(&[8, 32, 128], 3);
    eprintln!(
        "\n[E10] composed 2·min vs monolithic: (n, composed mean steps, monolithic mean steps)"
    );
    for row in &rows {
        eprintln!("  {row:?}");
    }
    c.bench_function("E10_composition_overhead", |b| {
        b.iter(|| crn_bench::composition_overhead(&[8, 32], 2));
    });
}

criterion_group! {
    name = constructions;
    config = configured();
    targets = construction_sizes, lemma61_synthesis_cost, theorem31_synthesis_cost, composition_overhead
}
criterion_main!(constructions);
