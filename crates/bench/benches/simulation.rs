//! Criterion benchmarks for the simulation substrates (experiments E11 and
//! E12 of DESIGN.md) and raw SSA throughput.

use std::time::Duration;

use criterion::{criterion_group, criterion_main, Criterion};
use crn_model::examples;
use crn_numeric::NVec;
use crn_sim::Gillespie;

fn configured() -> Criterion {
    Criterion::default()
        .sample_size(10)
        .measurement_time(Duration::from_secs(2))
        .warm_up_time(Duration::from_millis(300))
}

fn ssa_throughput(c: &mut Criterion) {
    let mut group = c.benchmark_group("ssa_throughput");
    for n in [100u64, 1000] {
        group.bench_function(format!("max_crn_n{n}"), |b| {
            let max = examples::max_crn();
            let start = max.initial_configuration(&NVec::from(vec![n, n])).unwrap();
            b.iter(|| {
                Gillespie::new(max.crn(), 1)
                    .run(&start, 10_000_000)
                    .unwrap()
            });
        });
    }
    group.finish();
}

fn scaling_limit(c: &mut Criterion) {
    let series = crn_bench::scaling_error_series(&[1, 4, 16, 64, 256, 1024]);
    eprintln!("\n[E11 / Theorem 8.2] |f(⌊cz⌋)/c − f̂(z)| for f = ⌊3x/2⌋, z = 7/3");
    for (factor, error) in &series {
        eprintln!("  c={factor}: error={error:.5}");
    }
    c.bench_function("E11_scaling_error_series", |b| {
        b.iter(|| crn_bench::scaling_error_series(&[1, 4, 16, 64]));
    });
}

fn popproto_scheduling(c: &mut Criterion) {
    let rows = crn_bench::popproto_interactions(&[8, 32, 128]);
    eprintln!("\n[E12] pairwise-collision interactions to silence: (n, min CRN, max CRN)");
    for row in &rows {
        eprintln!("  {row:?}");
    }
    c.bench_function("E12_popproto_interactions", |b| {
        b.iter(|| crn_bench::popproto_interactions(&[8, 32]));
    });
}

criterion_group! {
    name = simulation;
    config = configured();
    targets = ssa_throughput, scaling_limit, popproto_scheduling
}
criterion_main!(simulation);
