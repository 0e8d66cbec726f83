//! Criterion benchmarks for the incremental box-reachability engine
//! (experiment E19 of DESIGN.md): box-check verdicts/sec on the `max` CRN
//! sweep — static verdicts, symmetry-orbit skipping, cross-point
//! memoization and packed exploration versus the reference engine.

use std::time::Duration;

use criterion::{criterion_group, criterion_main, Criterion};

fn configured() -> Criterion {
    Criterion::default()
        .sample_size(10)
        .measurement_time(Duration::from_secs(2))
        .warm_up_time(Duration::from_millis(300))
}

fn incremental_box_throughput(c: &mut Criterion) {
    let (incremental_vps, reference_vps, speedup, identical) = crn_bench::e19_box_check(16, 3);
    eprintln!("\n[E19] incremental vs reference box check (max CRN, bound 16, 1 worker)");
    eprintln!(
        "  {incremental_vps:.1} verdicts/s incremental vs {reference_vps:.1} reference, \
         speedup {speedup:.1}x, bit-identical={identical}"
    );
    assert!(
        identical,
        "the incremental layers must not change any verdict"
    );
    assert!(
        speedup >= 5.0,
        "E19 acceptance: incremental engine must be at least 5x the reference, got {speedup:.1}x"
    );

    let mut group = c.benchmark_group("E19_box_check_max_bound16");
    group.bench_function("incremental", |b| {
        b.iter(|| crn_bench::e19_box_incremental(16));
    });
    group.bench_function("reference", |b| {
        b.iter(|| crn_bench::e19_box_reference(16));
    });
    group.finish();
}

criterion_group! {
    name = e19_incremental_box;
    config = configured();
    targets = incremental_box_throughput
}
criterion_main!(e19_incremental_box);
