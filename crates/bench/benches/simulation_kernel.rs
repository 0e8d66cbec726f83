//! Criterion benchmarks for the dense simulation kernel (experiment E14 of
//! DESIGN.md): Gillespie steps/sec on the compiled incremental-propensity
//! kernel versus the sparse seed implementation, and ensemble trial
//! throughput versus worker count, on the Figure 1 CRNs.

use std::time::Duration;

use criterion::{criterion_group, criterion_main, Criterion};
use crn_model::examples;
use crn_numeric::NVec;
use crn_sim::{Ensemble, Gillespie, SparseGillespie};

fn configured() -> Criterion {
    Criterion::default()
        .sample_size(10)
        .measurement_time(Duration::from_secs(2))
        .warm_up_time(Duration::from_millis(300))
}

fn kernel_throughput(c: &mut Criterion) {
    let rows = crn_bench::e14_kernel_throughput(1000, 20);
    eprintln!("\n[E14] Gillespie steps/sec (dense incremental kernel vs sparse seed path)");
    for r in &rows {
        eprintln!(
            "  {}: {} steps, {:.2e} dense steps/s vs {:.2e} sparse, speedup {:.1}x, \
             bit-identical={}",
            r.name, r.steps, r.dense_steps_per_sec, r.sparse_steps_per_sec, r.speedup, r.identical
        );
    }

    let max = examples::max_crn();
    let start = max
        .initial_configuration(&NVec::from(vec![1000, 1000]))
        .unwrap();
    let mut group = c.benchmark_group("E14_max_crn_n1000_single_run");
    group.bench_function("dense_kernel", |b| {
        let mut sim = Gillespie::new(max.crn(), 0);
        b.iter(|| {
            sim.reseed(1);
            sim.run(&start, 100_000_000).unwrap()
        });
    });
    group.bench_function("sparse_seed_path", |b| {
        let mut sim = SparseGillespie::new(max.crn().clone(), 0);
        b.iter(|| {
            sim.reseed(1);
            sim.run(&start, 100_000_000)
        });
    });
    group.finish();
}

fn ensemble_scaling(c: &mut Criterion) {
    let rows = crn_bench::e14_ensemble_scaling(200, 64, &[1, 2, 4]);
    eprintln!("\n[E14] ensemble trial throughput vs workers (max CRN, x=(200,200), 64 trials)");
    for r in &rows {
        eprintln!(
            "  workers={}: {:.0} trials/s, {:.2}x vs one worker, bit-identical={}",
            r.workers, r.trials_per_sec, r.speedup_vs_one, r.identical
        );
    }

    let max = examples::max_crn();
    let x = NVec::from(vec![200u64, 200]);
    let mut group = c.benchmark_group("E14_ensemble_64_trials");
    for workers in [1usize, 4] {
        let ensemble = Ensemble::new(&max)
            .with_max_steps(100_000_000)
            .with_workers(workers);
        group.bench_function(format!("workers_{workers}"), |b| {
            b.iter(|| ensemble.run(&x, 64, 5).unwrap());
        });
    }
    group.finish();
}

criterion_group! {
    name = simulation_kernel;
    config = configured();
    targets = kernel_throughput, ensemble_scaling
}
criterion_main!(simulation_kernel);
