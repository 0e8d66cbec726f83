//! `crn_obs` — the workspace's observability layer (depending only on the
//! `crn_sync` concurrency facade).
//!
//! One global [`Registry`] holds named atomic counters, max-gauges,
//! log₂-bucket [`Histogram`]s, and accumulated [`span`] durations.  The
//! whole layer is gated by a process-wide enabled flag: every free function
//! here checks it with a single relaxed atomic load and no-ops when
//! profiling is off, so instrumented hot paths cost (almost) nothing unless
//! the user asked for `--profile`.
//!
//! # Determinism contract
//!
//! Metrics are observational only: nothing read from the registry may feed
//! back into a verdict, a simulation trajectory, or any byte of stdout
//! except the explicitly versioned `metrics` object that `--json` embeds
//! when profiling is enabled.  Counter values for interleaving-independent
//! quantities (points evaluated, simulation steps, trials) are identical at
//! every worker count because workers accumulate locally and the merge is
//! commutative addition; timing values and counters of per-worker state
//! (arena collisions and grows) are measurements, not contracts.
//!
//! # Metric naming
//!
//! Names are dot-separated `<crate>.<subsystem>.<metric>` (for example
//! `model.box.points`, `sim.steps`, `model.arena.grows`).  Span paths are
//! "/"-joined span names, innermost last (`cli.verify/model.box.sweep`).
//!
//! # Usage
//!
//! ```
//! crn_obs::set_enabled(true);
//! {
//!     let _span = crn_obs::span("phase");
//!     crn_obs::add("work.items", 3);
//! }
//! let snapshot = crn_obs::snapshot();
//! assert_eq!(snapshot.counters[0], ("work.items".to_string(), 3));
//! assert_eq!(snapshot.spans[0].0, "phase");
//! crn_obs::set_enabled(false);
//! crn_obs::reset();
//! ```

#![forbid(unsafe_code)]

mod histogram;
mod registry;
mod span;

pub use histogram::{
    bucket_index, bucket_range, Histogram, HistogramSnapshot, LocalHistogram, BUCKETS,
};
pub use registry::{format_nanos, Counter, MetricsSnapshot, Registry, SpanSnapshot};
pub use span::{span, AdoptGuard, SpanGuard, SpanPath};

use crn_sync::atomic::{AtomicBool, Ordering};
use crn_sync::OnceLock;

static ENABLED: AtomicBool = AtomicBool::new(false);
static GLOBAL: OnceLock<Registry> = OnceLock::new();

/// The process-wide registry.
pub fn global() -> &'static Registry {
    GLOBAL.get_or_init(Registry::new)
}

/// Turns profiling on or off for the whole process.
pub fn set_enabled(enabled: bool) {
    // Ordering: Relaxed — the flag is set once at startup before any worker
    // threads exist (CLI flag parsing), so spawn edges publish it; a racing
    // toggle could only make some events miss the window, never corrupt
    // state.
    ENABLED.store(enabled, Ordering::Relaxed);
}

/// Whether profiling is currently enabled.
#[must_use]
pub fn enabled() -> bool {
    // Ordering: Relaxed — see `set_enabled`; this is the single-load fast
    // path every instrumented call site pays when profiling is off.
    ENABLED.load(Ordering::Relaxed)
}

/// Adds `delta` to the counter `name`; no-op when profiling is disabled.
pub fn add(name: &str, delta: u64) {
    if enabled() {
        global().add(name, delta);
    }
}

/// Raises the max-gauge `name` to at least `value`; no-op when disabled.
pub fn gauge_max(name: &str, value: u64) {
    if enabled() {
        global().gauge_max(name, value);
    }
}

/// Records one histogram sample; no-op when disabled.
pub fn observe(name: &str, value: u64) {
    if enabled() {
        global().observe(name, value);
    }
}

/// Merges a locally accumulated histogram; no-op when disabled.
pub fn observe_many(name: &str, local: &LocalHistogram) {
    if enabled() {
        global().observe_many(name, local);
    }
}

/// Adds one span entry of `nanos` under `path`; no-op when disabled.
pub fn record_span(path: &str, nanos: u64) {
    if enabled() {
        global().record_span(path, nanos);
    }
}

/// A name-sorted copy of the global registry's current state.
#[must_use]
pub fn snapshot() -> MetricsSnapshot {
    global().snapshot()
}

/// Clears every metric in the global registry.
pub fn reset() {
    global().reset();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crn_sync::{lock_recover, Mutex, MutexGuard};

    /// Tests below mutate the process-global registry and enabled flag, so
    /// they serialize on this lock (the test harness runs them in parallel).
    static TEST_LOCK: Mutex<()> = Mutex::new(());

    fn exclusive() -> MutexGuard<'static, ()> {
        let guard = lock_recover(&TEST_LOCK);
        set_enabled(true);
        reset();
        guard
    }

    #[test]
    fn disabled_layer_records_nothing() {
        let _guard = exclusive();
        set_enabled(false);
        add("c", 1);
        gauge_max("g", 1);
        observe("h", 1);
        record_span("s", 1);
        {
            let _span = span("phase");
        }
        assert!(snapshot().is_empty());
        assert!(SpanPath::current().is_empty());
    }

    #[test]
    fn spans_nest_into_slash_paths() {
        let _guard = exclusive();
        {
            let _outer = span("outer");
            {
                let _inner = span("inner");
            }
            {
                let _inner = span("inner");
            }
        }
        let snap = snapshot();
        let paths: Vec<&str> = snap.spans.iter().map(|(p, _)| p.as_str()).collect();
        assert_eq!(paths, vec!["outer", "outer/inner"]);
        let inner = &snap.spans[1].1;
        assert_eq!(inner.count, 2);
        let outer = &snap.spans[0].1;
        assert_eq!(outer.count, 1);
        assert!(
            outer.total_nanos >= inner.total_nanos,
            "outer span contains both inner entries"
        );
    }

    #[test]
    fn workers_adopt_the_spawning_phase() {
        let _guard = exclusive();
        {
            let _sweep = span("sweep");
            let here = SpanPath::current();
            assert_eq!(here.as_str(), "sweep");
            crn_sync::thread::scope(|scope| {
                for _ in 0..3 {
                    let path = here.clone();
                    scope.spawn(move || {
                        let _adopted = path.adopt();
                        let _work = span("worker");
                    });
                }
            });
        }
        let snap = snapshot();
        let paths: Vec<&str> = snap.spans.iter().map(|(p, _)| p.as_str()).collect();
        assert_eq!(paths, vec!["sweep", "sweep/worker"]);
        assert_eq!(snap.spans[1].1.count, 3, "one entry per worker");
    }

    #[test]
    fn adoption_guard_restores_the_worker_stack() {
        let _guard = exclusive();
        let captured = {
            let _outer = span("outer");
            SpanPath::current()
        };
        crn_sync::thread::scope(|scope| {
            scope.spawn(|| {
                {
                    let adopted = captured.adopt();
                    drop(adopted);
                }
                // After the guard drops the stack is empty again, so this
                // span records at the root.
                let _root = span("rootless");
            });
        });
        let snap = snapshot();
        assert!(snap.spans.iter().any(|(p, _)| p == "rootless"));
        assert!(!snap.spans.iter().any(|(p, _)| p == "outer/rootless"));
    }

    #[test]
    fn counter_partition_merge_is_deterministic() {
        let _guard = exclusive();
        // Simulate 1/2/4-worker partitions of the same 100 increments: the
        // final counter value must not depend on the partition.
        let mut reference = None;
        for workers in [1usize, 2, 4] {
            reset();
            crn_sync::thread::scope(|scope| {
                for w in 0..workers {
                    scope.spawn(move || {
                        let mut local = 0u64;
                        for i in 0..100u64 {
                            if (i as usize) % workers == w {
                                local += i;
                            }
                        }
                        add("work.total", local);
                    });
                }
            });
            let value = snapshot()
                .counters
                .iter()
                .find(|(n, _)| n == "work.total")
                .map(|(_, v)| *v);
            match reference {
                None => reference = value,
                Some(expected) => assert_eq!(value, Some(expected), "workers={workers}"),
            }
        }
        assert_eq!(reference, Some(4950));
    }
}
