//! The workspace's concurrency invariant suites, verified by exhaustive
//! interleaving exploration (E21).
//!
//! Run with `RUSTFLAGS='--cfg crn_model_check' cargo test -p crn-sync --test
//! model`; under a normal build this file compiles to nothing.  Each test
//! drives a 2–3 thread miniature of a load-bearing protocol — the
//! `parallel.rs` cursor + `first_bad` reduction (with two spawned workers,
//! and with the calling thread forking its helper mid-scan), a
//! release/acquire publish, the `crn_obs` registry (the *real* `Registry`,
//! via the dev-dependency) — through every schedule within the stated
//! preemption bound, plus litmus tests pinning the memory model and
//! negative tests proving a seeded ordering bug is caught with a
//! replayable trace.
//!
//! Tests print their explored-execution counts (`cargo test ... --
//! --nocapture`); EXPERIMENTS.md E21 records the reference numbers.

#![cfg(crn_model_check)]

use crn_sync::atomic::{AtomicU64, Ordering};
use crn_sync::model::{Checker, Strategy};
use crn_sync::{lock_recover, thread, Mutex};
use std::cell::RefCell;
use std::collections::BTreeSet;

/// The bad indices of the `parallel.rs` miniatures' box `0..4`.
const BAD: [u64; 2] = [1, 3];

/// One worker of the `parallel.rs` miniatures: draws indices 0..4 from the
/// shared cursor, records its first bad draw locally and lowers the shared
/// `first_bad` pruning bound.  `fork` is offered the draw count before each
/// draw after the first, as the calling thread offers its fork in
/// `parallel.rs`.
fn scan_worker(
    next: &AtomicU64,
    first_bad: &AtomicU64,
    [cursor, load, reduce]: [Ordering; 3],
    mut fork: impl FnMut(u64),
) -> Option<u64> {
    const TOTAL: u64 = 4;
    let mut draws = 0;
    loop {
        if draws > 0 {
            fork(draws);
        }
        let i = next.fetch_add(1, cursor);
        if i >= TOTAL || i > first_bad.load(load) {
            return None;
        }
        draws += 1;
        if BAD.contains(&i) {
            first_bad.fetch_min(i, reduce);
            return Some(i);
        }
    }
}

/// The `parallel.rs` sharded-scan miniature: 2 spawned workers share the
/// cursor; the winner is the minimum of the local records, merged after
/// join.
fn first_bad_scan(cursor: Ordering, load: Ordering, reduce: Ordering) -> Option<u64> {
    let next = AtomicU64::new(0);
    let first_bad = AtomicU64::new(u64::MAX);
    thread::scope(|scope| {
        let handles: Vec<_> = (0..2)
            .map(|_| {
                let next = &next;
                let first_bad = &first_bad;
                scope.spawn(move || scan_worker(next, first_bad, [cursor, load, reduce], |_| {}))
            })
            .collect();
        handles
            .into_iter()
            .filter_map(|h| h.join().expect("worker does not panic"))
            .min()
    })
}

/// The miniature of `parallel.rs`'s lazy fork: the scope's own thread scans
/// as worker 0 and spawns its one helper onto the same cursor after its
/// first draw; the winner is the minimum of both local records.
fn first_bad_scan_lazy(orders: [Ordering; 3]) -> Option<u64> {
    let next = AtomicU64::new(0);
    let first_bad = AtomicU64::new(u64::MAX);
    thread::scope(|scope| {
        let mut helper = None;
        let own = scan_worker(&next, &first_bad, orders, |draws| {
            if draws == 1 {
                let (next, first_bad) = (&next, &first_bad);
                helper = Some(scope.spawn(move || scan_worker(next, first_bad, orders, |_| {})));
            }
        });
        let helper = helper
            .expect("the first draw is good, so the helper spawns")
            .join()
            .expect("worker does not panic");
        own.into_iter().chain(helper).min()
    })
}

/// The headline invariant of `parallel.rs`: the lexicographically-first bad
/// point is never lost or reordered by the `fetch_min` reduction, under
/// every schedule (including stale `first_bad` reads, which only widen the
/// scanned prefix).  Cross-referenced from the ordering audit at
/// `crates/model/src/reachability/parallel.rs`.
#[test]
fn first_bad_reduction_never_loses_lex_first() {
    let report = Checker::new().preemption_bound(3).check(
        "first_bad_reduction_never_loses_lex_first",
        || {
            let winner = first_bad_scan(Ordering::Relaxed, Ordering::Acquire, Ordering::AcqRel);
            assert_eq!(winner, Some(1), "lex-first bad point must win the merge");
        },
    );
    assert!(!report.truncated, "exploration must be exhaustive");
    eprintln!(
        "E21 first_bad (Relaxed/Acquire/AcqRel, bound 3): {} executions",
        report.executions
    );
}

/// The audit claim that the `Acquire`/`AcqRel` pair in `parallel.rs` is
/// protocol documentation rather than a correctness requirement: the
/// all-Relaxed downgrade of the same protocol also passes exhaustively,
/// because a stale bound read only makes a worker evaluate a point it could
/// have skipped.
#[test]
fn first_bad_reduction_tolerates_relaxed() {
    let report =
        Checker::new()
            .preemption_bound(3)
            .check("first_bad_reduction_tolerates_relaxed", || {
                let winner =
                    first_bad_scan(Ordering::Relaxed, Ordering::Relaxed, Ordering::Relaxed);
                assert_eq!(winner, Some(1), "the protocol is ordering-independent");
            });
    assert!(!report.truncated);
    eprintln!(
        "E21 first_bad (all-Relaxed, bound 3): {} executions",
        report.executions
    );
}

/// The calling thread as worker 0 (`parallel.rs` under the default worker
/// count): scanning before the helper exists, then racing it on the rest of
/// the cursor, never loses the lexicographically-first bad point, at the
/// audited orderings and at the all-Relaxed downgrade.  Cross-referenced
/// from the ordering audit in `parallel.rs`.
#[test]
fn first_bad_reduction_survives_a_lazy_fork() {
    for (name, orders) in [
        (
            "Relaxed/Acquire/AcqRel",
            [Ordering::Relaxed, Ordering::Acquire, Ordering::AcqRel],
        ),
        ("all-Relaxed", [Ordering::Relaxed; 3]),
    ] {
        let report = Checker::new().preemption_bound(3).check(
            "first_bad_reduction_survives_a_lazy_fork",
            || {
                let winner = first_bad_scan_lazy(orders);
                assert_eq!(winner, Some(1), "lex-first bad point must win the merge");
            },
        );
        assert!(!report.truncated, "exploration must be exhaustive");
        eprintln!(
            "E21 first_bad lazy fork ({name}, bound 3): {} executions",
            report.executions
        );
    }
}

/// The message-passing publish contract in miniature: a slot written
/// `Relaxed` is published by a `Release` flag store, and an `Acquire`
/// reader that sees the flag must see the slot.  Passes
/// exhaustively; `relaxed_publish_downgrade_is_caught` below proves the
/// same test fails when the pairing is downgraded.
#[test]
fn memo_publish_release_acquire_protocol() {
    let report = Checker::new().check("memo_publish_release_acquire_protocol", || {
        let slot = AtomicU64::new(0);
        let ready = AtomicU64::new(0);
        thread::scope(|scope| {
            scope.spawn(|| {
                slot.store(42, Ordering::Relaxed);
                ready.store(1, Ordering::Release);
            });
            scope.spawn(|| {
                if ready.load(Ordering::Acquire) == 1 {
                    assert_eq!(
                        slot.load(Ordering::Relaxed),
                        42,
                        "acquire on the flag must publish the slot"
                    );
                }
            });
        });
    });
    assert!(!report.truncated);
    eprintln!(
        "E21 memo publish MP litmus (bound 2): {} executions",
        report.executions
    );
}

/// The deliberately-seeded ordering bug of the acceptance criteria:
/// downgrading the publish pairing to `Relaxed` breaks message passing, the
/// checker catches it, and the reported schedule replays to the same
/// violation.
#[test]
fn relaxed_publish_downgrade_is_caught() {
    let broken = || {
        let slot = AtomicU64::new(0);
        let ready = AtomicU64::new(0);
        thread::scope(|scope| {
            scope.spawn(|| {
                slot.store(42, Ordering::Relaxed);
                ready.store(1, Ordering::Relaxed); // seeded bug: was Release
            });
            scope.spawn(|| {
                if ready.load(Ordering::Relaxed) == 1 {
                    // seeded bug: was Acquire
                    assert_eq!(slot.load(Ordering::Relaxed), 42);
                }
            });
        });
    };
    let violation = Checker::new().check_violation("relaxed_publish_downgrade_is_caught", broken);
    assert!(
        violation.message.contains("assert"),
        "the violation is the publish assertion: {}",
        violation.message
    );
    assert!(
        !violation.trace.is_empty(),
        "the report carries the interleaving trace"
    );
    // The schedule string replays to the same violation.
    let replayed = Checker::replay(&violation.schedule, broken)
        .expect("the recorded schedule reproduces the violation");
    assert_eq!(replayed.message, violation.message);
    eprintln!(
        "E21 seeded downgrade caught after {} executions; schedule `{}` replays",
        violation.executions, violation.schedule
    );
}

/// The same seeded bug is also found by the seeded random-walk strategy —
/// the mode meant for miniatures whose bounded-DFS space is too large.
#[test]
fn random_walk_finds_publish_downgrade() {
    let violation = Checker::new()
        .strategy(Strategy::Random {
            seed: 0xC0FF_EE00,
            executions: 5_000,
        })
        .check_violation("random_walk_finds_publish_downgrade", || {
            let slot = AtomicU64::new(0);
            let ready = AtomicU64::new(0);
            thread::scope(|scope| {
                scope.spawn(|| {
                    slot.store(42, Ordering::Relaxed);
                    ready.store(1, Ordering::Relaxed);
                });
                scope.spawn(|| {
                    if ready.load(Ordering::Relaxed) == 1 {
                        assert_eq!(slot.load(Ordering::Relaxed), 42);
                    }
                });
            });
        });
    eprintln!(
        "E21 random walk caught the downgrade after {} executions",
        violation.executions
    );
}

/// Registry invariant (satellite of the detached-handle caveat): worker
/// flushes through the real `crn_obs::Registry` — one coarse `add` per
/// worker, exactly like `parallel.rs` — are never dropped: after the scope
/// join, the snapshot total is exact under every interleaving of the map
/// locks and the `Relaxed` counter RMWs.  Cross-referenced from the
/// ordering audit in `crates/obs/src/registry.rs`.
#[test]
fn registry_flush_never_drops_increments() {
    let report = Checker::new().check("registry_flush_never_drops_increments", || {
        let reg = crn_obs::Registry::new();
        thread::scope(|scope| {
            for flush in [2u64, 3u64] {
                let reg = &reg;
                scope.spawn(move || {
                    reg.add("model.box.points", flush);
                });
            }
        });
        let snap = reg.snapshot();
        assert_eq!(
            snap.counters,
            vec![("model.box.points".to_string(), 5)],
            "joined snapshot must hold the exact total"
        );
    });
    assert!(!report.truncated);
    eprintln!(
        "E21 registry flush (bound 2): {} executions",
        report.executions
    );
}

/// `Registry::reset()` racing a live counter *handle* (the detached-handle
/// caveat PR 9 documented): the handle keeps its cell, so its total is
/// exactly the sum of its adds under every interleaving — reset can detach
/// the cell from snapshots but can never corrupt or tear the total.
#[test]
fn registry_reset_vs_flush_keeps_totals_uncorrupted() {
    let report = Checker::new().check("registry_reset_vs_flush_keeps_totals_uncorrupted", || {
        let reg = crn_obs::Registry::new();
        let handle = reg.counter("c");
        thread::scope(|scope| {
            scope.spawn(|| {
                handle.add(2);
                handle.add(3);
            });
            scope.spawn(|| reg.reset());
        });
        assert_eq!(handle.get(), 5, "the handle's cell is never corrupted");
        assert!(
            reg.snapshot().counters.is_empty(),
            "the reset always detaches the name from snapshots"
        );
    });
    assert!(!report.truncated);
    eprintln!(
        "E21 registry reset-vs-handle (bound 2): {} executions",
        report.executions
    );
}

/// `Registry::reset()` racing map-path adds (`reg.add`, which re-creates
/// the counter after a reset): the final snapshot is always one of the
/// three linearizations — reset first (5), reset between the adds (3), or
/// reset last (absent) — and bounded DFS observes *all three*, proving the
/// exploration actually reaches the distinct interleavings.
#[test]
fn registry_reset_vs_readd_explores_every_linearization() {
    let outcomes: RefCell<BTreeSet<Option<u64>>> = RefCell::new(BTreeSet::new());
    let report = Checker::new().check(
        "registry_reset_vs_readd_explores_every_linearization",
        || {
            let reg = crn_obs::Registry::new();
            thread::scope(|scope| {
                scope.spawn(|| {
                    reg.add("c", 2);
                    reg.add("c", 3);
                });
                scope.spawn(|| reg.reset());
            });
            let value = reg
                .snapshot()
                .counters
                .iter()
                .find(|(name, _)| name == "c")
                .map(|&(_, v)| v);
            assert!(
                matches!(value, Some(5) | Some(3) | None),
                "only clean linearizations are observable, got {value:?}"
            );
            outcomes.borrow_mut().insert(value);
        },
    );
    assert!(!report.truncated);
    let outcomes = outcomes.into_inner();
    assert_eq!(
        outcomes.into_iter().collect::<Vec<_>>(),
        vec![None, Some(3), Some(5)],
        "bounded DFS must reach all three linearizations"
    );
    eprintln!(
        "E21 registry reset-vs-readd (bound 2): {} executions",
        report.executions
    );
}

/// Store-buffering litmus: with `Relaxed` everywhere, both threads may read
/// the *initial* values (`(0, 0)`) — an outcome no interleaving of
/// sequentially-consistent steps can produce.  Pins that the shim models
/// relaxed visibility with per-location store histories rather than just
/// reordering steps.
#[test]
fn litmus_store_buffering_relaxed_reorders() {
    let outcomes: RefCell<BTreeSet<(u64, u64)>> = RefCell::new(BTreeSet::new());
    let report = Checker::new().check("litmus_store_buffering_relaxed_reorders", || {
        let x = AtomicU64::new(0);
        let y = AtomicU64::new(0);
        let (r1, r2) = thread::scope(|scope| {
            let t1 = scope.spawn(|| {
                x.store(1, Ordering::Relaxed);
                y.load(Ordering::Relaxed)
            });
            let t2 = scope.spawn(|| {
                y.store(1, Ordering::Relaxed);
                x.load(Ordering::Relaxed)
            });
            (t1.join().expect("t1"), t2.join().expect("t2"))
        });
        outcomes.borrow_mut().insert((r1, r2));
    });
    assert!(!report.truncated);
    let outcomes = outcomes.into_inner();
    assert!(
        outcomes.contains(&(0, 0)),
        "relaxed store buffering must expose (0,0); saw {outcomes:?}"
    );
    assert!(outcomes.contains(&(1, 1)), "the interleaved outcome exists");
    eprintln!(
        "E21 SB litmus (bound 2): {} executions, outcomes {outcomes:?}",
        report.executions
    );
}

/// Mutual exclusion under the shim mutex: two increments of a plain counter
/// never race, under every schedule.
#[test]
fn mutex_mutual_exclusion() {
    let report = Checker::new().check("mutex_mutual_exclusion", || {
        let m = Mutex::new(0u64);
        thread::scope(|scope| {
            for _ in 0..2 {
                scope.spawn(|| {
                    let mut guard = lock_recover(&m);
                    let read = *guard;
                    *guard = read + 1;
                });
            }
        });
        assert_eq!(*lock_recover(&m), 2);
    });
    assert!(!report.truncated);
    eprintln!(
        "E21 mutex exclusion (bound 2): {} executions",
        report.executions
    );
}

/// The join edge is a synchronization edge: a `Relaxed` write made by a
/// child is exactly visible to the parent after `join()`, with no stronger
/// ordering anywhere — this is what lets `parallel.rs` merge per-worker
/// results and the registry snapshot exact totals after a scope.
#[test]
fn join_edge_publishes_relaxed_writes() {
    let report = Checker::new().check("join_edge_publishes_relaxed_writes", || {
        let flag = AtomicU64::new(0);
        thread::scope(|scope| {
            let child = scope.spawn(|| {
                flag.fetch_add(7, Ordering::Relaxed);
            });
            child.join().expect("child");
            assert_eq!(
                flag.load(Ordering::Relaxed),
                7,
                "join must publish the child's relaxed write"
            );
        });
    });
    assert!(!report.truncated);
    eprintln!("E21 join edge (bound 2): {} executions", report.executions);
}

/// Lock-order inversion is reported as a deadlock violation rather than
/// hanging the test binary.
#[test]
fn deadlock_is_reported() {
    let violation = Checker::new().check_violation("deadlock_is_reported", || {
        let a = Mutex::new(());
        let b = Mutex::new(());
        thread::scope(|scope| {
            scope.spawn(|| {
                let _a = lock_recover(&a);
                let _b = lock_recover(&b);
            });
            scope.spawn(|| {
                let _b = lock_recover(&b);
                let _a = lock_recover(&a);
            });
        });
    });
    assert!(
        violation.message.contains("deadlock"),
        "expected a deadlock report, got: {}",
        violation.message
    );
    eprintln!(
        "E21 deadlock detection: reported after {} executions",
        violation.executions
    );
}
