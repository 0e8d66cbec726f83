//! Parallel box checking.
//!
//! `check_on_box` walks the inputs of `[0, bound]^d` in lexicographic order
//! on a `crn_sync::thread::scope` pool that shares one atomic work-stealing
//! cursor (the vendored stubs have no rayon).  The calling thread is worker
//! 0 of every sweep and starts scanning at once.  Under the default worker
//! count it forks lazily: after every [`PROJECT_EVERY`]-th draw it projects
//! the undrawn rest of the box on one thread from its own pace, and only
//! once that projection reaches [`FORK_AFTER`] does it read the core count
//! and spawn one helper per further core onto the same cursor.  A pinned
//! [`super::BoxCheck::workers`] count spawns its helpers before the first
//! draw.  Box points are never materialized up front: each worker decodes
//! its drawn index into one reused count vector through the mixed-radix
//! place values of the box, so the sweep takes `O(1)` memory in the box
//! size.  The result is deterministic regardless of thread interleaving:
//! every worker records the index of the first failing (or erroring) input
//! it sees, indices past the best-known failure are skipped, and the
//! verdict returned is the one at the smallest index — exactly what the
//! sequential loop would have produced.  The sweep skips symmetry replays
//! and settles every other point by [`VerdictEngine::decide`]: the terminal
//! scan when the CRN carries the acyclicity certificate, the full verdict
//! otherwise.

use std::time::{Duration, Instant};

use crn_sync::atomic::{AtomicU64, Ordering};

use crn_numeric::NVec;

use crate::analysis::CrnAnalysis;
use crate::error::CrnError;

use super::engine::VerdictEngine;
use super::symmetry::Automorphism;
use super::{BoxCheckStats, StableComputationVerdict};

/// Under the default worker count, the calling thread projects the rest of
/// its sweep after every this many draws, so a box of fewer points never
/// starts a thread.
const PROJECT_EVERY: u64 = 16;

/// The projected one-thread time of a sweep's undrawn rest at which the
/// calling thread forks its helpers: about ten times the 74–109 µs that
/// spawning and joining two threads measured on a 2-core host, so a
/// helper's share of the rest repays its start.
const FORK_AFTER: Duration = Duration::from_millis(1);

/// The number of points in `[0, bound]^dim`, or `None` when it does not fit
/// in `u64`: a sweep's `u64` cursor cannot index every point of such a box,
/// so [`check_on_box`](super::check_on_box) refuses it with an error.
#[must_use]
pub fn box_point_count(dim: usize, bound: u64) -> Option<u64> {
    let radix = u128::from(bound) + 1;
    (0..dim).try_fold(1u64, |total, _| {
        u64::try_from(u128::from(total) * radix).ok()
    })
}

/// Decodes a lexicographic box index into the point it names, writing into a
/// reused vector: the last coordinate is the least significant digit, exactly
/// the order of [`NVec::box_iter`].
fn decode_point(mut index: u64, radix: u64, x: &mut NVec) {
    for j in (0..x.dim()).rev() {
        x[j] = index % radix;
        index /= radix;
    }
    debug_assert_eq!(index, 0, "index lies inside the box");
}

/// Checks every input of the box, returning the verdict (or error) of the
/// lexicographically-first input that does not pass, plus the sweep's
/// observability counters.  The calling thread scans as worker 0; `workers`
/// pins the worker count (its helpers spawn before the first draw), and
/// `None` forks one helper per further core once the projected rest of the
/// sweep repays it (see [`repays_fork`]).
///
/// Workers record only the *index* of a bad point during the scan; the one
/// bad index that wins the race is re-checked in full by
/// [`VerdictEngine::check`], so the returned outcome is byte-identical to a
/// sequential loop of full verdicts — failure messages and errors included
/// — wherever that loop finishes within the limit.  The stubborn-set scans
/// visit fewer configurations than a full verdict, so they may pass a point
/// the loop gives up on.
pub(super) fn check_on_box_sharded(
    analysis: &CrnAnalysis<'_>,
    f: &(impl Fn(&NVec) -> u64 + Sync),
    bound: u64,
    max_configurations: usize,
    workers: Option<usize>,
) -> (
    Result<Option<StableComputationVerdict>, CrnError>,
    BoxCheckStats,
) {
    let _sweep = crn_obs::span("model.box.sweep");
    let dim = analysis.crn().dim();
    let radix = bound.saturating_add(1);
    let Some(total) = box_point_count(dim, bound) else {
        let limit = format!("[0, {bound}]^{dim} has more points than fit in u64");
        return (
            Err(CrnError::SearchLimitExceeded { limit }),
            BoxCheckStats::default(),
        );
    };
    let points = usize::try_from(total).unwrap_or(usize::MAX);

    // Everything point-independent is computed once for the whole sweep,
    // forced here rather than by whichever worker first needs it: the
    // static analysis every worker reads (the acyclicity certificate picks
    // every point's route) and the input automorphisms.
    {
        let _analyze = crn_obs::span("model.box.analyze");
        analysis.acyclic();
        analysis.stubborn();
    }
    let perms = {
        let _plan = crn_obs::span("model.box.plan");
        analysis.automorphisms()
    };

    // Ordering audit (model-checked in crn-sync tests/model.rs; see
    // DESIGN.md § Concurrency model).  Correctness of this driver does NOT
    // depend on memory ordering at all: `fetch_add`/`fetch_min` atomicity
    // gives each index to exactly one worker and makes `first_bad`
    // monotonically non-increasing, and a stale `first_bad` read can only
    // *overestimate* the bound — a worker then evaluates a point it could
    // have skipped, never skips one it must evaluate.  Determinism comes
    // from the per-worker local `best` records merged after the scope join,
    // not from the atomics.  `first_bad_reduction_never_loses_lex_first`
    // checks the protocol exhaustively as written;
    // `first_bad_reduction_tolerates_relaxed` checks the all-Relaxed
    // downgrade also passes, confirming the orderings below are a
    // documentation choice (Acquire/AcqRel marks the load/reduction pair as
    // a cross-thread protocol), not a correctness requirement; and
    // `first_bad_reduction_survives_a_lazy_fork` checks both orderings with
    // the scope's own thread scanning first and spawning its helper
    // mid-scan, as the default worker count does here.
    let next = AtomicU64::new(0);
    let first_bad = AtomicU64::new(u64::MAX);

    // One worker's scan: draw indices from the shared cursor until the box
    // (or the best-known bad prefix) is exhausted.  Returns its first bad
    // index — its draws strictly increase, so it may stop at the first — and
    // its statistics.  `fork`, which only the calling thread is given and
    // only under the default worker count, is offered the draw count after
    // every `PROJECT_EVERY`-th draw until it reports that it forked.
    let run_worker = |mut fork: Option<&mut dyn FnMut(u64) -> bool>| {
        let mut engine = VerdictEngine::new(analysis);
        let mut x = NVec::zeros(dim);
        let mut y = NVec::zeros(dim);
        let mut stats = BoxCheckStats::default();
        let mut best = None;
        let mut draws = 0u64;
        'scan: loop {
            if draws % PROJECT_EVERY == 0
                && draws > 0
                && fork.as_mut().is_some_and(|fork| fork(draws))
            {
                fork = None;
            }
            // Ordering: Relaxed — the cursor is a pure ticket dispenser; the
            // RMW's atomicity (each index drawn exactly once) is the whole
            // invariant, and no data is published through it.
            let i = next.fetch_add(1, Ordering::Relaxed);
            // Inputs beyond the best known failure cannot change the answer;
            // the cursor only grows, so this worker is done.
            //
            // Ordering: Acquire — pairs with the AcqRel `fetch_min` below.
            // A stale read is still sound (it only widens the scanned
            // prefix; see the audit note at the declarations), so this is
            // protocol documentation, not a correctness dependency —
            // `first_bad_reduction_tolerates_relaxed` proves the downgrade
            // safe.
            if i >= total || i > first_bad.load(Ordering::Acquire) {
                break;
            }
            draws += 1;
            decode_point(i, radix, &mut x);
            let expected = f(&x);

            // Symmetry-orbit reduction: skip `x` whenever some detected
            // automorphism maps it to a lexicographically smaller point with
            // the same expected output — that point's verdict (at a smaller
            // index, so inside the scanned prefix) is `x`'s verdict.  The
            // lexicographically-first bad point maps only to
            // larger-or-equal bad points, so it is never skipped and the
            // winner is unchanged.
            for p in perms.iter().map(Automorphism::inputs) {
                for k in 0..dim {
                    y[k] = x[p[k]];
                }
                if y.as_slice() < x.as_slice() && f(&y) == expected {
                    stats.symmetry_skipped += 1;
                    continue 'scan;
                }
            }
            stats.evaluated += 1;

            // An error (it would recur identically at materialization)
            // counts as not passing.
            let passes = engine
                .decide(&x, expected, max_configurations, &mut stats)
                .unwrap_or(false);
            if !passes {
                best = Some(i);
                // Ordering: AcqRel — see the audit note at the declarations:
                // fetch_min atomicity keeps the bound monotone; the release
                // half is protocol documentation for the Acquire load above.
                first_bad.fetch_min(i, Ordering::AcqRel);
                break;
            }
        }
        // One registry flush per worker, after the scan: the hot loop above
        // only touches local counters.
        if crn_obs::enabled() {
            let (collisions, grows) = engine.index_metrics();
            crn_obs::add("model.arena.collisions", collisions);
            crn_obs::add("model.arena.grows", grows);
            crn_obs::observe("model.box.worker_draws", draws);
        }
        (best, stats)
    };

    let parent = crn_obs::SpanPath::current();
    let results: Vec<(Option<u64>, BoxCheckStats)> = crn_sync::thread::scope(|scope| {
        let mut helpers = Vec::new();
        let mut spawn_helpers = |count: usize| {
            for _ in 0..count {
                let parent = parent.clone();
                helpers.push(scope.spawn(move || {
                    let _adopted = parent.adopt();
                    let _span = crn_obs::span("worker");
                    run_worker(None)
                }));
            }
        };
        let own = {
            let _span = crn_obs::span("worker");
            if let Some(workers) = workers {
                spawn_helpers(workers.clamp(1, points) - 1);
                run_worker(None)
            } else {
                let start = Instant::now();
                run_worker(Some(&mut |drawn| {
                    let undrawn = total - drawn;
                    let forks = repays_fork(start.elapsed(), drawn, undrawn);
                    if forks {
                        let undrawn = usize::try_from(undrawn).unwrap_or(usize::MAX);
                        spawn_helpers((default_workers() - 1).min(undrawn));
                    }
                    forks
                }))
            }
        };
        std::iter::once(own)
            .chain(
                helpers
                    .into_iter()
                    .map(|h| h.join().expect("worker does not panic")),
            )
            .collect()
    });

    let mut stats = BoxCheckStats {
        points: total,
        ..BoxCheckStats::default()
    };
    for (_, worker_stats) in &results {
        stats.merge(worker_stats);
    }
    publish_sweep_metrics(&stats, results.len(), analysis.acyclic());

    let Some(i) = results.iter().filter_map(|&(best, _)| best).min() else {
        return (Ok(None), stats);
    };
    // Materialize the winning bad point into the full verdict (or error)
    // at this input.
    let mut x = NVec::zeros(dim);
    decode_point(i, radix, &mut x);
    let outcome = VerdictEngine::new(analysis).check(&x, f(&x), max_configurations);
    debug_assert!(
        !matches!(&outcome, Ok(v) if v.is_correct()),
        "a bad input passed the full check"
    );
    (outcome.map(Some), stats)
}

/// Whether a sweep whose calling thread drew `drawn` points in `elapsed`
/// forks its helpers: whether the rest, `undrawn` points at the same pace
/// on one thread, is projected to take at least [`FORK_AFTER`].
fn repays_fork(elapsed: Duration, drawn: u64, undrawn: u64) -> bool {
    elapsed.as_nanos() * u128::from(undrawn) >= FORK_AFTER.as_nanos() * u128::from(drawn)
}

/// Publishes one sweep's merged counters into the observability registry
/// (names under `model.box.*`, plus the route counter); no-op unless
/// profiling is enabled.  Counts mirror [`BoxCheckStats`] and accumulate
/// across sweeps.  Every decided point of a sweep takes the route the
/// acyclicity certificate picks, so that route's counter counts them all.
fn publish_sweep_metrics(stats: &BoxCheckStats, workers: usize, acyclic: bool) {
    if !crn_obs::enabled() {
        return;
    }
    let route = if acyclic {
        "model.route.scan"
    } else {
        "model.route.verdict"
    };
    crn_obs::add("model.box.sweeps", 1);
    crn_obs::add(route, stats.decided);
    crn_obs::add("model.box.points", stats.points);
    crn_obs::add("model.box.evaluated", stats.evaluated);
    crn_obs::add("model.box.symmetry_skipped", stats.symmetry_skipped);
    crn_obs::add("model.box.decided", stats.decided);
    crn_obs::add("model.box.configs_explored", stats.configs_explored);
    crn_obs::add("model.box.branched", stats.branched);
    crn_obs::gauge_max(
        "model.box.workers",
        u64::try_from(workers).unwrap_or(u64::MAX),
    );
}

/// The worker count of a forked sweep: one per available core.
fn default_workers() -> usize {
    crn_sync::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decode_matches_box_iter() {
        for (dim, bound) in [(1usize, 5u64), (2, 3), (3, 2), (2, 0)] {
            let radix = bound + 1;
            let mut x = NVec::zeros(dim);
            for (i, point) in NVec::box_iter(dim, bound).enumerate() {
                decode_point(u64::try_from(i).unwrap(), radix, &mut x);
                assert_eq!(x, point, "index {i} of [0,{bound}]^{dim}");
            }
            assert_eq!(
                box_point_count(dim, bound),
                u64::try_from(NVec::box_iter(dim, bound).count()).ok()
            );
        }
    }

    /// The calling thread forks once the rest of the sweep, projected at its
    /// own pace, would take it a millisecond; a sweep whose first projection
    /// follows its last draw has no rest and never forks.
    #[test]
    fn the_fork_waits_for_a_rest_worth_a_millisecond() {
        let us = Duration::from_micros;
        assert!(repays_fork(us(100), 16, 160));
        assert!(!repays_fork(us(100), 16, 159));
        assert!(repays_fork(us(1000), 32, 32));
        assert!(!repays_fork(Duration::from_secs(60), 16, 0));
    }

    /// A box with more points than `u64` holds has no count (a `u64` cursor
    /// could scan only a prefix of it), and the sweep refuses it up front.
    #[test]
    fn box_point_count_saturates() {
        assert_eq!(box_point_count(0, 7), Some(1));
        assert_eq!(box_point_count(1, u64::MAX - 1), Some(u64::MAX));
        assert_eq!(box_point_count(1, u64::MAX), None);
        assert_eq!(box_point_count(4, u64::MAX), None);
        assert_eq!(box_point_count(63, 1), Some(1 << 63));
        assert_eq!(box_point_count(64, 1), None);
        assert_eq!(box_point_count(64, 2), None);
        assert_eq!(box_point_count(0, u64::MAX), Some(1));
        let double = crate::examples::double_crn();
        assert!(matches!(
            super::super::check_on_box(&double, |x| 2 * x[0], u64::MAX, 10),
            Err(CrnError::SearchLimitExceeded { .. })
        ));
    }
}
