//! Parallel box checking.
//!
//! `check_on_box` walks the inputs of `[0, bound]^d` in lexicographic order
//! and shards them across scoped worker threads (the vendored stubs have no
//! rayon, so the pool is a plain `crn_sync::thread::scope` with an atomic
//! work-stealing cursor).  Box points are never materialized up front: each
//! worker decodes its drawn index into one reused count vector through the
//! mixed-radix place values of the box, so the sweep takes `O(1)` memory in
//! the box size.  The result is deterministic regardless of thread
//! interleaving: every worker records the index of the first failing (or
//! erroring) input it sees, indices past the best-known failure are skipped,
//! and the verdict returned is the one at the smallest index — exactly what
//! the sequential loop would have produced.
//!
//! Two engines share the driver: the unpruned reference scan, which builds a
//! full verdict at every point, and the incremental engine, which layers
//! symmetry-orbit skipping, static interval verdicts and the routed
//! decision passes (see [`VerdictEngine::decide`]) on top.

use crn_sync::atomic::{AtomicU64, Ordering};
use crn_sync::Arc;

use crn_numeric::NVec;

use crate::error::CrnError;
use crate::function::FunctionCrn;

use super::engine::{StaticOutcome, SweepPlan, VerdictEngine};
use super::memo::{MemoCache, Summary};
use super::{BoxCheckStats, StableComputationVerdict};

/// One input's outcome: the check failed, or the search errored out.
type BoxOutcome = Result<StableComputationVerdict, CrnError>;

/// A worker's record of one non-passing input: the full outcome, or a bad
/// point left unmaterialized (statically refuted, or rejected by a decision
/// pass) — only the lexicographically smallest bad input is ever expanded
/// into a real verdict.
enum BadPoint {
    Full(BoxOutcome),
    Deferred,
}

/// The default shard grants each worker at least this many inputs, so a box
/// never spawns threads whose startup cost dwarfs their microsecond-scale
/// share of the work.  An explicit worker count via
/// [`super::BoxCheck::workers`] overrides this.
pub(super) const MIN_POINTS_PER_WORKER: u64 = 8;

/// After this many consecutive static abstentions a worker stops consulting
/// the static verdict and goes straight to the decision pass.  Purely a
/// performance valve: the decision pass subsumes the static answer, so
/// verdicts are unaffected.  Any static answer re-arms the counter.
const STATIC_ABSTAIN_CUTOFF: u32 = 16;

/// The number of points in `[0, bound]^d`, saturating at `u64::MAX` (a box
/// that large cannot be swept anyway).
fn box_point_count(dim: usize, bound: u64) -> u64 {
    let radix = bound.saturating_add(1);
    let mut total = 1u64;
    for _ in 0..dim {
        total = match total.checked_mul(radix) {
            Some(t) => t,
            None => return u64::MAX,
        };
    }
    total
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

/// Checks every input of the box on `workers` threads, returning the verdict
/// (or error) of the lexicographically-first input that does not pass, plus
/// the sweep's observability counters.
///
/// Both engines return bit-identical outcomes wherever the reference scan
/// finishes within the limit; they differ only in how much work each point
/// costs, and the incremental engine's stubborn-set scans may pass a point
/// the reference gives up on.  The incremental engine records only the
/// *index* of a bad point during the scan; the one bad index that wins the
/// race is re-checked in full, so the returned outcome is byte-identical to
/// the reference scan — failure messages and errors included.
pub(super) fn check_on_box_sharded(
    crn: &FunctionCrn,
    f: &(impl Fn(&NVec) -> u64 + Sync),
    bound: u64,
    max_configurations: usize,
    workers: usize,
    reference: bool,
) -> (
    Result<Option<StableComputationVerdict>, CrnError>,
    BoxCheckStats,
) {
    let _sweep = crn_obs::span("model.box.sweep");
    let dim = crn.dim();
    let radix = bound.saturating_add(1);
    let total = box_point_count(dim, bound);
    let workers = workers.clamp(1, usize::try_from(total).unwrap_or(usize::MAX).max(1));

    // Everything point-independent is computed once for the whole sweep: the
    // static analysis and the plan (hull code space, packed spec, input
    // automorphisms, shared cache log).
    let shared_analysis = (!reference).then(|| VerdictEngine::analyze(crn));
    let plan = shared_analysis
        .as_ref()
        .map(|analysis| SweepPlan::build(crn, analysis, bound, max_configurations));
    let make_engine = || match &shared_analysis {
        Some(analysis) => VerdictEngine::with_analysis(crn, Some(Arc::clone(analysis))),
        None => VerdictEngine::reference(crn),
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
    // a cross-thread protocol), not a correctness requirement.
    let next = AtomicU64::new(0);
    let first_bad = AtomicU64::new(u64::MAX);

    // One worker's scan: draw indices from the shared cursor until the box
    // (or the best-known bad prefix) is exhausted.  Returns its first bad
    // index — its draws strictly increase, so it may stop at the first — and
    // its statistics.
    let run_worker = || -> (Option<(u64, BadPoint)>, BoxCheckStats) {
        let mut engine = make_engine();
        let mut cache = plan
            .as_ref()
            .is_some_and(|p| p.cache_enabled)
            .then(MemoCache::default);
        let mut pending: Vec<(u64, Summary)> = Vec::new();
        let mut x = NVec::zeros(dim);
        let mut y = NVec::zeros(dim);
        let mut stats = BoxCheckStats::default();
        let mut best: Option<(u64, BadPoint)> = None;
        let mut abstains = 0u32;
        let mut static_armed = true;
        let mut draws = 0u64;
        'scan: loop {
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

            if let Some(plan) = &plan {
                // Symmetry-orbit reduction: skip `x` whenever some detected
                // automorphism maps it to a lexicographically smaller point
                // with the same expected output — that point's verdict (at
                // a smaller index, so inside the scanned prefix) is `x`'s
                // verdict.  The lexicographically-first bad point maps only
                // to larger-or-equal bad points, so it is never skipped and
                // the winner is unchanged.
                for p in &plan.perms {
                    for k in 0..dim {
                        y[k] = x[p[k]];
                    }
                    if y.as_slice() < x.as_slice() && f(&y) == expected {
                        stats.symmetry_skipped += 1;
                        continue 'scan;
                    }
                }
            }
            stats.evaluated += 1;

            let passes = match &plan {
                None => {
                    let outcome = engine.check(&x, expected, max_configurations);
                    stats.decided += 1;
                    if let Ok(verdict) = &outcome {
                        stats.configs_explored += u64::try_from(verdict.reachable_configurations)
                            .expect("usize fits u64");
                    }
                    if matches!(&outcome, Ok(v) if v.is_correct()) {
                        true
                    } else {
                        best = Some((i, BadPoint::Full(outcome)));
                        // Ordering: AcqRel — see the audit note at the
                        // declarations: fetch_min atomicity keeps the bound
                        // monotone; the release half is protocol
                        // documentation for the Acquire load above.
                        first_bad.fetch_min(i, Ordering::AcqRel);
                        break;
                    }
                }
                Some(plan) => {
                    let static_outcome = if static_armed {
                        engine.static_verdict(&x, expected, max_configurations)
                    } else {
                        None
                    };
                    match static_outcome {
                        Some(StaticOutcome::Pass) => {
                            stats.static_pass += 1;
                            abstains = 0;
                            true
                        }
                        Some(StaticOutcome::Fail) => {
                            stats.static_fail += 1;
                            abstains = 0;
                            false
                        }
                        None => {
                            if static_armed {
                                abstains += 1;
                                if abstains >= STATIC_ABSTAIN_CUTOFF {
                                    static_armed = false;
                                }
                            }
                            // An error (it would recur identically at
                            // materialization) counts as not passing.
                            engine
                                .decide(
                                    &x,
                                    expected,
                                    max_configurations,
                                    plan,
                                    cache.as_mut(),
                                    &mut pending,
                                    &mut stats,
                                )
                                .unwrap_or(false)
                        }
                    }
                }
            };
            if !passes {
                best = Some((i, BadPoint::Deferred));
                // Ordering: AcqRel — same audit note as the Reference-mode
                // reduction above.
                first_bad.fetch_min(i, Ordering::AcqRel);
                break;
            }
        }
        if let Some(cache) = &cache {
            stats.cache_lookups = cache.lookups;
            stats.cache_hits = cache.hits;
            stats.cache_entries = u64::try_from(cache.len()).expect("usize fits u64");
        }
        // One registry flush per worker, after the scan: the hot loop above
        // only touches local counters.
        if crn_obs::enabled() {
            let (collisions, grows) = engine.arena_metrics();
            crn_obs::add("model.arena.collisions", collisions);
            crn_obs::add("model.arena.grows", grows);
            crn_obs::observe("model.box.worker_draws", draws);
        }
        (best, stats)
    };

    let mut results: Vec<(Option<(u64, BadPoint)>, BoxCheckStats)> = if workers == 1 {
        vec![run_worker()]
    } else {
        let parent = crn_obs::SpanPath::current();
        crn_sync::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    let parent = parent.clone();
                    scope.spawn(move || {
                        let _adopted = parent.adopt();
                        let _span = crn_obs::span("worker");
                        run_worker()
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("worker does not panic"))
                .collect()
        })
    };

    let mut stats = BoxCheckStats {
        points: total,
        ..BoxCheckStats::default()
    };
    let mut winner: Option<(u64, BadPoint)> = None;
    for (best, worker_stats) in results.drain(..) {
        stats.merge(&worker_stats);
        if let Some((i, bad)) = best {
            if winner.as_ref().map_or(true, |&(w, _)| i < w) {
                winner = Some((i, bad));
            }
        }
    }
    publish_sweep_metrics(&stats, workers);

    let outcome = match winner {
        None => return (Ok(None), stats),
        Some((_, BadPoint::Full(outcome))) => outcome,
        Some((i, BadPoint::Deferred)) => {
            // Materialize the winning bad point into the exact outcome the
            // reference scan would have produced at this input.
            let mut x = NVec::zeros(dim);
            decode_point(i, radix, &mut x);
            let outcome = make_engine().check(&x, f(&x), max_configurations);
            debug_assert!(
                !matches!(&outcome, Ok(v) if v.is_correct()),
                "a deferred bad input passed the full check"
            );
            outcome
        }
    };
    let result = match outcome {
        Ok(verdict) => Ok(Some(verdict)),
        Err(e) => Err(e),
    };
    (result, stats)
}

/// Publishes one sweep's merged counters into the observability registry
/// (names under `model.box.*` / `model.memo.*`); no-op unless profiling is
/// enabled.  Counts mirror [`BoxCheckStats`] and accumulate across sweeps.
fn publish_sweep_metrics(stats: &BoxCheckStats, workers: usize) {
    if !crn_obs::enabled() {
        return;
    }
    crn_obs::add("model.box.sweeps", 1);
    crn_obs::add("model.box.points", stats.points);
    crn_obs::add("model.box.evaluated", stats.evaluated);
    crn_obs::add("model.box.symmetry_skipped", stats.symmetry_skipped);
    crn_obs::add("model.box.static_pass", stats.static_pass);
    crn_obs::add("model.box.static_fail", stats.static_fail);
    crn_obs::add("model.box.decided", stats.decided);
    crn_obs::add("model.box.cache_served", stats.cache_served);
    crn_obs::add("model.box.configs_explored", stats.configs_explored);
    crn_obs::add("model.memo.lookups", stats.cache_lookups);
    crn_obs::add("model.memo.hits", stats.cache_hits);
    crn_obs::add("model.memo.publish_suppressed", stats.publish_suppressed);
    crn_obs::gauge_max("model.memo.entries", stats.cache_entries);
    crn_obs::gauge_max(
        "model.box.workers",
        u64::try_from(workers).unwrap_or(u64::MAX),
    );
}

/// The default shard width: one worker per available core, capped by the
/// number of inputs.
pub(super) fn default_workers() -> usize {
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
                u64::try_from(NVec::box_iter(dim, bound).count()).unwrap()
            );
        }
    }

    #[test]
    fn box_point_count_saturates() {
        assert_eq!(box_point_count(0, 7), 1);
        assert_eq!(box_point_count(4, u64::MAX), u64::MAX);
        assert_eq!(box_point_count(64, 2), u64::MAX);
    }
}
