//! Cross-point output-set memoization for the incremental box engine.
//!
//! The set of stable output values reachable from a configuration — and
//! whether *every* configuration reachable from it can still recover one —
//! is a property of the configuration and the CRN alone: it does not depend
//! on which box point the exploration started from.  The memoizing decision
//! pass therefore summarizes every strongly connected component it finishes
//! as a [`Summary`] keyed by the configuration's *hull* code (the mixed-radix
//! code over the box-wide interval hull, so the key space is shared by every
//! point of the sweep), and later points stop expanding wherever their
//! frontier hits a summarized configuration.
//!
//! Output sets are interned in a [`SetPool`]: each distinct sorted set is
//! stored once as an `Arc<[u64]>` and handled by a small [`SetId`], with
//! memoized union/intersection so the per-component folds are `O(1)` for
//! already-seen operand pairs.  A [`SharedLog`] publishes locally discovered
//! summaries to the sweep's other workers as an append-only log drained by
//! cursor; importing re-interns the sets into the worker's own pool, so the
//! hot per-configuration path never takes a lock.
//!
//! Soundness note: summaries are only published for components whose full
//! downstream closure was explored (a Tarjan pop certifies exactly that), and
//! a run that aborts on the configuration limit discards everything it had
//! pending — a truncated exploration never populates the cache.

use crn_sync::{lock_recover, Arc, Mutex};
use std::collections::HashMap;

/// Handle of an interned output set in a [`SetPool`].  Id 0 is always the
/// empty set.
pub(super) type SetId = u32;

/// The memoized reachability summary of one strongly connected component
/// (attached to every configuration in it).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) struct Summary {
    /// Largest output count anywhere in the downstream closure.
    pub(super) mx: u64,
    /// Smallest output count anywhere in the downstream closure.
    pub(super) mn: u64,
    /// The *stable-output* set: every value `o` such that some configuration
    /// in the closure is output-stable with output `o`.
    pub(super) so: SetId,
    /// The *recoverable* set: every value `o` such that **every**
    /// configuration in the closure can reach an output-stable configuration
    /// with output `o`.  The point verdict is `expected ∈ rset(start)`.
    pub(super) rset: SetId,
    /// An upper bound on the size of the downstream closure (members plus the
    /// child bounds, which may overcount shared substructure).  Lets a run
    /// that finished early through cache hits certify that the true reachable
    /// set fits the configuration limit.
    pub(super) size_bound: u64,
}

/// An interning pool of sorted `u64` sets with memoized set algebra.
pub(super) struct SetPool {
    sets: Vec<Arc<[u64]>>,
    intern: HashMap<Arc<[u64]>, SetId>,
    singletons: HashMap<u64, SetId>,
    unions: HashMap<(SetId, SetId), SetId>,
    intersections: HashMap<(SetId, SetId), SetId>,
}

/// The empty set's id in every pool.
pub(super) const EMPTY_SET: SetId = 0;

impl Default for SetPool {
    fn default() -> Self {
        let empty: Arc<[u64]> = Arc::from(Vec::new());
        let mut intern = HashMap::new();
        intern.insert(Arc::clone(&empty), EMPTY_SET);
        SetPool {
            sets: vec![empty],
            intern,
            singletons: HashMap::new(),
            unions: HashMap::new(),
            intersections: HashMap::new(),
        }
    }
}

impl SetPool {
    /// Interns an already-shared sorted set (an import from another worker),
    /// reusing the allocation.
    pub(super) fn intern_shared(&mut self, set: &Arc<[u64]>) -> SetId {
        debug_assert!(set.windows(2).all(|w| w[0] < w[1]), "sets are sorted");
        if let Some(&id) = self.intern.get(set) {
            return id;
        }
        let id = SetId::try_from(self.sets.len()).expect("set pool stays below 2^32 sets");
        self.sets.push(Arc::clone(set));
        self.intern.insert(Arc::clone(set), id);
        id
    }

    fn intern_vec(&mut self, set: Vec<u64>) -> SetId {
        self.intern_shared(&Arc::from(set))
    }

    /// The members of `id`, sorted ascending.
    pub(super) fn get(&self, id: SetId) -> &Arc<[u64]> {
        &self.sets[id as usize]
    }

    /// Whether `value` is a member of `id`.
    pub(super) fn contains(&self, id: SetId, value: u64) -> bool {
        self.sets[id as usize].binary_search(&value).is_ok()
    }

    /// The one-element set `{value}`.
    pub(super) fn singleton(&mut self, value: u64) -> SetId {
        if let Some(&id) = self.singletons.get(&value) {
            return id;
        }
        let id = self.intern_vec(vec![value]);
        self.singletons.insert(value, id);
        id
    }

    /// The union `a ∪ b`.
    pub(super) fn union(&mut self, a: SetId, b: SetId) -> SetId {
        if a == b || b == EMPTY_SET {
            return a;
        }
        if a == EMPTY_SET {
            return b;
        }
        let key = (a.min(b), a.max(b));
        if let Some(&id) = self.unions.get(&key) {
            return id;
        }
        let mut merged = [&self.sets[a as usize][..], &self.sets[b as usize][..]].concat();
        merged.sort_unstable();
        merged.dedup();
        let id = self.intern_vec(merged);
        self.unions.insert(key, id);
        id
    }

    /// The intersection `a ∩ b`.
    pub(super) fn intersect(&mut self, a: SetId, b: SetId) -> SetId {
        if a == b {
            return a;
        }
        if a == EMPTY_SET || b == EMPTY_SET {
            return EMPTY_SET;
        }
        let key = (a.min(b), a.max(b));
        if let Some(&id) = self.intersections.get(&key) {
            return id;
        }
        let other = &self.sets[b as usize];
        let merged = (self.sets[a as usize].iter())
            .filter(|v| other.binary_search(v).is_ok())
            .copied()
            .collect();
        let id = self.intern_vec(merged);
        self.intersections.insert(key, id);
        id
    }
}

/// A summary in cross-worker transport, keyed by its hull code: `SetId`s
/// are pool-local, so its `so` and `rset` sets travel materialized alongside.
type SharedEntry = (u64, Summary, Arc<[u64]>, Arc<[u64]>);

/// The sweep-wide summary exchange: an append-only log each worker drains by
/// cursor before starting a point, so the per-configuration hot path stays
/// lock-free.
pub(super) struct SharedLog {
    entries: Mutex<Vec<SharedEntry>>,
}

impl SharedLog {
    pub(super) fn new() -> Self {
        SharedLog {
            entries: Mutex::new(Vec::new()),
        }
    }
}

/// Hard cap on locally cached summaries; once full, new summaries are simply
/// not recorded (the decision passes stay correct, later points just
/// re-explore).
const CACHE_ENTRY_CAP: usize = 1 << 20;

/// One worker's view of the cross-point cache: the hull-code → summary map,
/// the worker's own [`SetPool`], and its drain cursor into the shared log.
#[derive(Default)]
pub(super) struct MemoCache {
    pub(super) pool: SetPool,
    map: HashMap<u64, Summary>,
    cursor: usize,
    /// Total lookups and hits, for the sweep's observability counters.
    pub(super) lookups: u64,
    pub(super) hits: u64,
}

impl MemoCache {
    /// The cached summary of `code`, if any; counts toward the hit-rate
    /// statistics.
    pub(super) fn lookup(&mut self, code: u64) -> Option<Summary> {
        self.lookups += 1;
        let found = self.map.get(&code).copied();
        if found.is_some() {
            self.hits += 1;
        }
        found
    }

    /// Records a summary locally (subject to the entry cap).
    pub(super) fn insert(&mut self, code: u64, summary: Summary) {
        if self.map.len() < CACHE_ENTRY_CAP {
            self.map.insert(code, summary);
        }
    }

    /// The number of locally cached summaries.
    pub(super) fn len(&self) -> usize {
        self.map.len()
    }

    /// Publishes locally discovered summaries to the other workers.  The
    /// worker's own cursor advances past its contribution, so it never
    /// re-imports what it exported.
    pub(super) fn export(&mut self, log: &SharedLog, batch: &[(u64, Summary)]) {
        if batch.is_empty() {
            return;
        }
        let pool = &self.pool;
        let shared: Vec<SharedEntry> = (batch.iter())
            .map(|&(code, s)| {
                (
                    code,
                    s,
                    Arc::clone(pool.get(s.so)),
                    Arc::clone(pool.get(s.rset)),
                )
            })
            .collect();
        // Poisoning: `lock_recover` per the workspace policy (crn_sync crate
        // docs) — the log is append-only, so a torn critical section can at
        // worst lose the panicking thread's batch, never corrupt an entry.
        // The publish-only-complete-summaries invariant is model-checked by
        // `memo_truncation_never_publishes` (crn-sync tests/model.rs).
        let mut entries = lock_recover(&log.entries);
        if self.cursor == entries.len() {
            self.cursor += shared.len();
        }
        entries.extend(shared);
    }

    /// Drains summaries other workers published since the last import,
    /// re-interning their sets into this worker's pool.
    pub(super) fn import(&mut self, log: &SharedLog) {
        let fresh: Vec<SharedEntry> = {
            let entries = lock_recover(&log.entries);
            if self.cursor >= entries.len() {
                return;
            }
            let fresh = entries[self.cursor..].to_vec();
            self.cursor = entries.len();
            fresh
        };
        for (code, s, so, rset) in fresh {
            if self.map.len() >= CACHE_ENTRY_CAP {
                break;
            }
            let (so, rset) = (self.pool.intern_shared(&so), self.pool.intern_shared(&rset));
            self.map.entry(code).or_insert(Summary { so, rset, ..s });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_algebra_interns_and_memoizes() {
        let mut pool = SetPool::default();
        let a = pool.singleton(3);
        let b = pool.singleton(5);
        let ab = pool.union(a, b);
        assert_eq!(pool.get(ab).as_ref(), &[3, 5]);
        assert_eq!(pool.union(b, a), ab, "union is commutative and memoized");
        assert_eq!(pool.intersect(ab, a), a);
        assert_eq!(pool.intersect(a, b), EMPTY_SET);
        assert!(pool.contains(ab, 5));
        assert!(!pool.contains(ab, 4));
        assert_eq!(pool.union(ab, EMPTY_SET), ab);
    }

    #[test]
    fn shared_log_round_trips_summaries() {
        let log = SharedLog::new();
        let mut producer = MemoCache::default();
        let so = producer.pool.singleton(2);
        let summary = Summary {
            mx: 2,
            mn: 0,
            so,
            rset: so,
            size_bound: 7,
        };
        producer.insert(41, summary);
        producer.export(&log, &[(41, summary)]);

        let mut consumer = MemoCache::default();
        consumer.import(&log);
        let got = consumer.lookup(41).expect("imported");
        assert_eq!(got.mx, 2);
        assert_eq!(got.size_bound, 7);
        assert_eq!(consumer.pool.get(got.rset).as_ref(), &[2]);
        assert_eq!(consumer.lookups, 1);
        assert_eq!(consumer.hits, 1);

        // The producer's cursor skipped its own contribution.
        producer.import(&log);
        assert_eq!(producer.len(), 1);
    }
}
