//! Interned dense storage for explored configurations.
//!
//! The breadth-first exploration of the seed engine kept every configuration
//! twice (once in the result vector, once as a `HashMap` key) and cloned a
//! `BTreeMap` per examined edge.  The arena replaces both: each configuration
//! is a dense count vector of fixed stride (one slot per species), all vectors
//! live contiguously in a single allocation, and an open-addressing hash index
//! maps count vectors back to their dense arena ids in O(1) expected time
//! without a second copy of the keys.

use crate::config::Configuration;
use crate::species::Species;

/// Marker for an empty slot in the open-addressing index.
const EMPTY: usize = usize::MAX;

/// FNV-1a over the `u64` words of a count vector, with an extra avalanche
/// step so that low-entropy counts (almost all configurations are small
/// integers) still spread across the table.
fn hash_counts(counts: &[u64]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &w in counts {
        h ^= w;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
        h ^= h >> 29;
    }
    h ^ (h >> 32)
}

/// An arena of interned configurations over a fixed species stride.
///
/// Configurations enter through one of two doors per exploration: the hash
/// index ([`insert_new`](ConfigArena::insert_new) /
/// [`lookup`](ConfigArena::lookup)), or — when the engine has proven a
/// perfect mixed-radix index over the reachable box —
/// [`push_unindexed`](ConfigArena::push_unindexed), which stores the counts
/// without hashing at all (the direct index owns deduplication).  The two
/// modes must not be mixed within one exploration.
#[derive(Debug, Clone)]
pub(crate) struct ConfigArena {
    stride: usize,
    /// The number of stored configurations (`hashes` tracks it only in hash
    /// mode; unindexed pushes grow `len` without touching the index).
    len: usize,
    /// Concatenated count vectors; configuration `i` occupies
    /// `counts[i * stride .. (i + 1) * stride]`.
    counts: Vec<u64>,
    /// Cached hash of every stored configuration (avoids rehashing on probe
    /// comparisons and on table growth).
    hashes: Vec<u64>,
    /// Open-addressing table of arena ids; length is a power of two.
    slots: Vec<usize>,
    /// Probe steps past the home slot across every placement, cumulative over
    /// the arena's lifetime (resets do not clear it): the dedup-collision
    /// metric the observability layer reports.
    collisions: u64,
    /// Slot-table doublings over the arena's lifetime.
    grows: u64,
}

impl Default for ConfigArena {
    fn default() -> Self {
        ConfigArena::new(0)
    }
}

impl ConfigArena {
    /// Creates an empty arena for count vectors of length `stride`.
    pub(crate) fn new(stride: usize) -> Self {
        ConfigArena {
            stride,
            len: 0,
            counts: Vec::new(),
            hashes: Vec::new(),
            slots: vec![EMPTY; 16],
            collisions: 0,
            grows: 0,
        }
    }

    /// The species stride (count-vector length) of this arena.
    pub(crate) fn stride(&self) -> usize {
        self.stride
    }

    /// Empties the arena for a fresh exploration over `stride` species,
    /// keeping every allocation for reuse.
    pub(crate) fn reset(&mut self, stride: usize) {
        self.stride = stride;
        self.len = 0;
        self.counts.clear();
        self.hashes.clear();
        self.slots.iter_mut().for_each(|s| *s = EMPTY);
    }

    /// The number of stored configurations.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Stores `v` without entering it into the hash index; the caller owns
    /// deduplication (the direct-indexed exploration mode).  Must not be
    /// mixed with [`insert_new`](ConfigArena::insert_new) in one exploration.
    pub(crate) fn push_unindexed(&mut self, v: &[u64]) -> usize {
        debug_assert_eq!(v.len(), self.stride);
        debug_assert!(self.hashes.is_empty(), "mixed indexed and unindexed use");
        let id = self.len;
        self.counts.extend_from_slice(v);
        self.len += 1;
        id
    }

    /// The count vector of configuration `id`.
    pub(crate) fn get(&self, id: usize) -> &[u64] {
        &self.counts[id * self.stride..(id + 1) * self.stride]
    }

    /// The arena id of `v`, if it has been interned.
    pub(crate) fn lookup(&self, v: &[u64]) -> Option<usize> {
        debug_assert_eq!(v.len(), self.stride);
        let hash = hash_counts(v);
        let mask = self.slots.len() - 1;
        let mut slot = (hash as usize) & mask;
        loop {
            let id = self.slots[slot];
            if id == EMPTY {
                return None;
            }
            if self.hashes[id] == hash && self.get(id) == v {
                return Some(id);
            }
            slot = (slot + 1) & mask;
        }
    }

    /// Interns `v`, which the caller has established is not present, and
    /// returns its new arena id.
    pub(crate) fn insert_new(&mut self, v: &[u64]) -> usize {
        debug_assert_eq!(v.len(), self.stride);
        debug_assert!(self.lookup(v).is_none(), "insert_new of a present vector");
        debug_assert_eq!(
            self.hashes.len(),
            self.len,
            "mixed indexed and unindexed use"
        );
        let id = self.len;
        self.counts.extend_from_slice(v);
        self.hashes.push(hash_counts(v));
        self.len += 1;
        // Grow at 7/8 load so probe chains stay short.
        if (self.len() + 1) * 8 > self.slots.len() * 7 {
            self.grow();
        }
        self.place(id);
        id
    }

    /// Rebuilds the slot table at twice the capacity from the cached hashes.
    fn grow(&mut self) {
        self.grows += 1;
        let new_len = self.slots.len() * 2;
        self.slots.clear();
        self.slots.resize(new_len, EMPTY);
        for id in 0..self.len() {
            self.place(id);
        }
    }

    /// Writes `id` into the first free slot of its probe chain.
    fn place(&mut self, id: usize) {
        let mask = self.slots.len() - 1;
        let mut slot = (self.hashes[id] as usize) & mask;
        while self.slots[slot] != EMPTY {
            self.collisions += 1;
            slot = (slot + 1) & mask;
        }
        self.slots[slot] = id;
    }

    /// `(collisions, grows)` accumulated over the arena's lifetime — probe
    /// steps past the home slot on placement, and slot-table doublings.
    pub(crate) fn metrics(&self) -> (u64, u64) {
        (self.collisions, self.grows)
    }

    /// Materializes configuration `id` as a sparse [`Configuration`].
    pub(crate) fn sparse(&self, id: usize) -> Configuration {
        Configuration::from_counts(
            self.get(id)
                .iter()
                .enumerate()
                .filter(|&(_, &c)| c > 0)
                .map(|(i, &c)| (Species(i), c)),
        )
    }
}

/// Lowers a sparse configuration onto a dense count vector of length
/// `stride`, or `None` if it holds a positive count of a species outside the
/// stride (such a configuration cannot have been interned).
pub(crate) fn to_dense(config: &Configuration, stride: usize) -> Option<Vec<u64>> {
    let mut v = vec![0u64; stride];
    for (s, c) in config.iter() {
        if s.index() >= stride {
            return None;
        }
        v[s.index()] = c;
    }
    Some(v)
}

/// The smallest stride covering both a base stride (usually
/// [`crate::compiled::CompiledCrn::stride`], which spans the CRN's species
/// set and its reactions) and a start configuration (which may, through the
/// public API, mention further species).
pub(crate) fn stride_for(base: usize, start: &Configuration) -> usize {
    start
        .iter()
        .map(|(s, _)| s.index() + 1)
        .max()
        .unwrap_or(0)
        .max(base)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_lookup_roundtrip() {
        let mut arena = ConfigArena::new(3);
        assert_eq!(arena.lookup(&[1, 0, 2]), None);
        let a = arena.insert_new(&[1, 0, 2]);
        let b = arena.insert_new(&[0, 0, 0]);
        assert_ne!(a, b);
        assert_eq!(arena.lookup(&[1, 0, 2]), Some(a));
        assert_eq!(arena.lookup(&[0, 0, 0]), Some(b));
        assert_eq!(arena.lookup(&[2, 0, 1]), None);
        assert_eq!(arena.get(a), &[1, 0, 2]);
        assert_eq!(arena.len(), 2);
    }

    #[test]
    fn index_survives_growth() {
        let mut arena = ConfigArena::new(2);
        for i in 0..500u64 {
            arena.insert_new(&[i, i * 7 + 1]);
        }
        for i in 0..500u64 {
            assert_eq!(arena.lookup(&[i, i * 7 + 1]), Some(i as usize));
        }
        assert_eq!(arena.lookup(&[500, 1]), None);
    }

    #[test]
    fn unindexed_pushes_store_without_hashing() {
        let mut arena = ConfigArena::new(2);
        let a = arena.push_unindexed(&[1, 2]);
        let b = arena.push_unindexed(&[3, 4]);
        assert_eq!((a, b), (0, 1));
        assert_eq!(arena.len(), 2);
        assert_eq!(arena.get(1), &[3, 4]);
        // A reset returns the arena to hash mode.
        arena.reset(2);
        assert_eq!(arena.len(), 0);
        let c = arena.insert_new(&[1, 2]);
        assert_eq!(arena.lookup(&[1, 2]), Some(c));
    }

    #[test]
    fn sparse_materialization_drops_zeros() {
        let mut arena = ConfigArena::new(3);
        let id = arena.insert_new(&[2, 0, 5]);
        let sparse = arena.sparse(id);
        assert_eq!(sparse.count(Species(0)), 2);
        assert_eq!(sparse.count(Species(1)), 0);
        assert_eq!(sparse.count(Species(2)), 5);
        assert_eq!(sparse.iter().count(), 2);
    }

    #[test]
    fn dense_conversion_rejects_out_of_stride_species() {
        let c = Configuration::from_counts(vec![(Species(0), 1), (Species(5), 2)]);
        assert_eq!(to_dense(&c, 3), None);
        assert_eq!(to_dense(&c, 6), Some(vec![1, 0, 0, 0, 0, 2]));
        assert_eq!(stride_for(3, &c), 6);
        assert_eq!(stride_for(9, &c), 9);
    }
}
