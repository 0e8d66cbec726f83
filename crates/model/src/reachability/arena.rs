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
#[derive(Debug)]
pub(crate) struct ConfigArena {
    stride: usize,
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
            counts: Vec::new(),
            hashes: Vec::new(),
            slots: vec![EMPTY; 16],
            collisions: 0,
            grows: 0,
        }
    }

    /// Empties the arena for a fresh exploration over `stride` species,
    /// keeping every allocation for reuse.
    pub(crate) fn reset(&mut self, stride: usize) {
        self.stride = stride;
        self.counts.clear();
        self.hashes.clear();
        self.slots.iter_mut().for_each(|s| *s = EMPTY);
    }

    /// The number of stored configurations.
    pub(crate) fn len(&self) -> usize {
        self.hashes.len()
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
        let id = self.len();
        self.counts.extend_from_slice(v);
        self.hashes.push(hash_counts(v));
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
    fn sparse_materialization_drops_zeros() {
        let mut arena = ConfigArena::new(3);
        let id = arena.insert_new(&[2, 0, 5]);
        let sparse = arena.sparse(id);
        assert_eq!(sparse.count(Species(0)), 2);
        assert_eq!(sparse.count(Species(1)), 0);
        assert_eq!(sparse.count(Species(2)), 5);
        assert_eq!(sparse.iter().count(), 2);
    }
}
