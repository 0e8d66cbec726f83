//! Where an exploration stores its configurations, and how it finds them
//! again.
//!
//! Every stored configuration is a node named by its discovery position
//! ([`NodeId`]).  The engine keeps its nodes in a [`ConfigArena`]: dense
//! count vectors in one allocation, deduplicated by an open-addressing
//! table from a node's 64-bit key to its id, which holds no second copy of
//! the keys and empties in O(1) between the points of a box sweep.

use crate::config::Configuration;
use crate::species::Species;

/// A node of one exploration: the discovery position of a stored
/// configuration.  The engine's `admit` counts every node before it is
/// stored and keeps every id below `u32::MAX`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) struct NodeId(pub(super) u32);

impl NodeId {
    pub(super) fn index(self) -> usize {
        self.0 as usize
    }
}

/// The SplitMix64 finalizer: a full-avalanche mix of one word, so adjacent
/// keys spread across the slot table.
pub(super) fn mix(key: u64) -> u64 {
    let mut z = key.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// FNV-1a over the `u64` words of a count vector, with an extra avalanche
/// step so that low-entropy counts (almost all configurations are small
/// integers) still spread across the table.
pub(super) fn hash_counts(counts: &[u64]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &w in counts {
        h ^= w;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
        h ^= h >> 29;
    }
    h ^ (h >> 32)
}

/// The count vectors of one exploration over a fixed species stride, with
/// the [`hash_counts`] key of each, and the engine's one open-addressing
/// index from a key to its node.
///
/// The index stores only ids and reads keys from `keys`.  Its slots are
/// epoch-stamped `(epoch << 32) | (id + 1)` cells, so a reset is O(1) — no
/// memset of a table sized for the sweep's biggest point — and the table
/// doubles at 1/2 load: probes run on the seen-successor fast path, so
/// short chains are worth the memory.
#[derive(Debug)]
pub(super) struct ConfigArena {
    stride: usize,
    /// Concatenated count vectors; configuration `i` occupies
    /// `counts[i * stride .. (i + 1) * stride]`.
    counts: Vec<u64>,
    /// The key of every stored configuration, so probes compare a vector
    /// only on a key match and growth rehashes nothing.
    keys: Vec<u64>,
    /// The index's slots; length a power of two, at least 16.
    slots: Vec<u64>,
    epoch: u32,
    /// Probe steps past the home slot across every placement, cumulative
    /// over the arena's lifetime (resets do not clear it): the
    /// dedup-collision metric the observability layer reports.
    collisions: u64,
    /// Slot-table doublings over the arena's lifetime.
    grows: u64,
}

impl Default for ConfigArena {
    fn default() -> Self {
        ConfigArena {
            stride: 0,
            counts: Vec::new(),
            keys: Vec::new(),
            slots: vec![0; 16],
            epoch: 0,
            collisions: 0,
            grows: 0,
        }
    }
}

impl ConfigArena {
    /// Empties the arena for a fresh exploration over `stride` species,
    /// keeping every allocation for reuse: stale slots are recognized by
    /// their epoch stamp, and only when the epoch wraps are they cleared.
    pub(super) fn reset(&mut self, stride: usize) {
        self.stride = stride;
        self.counts.clear();
        self.keys.clear();
        match self.epoch.checked_add(1) {
            Some(e) => self.epoch = e,
            None => {
                self.slots.iter_mut().for_each(|s| *s = 0);
                self.epoch = 1;
            }
        }
    }

    /// The number of stored configurations.
    pub(super) fn len(&self) -> usize {
        self.keys.len()
    }

    /// The count vector of configuration `id`.
    pub(super) fn get(&self, id: usize) -> &[u64] {
        &self.counts[id * self.stride..(id + 1) * self.stride]
    }

    /// The live id in `slot`, if any.
    fn occupant(&self, slot: usize) -> Option<NodeId> {
        let cell = self.slots[slot];
        let id = (cell as u32).checked_sub(1)?;
        (cell >> 32 == u64::from(self.epoch)).then_some(NodeId(id))
    }

    /// The node of `v`, whose key is `key`, if the arena holds it.
    pub(super) fn lookup(&self, key: u64, v: &[u64]) -> Option<NodeId> {
        debug_assert_eq!(v.len(), self.stride);
        let mask = self.slots.len() - 1;
        let mut slot = (mix(key) as usize) & mask;
        loop {
            match self.occupant(slot) {
                None => return None,
                Some(id) if self.keys[id.index()] == key && self.get(id.index()) == v => {
                    return Some(id)
                }
                Some(_) => slot = (slot + 1) & mask,
            }
        }
    }

    /// Stores `v`, whose key is `key` and which the caller has established
    /// is absent, as the next node, indexes it and returns its id.  The
    /// engine's `admit` has kept the id below `u32::MAX`.
    pub(super) fn insert(&mut self, key: u64, v: &[u64]) -> NodeId {
        debug_assert_eq!(v.len(), self.stride);
        let id = u32::try_from(self.len()).expect("admit keeps ids below u32::MAX");
        self.counts.extend_from_slice(v);
        self.keys.push(key);
        if self.len() * 2 > self.slots.len() {
            self.grows += 1;
            let new_len = self.slots.len() * 2;
            self.slots.clear();
            self.slots.resize(new_len, 0);
            for i in 0..=id {
                self.place(i);
            }
        } else {
            self.place(id);
        }
        NodeId(id)
    }

    /// Writes `id` into the first free slot of its key's probe chain.
    fn place(&mut self, id: u32) {
        let mask = self.slots.len() - 1;
        let mut slot = (mix(self.keys[id as usize]) as usize) & mask;
        while self.occupant(slot).is_some() {
            self.collisions += 1;
            slot = (slot + 1) & mask;
        }
        self.slots[slot] = (u64::from(self.epoch) << 32) | u64::from(id + 1);
    }

    /// `(collisions, grows)` of the index, accumulated over the arena's
    /// lifetime.
    pub(super) fn metrics(&self) -> (u64, u64) {
        (self.collisions, self.grows)
    }

    /// Materializes configuration `id` as a sparse [`Configuration`].
    pub(super) fn sparse(&self, id: usize) -> Configuration {
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

    /// A fresh arena over `stride` species, as the engine starts one.
    fn arena(stride: usize) -> ConfigArena {
        let mut arena = ConfigArena::default();
        arena.reset(stride);
        arena
    }

    fn find(arena: &ConfigArena, v: &[u64]) -> Option<usize> {
        arena.lookup(hash_counts(v), v).map(NodeId::index)
    }

    fn intern(arena: &mut ConfigArena, v: &[u64]) -> usize {
        arena.insert(hash_counts(v), v).index()
    }

    #[test]
    fn intern_lookup_roundtrip() {
        let mut arena = arena(3);
        assert_eq!(find(&arena, &[1, 0, 2]), None);
        let a = intern(&mut arena, &[1, 0, 2]);
        let b = intern(&mut arena, &[0, 0, 0]);
        assert_ne!(a, b);
        assert_eq!(find(&arena, &[1, 0, 2]), Some(a));
        assert_eq!(find(&arena, &[0, 0, 0]), Some(b));
        assert_eq!(find(&arena, &[2, 0, 1]), None);
        assert_eq!(arena.get(a), &[1, 0, 2]);
        assert_eq!(arena.len(), 2);
    }

    #[test]
    fn index_survives_growth() {
        let mut arena = arena(2);
        for i in 0..500u64 {
            intern(&mut arena, &[i, i * 7 + 1]);
        }
        for i in 0..500u64 {
            assert_eq!(find(&arena, &[i, i * 7 + 1]), Some(i as usize));
        }
        assert_eq!(find(&arena, &[500, 1]), None);
        // 500 ids at 1/2 load: 16 slots doubled six times, to 1,024.
        assert_eq!(arena.metrics().1, 6);
    }

    #[test]
    fn an_epoch_wrap_forgets_every_stored_id() {
        let store = |arena: &mut ConfigArena, counts: &[u64]| {
            for &c in counts {
                intern(arena, &[c]);
            }
        };
        // Stamped at epoch 1, which the wrap restarts at, and at the last
        // epoch before it.
        let mut arena = arena(1);
        store(&mut arena, &[3, 5, 8]);
        arena.reset(1);
        arena.epoch = u32::MAX;
        assert_eq!(find(&arena, &[3]), None);
        store(&mut arena, &[3, 5]);
        assert_eq!(find(&arena, &[5]), Some(1));
        arena.reset(1);
        assert_eq!(arena.epoch, 1);
        for slot in 0..arena.slots.len() {
            assert_eq!(arena.occupant(slot), None, "slot {slot} survived the wrap");
        }
        store(&mut arena, &[13, 21]);
        assert_eq!(find(&arena, &[13]), Some(0));
        assert_eq!(find(&arena, &[21]), Some(1));
        assert_eq!(find(&arena, &[3]), None);
    }

    #[test]
    fn sparse_materialization_drops_zeros() {
        let mut arena = arena(3);
        let id = intern(&mut arena, &[2, 0, 5]);
        let sparse = arena.sparse(id);
        assert_eq!(sparse.count(Species(0)), 2);
        assert_eq!(sparse.count(Species(1)), 0);
        assert_eq!(sparse.count(Species(2)), 5);
        assert_eq!(sparse.iter().count(), 2);
    }
}
