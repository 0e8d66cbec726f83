//! The dense simulation kernel: incremental propensity and applicability
//! maintenance over a [`CompiledCrn`].
//!
//! Every simulator in this crate fires one reaction per step, and one firing
//! only changes the counts of the species in that reaction's delta list.  The
//! compiled dependency graph ([`CompiledCrn::dependents`]) names exactly the
//! reactions whose mass-action propensity (or applicability) can have
//! changed, so after a firing the kernel recomputes *those* instead of
//! rescanning every reaction — the difference between O(dependents) and
//! O(reactions · reactants) per step.
//!
//! Incremental maintenance is *exact*, not approximate: a recomputed entry is
//! the same deterministic function of the same counts a full rebuild would
//! evaluate, so the table is bit-identical to a fresh rebuild after any
//! firing sequence (property-tested in `tests/dense_kernel.rs`).

use crn_model::{CompiledCrn, CompiledReaction};

/// The mass-action propensity of `reaction` on a dense count vector: the
/// number of distinct ways to choose its reactant multiset,
/// `∏_s C(count_s, r_s)·r_s!` (i.e. the falling factorial), with unit rate
/// constant.
///
/// The reactant list of a [`CompiledReaction`] preserves the sparse
/// reactant-map iteration order, and the factors are multiplied in the same
/// order as [`crate::gillespie::propensity`], so the two functions agree
/// bit-for-bit — which is what lets the dense Gillespie kernel replay the
/// sparse oracle seed-for-seed.
#[must_use]
pub fn propensity_dense(reaction: &CompiledReaction, counts: &[u64]) -> f64 {
    let mut a = 1.0f64;
    for &(s, r) in reaction.reactants() {
        let count = counts[s];
        if count < r {
            return 0.0;
        }
        for k in 0..r {
            a *= (count - k) as f64;
        }
    }
    a
}

/// A per-reaction propensity table kept current across firings via the
/// compiled dependency graph.
#[derive(Debug, Clone, Default)]
pub struct PropensityTable {
    values: Vec<f64>,
}

impl PropensityTable {
    /// An empty table; call [`rebuild`](Self::rebuild) before use.
    #[must_use]
    pub fn new() -> Self {
        PropensityTable::default()
    }

    /// Recomputes every entry from scratch (run start, or after an arbitrary
    /// state change).
    pub fn rebuild(&mut self, crn: &CompiledCrn, counts: &[u64]) {
        self.values.clear();
        self.values
            .extend(crn.reactions().iter().map(|r| propensity_dense(r, counts)));
    }

    /// Recomputes only the entries that firing `fired` can have changed.
    pub fn refresh_after(&mut self, crn: &CompiledCrn, counts: &[u64], fired: usize) {
        for &j in crn.dependents(fired) {
            self.values[j] = propensity_dense(&crn.reactions()[j], counts);
        }
    }

    /// The per-reaction propensities, in reaction order.
    #[must_use]
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// The total propensity, summed in reaction order (the same order and
    /// rounding as a full sparse recompute, for seed-for-seed parity).
    #[must_use]
    pub fn total(&self) -> f64 {
        self.values.iter().sum()
    }
}

/// The set of applicable reaction indices, kept sorted ascending (the order
/// `Crn::applicable_reactions` produced) and maintained incrementally across
/// firings instead of rescanned.
#[derive(Debug, Clone, Default)]
pub struct ApplicableSet {
    /// Applicable reaction indices, ascending.
    indices: Vec<usize>,
    /// Membership mask, one flag per reaction.
    mask: Vec<bool>,
}

impl ApplicableSet {
    /// An empty set; call [`rebuild`](Self::rebuild) before use.
    #[must_use]
    pub fn new() -> Self {
        ApplicableSet::default()
    }

    /// Recomputes the set from scratch.
    pub fn rebuild(&mut self, crn: &CompiledCrn, counts: &[u64]) {
        self.indices.clear();
        self.mask.clear();
        self.mask.resize(crn.reaction_count(), false);
        for (i, reaction) in crn.reactions().iter().enumerate() {
            if reaction.applicable(counts) {
                self.indices.push(i);
                self.mask[i] = true;
            }
        }
    }

    /// Re-examines only the reactions that firing `fired` can have flipped,
    /// splicing them in or out of the sorted index list.
    pub fn refresh_after(&mut self, crn: &CompiledCrn, counts: &[u64], fired: usize) {
        for &j in crn.dependents(fired) {
            let now = crn.reactions()[j].applicable(counts);
            if now == self.mask[j] {
                continue;
            }
            self.mask[j] = now;
            match self.indices.binary_search(&j) {
                Ok(pos) => {
                    debug_assert!(!now);
                    self.indices.remove(pos);
                }
                Err(pos) => {
                    debug_assert!(now);
                    self.indices.insert(pos, j);
                }
            }
        }
    }

    /// The applicable reaction indices, ascending.
    #[must_use]
    pub fn indices(&self) -> &[usize] {
        &self.indices
    }

    /// Whether no reaction is applicable (the CRN is silent).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.indices.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crn_model::{examples, Configuration, DenseState};

    #[test]
    fn dense_propensity_matches_sparse() {
        let min = examples::min_crn();
        let crn = min.crn();
        let compiled = CompiledCrn::compile(crn);
        let x1 = crn.species_named("X1").unwrap();
        let x2 = crn.species_named("X2").unwrap();
        let config = Configuration::from_counts(vec![(x1, 3), (x2, 2)]);
        let state = DenseState::from_configuration(&config, compiled.stride());
        assert_eq!(
            propensity_dense(&compiled.reactions()[0], state.counts()),
            crate::gillespie::propensity(crn, &config, 0)
        );
        let empty = DenseState::zero(compiled.stride());
        assert_eq!(
            propensity_dense(&compiled.reactions()[0], empty.counts()),
            0.0
        );
    }

    #[test]
    fn incremental_table_tracks_firings() {
        let max = examples::max_crn();
        let compiled = CompiledCrn::compile(max.crn());
        let start = max
            .initial_configuration(&crn_numeric::NVec::from(vec![2, 3]))
            .unwrap();
        let mut state = DenseState::from_configuration(&start, compiled.stride());
        let mut table = PropensityTable::new();
        table.rebuild(&compiled, state.counts());
        // Fire X1 -> Z1 + Y and verify against a fresh rebuild.
        state.apply(&compiled.reactions()[0]).unwrap();
        table.refresh_after(&compiled, state.counts(), 0);
        let mut fresh = PropensityTable::new();
        fresh.rebuild(&compiled, state.counts());
        assert_eq!(table.values(), fresh.values());
    }

    #[test]
    fn applicable_set_tracks_firings_in_ascending_order() {
        let max = examples::max_crn();
        let compiled = CompiledCrn::compile(max.crn());
        let start = max
            .initial_configuration(&crn_numeric::NVec::from(vec![1, 1]))
            .unwrap();
        let mut state = DenseState::from_configuration(&start, compiled.stride());
        let mut set = ApplicableSet::new();
        set.rebuild(&compiled, state.counts());
        assert_eq!(set.indices(), &[0, 1]);
        // Fire both input reactions: Z1 + Z2 -> K and K + Y -> 0 wake up.
        for fired in [0usize, 1] {
            state.apply(&compiled.reactions()[fired]).unwrap();
            set.refresh_after(&compiled, state.counts(), fired);
        }
        assert_eq!(set.indices(), &[2]);
        state.apply(&compiled.reactions()[2]).unwrap();
        set.refresh_after(&compiled, state.counts(), 2);
        assert_eq!(set.indices(), &[3]);
    }
}
