//! The compiled CRN: a [`Crn`] lowered once into dense species-indexed
//! tables, shared by every hot subsystem.
//!
//! Both the reachability engine and the stochastic simulator spend their
//! entire budget firing reactions against configurations.  Doing that on the
//! sparse model types means a `BTreeMap` lookup per reactant and a map clone
//! per firing; instead, [`CompiledCrn::compile`] lowers the CRN **once** into:
//!
//! * per-reaction reactant requirement lists and net index/delta lists over
//!   dense species indices ([`CompiledReaction`]),
//! * a reaction → affected-species → dependent-reaction graph in compressed
//!   sparse row form: [`CompiledCrn::dependents`] lists exactly the reactions
//!   whose applicability or mass-action propensity can change when a given
//!   reaction fires, which is what makes incremental propensity maintenance
//!   (`crn-sim`) and incremental applicable-set maintenance possible.
//!
//! Configurations on the dense side are [`DenseState`]: one flat `u64` count
//! vector with in-place [`apply`](DenseState::apply), convertible losslessly
//! to and from the sparse [`Configuration`].

use crate::config::Configuration;
use crate::crn::Crn;
use crate::reaction::Reaction;
use crate::species::Species;

/// A reaction lowered onto dense count vectors: the reactant requirements to
/// test applicability and the net per-species delta to fire it.
///
/// Reactant entries are in ascending species order (the iteration order of
/// the sparse reactant map), so mass-action products computed from them are
/// bit-identical to products computed from the sparse representation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompiledReaction {
    reactants: Vec<(usize, u64)>,
    delta: Vec<(usize, i64)>,
}

impl CompiledReaction {
    /// Compiles `reaction` for dense application.
    ///
    /// # Panics
    ///
    /// Panics if a coefficient exceeds `i64::MAX`, which the net change
    /// cannot represent.  [`Crn::parse_reaction`](crate::Crn::parse_reaction)
    /// and the `crn-lang` lowering reject such reactions.
    #[must_use]
    pub fn compile(reaction: &Reaction) -> Self {
        let reactants: Vec<(usize, u64)> = reaction
            .reactants()
            .iter()
            .map(|(&s, &c)| (s.index(), c))
            .collect();
        let signed =
            |c: u64| i64::try_from(c).expect("a stoichiometric coefficient exceeds i64::MAX");
        let mut delta: Vec<(usize, i64)> = Vec::new();
        for (&s, &c) in reaction.reactants() {
            delta.push((s.index(), -signed(c)));
        }
        // A reactant's −c plus a product's c' stays within ±i64::MAX.
        for (&s, &c) in reaction.products() {
            match delta.iter_mut().find(|(i, _)| *i == s.index()) {
                Some((_, d)) => *d += signed(c),
                None => delta.push((s.index(), signed(c))),
            }
        }
        delta.retain(|&(_, d)| d != 0);
        CompiledReaction { reactants, delta }
    }

    /// The `(species index, required count)` reactant list, in ascending
    /// species order.
    #[must_use]
    #[inline]
    pub fn reactants(&self) -> &[(usize, u64)] {
        &self.reactants
    }

    /// The net `(species index, count delta)` effect of one firing.  Catalyst
    /// species (consumed and re-produced in equal amounts) do not appear.
    #[must_use]
    #[inline]
    pub fn delta(&self) -> &[(usize, i64)] {
        &self.delta
    }

    /// Whether the reaction's reactants are present in `counts`.
    #[must_use]
    #[inline]
    pub fn applicable(&self, counts: &[u64]) -> bool {
        self.reactants.iter().all(|&(i, c)| counts[i] >= c)
    }

    /// Copies `src` into `dst` and fires the reaction there.  The caller must
    /// have checked [`CompiledReaction::applicable`].
    ///
    /// # Errors
    ///
    /// Returns the species whose count the firing would push past
    /// `u64::MAX`; `dst` is then unspecified.
    pub fn apply_into(&self, src: &[u64], dst: &mut [u64]) -> Result<(), Species> {
        dst.copy_from_slice(src);
        self.apply_in_place(dst)
    }

    /// Fires the reaction in place.  The caller must have checked
    /// [`CompiledReaction::applicable`], so only a product count can leave
    /// `u64`.
    ///
    /// # Errors
    ///
    /// Returns the species whose count the firing would push past
    /// `u64::MAX`; `counts` is then unspecified.
    #[inline]
    pub fn apply_in_place(&self, counts: &mut [u64]) -> Result<(), Species> {
        for &(i, d) in &self.delta {
            if d >= 0 {
                counts[i] = counts[i].checked_add(d as u64).ok_or(Species(i))?;
            } else {
                counts[i] -= (-d) as u64;
            }
        }
        Ok(())
    }

    /// Fires the reaction in place as often as a loop of
    /// [`applicable`](Self::applicable) and
    /// [`apply_in_place`](Self::apply_in_place) would, up to `cap` times,
    /// and returns how often.  The caller must have checked
    /// [`applicable`](Self::applicable), and `cap` must be at least 1.
    ///
    /// # Errors
    ///
    /// Returns the loop's overflow: the first firing (counting from 1) that
    /// would push a count past `u64::MAX`, and the first species in delta
    /// order that it pushes there; `counts` is then unspecified.
    #[inline]
    pub fn apply_repeatedly(&self, counts: &mut [u64], cap: u64) -> Result<u64, (u64, Species)> {
        debug_assert!(cap >= 1 && self.applicable(counts));
        // Each net-consumed reactant allows one firing, plus one more per
        // `-d` copies it holds above its requirement; a cap of 1 needs no
        // division, since the reaction applies.
        let mut times = cap;
        for &(i, d) in &self.delta {
            if d < 0 && times > 1 {
                let &(_, need) = self
                    .reactants
                    .iter()
                    .find(|&&(s, _)| s == i)
                    .expect("a net-consumed species is a reactant");
                times = times.min((counts[i] - need) / d.unsigned_abs() + 1);
            }
        }
        let mut overflow: Option<(u64, Species)> = None;
        for &(i, d) in &self.delta {
            if d > 0 && (times as u128) * (d as u128) > u128::from(u64::MAX - counts[i]) {
                // The first firing that carries this count past u64::MAX.
                let firing = (u64::MAX - counts[i]) / d as u64 + 1;
                if overflow.map_or(true, |(first, _)| firing < first) {
                    overflow = Some((firing, Species(i)));
                }
            }
        }
        if let Some(overflow) = overflow {
            return Err(overflow);
        }
        // Neither loop above lets a count leave `u64`.
        for &(i, d) in &self.delta {
            if d >= 0 {
                counts[i] += times * d as u64;
            } else {
                counts[i] -= times * d.unsigned_abs();
            }
        }
        Ok(times)
    }
}

/// A CRN lowered once into dense reaction tables plus the dependency graph
/// between reactions.
///
/// ```
/// use crn_model::{examples, CompiledCrn, DenseState};
///
/// let max = examples::max_crn();
/// let compiled = CompiledCrn::compile(max.crn());
/// let start = max.initial_configuration(&crn_numeric::NVec::from(vec![2, 3])).unwrap();
/// let mut state = DenseState::from_configuration(&start, compiled.stride());
/// // Fire reaction 0 (X1 -> Z1 + Y) in place.
/// assert!(compiled.reactions()[0].applicable(state.counts()));
/// state.apply(&compiled.reactions()[0]).unwrap();
/// assert_eq!(state.to_configuration().count(max.output()), 1);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompiledCrn {
    stride: usize,
    reactions: Vec<CompiledReaction>,
    /// Dependency graph in CSR form: `dep_targets[dep_offsets[r] ..
    /// dep_offsets[r + 1]]` are the (ascending) indices of the reactions
    /// whose propensity can change when reaction `r` fires.
    dep_offsets: Vec<usize>,
    dep_targets: Vec<usize>,
}

impl CompiledCrn {
    /// Lowers `crn` into dense tables and builds the dependency graph.
    ///
    /// The stride covers the CRN's species interner *and* every species
    /// mentioned by a reaction (`Crn::add_reaction` does not validate
    /// membership, so reactions can mention foreign species).
    #[must_use]
    pub fn compile(crn: &Crn) -> Self {
        let reactions: Vec<CompiledReaction> = crn
            .reactions()
            .iter()
            .map(CompiledReaction::compile)
            .collect();
        let reaction_stride = reactions
            .iter()
            .flat_map(|r| {
                r.reactants
                    .iter()
                    .map(|&(i, _)| i)
                    .chain(r.delta.iter().map(|&(i, _)| i))
            })
            .map(|i| i + 1)
            .max()
            .unwrap_or(0);
        let stride = crn.species().len().max(reaction_stride);

        // Invert reactants: which reactions consume each species?
        let mut consumers: Vec<Vec<usize>> = vec![Vec::new(); stride];
        for (j, reaction) in reactions.iter().enumerate() {
            for &(s, _) in &reaction.reactants {
                consumers[s].push(j);
            }
        }
        // dependents(r) = union over r's changed species of their consumers.
        let mut dep_offsets = Vec::with_capacity(reactions.len() + 1);
        let mut dep_targets = Vec::new();
        let mut scratch: Vec<usize> = Vec::new();
        dep_offsets.push(0);
        for reaction in &reactions {
            scratch.clear();
            for &(s, _) in &reaction.delta {
                scratch.extend_from_slice(&consumers[s]);
            }
            scratch.sort_unstable();
            scratch.dedup();
            dep_targets.extend_from_slice(&scratch);
            dep_offsets.push(dep_targets.len());
        }
        CompiledCrn {
            stride,
            reactions,
            dep_offsets,
            dep_targets,
        }
    }

    /// The dense count-vector length required by this CRN: one slot per
    /// species the CRN or any of its reactions mentions.
    #[must_use]
    pub fn stride(&self) -> usize {
        self.stride
    }

    /// The compiled reactions, in the CRN's reaction order.
    #[must_use]
    #[inline]
    pub fn reactions(&self) -> &[CompiledReaction] {
        &self.reactions
    }

    /// The number of reactions.
    #[must_use]
    pub fn reaction_count(&self) -> usize {
        self.reactions.len()
    }

    /// The reactions whose applicability or mass-action propensity can change
    /// when `fired` fires: exactly those with a reactant among the species
    /// `fired` changes.  Ascending, duplicate-free; includes `fired` itself
    /// whenever it consumes what it changes (i.e. almost always).
    #[must_use]
    #[inline]
    pub fn dependents(&self, fired: usize) -> &[usize] {
        &self.dep_targets[self.dep_offsets[fired]..self.dep_offsets[fired + 1]]
    }
}

/// A configuration as one flat `u64` count vector, indexed by
/// [`Species::index`], supporting in-place firing.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct DenseState {
    counts: Vec<u64>,
}

impl DenseState {
    /// The zero state over `stride` species slots.
    #[must_use]
    pub fn zero(stride: usize) -> Self {
        DenseState {
            counts: vec![0; stride],
        }
    }

    /// Lowers a sparse configuration, sizing the vector to cover both
    /// `min_stride` (usually [`CompiledCrn::stride`]) and every species the
    /// configuration holds — the public API allows start configurations to
    /// mention species outside the CRN's interner, and those counts must be
    /// carried (and restored by [`to_configuration`](Self::to_configuration))
    /// even though no reaction touches them.
    #[must_use]
    pub fn from_configuration(config: &Configuration, min_stride: usize) -> Self {
        let stride = config
            .iter()
            .map(|(s, _)| s.index() + 1)
            .max()
            .unwrap_or(0)
            .max(min_stride);
        let mut state = DenseState::zero(stride);
        for (s, c) in config.iter() {
            state.counts[s.index()] = c;
        }
        state
    }

    /// Re-lowers `config` into this state, reusing the allocation.  The
    /// existing stride must already cover every species of `config`.
    ///
    /// # Panics
    ///
    /// Panics if `config` holds a species at or past the stride.
    pub fn load(&mut self, config: &Configuration) {
        self.counts.iter_mut().for_each(|c| *c = 0);
        for (s, c) in config.iter() {
            self.counts[s.index()] = c;
        }
    }

    /// The flat count vector.
    #[must_use]
    #[inline]
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// The number of species slots.
    #[must_use]
    pub fn stride(&self) -> usize {
        self.counts.len()
    }

    /// Fires `reaction` in place.  The caller must have checked
    /// [`CompiledReaction::applicable`].
    ///
    /// # Errors
    ///
    /// Returns the species whose count the firing would push past
    /// `u64::MAX`; the state is then unspecified.
    #[inline]
    pub fn apply(&mut self, reaction: &CompiledReaction) -> Result<(), Species> {
        reaction.apply_in_place(&mut self.counts)
    }

    /// Materializes the sparse configuration (zero counts dropped).
    #[must_use]
    pub fn to_configuration(&self) -> Configuration {
        Configuration::from_counts(
            self.counts
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
    use crate::examples;
    use proptest::prelude::*;

    /// The firings a loop of `applicable` and `apply_in_place` makes from
    /// `counts`, up to `cap` and while it stays applicable, or the firing
    /// (counting from 1) and species of its overflow; `None` past
    /// `steps` firings.
    fn fire_one_at_a_time(
        reaction: &CompiledReaction,
        counts: &mut [u64],
        cap: u64,
        steps: u64,
    ) -> Option<Result<u64, (u64, Species)>> {
        let mut fired = 0;
        while fired < cap && reaction.applicable(counts) {
            if fired == steps {
                return None;
            }
            fired += 1;
            if let Err(species) = reaction.apply_in_place(counts) {
                return Some(Err((fired, species)));
            }
        }
        Some(Ok(fired))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2048))]

        /// A burst against firing one at a time on random reactions over
        /// three species: small coefficients, or products near `i64::MAX`;
        /// counts small, near `u64::MAX` or anywhere in `u64`; caps small
        /// or `u64::MAX`.  The firings, the final counts, and an overflow's
        /// firing and species all agree.  Cases whose loop would run past
        /// 5,000 firings are skipped.
        #[test]
        fn a_burst_fires_as_often_as_firing_one_at_a_time(
            reactants in proptest::collection::vec(0u64..4, 3),
            products in proptest::collection::vec(0u64..4, 3),
            wide in proptest::collection::vec(0u8..3, 3),
            kinds in proptest::collection::vec(0u8..3, 3),
            small in proptest::collection::vec(0u64..24, 3),
            anywhere in proptest::collection::vec(0u64..u64::MAX, 3),
            cap in 1u64..40,
            unbounded in 0u8..2,
        ) {
            let mut species = crate::species::SpeciesSet::new();
            let names: Vec<Species> = ["A", "B", "C"].iter().map(|n| species.intern(n)).collect();
            let products: Vec<u64> = products
                .iter()
                .zip(&wide)
                .map(|(&p, &w)| if w == 2 { i64::MAX as u64 - p } else { p })
                .collect();
            let side = |counts: &[u64]| -> Vec<(Species, u64)> {
                names.iter().copied().zip(counts.iter().copied()).collect()
            };
            let reaction = CompiledReaction::compile(&Reaction::new(side(&reactants), side(&products)));
            let start: Vec<u64> = (0..3)
                .map(|i| match kinds[i] {
                    0 => small[i],
                    1 => u64::MAX - small[i],
                    _ => anywhere[i],
                })
                .collect();
            if !reaction.applicable(&start) {
                return;
            }
            let cap = if unbounded == 1 { u64::MAX } else { cap };
            let mut looped = start.clone();
            let Some(expected) = fire_one_at_a_time(&reaction, &mut looped, cap, 5_000) else {
                return;
            };
            let mut burst = start.clone();
            let fired = reaction.apply_repeatedly(&mut burst, cap);
            prop_assert_eq!(fired, expected, "{:?} from {:?}, cap {}", reaction, start, cap);
            prop_assert!(
                fired.is_err() || burst == looped,
                "{:?} from {:?}, cap {}: {:?} against {:?}", reaction, start, cap, burst, looped
            );
        }
    }

    #[test]
    fn a_burst_stops_at_its_cap_at_exhaustion_or_at_its_first_overflow() {
        let mut crn = Crn::new();
        crn.parse_reaction("2X -> Y").unwrap();
        crn.parse_reaction("X -> 9223372036854775807 Y + 9223372036854775807 Z")
            .unwrap();
        let halve = CompiledReaction::compile(&crn.reactions()[0]);
        let (y, z) = (Species(1), Species(2));
        // {7X}: three firings leave one X, which no longer applies.
        let mut counts = [7u64, 0, 0];
        assert_eq!(halve.apply_repeatedly(&mut counts, u64::MAX), Ok(3));
        assert_eq!(counts, [1, 3, 0]);
        let mut counts = [7u64, 0, 0];
        assert_eq!(halve.apply_repeatedly(&mut counts, 2), Ok(2));
        assert_eq!(counts, [3, 2, 0]);
        // Y and Z both pass u64::MAX at the third firing: Y comes first in
        // delta order.  Z alone would pass it at the second.
        let both = CompiledReaction::compile(&crn.reactions()[1]);
        assert_eq!(both.apply_repeatedly(&mut [3, 0, 0], 3), Err((3, y)));
        assert_eq!(both.apply_repeatedly(&mut [3, 0, 0], 2), Ok(2));
        assert_eq!(both.apply_repeatedly(&mut [3, 0, 2], 3), Err((2, z)));
    }

    #[test]
    #[should_panic(expected = "exceeds i64::MAX")]
    fn a_coefficient_past_i64_max_panics_instead_of_wrapping() {
        let mut species = crate::species::SpeciesSet::new();
        let (x, y) = (species.intern("X"), species.intern("Y"));
        let _ = CompiledReaction::compile(&Reaction::new(vec![(x, 1)], vec![(y, u64::MAX)]));
    }

    #[test]
    fn a_firing_past_u64_max_is_an_overflow_not_a_wrap() {
        let mut crn = Crn::new();
        crn.parse_reaction("X -> 9223372036854775807 Y").unwrap();
        let compiled = CompiledReaction::compile(&crn.reactions()[0]);
        let y = crn.species_named("Y").unwrap();
        // Two firings make 2^64 - 2 copies of Y; a third would wrap.
        let mut counts = [3u64, 0];
        compiled.apply_in_place(&mut counts).unwrap();
        compiled.apply_in_place(&mut counts).unwrap();
        assert_eq!(counts[y.index()], u64::MAX - 1);
        assert_eq!(compiled.apply_in_place(&mut counts), Err(y));
        let mut dst = [0u64; 2];
        assert_eq!(compiled.apply_into(&[1, u64::MAX], &mut dst), Err(y));
    }

    #[test]
    fn compiled_reaction_matches_sparse_apply() {
        let mut crn = Crn::new();
        crn.parse_reaction("2X + Y -> Y + 3Z").unwrap();
        let compiled = CompiledReaction::compile(&crn.reactions()[0]);
        // {4 X, 1 Y}:
        let src = [4u64, 1, 0];
        assert!(compiled.applicable(&src));
        let mut dst = [0u64; 3];
        compiled.apply_into(&src, &mut dst).unwrap();
        assert_eq!(dst, [2, 1, 3]);
        // Y is a catalyst: its delta must have been cancelled out.
        assert!(!compiled.applicable(&[4, 0, 0]));
        assert!(!compiled.applicable(&[1, 1, 0]));
    }

    #[test]
    fn stride_covers_species_and_foreign_reaction_species() {
        let mut crn = Crn::new();
        let a = crn.add_species("A");
        crn.add_reaction(Reaction::new(vec![(a, 1)], vec![(Species(7), 1)]));
        let compiled = CompiledCrn::compile(&crn);
        assert_eq!(compiled.stride(), 8);
    }

    #[test]
    fn dependency_graph_of_max_crn() {
        // X1 -> Z1 + Y ; X2 -> Z2 + Y ; Z1 + Z2 -> K ; K + Y -> 0.
        let max = examples::max_crn();
        let compiled = CompiledCrn::compile(max.crn());
        // Reaction 0 changes {X1, Z1, Y}: consumers are 0 (X1), 2 (Z1), 3 (Y).
        assert_eq!(compiled.dependents(0), &[0, 2, 3]);
        // Reaction 1 changes {X2, Z2, Y}: consumers are 1 (X2), 2 (Z2), 3 (Y).
        assert_eq!(compiled.dependents(1), &[1, 2, 3]);
        // Reaction 2 changes {Z1, Z2, K}: consumers are 2 and 3 (K).
        assert_eq!(compiled.dependents(2), &[2, 3]);
        // Reaction 3 changes {K, Y}: its only consumer is 3 itself.
        assert_eq!(compiled.dependents(3), &[3]);
    }

    #[test]
    fn catalyst_only_reactions_have_no_dependents() {
        let mut crn = Crn::new();
        // Pure catalysis: nothing changes, so nothing depends on the firing.
        crn.parse_reaction("C + X -> C + X").unwrap();
        crn.parse_reaction("X -> Y").unwrap();
        let compiled = CompiledCrn::compile(&crn);
        assert!(compiled.dependents(0).is_empty());
        // X -> Y changes {X}: consumed by both reactions.
        assert_eq!(compiled.dependents(1), &[0, 1]);
    }

    #[test]
    fn dense_state_roundtrips_sparse_configurations() {
        let config = Configuration::from_counts(vec![(Species(0), 2), (Species(4), 7)]);
        let state = DenseState::from_configuration(&config, 3);
        // The configuration's own species force the stride past min_stride.
        assert_eq!(state.stride(), 5);
        assert_eq!(state.counts(), &[2, 0, 0, 0, 7]);
        assert_eq!(state.to_configuration(), config);
    }

    #[test]
    fn dense_state_load_reuses_allocation() {
        let mut state = DenseState::zero(4);
        state.load(&Configuration::from_counts(vec![(Species(1), 5)]));
        assert_eq!(state.counts(), &[0, 5, 0, 0]);
        state.load(&Configuration::from_counts(vec![(Species(3), 1)]));
        assert_eq!(state.counts(), &[0, 0, 0, 1]);
    }

    #[test]
    fn empty_reactant_reactions_are_always_applicable() {
        let mut crn = Crn::new();
        crn.parse_reaction("0 -> X").unwrap();
        let compiled = CompiledCrn::compile(&crn);
        assert!(compiled.reactions()[0].applicable(&[0]));
        // Nothing consumes X, so the firing invalidates no propensity.
        assert!(compiled.dependents(0).is_empty());
    }
}
