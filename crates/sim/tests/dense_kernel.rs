//! Differential property tests for the dense simulation kernel.
//!
//! The dense Gillespie kernel must be a *drop-in* replacement for the sparse
//! seed implementation: identical seed, identical trajectory.  These tests
//! check that seed-for-seed on random CRNs, and check the incremental
//! propensity-table / applicable-set maintenance against full recomputation
//! after random firing sequences.

use proptest::prelude::*;

use crn_model::{
    conservation_basis, CompiledCrn, Configuration, Crn, DenseState, Reaction, Species,
    Stoichiometry,
};
use crn_sim::gillespie::{Gillespie, SparseGillespie};
use crn_sim::kernel::{propensity_dense, ApplicableSet, PropensityTable};
use crn_sim::scheduler::propensity;

/// Builds a small arbitrary CRN over species `{X, Y, Z}` from sampled
/// stoichiometries (each row: three reactant counts, three product counts).
fn random_crn(stoich: &[Vec<u64>]) -> Crn {
    let mut crn = Crn::new();
    let x = crn.add_species("X");
    let y = crn.add_species("Y");
    let z = crn.add_species("Z");
    let species = [x, y, z];
    for row in stoich {
        let reactants: Vec<(Species, u64)> = species
            .iter()
            .zip(&row[0..3])
            .map(|(&s, &c)| (s, c))
            .collect();
        let products: Vec<(Species, u64)> = species
            .iter()
            .zip(&row[3..6])
            .map(|(&s, &c)| (s, c))
            .collect();
        crn.add_reaction(Reaction::new(reactants, products));
    }
    crn
}

/// The start configuration `{x X, y Y, z Z}` for a CRN from [`random_crn`].
fn start_config(crn: &Crn, counts: (u64, u64, u64)) -> Configuration {
    Configuration::from_counts(vec![
        (crn.species_named("X").unwrap(), counts.0),
        (crn.species_named("Y").unwrap(), counts.1),
        (crn.species_named("Z").unwrap(), counts.2),
    ])
}

/// A proptest strategy for small stoichiometry matrices: 1–4 reactions over
/// 3 species with coefficients in `0..3`.
fn stoich_strategy() -> impl Strategy<Value = Vec<Vec<u64>>> {
    proptest::collection::vec(proptest::collection::vec(0u64..3, 6), 1..5)
}

proptest! {
    /// Tentpole differential check: the dense Gillespie kernel and the sparse
    /// seed oracle produce **identical** trajectories for the same seed —
    /// same step count, same final configuration, same silence flag (and, as
    /// the propensity arithmetic matches bit-for-bit, the same clock).
    #[test]
    fn dense_gillespie_matches_sparse_oracle_seed_for_seed(
        stoich in stoich_strategy(),
        cx in 0u64..8,
        cy in 0u64..8,
        cz in 0u64..8,
        seed in 0u64..64,
    ) {
        let crn = random_crn(&stoich);
        let start = start_config(&crn, (cx, cy, cz));
        let dense = Gillespie::new(crn.clone(), seed).run(&start, 300);
        let sparse = SparseGillespie::new(crn, seed).run(&start, 300);
        prop_assert_eq!(&dense.final_configuration, &sparse.final_configuration);
        prop_assert_eq!(dense.steps, sparse.steps);
        prop_assert_eq!(dense.silent, sparse.silent);
        prop_assert_eq!(dense.time.to_bits(), sparse.time.to_bits());
    }

    /// The incrementally-maintained propensity table is bit-identical to a
    /// full recompute after any firing sequence, and each entry matches the
    /// sparse propensity of the corresponding sparse configuration.
    #[test]
    fn incremental_propensities_match_full_recompute(
        stoich in stoich_strategy(),
        cx in 0u64..8,
        cy in 0u64..8,
        cz in 0u64..8,
        picks in proptest::collection::vec(0usize..16, 0..40),
    ) {
        let crn = random_crn(&stoich);
        let compiled = CompiledCrn::compile(&crn);
        let start = start_config(&crn, (cx, cy, cz));
        let mut state = DenseState::from_configuration(&start, compiled.stride());
        let mut table = PropensityTable::new();
        table.rebuild(&compiled, state.counts());
        for pick in picks {
            let applicable: Vec<usize> = (0..compiled.reaction_count())
                .filter(|&i| compiled.reactions()[i].applicable(state.counts()))
                .collect();
            if applicable.is_empty() {
                break;
            }
            let fired = applicable[pick % applicable.len()];
            state.apply(&compiled.reactions()[fired]);
            table.refresh_after(&compiled, state.counts(), fired);

            let mut fresh = PropensityTable::new();
            fresh.rebuild(&compiled, state.counts());
            prop_assert_eq!(table.values(), fresh.values());
            // And both agree with the sparse reference on the sparse view.
            let sparse_view = state.to_configuration();
            for i in 0..compiled.reaction_count() {
                prop_assert_eq!(
                    table.values()[i].to_bits(),
                    propensity(&crn, &sparse_view, i).to_bits(),
                    "reaction {}", i
                );
            }
        }
    }

    /// The incrementally-maintained applicable set equals an ascending
    /// rescan after any firing sequence.
    #[test]
    fn incremental_applicable_set_matches_rescan(
        stoich in stoich_strategy(),
        cx in 0u64..8,
        cy in 0u64..8,
        cz in 0u64..8,
        picks in proptest::collection::vec(0usize..16, 0..40),
    ) {
        let crn = random_crn(&stoich);
        let compiled = CompiledCrn::compile(&crn);
        let start = start_config(&crn, (cx, cy, cz));
        let mut state = DenseState::from_configuration(&start, compiled.stride());
        let mut set = ApplicableSet::new();
        set.rebuild(&compiled, state.counts());
        for pick in picks {
            if set.is_empty() {
                break;
            }
            let fired = set.indices()[pick % set.indices().len()];
            state.apply(&compiled.reactions()[fired]);
            set.refresh_after(&compiled, state.counts(), fired);

            let rescan: Vec<usize> = (0..compiled.reaction_count())
                .filter(|&i| compiled.reactions()[i].applicable(state.counts()))
                .collect();
            prop_assert_eq!(set.indices(), rescan.as_slice());
            // The rescan order is the sparse `applicable_reactions` order.
            prop_assert_eq!(rescan, crn.applicable_reactions(&state.to_configuration()));
        }
    }

    /// Every conservation law of the stoichiometry matrix is *exactly*
    /// preserved along stochastic trajectories: the dot product of each law
    /// with the state is constant across a 10⁴-step Gillespie run, checked
    /// at every prefix depth (reseeding replays the identical trajectory, so
    /// shorter runs are intermediate states of the longest one).
    #[test]
    fn conservation_laws_hold_along_gillespie_trajectories(
        stoich in stoich_strategy(),
        cx in 0u64..20,
        cy in 0u64..20,
        cz in 0u64..20,
        seed in 0u64..64,
    ) {
        let crn = random_crn(&stoich);
        let compiled = CompiledCrn::compile(&crn);
        let laws = conservation_basis(&Stoichiometry::of(&compiled));
        let start = start_config(&crn, (cx, cy, cz));
        let dense_start = DenseState::from_configuration(&start, compiled.stride());
        let initial: Vec<Option<i128>> =
            laws.iter().map(|law| law.weigh(dense_start.counts())).collect();
        let mut sim = Gillespie::new(crn, seed);
        for depth in [1u64, 10, 100, 1_000, 10_000] {
            sim.reseed(seed);
            let out = sim.run(&start, depth);
            let state = DenseState::from_configuration(&out.final_configuration, compiled.stride());
            for (law, &expected) in laws.iter().zip(&initial) {
                prop_assert_eq!(
                    law.weigh(state.counts()),
                    expected,
                    "law {:?} drifted after {} steps",
                    law.weights(),
                    out.steps
                );
            }
            if out.silent {
                break;
            }
        }
    }

    /// Dense propensities agree bit-for-bit with the sparse reference on
    /// arbitrary configurations (not just along trajectories).
    #[test]
    fn dense_propensity_matches_sparse_everywhere(
        stoich in stoich_strategy(),
        cx in 0u64..12,
        cy in 0u64..12,
        cz in 0u64..12,
    ) {
        let crn = random_crn(&stoich);
        let compiled = CompiledCrn::compile(&crn);
        let config = start_config(&crn, (cx, cy, cz));
        let state = DenseState::from_configuration(&config, compiled.stride());
        for i in 0..compiled.reaction_count() {
            prop_assert_eq!(
                propensity_dense(&compiled.reactions()[i], state.counts()).to_bits(),
                propensity(&crn, &config, i).to_bits(),
                "reaction {}", i
            );
        }
    }
}
