//! Differential property tests for the dense simulation kernel.
//!
//! The dense Gillespie kernel must be a *drop-in* replacement for the sparse
//! seed implementation: identical seed, identical trajectory.  These tests
//! check that seed-for-seed on random CRNs and on deterministic runs that
//! cross the propensity table's exact range both ways, and check the
//! incremental propensity-table maintenance against full recomputation
//! after random firing sequences.

use proptest::prelude::*;

use crn_geometry::QMatrix;
use crn_model::{CompiledCrn, Configuration, Crn, DenseState, Reaction, Species, Stoichiometry};
use crn_numeric::{NVec, QVec};
use crn_sim::gillespie::{propensity, Gillespie, SparseGillespie};
use crn_sim::kernel::{propensity_dense, PropensityTable};

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

/// Runs the dense kernel and the sparse oracle from `start` with `seed` for
/// at most `max_steps` firings and asserts the same trajectory: steps,
/// silence, final configuration and the clock's bits.
fn assert_replays_oracle(crn: &Crn, start: &Configuration, seed: u64, max_steps: u64) {
    let dense = Gillespie::new(crn, seed).run(start, max_steps).unwrap();
    let sparse = SparseGillespie::new(crn.clone(), seed).run(start, max_steps);
    assert_eq!(dense.steps, sparse.steps, "seed {seed}");
    assert_eq!(dense.silent, sparse.silent, "seed {seed}");
    assert_eq!(
        dense.final_configuration, sparse.final_configuration,
        "seed {seed}"
    );
    assert_eq!(dense.time.to_bits(), sparse.time.to_bits(), "seed {seed}");
}

/// `crn`'s single species `name` at `count`.
fn only(crn: &Crn, name: &str, count: u64) -> Configuration {
    Configuration::from_counts(vec![(crn.species_named(name).unwrap(), count)])
}

/// The largest `c` whose falling power `c·(c − 1)⋯(c − order + 1)` stays
/// below `2^53 / (reactions + 1)`, the propensity table's exact range.
fn last_exact_count(order: u64, reactions: u64) -> u64 {
    let limit = (1u64 << 53) as f64 / (reactions + 1) as f64;
    let falling = |c: u64| (0..order).map(|k| (c - k) as f64).product::<f64>();
    let mut c = limit.powf(1.0 / order as f64) as u64 + order;
    while falling(c) >= limit {
        c -= 1;
    }
    c
}

/// A run that starts above the exact range and falls into it: `2Z -> Y`
/// weighs 3.0086e15 at Z = 54,850,000, above the limit 2^53 / 3, and drops
/// below it after some 28,000 firings.
#[test]
fn runs_falling_into_the_exact_range_replay_the_oracle() {
    let mut crn = Crn::new();
    crn.parse_reaction("2Z -> Y").unwrap();
    crn.parse_reaction("Z -> W").unwrap();
    assert!(54_850_000 > last_exact_count(2, 2));
    let start = only(&crn, "Z", 54_850_000);
    for seed in 0..2 {
        assert_replays_oracle(&crn, &start, seed, 100_000);
    }
}

/// A run that climbs out of the exact range: each firing of the
/// autocatalytic `3X -> 100X` adds 97 X, from a few X below the limit
/// (X ≈ 144,000) past X = 208,064, where its propensity alone passes 2^53
/// and a running total would round.
#[test]
fn runs_climbing_out_of_the_exact_range_replay_the_oracle() {
    let mut crn = Crn::new();
    crn.parse_reaction("3X -> 100X").unwrap();
    crn.parse_reaction("2X -> X").unwrap();
    let start = only(&crn, "X", last_exact_count(3, 2) - 20);
    for seed in 0..4 {
        assert_replays_oracle(&crn, &start, seed, 2_000);
    }
}

/// Many reactions across three blocks, with a birth-death pair that walks X
/// back and forth across the limit, so the table leaves and regains its
/// exact range again and again within one run.
#[test]
fn runs_straddling_the_exact_range_replay_the_oracle() {
    let mut crn = Crn::new();
    for i in 0..17 {
        let reaction = match i {
            3 => "2X -> 3X".to_owned(),
            12 => "2X -> X".to_owned(),
            _ if i % 2 == 0 => format!("Y -> A{i}"),
            _ => format!("Y + A{} -> Y", i - 1),
        };
        crn.parse_reaction(&reaction).unwrap();
    }
    let x = crn.species_named("X").unwrap();
    let y = crn.species_named("Y").unwrap();
    let start = Configuration::from_counts(vec![(x, last_exact_count(2, 17)), (y, 500)]);
    for seed in 0..3 {
        assert_replays_oracle(&crn, &start, seed, 5_000);
    }
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
        let dense = Gillespie::new(&crn, seed).run(&start, 300).unwrap();
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
        table.rebuild(&compiled, state.counts()).unwrap();
        for pick in picks {
            let applicable: Vec<usize> = (0..compiled.reaction_count())
                .filter(|&i| compiled.reactions()[i].applicable(state.counts()))
                .collect();
            if applicable.is_empty() {
                break;
            }
            let fired = applicable[pick % applicable.len()];
            state.apply(&compiled.reactions()[fired]).unwrap();
            table.refresh_after(&compiled, state.counts(), fired).unwrap();

            let mut fresh = PropensityTable::new();
            fresh.rebuild(&compiled, state.counts()).unwrap();
            prop_assert_eq!(table.values(), fresh.values());
            // The running total is the in-order sum, bit for bit.
            prop_assert_eq!(
                table.total().to_bits(),
                table.values().iter().sum::<f64>().to_bits()
            );
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

    /// Every conservation law of the stoichiometry matrix is *exactly*
    /// preserved along stochastic trajectories: the dot product of each law
    /// with the state is constant across a 10⁴-step Gillespie run, checked
    /// at every prefix depth (reseeding replays the identical trajectory, so
    /// shorter runs are intermediate states of the longest one).  The laws
    /// are a rational basis of the null space of the reaction × species
    /// delta matrix, so every signed linear invariant is checked.
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
        let n = Stoichiometry::of(&compiled);
        let deltas: Vec<QVec> = (0..n.reaction_count())
            .map(|r| QVec::from((0..n.stride()).map(|s| n.entry(s, r)).collect::<Vec<i64>>()))
            .collect();
        let laws = QMatrix::from_rows(deltas, n.stride()).nullspace_basis();
        let start = start_config(&crn, (cx, cy, cz));
        let weigh = |state: &DenseState| -> Vec<_> {
            let counts = NVec::from(state.counts());
            laws.iter().map(|law| law.dot_n(&counts)).collect()
        };
        let initial = weigh(&DenseState::from_configuration(&start, compiled.stride()));
        let mut sim = Gillespie::new(&crn, seed);
        for depth in [1u64, 10, 100, 1_000, 10_000] {
            sim.reseed(seed);
            let out = sim.run(&start, depth).unwrap();
            let state = DenseState::from_configuration(&out.final_configuration, compiled.stride());
            for ((law, value), expected) in laws.iter().zip(weigh(&state)).zip(&initial) {
                prop_assert_eq!(
                    &value,
                    expected,
                    "law {:?} drifted after {} steps",
                    law,
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
