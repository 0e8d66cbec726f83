//! Pairwise-collision execution of (bimolecularized) CRNs.
//!
//! Population protocols schedule computation by random pairwise collisions.
//! A CRN whose reactions all have at most two reactants can be executed under
//! the same discipline: repeatedly pick a random unordered pair of molecules
//! (or a single molecule, for unimolecular reactions) and fire an applicable
//! reaction.  Combined with [`crn_model::transform::bimolecularize`] this runs
//! any of the paper's constructions under population-protocol-style
//! scheduling, which is what experiment E12 measures.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crn_model::{CrnError, FunctionCrn};
use crn_numeric::NVec;

/// The result of a pairwise-collision run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PairwiseOutcome {
    /// The output count when the run stopped.
    pub output: u64,
    /// The number of collisions attempted (including null collisions).
    pub collisions: u64,
    /// The number of reactions actually fired.
    pub reactions_fired: u64,
    /// Whether the run stopped because no reaction was applicable.
    pub silent: bool,
}

/// Runs `crn` on input `x` under a random pairwise-collision scheduler.
///
/// Reactions with two reactants fire when the chosen pair matches their
/// reactant multiset; unimolecular reactions fire when either chosen molecule
/// matches.  Reactions with more than two reactants are never fired — convert
/// the CRN with [`crn_model::transform::bimolecularize`] first.
///
/// # Errors
///
/// Returns [`CrnError::DimensionMismatch`] if `x` has the wrong arity.
pub fn run_pairwise(
    crn: &FunctionCrn,
    x: &NVec,
    seed: u64,
    max_collisions: u64,
) -> Result<PairwiseOutcome, CrnError> {
    let mut config = crn.initial_configuration(x)?;
    let mut rng = StdRng::seed_from_u64(seed);
    let mut collisions = 0u64;
    let mut fired = 0u64;
    let mut silent = false;
    // Reactions of order ≤ 2 only.
    let reactions: Vec<_> = crn
        .crn()
        .reactions()
        .iter()
        .filter(|r| r.order() <= 2)
        .cloned()
        .collect();
    while collisions < max_collisions {
        // Silence check against the full reaction list (order ≤ 2).
        if !reactions.iter().any(|r| config.can_apply(r)) {
            silent = true;
            break;
        }
        collisions += 1;
        // Draw a molecule (and possibly a second distinct one) uniformly.
        let molecules: Vec<_> = config.iter().collect();
        let total: u64 = molecules.iter().map(|&(_, c)| c).sum();
        if total == 0 {
            silent = true;
            break;
        }
        let draw = |rng: &mut StdRng, exclude: Option<usize>| -> Option<usize> {
            let weights: Vec<u64> = molecules
                .iter()
                .enumerate()
                .map(|(i, &(_, c))| {
                    if Some(i) == exclude {
                        c.saturating_sub(1)
                    } else {
                        c
                    }
                })
                .collect();
            let sum: u64 = weights.iter().sum();
            if sum == 0 {
                return None;
            }
            let mut target = rng.gen_range(0..sum);
            for (i, &w) in weights.iter().enumerate() {
                if target < w {
                    return Some(i);
                }
                target -= w;
            }
            None
        };
        let Some(first) = draw(&mut rng, None) else {
            silent = true;
            break;
        };
        let second = draw(&mut rng, Some(first));
        let first_species = molecules[first].0;
        let second_species = second.map(|i| molecules[i].0);
        // Find an applicable reaction matching the collision.
        let mut candidates = Vec::new();
        for (ri, reaction) in reactions.iter().enumerate() {
            if !config.can_apply(reaction) {
                continue;
            }
            let matches = match reaction.order() {
                0 => true,
                1 => {
                    reaction.reactant_count(first_species) >= 1
                        || second_species.is_some_and(|s| reaction.reactant_count(s) >= 1)
                }
                2 => {
                    let Some(second_species) = second_species else {
                        continue;
                    };
                    if first_species == second_species {
                        reaction.reactant_count(first_species) == 2
                    } else {
                        reaction.reactant_count(first_species) == 1
                            && reaction.reactant_count(second_species) == 1
                    }
                }
                _ => false,
            };
            if matches {
                candidates.push(ri);
            }
        }
        if candidates.is_empty() {
            continue; // null collision
        }
        let chosen = candidates[rng.gen_range(0..candidates.len())];
        config = config.apply(&reactions[chosen]);
        fired += 1;
    }
    Ok(PairwiseOutcome {
        output: crn.output_count(&config),
        collisions,
        reactions_fired: fired,
        silent,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crn_model::transform::bimolecularize;
    use crn_model::{examples, FunctionCrn};

    #[test]
    fn min_crn_under_pairwise_scheduling() {
        let min = examples::min_crn();
        let outcome = run_pairwise(&min, &NVec::from(vec![12, 20]), 3, 1_000_000).unwrap();
        assert!(outcome.silent);
        assert_eq!(outcome.output, 12);
        assert_eq!(outcome.reactions_fired, 12);
        assert!(outcome.collisions >= outcome.reactions_fired);
    }

    #[test]
    fn max_crn_under_pairwise_scheduling() {
        let max = examples::max_crn();
        for seed in 0..3 {
            let outcome = run_pairwise(&max, &NVec::from(vec![7, 11]), seed, 1_000_000).unwrap();
            assert!(outcome.silent);
            assert_eq!(outcome.output, 11);
        }
    }

    #[test]
    fn double_crn_unimolecular_reactions_fire() {
        let double = examples::double_crn();
        let outcome = run_pairwise(&double, &NVec::from(vec![15]), 1, 1_000_000).unwrap();
        assert!(outcome.silent);
        assert_eq!(outcome.output, 30);
    }

    #[test]
    fn higher_order_crn_must_be_bimolecularized_first() {
        // 3X -> Y cannot fire under pairwise collisions: the scheduler ignores
        // reactions of order > 2, so the run is immediately silent with no
        // output produced...
        let mut crn = crn_model::Crn::new();
        crn.parse_reaction("3X -> Y").unwrap();
        let f = FunctionCrn::with_named_roles(crn, &["X"], "Y", None).unwrap();
        let outcome = run_pairwise(&f, &NVec::from(vec![9]), 1, 10_000).unwrap();
        assert_eq!(outcome.output, 0);
        assert!(
            outcome.silent,
            "order-3 reactions are invisible to the pairwise scheduler"
        );
        assert_eq!(outcome.reactions_fired, 0);
        // ...but its bimolecular form computes floor(x/3).
        let converted = bimolecularize(f.crn());
        let g = FunctionCrn::with_named_roles(converted, &["X"], "Y", None).unwrap();
        let outcome = run_pairwise(&g, &NVec::from(vec![9]), 1, 1_000_000).unwrap();
        assert!(outcome.silent);
        assert_eq!(outcome.output, 3);
    }

    #[test]
    fn leader_based_construction_runs_under_pairwise_scheduling() {
        let min1 = examples::min1_leader_crn();
        let outcome = run_pairwise(&min1, &NVec::from(vec![5]), 9, 100_000).unwrap();
        assert!(outcome.silent);
        assert_eq!(outcome.output, 1);
    }

    #[test]
    fn wrong_arity_is_an_error() {
        let min = examples::min_crn();
        assert!(run_pairwise(&min, &NVec::from(vec![1]), 0, 10).is_err());
    }
}
