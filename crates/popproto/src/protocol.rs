//! The population protocol model: anonymous finite-state agents interacting
//! in randomly chosen ordered pairs.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A population protocol with states `0, …, states − 1`.
///
/// The transition function maps an ordered pair of states (initiator,
/// responder) to a new pair; identity transitions model null interactions.
/// The output of a configuration is the number of agents whose state is
/// marked as an output state (the "output counter" convention used for
/// function computation in population protocols).
#[derive(Debug, Clone)]
pub struct PopulationProtocol {
    states: usize,
    transitions: Vec<Vec<(usize, usize)>>,
    output_states: Vec<bool>,
}

/// The result of running a protocol until silence or an interaction bound.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProtocolOutcome {
    /// Number of agents in an output state when the run stopped.
    pub output: u64,
    /// Number of (non-null) interactions executed.
    pub interactions: u64,
    /// Whether no applicable (non-null) interaction remained.
    pub silent: bool,
}

impl PopulationProtocol {
    /// Creates a protocol with `states` states and the identity transition
    /// function; use [`PopulationProtocol::set_transition`] to add rules and
    /// [`PopulationProtocol::mark_output`] to designate output states.
    #[must_use]
    pub fn new(states: usize) -> Self {
        PopulationProtocol {
            states,
            transitions: (0..states)
                .map(|a| (0..states).map(|b| (a, b)).collect())
                .collect(),
            output_states: vec![false; states],
        }
    }

    /// The number of states.
    #[must_use]
    pub fn states(&self) -> usize {
        self.states
    }

    /// Sets the transition `(a, b) → (a', b')`.
    ///
    /// # Panics
    ///
    /// Panics if any state is out of range.
    pub fn set_transition(&mut self, a: usize, b: usize, a_new: usize, b_new: usize) {
        assert!(
            a < self.states && b < self.states && a_new < self.states && b_new < self.states,
            "state out of range"
        );
        self.transitions[a][b] = (a_new, b_new);
    }

    /// Marks `state` as an output state (counted by [`ProtocolOutcome::output`]).
    ///
    /// # Panics
    ///
    /// Panics if `state` is out of range.
    pub fn mark_output(&mut self, state: usize) {
        assert!(state < self.states, "state out of range");
        self.output_states[state] = true;
    }

    /// The transition for the ordered pair `(a, b)`.
    #[must_use]
    pub fn transition(&self, a: usize, b: usize) -> (usize, usize) {
        self.transitions[a][b]
    }

    /// Whether the ordered pair `(a, b)` has a non-null transition.
    #[must_use]
    pub fn is_active(&self, a: usize, b: usize) -> bool {
        self.transitions[a][b] != (a, b)
    }

    /// Runs the protocol on the multiset of agent states `population` with a
    /// uniform random-pair scheduler until no non-null interaction is possible
    /// or `max_interactions` non-null interactions have occurred.
    #[must_use]
    pub fn run(&self, population: &[usize], seed: u64, max_interactions: u64) -> ProtocolOutcome {
        let mut agents: Vec<usize> = population.to_vec();
        let mut rng = StdRng::seed_from_u64(seed);
        let mut interactions = 0u64;
        let mut silent = false;
        while interactions < max_interactions {
            if agents.len() < 2 {
                silent = true;
                break;
            }
            // Check whether any ordered pair of *states present* is active.
            let mut counts = vec![0u64; self.states];
            for &s in &agents {
                counts[s] += 1;
            }
            let any_active = (0..self.states).any(|a| {
                (0..self.states).any(|b| {
                    let enough = if a == b {
                        counts[a] >= 2
                    } else {
                        counts[a] >= 1 && counts[b] >= 1
                    };
                    enough && self.is_active(a, b)
                })
            });
            if !any_active {
                silent = true;
                break;
            }
            // Draw random ordered pairs until an active one is found.
            loop {
                let i = rng.gen_range(0..agents.len());
                let mut j = rng.gen_range(0..agents.len());
                while j == i {
                    j = rng.gen_range(0..agents.len());
                }
                let (a, b) = (agents[i], agents[j]);
                if self.is_active(a, b) {
                    let (a_new, b_new) = self.transition(a, b);
                    agents[i] = a_new;
                    agents[j] = b_new;
                    interactions += 1;
                    break;
                }
            }
        }
        let output = agents.iter().filter(|&&s| self.output_states[s]).count() as u64;
        ProtocolOutcome {
            output,
            interactions,
            silent,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The classic pairwise-annihilation majority-free protocol computing
    /// min(x1, x2) as the number of "paired" tokens: states
    /// 0 = X1, 1 = X2, 2 = Y (output), 3 = dead.
    fn min_protocol() -> PopulationProtocol {
        let mut p = PopulationProtocol::new(4);
        // X1 + X2 -> Y + dead.
        p.set_transition(0, 1, 2, 3);
        p.set_transition(1, 0, 2, 3);
        p.mark_output(2);
        p
    }

    #[test]
    fn min_protocol_computes_min() {
        let p = min_protocol();
        let mut population = vec![0usize; 6];
        population.extend(vec![1usize; 9]);
        let outcome = p.run(&population, 5, 100_000);
        assert!(outcome.silent);
        assert_eq!(outcome.output, 6);
        assert_eq!(outcome.interactions, 6);
    }

    #[test]
    fn protocol_with_no_active_pairs_is_silent_immediately() {
        let p = min_protocol();
        let outcome = p.run(&[0, 0, 0], 1, 1000);
        assert!(outcome.silent);
        assert_eq!(outcome.output, 0);
        assert_eq!(outcome.interactions, 0);
    }

    #[test]
    fn epidemic_protocol_converts_everyone() {
        // One-way epidemic: state 1 infects state 0; output = infected agents.
        let mut p = PopulationProtocol::new(2);
        p.set_transition(1, 0, 1, 1);
        p.set_transition(0, 1, 1, 1);
        p.mark_output(1);
        let mut population = vec![0usize; 20];
        population.push(1);
        let outcome = p.run(&population, 3, 100_000);
        assert!(outcome.silent);
        assert_eq!(outcome.output, 21);
        assert_eq!(outcome.interactions, 20);
    }

    #[test]
    fn interaction_bound_is_respected() {
        let mut p = PopulationProtocol::new(2);
        // Perpetually active: (0,1) <-> (1,0).
        p.set_transition(0, 1, 1, 0);
        p.set_transition(1, 0, 0, 1);
        let outcome = p.run(&[0, 1], 7, 50);
        assert!(!outcome.silent);
        assert_eq!(outcome.interactions, 50);
    }

    #[test]
    fn single_agent_population_is_silent() {
        let p = min_protocol();
        let outcome = p.run(&[0], 1, 100);
        assert!(outcome.silent);
    }

    #[test]
    #[should_panic(expected = "state out of range")]
    fn out_of_range_transition_panics() {
        let mut p = PopulationProtocol::new(2);
        p.set_transition(0, 5, 0, 0);
    }
}
