//! A minimal rate-independent continuous CRN executor.
//!
//! In the continuous model of \[9\], species have nonnegative real
//! concentrations and a reaction may run by any amount permitted by its
//! reactants.  Rate-independent ("stable") computation quantifies over all
//! schedules; for the feed-forward, output-oblivious example networks used in
//! our comparison experiment (E11) it suffices to run reactions greedily to
//! exhaustion, which this executor does with exact rational amounts.

use std::collections::BTreeMap;

use crn_numeric::Rational;

/// A continuous reaction: consumes `reactants` and produces `products`, each
/// with rational stoichiometry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ContinuousReaction {
    /// Reactant stoichiometries, keyed by species name.
    pub reactants: BTreeMap<String, Rational>,
    /// Product stoichiometries, keyed by species name.
    pub products: BTreeMap<String, Rational>,
}

impl ContinuousReaction {
    /// Builds a reaction from `(species, stoichiometry)` lists.
    #[must_use]
    pub fn new(reactants: Vec<(&str, Rational)>, products: Vec<(&str, Rational)>) -> Self {
        ContinuousReaction {
            reactants: reactants
                .into_iter()
                .map(|(s, c)| (s.to_owned(), c))
                .collect(),
            products: products
                .into_iter()
                .map(|(s, c)| (s.to_owned(), c))
                .collect(),
        }
    }

    /// The largest extent to which the reaction can run given concentrations.
    #[must_use]
    pub fn max_extent(&self, concentrations: &BTreeMap<String, Rational>) -> Rational {
        self.reactants
            .iter()
            .map(|(s, c)| {
                let available = concentrations.get(s).copied().unwrap_or(Rational::ZERO);
                available / *c
            })
            .min()
            .unwrap_or(Rational::ZERO)
    }
}

/// A continuous CRN with named species.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ContinuousCrn {
    reactions: Vec<ContinuousReaction>,
}

impl ContinuousCrn {
    /// Creates an empty continuous CRN.
    #[must_use]
    pub fn new() -> Self {
        ContinuousCrn::default()
    }

    /// Adds a reaction.
    pub fn add_reaction(&mut self, reaction: ContinuousReaction) {
        self.reactions.push(reaction);
    }

    /// The reactions.
    #[must_use]
    pub fn reactions(&self) -> &[ContinuousReaction] {
        &self.reactions
    }

    /// Runs reactions greedily (in round-robin order, each to its maximal
    /// extent) until no reaction can run, returning the final concentrations.
    ///
    /// For feed-forward output-oblivious networks this limit is
    /// schedule-independent, so greedy execution computes the stably-computed
    /// output.
    #[must_use]
    pub fn run_to_completion(
        &self,
        initial: &BTreeMap<String, Rational>,
        max_rounds: usize,
    ) -> BTreeMap<String, Rational> {
        let mut state = initial.clone();
        for _ in 0..max_rounds {
            let mut progressed = false;
            for reaction in &self.reactions {
                let extent = reaction.max_extent(&state);
                if extent <= Rational::ZERO {
                    continue;
                }
                progressed = true;
                for (s, c) in &reaction.reactants {
                    let entry = state.entry(s.clone()).or_insert(Rational::ZERO);
                    *entry -= *c * extent;
                }
                for (s, c) in &reaction.products {
                    let entry = state.entry(s.clone()).or_insert(Rational::ZERO);
                    *entry += *c * extent;
                }
            }
            if !progressed {
                break;
            }
        }
        state
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn conc(pairs: Vec<(&str, i64)>) -> BTreeMap<String, Rational> {
        pairs
            .into_iter()
            .map(|(s, v)| (s.to_owned(), Rational::from(v)))
            .collect()
    }

    #[test]
    fn continuous_min_crn() {
        // X1 + X2 -> Y computes min(x1, x2) in the continuous model too.
        let mut crn = ContinuousCrn::new();
        crn.add_reaction(ContinuousReaction::new(
            vec![("X1", Rational::ONE), ("X2", Rational::ONE)],
            vec![("Y", Rational::ONE)],
        ));
        let result = crn.run_to_completion(&conc(vec![("X1", 3), ("X2", 7)]), 10);
        assert_eq!(result["Y"], Rational::from(3));
        assert_eq!(result["X1"], Rational::ZERO);
        assert_eq!(result["X2"], Rational::from(4));
    }

    #[test]
    fn continuous_scaling_of_double() {
        // X -> 2Y with fractional input: f(z) = 2z exactly.
        let mut crn = ContinuousCrn::new();
        crn.add_reaction(ContinuousReaction::new(
            vec![("X", Rational::ONE)],
            vec![("Y", Rational::from(2))],
        ));
        let mut initial = BTreeMap::new();
        initial.insert("X".to_owned(), Rational::new(7, 3));
        let result = crn.run_to_completion(&initial, 10);
        assert_eq!(result["Y"], Rational::new(14, 3));
    }

    #[test]
    fn feed_forward_pipeline() {
        // X1 + X2 -> W ; W -> 2Y : computes 2·min(x1, x2).
        let mut crn = ContinuousCrn::new();
        crn.add_reaction(ContinuousReaction::new(
            vec![("X1", Rational::ONE), ("X2", Rational::ONE)],
            vec![("W", Rational::ONE)],
        ));
        crn.add_reaction(ContinuousReaction::new(
            vec![("W", Rational::ONE)],
            vec![("Y", Rational::from(2))],
        ));
        let result = crn.run_to_completion(&conc(vec![("X1", 5), ("X2", 2)]), 10);
        assert_eq!(result["Y"], Rational::from(4));
    }

    #[test]
    fn max_extent_handles_missing_species() {
        let r = ContinuousReaction::new(vec![("A", Rational::ONE)], vec![("B", Rational::ONE)]);
        assert_eq!(r.max_extent(&BTreeMap::new()), Rational::ZERO);
    }
}
