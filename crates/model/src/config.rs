//! Configurations `C ∈ N^S`: integer counts of every species.

use std::collections::BTreeMap;
use std::fmt;

use crate::reaction::Reaction;
use crate::species::{Species, SpeciesSet};

/// A configuration: the count of every species, stored sparsely.
///
/// Only species with nonzero count are stored, so configurations over CRNs
/// with many species (e.g. the `p^d` leader states of the Lemma 6.1
/// construction) stay small.
///
/// ```
/// use crn_model::{Configuration, Reaction, SpeciesSet};
///
/// let mut sp = SpeciesSet::new();
/// let x = sp.intern("X");
/// let y = sp.intern("Y");
/// let r = Reaction::new(vec![(x, 1)], vec![(y, 2)]);
///
/// let mut c = Configuration::new();
/// c.set(x, 3);
/// assert!(c.can_apply(&r));
/// let c2 = c.apply(&r);
/// assert_eq!(c2.count(x), 2);
/// assert_eq!(c2.count(y), 2);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct Configuration {
    counts: BTreeMap<Species, u64>,
}

impl Configuration {
    /// The empty configuration (count 0 of every species).
    #[must_use]
    pub fn new() -> Self {
        Configuration::default()
    }

    /// Builds a configuration from `(species, count)` pairs; zero counts are
    /// dropped and duplicates accumulate.
    ///
    /// # Panics
    ///
    /// Panics if a species' accumulated count exceeds `u64::MAX`.
    #[must_use]
    pub fn from_counts(counts: impl IntoIterator<Item = (Species, u64)>) -> Self {
        let mut c = Configuration::new();
        for (s, n) in counts {
            c.add(s, n);
        }
        c
    }

    /// The count of `species`.
    #[must_use]
    pub fn count(&self, species: Species) -> u64 {
        self.counts.get(&species).copied().unwrap_or(0)
    }

    /// Sets the count of `species` to `count`.
    pub fn set(&mut self, species: Species, count: u64) {
        if count == 0 {
            self.counts.remove(&species);
        } else {
            self.counts.insert(species, count);
        }
    }

    /// Adds `count` molecules of `species`.
    ///
    /// # Panics
    ///
    /// Panics if the count of `species` would exceed `u64::MAX`.
    pub fn add(&mut self, species: Species, count: u64) {
        if count > 0 {
            let total = self.counts.entry(species).or_insert(0);
            *total = total.checked_add(count).unwrap_or_else(|| {
                panic!("cannot add {count} of species {species}: the count would exceed u64::MAX")
            });
        }
    }

    /// Removes `count` molecules of `species`.
    ///
    /// # Panics
    ///
    /// Panics if fewer than `count` molecules are present.
    pub fn remove(&mut self, species: Species, count: u64) {
        if count == 0 {
            return;
        }
        let current = self.count(species);
        assert!(
            current >= count,
            "cannot remove {count} of species {species}: only {current} present"
        );
        self.set(species, current - count);
    }

    /// The total number of molecules.
    ///
    /// # Panics
    ///
    /// Panics if the total exceeds `u64::MAX`.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.counts
            .values()
            .try_fold(0u64, |total, &c| total.checked_add(c))
            .expect("the total molecule count exceeds u64::MAX")
    }

    /// Whether no molecules are present.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.counts.is_empty()
    }

    /// Iterates over `(species, count)` pairs with nonzero count.
    pub fn iter(&self) -> impl Iterator<Item = (Species, u64)> + '_ {
        self.counts.iter().map(|(&s, &c)| (s, c))
    }

    /// Pointwise `self ≥ other` (i.e. `other ≤ self` in `N^S`).
    #[must_use]
    pub fn ge(&self, other: &Configuration) -> bool {
        other.counts.iter().all(|(&s, &c)| self.count(s) >= c)
    }

    /// Pointwise sum `self + other` (reachability is additive: if `A →* B`
    /// then `A + C →* B + C`).
    ///
    /// # Panics
    ///
    /// Panics if a count of the sum exceeds `u64::MAX`.
    #[must_use]
    pub fn plus(&self, other: &Configuration) -> Configuration {
        let mut out = self.clone();
        for (s, c) in other.iter() {
            out.add(s, c);
        }
        out
    }

    /// Pointwise difference `self − other`.
    ///
    /// # Panics
    ///
    /// Panics if `other !≤ self`.
    #[must_use]
    pub fn minus(&self, other: &Configuration) -> Configuration {
        let mut out = self.clone();
        for (s, c) in other.iter() {
            out.remove(s, c);
        }
        out
    }

    /// Whether the reaction's reactants are present (`R ≤ C`).
    #[must_use]
    pub fn can_apply(&self, reaction: &Reaction) -> bool {
        reaction
            .reactants()
            .iter()
            .all(|(&s, &c)| self.count(s) >= c)
    }

    /// Fires the reaction, yielding `C − R + P`.
    ///
    /// # Panics
    ///
    /// Panics if the reaction is not applicable, or if a product count would
    /// exceed `u64::MAX`.
    #[must_use]
    pub fn apply(&self, reaction: &Reaction) -> Configuration {
        assert!(self.can_apply(reaction), "reaction not applicable");
        let mut out = self.clone();
        for (&s, &c) in reaction.reactants() {
            out.remove(s, c);
        }
        for (&s, &c) in reaction.products() {
            out.add(s, c);
        }
        out
    }

    /// Fires the reaction `times` times in a row (requires applicability at
    /// each step, which for most reactions means enough reactants up front).
    ///
    /// # Panics
    ///
    /// Panics if the reaction stops being applicable before `times` firings.
    #[must_use]
    pub fn apply_n(&self, reaction: &Reaction, times: u64) -> Configuration {
        let mut out = self.clone();
        for _ in 0..times {
            out = out.apply(reaction);
        }
        out
    }

    /// A displayable form such as `{2 X1, 1 L}` resolving names via `species`.
    #[must_use]
    pub fn display<'a>(&'a self, species: &'a SpeciesSet) -> ConfigurationDisplay<'a> {
        ConfigurationDisplay {
            config: self,
            species,
        }
    }
}

/// Helper returned by [`Configuration::display`].
#[derive(Debug)]
pub struct ConfigurationDisplay<'a> {
    config: &'a Configuration,
    species: &'a SpeciesSet,
}

impl fmt::Display for ConfigurationDisplay<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, (s, c)) in self.config.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{} {}", c, self.species.name(s))?;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn setup() -> (SpeciesSet, Species, Species, Species) {
        let mut sp = SpeciesSet::new();
        let x = sp.intern("X");
        let y = sp.intern("Y");
        let z = sp.intern("Z");
        (sp, x, y, z)
    }

    #[test]
    #[should_panic(expected = "cannot add 1 of species #0: the count would exceed u64::MAX")]
    fn from_counts_refuses_a_count_past_u64_max() {
        let _ = Configuration::from_counts(vec![(Species(0), u64::MAX), (Species(0), 1)]);
    }

    #[test]
    #[should_panic(expected = "the total molecule count exceeds u64::MAX")]
    fn total_refuses_a_sum_past_u64_max() {
        let (_, x, y, _) = setup();
        let _ = Configuration::from_counts(vec![(x, u64::MAX), (y, 1)]).total();
    }

    #[test]
    #[should_panic(expected = "cannot add 2 of species #1: the count would exceed u64::MAX")]
    fn firing_refuses_a_product_count_past_u64_max() {
        let (_, x, y, _) = setup();
        let r = Reaction::new(vec![(x, 1)], vec![(y, 2)]);
        let c = Configuration::from_counts(vec![(x, 1), (y, u64::MAX)]);
        let _ = c.apply(&r);
    }

    #[test]
    fn counts_and_mutation() {
        let (_, x, y, _) = setup();
        let mut c = Configuration::new();
        assert_eq!(c.count(x), 0);
        c.set(x, 5);
        c.add(y, 2);
        c.add(y, 3);
        assert_eq!(c.count(x), 5);
        assert_eq!(c.count(y), 5);
        c.remove(y, 5);
        assert_eq!(c.count(y), 0);
        assert_eq!(c.total(), 5);
        c.set(x, 0);
        assert!(c.is_empty());
    }

    #[test]
    #[should_panic(expected = "cannot remove")]
    fn remove_more_than_present_panics() {
        let (_, x, _, _) = setup();
        let mut c = Configuration::new();
        c.set(x, 1);
        c.remove(x, 2);
    }

    #[test]
    fn ordering_and_arithmetic() {
        let (_, x, y, _) = setup();
        let a = Configuration::from_counts(vec![(x, 1), (y, 2)]);
        let b = Configuration::from_counts(vec![(x, 2), (y, 2)]);
        assert!(b.ge(&a));
        assert!(!a.ge(&b));
        assert_eq!(b.minus(&a), Configuration::from_counts(vec![(x, 1)]));
        assert_eq!(a.plus(&b), Configuration::from_counts(vec![(x, 3), (y, 4)]));
    }

    #[test]
    fn apply_reaction() {
        let (_, x, y, z) = setup();
        // 2X -> Y + Z
        let r = Reaction::new(vec![(x, 2)], vec![(y, 1), (z, 1)]);
        let c = Configuration::from_counts(vec![(x, 5)]);
        assert!(c.can_apply(&r));
        let c2 = c.apply(&r);
        assert_eq!(c2.count(x), 3);
        assert_eq!(c2.count(y), 1);
        assert_eq!(c2.count(z), 1);
        let c3 = c.apply_n(&r, 2);
        assert_eq!(c3.count(x), 1);
        assert_eq!(c3.count(y), 2);
        // Not applicable with a single X left.
        assert!(!c3.can_apply(&r));
    }

    #[test]
    #[should_panic(expected = "not applicable")]
    fn apply_inapplicable_panics() {
        let (_, x, y, _) = setup();
        let r = Reaction::new(vec![(x, 1)], vec![(y, 1)]);
        let _ = Configuration::new().apply(&r);
    }

    #[test]
    fn display_configuration() {
        let (sp, x, y, _) = setup();
        let c = Configuration::from_counts(vec![(x, 2), (y, 1)]);
        assert_eq!(c.display(&sp).to_string(), "{2 X, 1 Y}");
        assert_eq!(Configuration::new().display(&sp).to_string(), "{}");
    }

    proptest! {
        /// Additivity of the transition relation at the single-step level:
        /// if C -> C' via reaction r then C + D -> C' + D via r.
        #[test]
        fn single_step_additivity(xc in 0u64..10, yc in 0u64..10, dx in 0u64..10, dy in 0u64..10) {
            let (_, x, y, _) = setup();
            let r = Reaction::new(vec![(x, 1)], vec![(y, 1)]);
            let c = Configuration::from_counts(vec![(x, xc), (y, yc)]);
            let d = Configuration::from_counts(vec![(x, dx), (y, dy)]);
            if c.can_apply(&r) {
                let lhs = c.apply(&r).plus(&d);
                let rhs = c.plus(&d).apply(&r);
                prop_assert_eq!(lhs, rhs);
            }
        }
    }
}
