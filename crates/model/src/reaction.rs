//! Reactions `(R, P) ∈ N^S × N^S`.

use std::collections::BTreeMap;
use std::fmt;

use crate::species::{Species, SpeciesSet};

/// A reaction with multiset of reactants `R` and multiset of products `P`.
///
/// The paper allows arbitrary arity ("we do not limit ourselves to bimolecular
/// reactions", footnote 5); conversion to bimolecular form is provided by
/// [`crate::transform::bimolecularize`].
///
/// ```
/// use crn_model::{Reaction, SpeciesSet};
///
/// let mut sp = SpeciesSet::new();
/// let x = sp.intern("X");
/// let y = sp.intern("Y");
/// // X -> 2Y
/// let r = Reaction::new(vec![(x, 1)], vec![(y, 2)]);
/// assert_eq!(r.reactant_count(x), 1);
/// assert_eq!(r.product_count(y), 2);
/// assert_eq!(r.net_change(y), 2);
/// assert_eq!(r.display(&sp).to_string(), "X -> 2Y");
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Reaction {
    reactants: BTreeMap<Species, u64>,
    products: BTreeMap<Species, u64>,
}

/// The multiset of `(species, count)` terms: zero counts dropped, repeated
/// species summed, panicking past `u64::MAX`.
fn multiset(terms: impl IntoIterator<Item = (Species, u64)>) -> BTreeMap<Species, u64> {
    let mut side = BTreeMap::new();
    for (s, c) in terms.into_iter().filter(|&(_, c)| c > 0) {
        let total: &mut u64 = side.entry(s).or_insert(0);
        *total = total
            .checked_add(c)
            .expect("a species' count on one side of a reaction exceeds u64::MAX");
    }
    side
}

impl Reaction {
    /// Creates a reaction from reactant and product `(species, count)` pairs.
    ///
    /// Zero-count entries are dropped; repeated species accumulate.
    ///
    /// # Panics
    ///
    /// Panics if a species' repeated counts on one side sum past `u64::MAX`.
    #[must_use]
    pub fn new(
        reactants: impl IntoIterator<Item = (Species, u64)>,
        products: impl IntoIterator<Item = (Species, u64)>,
    ) -> Self {
        Reaction {
            reactants: multiset(reactants),
            products: multiset(products),
        }
    }

    /// The multiset of reactants.
    #[must_use]
    pub fn reactants(&self) -> &BTreeMap<Species, u64> {
        &self.reactants
    }

    /// The multiset of products.
    #[must_use]
    pub fn products(&self) -> &BTreeMap<Species, u64> {
        &self.products
    }

    /// The count of `species` consumed by this reaction.
    #[must_use]
    pub fn reactant_count(&self, species: Species) -> u64 {
        self.reactants.get(&species).copied().unwrap_or(0)
    }

    /// The count of `species` produced by this reaction.
    #[must_use]
    pub fn product_count(&self, species: Species) -> u64 {
        self.products.get(&species).copied().unwrap_or(0)
    }

    /// The net change in the count of `species` when the reaction fires.
    #[must_use]
    pub fn net_change(&self, species: Species) -> i64 {
        self.product_count(species) as i64 - self.reactant_count(species) as i64
    }

    /// The total number of reactant molecules (the reaction's order/arity).
    #[must_use]
    pub fn order(&self) -> u64 {
        self.reactants.values().sum()
    }

    /// The total number of product molecules.
    #[must_use]
    pub fn product_size(&self) -> u64 {
        self.products.values().sum()
    }

    /// Whether `species` appears as a reactant.
    #[must_use]
    pub fn consumes(&self, species: Species) -> bool {
        self.reactant_count(species) > 0
    }

    /// Whether `species` appears as a product.
    #[must_use]
    pub fn produces(&self, species: Species) -> bool {
        self.product_count(species) > 0
    }

    /// Whether the reaction strictly decreases the count of `species`.
    #[must_use]
    pub fn decreases(&self, species: Species) -> bool {
        self.net_change(species) < 0
    }

    /// All species mentioned by the reaction (reactants and products).
    #[must_use]
    pub fn species(&self) -> Vec<Species> {
        let mut out: Vec<Species> = self
            .reactants
            .keys()
            .chain(self.products.keys())
            .copied()
            .collect();
        out.sort();
        out.dedup();
        out
    }

    /// Returns a copy with every species remapped through `map`.
    ///
    /// Counts for species that map to the same target are merged.
    #[must_use]
    pub fn map_species(&self, mut map: impl FnMut(Species) -> Species) -> Reaction {
        let reactants: Vec<(Species, u64)> =
            self.reactants.iter().map(|(&s, &c)| (map(s), c)).collect();
        let products: Vec<(Species, u64)> =
            self.products.iter().map(|(&s, &c)| (map(s), c)).collect();
        Reaction::new(reactants, products)
    }

    /// A displayable form such as `A + 2B -> C` resolving names via `species`.
    #[must_use]
    pub fn display<'a>(&'a self, species: &'a SpeciesSet) -> ReactionDisplay<'a> {
        ReactionDisplay {
            reaction: self,
            species,
        }
    }
}

/// Helper returned by [`Reaction::display`].
#[derive(Debug)]
pub struct ReactionDisplay<'a> {
    reaction: &'a Reaction,
    species: &'a SpeciesSet,
}

impl fmt::Display for ReactionDisplay<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let write_side =
            |f: &mut fmt::Formatter<'_>, side: &BTreeMap<Species, u64>| -> fmt::Result {
                if side.is_empty() {
                    return write!(f, "∅");
                }
                for (i, (s, c)) in side.iter().enumerate() {
                    if i > 0 {
                        write!(f, " + ")?;
                    }
                    if *c == 1 {
                        write!(f, "{}", self.species.name(*s))?;
                    } else {
                        write!(f, "{}{}", c, self.species.name(*s))?;
                    }
                }
                Ok(())
            };
        write_side(f, &self.reaction.reactants)?;
        write!(f, " -> ")?;
        write_side(f, &self.reaction.products)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sp3() -> (SpeciesSet, Species, Species, Species) {
        let mut sp = SpeciesSet::new();
        let a = sp.intern("A");
        let b = sp.intern("B");
        let c = sp.intern("C");
        (sp, a, b, c)
    }

    #[test]
    fn counts_and_net_change() {
        let (_, a, b, c) = sp3();
        // A + 2C -> 2B + C  (the example from Section 2.2 of the paper)
        let r = Reaction::new(vec![(a, 1), (c, 2)], vec![(b, 2), (c, 1)]);
        assert_eq!(r.reactant_count(a), 1);
        assert_eq!(r.reactant_count(c), 2);
        assert_eq!(r.product_count(b), 2);
        assert_eq!(r.net_change(c), -1);
        assert_eq!(r.net_change(a), -1);
        assert_eq!(r.net_change(b), 2);
        assert_eq!(r.order(), 3);
        assert_eq!(r.product_size(), 3);
        assert!(r.consumes(c) && r.produces(c));
        assert!(r.decreases(c));
        assert!(!r.decreases(b));
    }

    #[test]
    fn zero_counts_dropped_and_duplicates_merged() {
        let (_, a, b, _) = sp3();
        let r = Reaction::new(vec![(a, 0), (b, 1), (b, 2)], vec![(a, 3)]);
        assert!(!r.consumes(a));
        assert_eq!(r.reactant_count(b), 3);
        assert_eq!(r.product_count(a), 3);
    }

    #[test]
    fn display_formats() {
        let (sp, a, b, c) = sp3();
        let r = Reaction::new(vec![(a, 1), (c, 2)], vec![(b, 2), (c, 1)]);
        assert_eq!(r.display(&sp).to_string(), "A + 2C -> 2B + C");
        let annihilate = Reaction::new(vec![(a, 1), (b, 1)], vec![]);
        assert_eq!(annihilate.display(&sp).to_string(), "A + B -> ∅");
    }

    #[test]
    fn map_species_merges() {
        let (_, a, b, c) = sp3();
        let r = Reaction::new(vec![(a, 1), (b, 1)], vec![(c, 2)]);
        // Map both reactants onto A.
        let mapped = r.map_species(|s| if s == b { a } else { s });
        assert_eq!(mapped.reactant_count(a), 2);
        assert_eq!(mapped.product_count(c), 2);
    }

    #[test]
    #[should_panic(expected = "exceeds u64::MAX")]
    fn repeated_terms_past_u64_max_panic_instead_of_wrapping() {
        let (_, a, b, _) = sp3();
        let _ = Reaction::new(vec![(a, u64::MAX), (a, 1)], vec![(b, 1)]);
    }

    #[test]
    fn species_lists_all() {
        let (_, a, b, c) = sp3();
        let r = Reaction::new(vec![(a, 1)], vec![(b, 1), (c, 4)]);
        assert_eq!(r.species(), vec![a, b, c]);
    }
}
