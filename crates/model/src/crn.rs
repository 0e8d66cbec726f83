//! The CRN type: a finite set of species and reactions.

use std::collections::BTreeMap;
use std::fmt;

use crate::error::CrnError;
use crate::reaction::Reaction;
use crate::species::{Species, SpeciesSet};

/// A chemical reaction network `C = (S, R)`.
///
/// `Crn` owns the species interner and the reaction list but knows nothing
/// about computation; the input/output/leader roles that turn a CRN into a
/// function-computing CRN live in [`crate::FunctionCrn`].
///
/// ```
/// use crn_model::Crn;
///
/// let mut crn = Crn::new();
/// crn.parse_reaction("X1 + X2 -> Y").unwrap();
/// crn.parse_reaction("X1 -> Z1 + Y").unwrap();
/// assert_eq!(crn.reactions().len(), 2);
/// assert_eq!(crn.species().len(), 4);
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Crn {
    species: SpeciesSet,
    reactions: Vec<Reaction>,
}

impl Crn {
    /// Creates an empty CRN.
    #[must_use]
    pub fn new() -> Self {
        Crn::default()
    }

    /// The species interner.
    #[must_use]
    pub fn species(&self) -> &SpeciesSet {
        &self.species
    }

    /// The reactions.
    #[must_use]
    pub fn reactions(&self) -> &[Reaction] {
        &self.reactions
    }

    /// Interns (or looks up) a species by name.
    pub fn add_species(&mut self, name: &str) -> Species {
        self.species.intern(name)
    }

    /// Looks up a species by name without creating it.
    #[must_use]
    pub fn species_named(&self, name: &str) -> Option<Species> {
        self.species.get(name)
    }

    /// Adds a reaction.
    pub fn add_reaction(&mut self, reaction: Reaction) {
        self.reactions.push(reaction);
    }

    /// Adds the reaction described by a string such as `"A + 2B -> C"`.
    ///
    /// Species named on either side are interned on demand.  The empty
    /// multiset may be written as `0` or left blank, e.g. `"K + Y -> 0"`.
    ///
    /// # Errors
    ///
    /// Returns [`CrnError::InvalidRoles`] if the string is not of the form
    /// `lhs -> rhs` with each side a `+`-separated list of `count name` terms,
    /// or if a species' total count on one side (repeated terms add up)
    /// exceeds `i64::MAX`, the largest net change the engines represent.
    pub fn parse_reaction(&mut self, text: &str) -> Result<&Reaction, CrnError> {
        let (lhs, rhs) = text
            .split_once("->")
            .ok_or_else(|| CrnError::InvalidRoles(format!("missing `->` in `{text}`")))?;
        let reactants = self.parse_side(lhs)?;
        let products = self.parse_side(rhs)?;
        self.reactions.push(Reaction::new(reactants, products));
        Ok(self.reactions.last().expect("just pushed"))
    }

    fn parse_side(&mut self, side: &str) -> Result<Vec<(Species, u64)>, CrnError> {
        let side = side.trim();
        if side.is_empty() || side == "0" || side == "∅" {
            return Ok(vec![]);
        }
        let mut totals: BTreeMap<Species, u64> = BTreeMap::new();
        for term in side.split('+') {
            let term = term.trim();
            if term.is_empty() {
                return Err(CrnError::InvalidRoles(format!("empty term in `{side}`")));
            }
            // Split a leading integer coefficient from the species name.
            let digits_end = term
                .char_indices()
                .take_while(|(_, c)| c.is_ascii_digit())
                .map(|(i, c)| i + c.len_utf8())
                .last()
                .unwrap_or(0);
            let (count_str, name) = term.split_at(digits_end);
            let name = name.trim();
            if name.is_empty() {
                return Err(CrnError::InvalidRoles(format!(
                    "term `{term}` has no species name"
                )));
            }
            let count: u64 = if count_str.is_empty() {
                1
            } else {
                count_str
                    .parse()
                    .map_err(|_| CrnError::InvalidRoles(format!("bad count in `{term}`")))?
            };
            let total = totals.entry(self.species.intern(name)).or_insert(0);
            *total = total
                .checked_add(count)
                .filter(|&t| i64::try_from(t).is_ok())
                .ok_or_else(|| {
                    CrnError::InvalidRoles(format!(
                        "total count of `{name}` in `{side}` exceeds {}",
                        i64::MAX
                    ))
                })?;
        }
        Ok(totals.into_iter().collect())
    }

    /// The error for firing reaction `index`, which would push the count of
    /// `species` past `u64::MAX`.  Species outside the interner (a reaction
    /// added through [`add_reaction`](Crn::add_reaction) may name them) are
    /// written by index.
    #[must_use]
    pub fn count_overflow(&self, index: usize, species: Species) -> CrnError {
        let species = if species.index() < self.species.len() {
            self.species.name(species).to_owned()
        } else {
            species.to_string()
        };
        CrnError::CountOverflow {
            reaction: self.reaction_text(index),
            species,
        }
    }

    /// The error for a configuration whose in-order propensity sum stops
    /// being finite at reaction `index`.
    #[must_use]
    pub fn propensity_overflow(&self, index: usize) -> CrnError {
        CrnError::PropensityOverflow {
            reaction: self.reaction_text(index),
        }
    }

    /// Reaction `index` as written, or by index when it names a species
    /// outside the interner.
    fn reaction_text(&self, index: usize) -> String {
        let reaction = &self.reactions[index];
        if reaction
            .species()
            .iter()
            .all(|s| s.index() < self.species.len())
        {
            reaction.display(&self.species).to_string()
        } else {
            format!("reaction {index}")
        }
    }

    /// Whether `species` is ever consumed by a reaction.
    #[must_use]
    pub fn any_reaction_consumes(&self, species: Species) -> bool {
        self.reactions.iter().any(|r| r.consumes(species))
    }

    /// Whether any reaction strictly decreases the count of `species`.
    #[must_use]
    pub fn any_reaction_decreases(&self, species: Species) -> bool {
        self.reactions.iter().any(|r| r.decreases(species))
    }

    /// The maximum reaction order (number of reactant molecules) in the CRN.
    #[must_use]
    pub fn max_order(&self) -> u64 {
        self.reactions
            .iter()
            .map(Reaction::order)
            .max()
            .unwrap_or(0)
    }

    /// A multi-line listing of all reactions, with species names.
    #[must_use]
    pub fn describe(&self) -> String {
        let mut out = String::new();
        for r in &self.reactions {
            out.push_str(&format!("{}\n", r.display(&self.species)));
        }
        out
    }
}

impl fmt::Display for Crn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "CRN with {} species, {} reactions",
            self.species.len(),
            self.reactions.len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_reaction_basic() {
        let mut crn = Crn::new();
        crn.parse_reaction("X1 + X2 -> Y").unwrap();
        let x1 = crn.species_named("X1").unwrap();
        let x2 = crn.species_named("X2").unwrap();
        let y = crn.species_named("Y").unwrap();
        let r = &crn.reactions()[0];
        assert_eq!(r.reactant_count(x1), 1);
        assert_eq!(r.reactant_count(x2), 1);
        assert_eq!(r.product_count(y), 1);
    }

    #[test]
    fn parse_reaction_with_coefficients_and_empty_side() {
        let mut crn = Crn::new();
        crn.parse_reaction("X -> 3Z").unwrap();
        crn.parse_reaction("2Z -> Y").unwrap();
        crn.parse_reaction("K + Y -> 0").unwrap();
        let z = crn.species_named("Z").unwrap();
        let y = crn.species_named("Y").unwrap();
        assert_eq!(crn.reactions()[0].product_count(z), 3);
        assert_eq!(crn.reactions()[1].reactant_count(z), 2);
        assert!(crn.reactions()[2].products().is_empty());
        assert!(crn.any_reaction_consumes(y));
        assert_eq!(crn.max_order(), 2);
    }

    #[test]
    fn parse_reaction_errors() {
        let mut crn = Crn::new();
        assert!(crn.parse_reaction("A + B").is_err());
        assert!(crn.parse_reaction("A + -> B").is_err());
        assert!(crn.parse_reaction("3 -> B").is_err());
    }

    #[test]
    fn coefficients_past_i64_max_are_rejected_not_wrapped() {
        // No i64 net change represents these totals (u64::MAX would wrap
        // to -1), so they are refused at parse time.
        let mut crn = Crn::new();
        for text in [
            "X -> 18446744073709551615 Y",
            "9223372036854775808 X -> Y",
            "X -> 9223372036854775807 Y + Y",
            "X -> 18446744073709551615 Y + 18446744073709551615 Y",
        ] {
            assert!(
                matches!(crn.parse_reaction(text), Err(CrnError::InvalidRoles(_))),
                "{text}"
            );
        }
        assert!(crn.reactions().is_empty());
        crn.parse_reaction("X -> 9223372036854775807 Y").unwrap();
        crn.parse_reaction("X -> 9223372036854775806 Y + Y")
            .unwrap();
        let y = crn.species_named("Y").unwrap().index();
        for reaction in crn.reactions() {
            let compiled = crate::compiled::CompiledReaction::compile(reaction);
            assert!(compiled.delta().contains(&(y, i64::MAX)), "{compiled:?}");
        }
        let mut counts = vec![0u64; crn.species().len()];
        counts[crn.species_named("X").unwrap().index()] = 1;
        crate::compiled::CompiledReaction::compile(&crn.reactions()[0])
            .apply_in_place(&mut counts)
            .unwrap();
        assert_eq!(counts[y], i64::MAX as u64);
    }

    #[test]
    fn count_overflow_names_the_reaction_and_the_species() {
        let mut crn = Crn::new();
        crn.parse_reaction("X -> 9223372036854775807 Y").unwrap();
        let y = crn.species_named("Y").unwrap();
        assert_eq!(
            crn.count_overflow(0, y).to_string(),
            "count overflow: firing `X -> 9223372036854775807Y` would push the count of `Y` \
             past 18446744073709551615"
        );
        // A species outside the interner has no name to print.
        let x = crn.species_named("X").unwrap();
        crn.add_reaction(Reaction::new(vec![(x, 1)], vec![(Species(7), 1)]));
        assert_eq!(
            crn.count_overflow(1, Species(7)),
            CrnError::CountOverflow {
                reaction: "reaction 1".into(),
                species: "#7".into(),
            }
        );
    }

    #[test]
    fn propensity_overflow_names_the_reaction() {
        let mut crn = Crn::new();
        crn.parse_reaction("200X -> Y").unwrap();
        assert_eq!(
            crn.propensity_overflow(0).to_string(),
            "propensity overflow: the total propensity passes 1.7976931348623157e308 at \
             `200X -> Y`"
        );
    }

    #[test]
    fn consumption_and_decrease_distinguish_catalysts() {
        let mut crn = Crn::new();
        // Y is consumed and re-produced (catalytic): consumed but not decreased.
        crn.parse_reaction("Y + X -> Y + Z").unwrap();
        let y = crn.species_named("Y").unwrap();
        let x = crn.species_named("X").unwrap();
        assert!(crn.any_reaction_consumes(y));
        assert!(!crn.any_reaction_decreases(y));
        assert!(crn.any_reaction_decreases(x));
    }

    #[test]
    fn describe_lists_reactions() {
        let mut crn = Crn::new();
        crn.parse_reaction("X -> 2Y").unwrap();
        assert_eq!(crn.describe(), "X -> 2Y\n");
        assert_eq!(crn.to_string(), "CRN with 2 species, 1 reactions");
    }
}
