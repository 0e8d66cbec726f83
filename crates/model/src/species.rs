//! Species identifiers and the interner that maps them to names.

use std::collections::HashMap;
use std::fmt;

/// A chemical species, identified by a dense index into a [`SpeciesSet`].
///
/// Species are cheap copyable handles; their human-readable names live in the
/// owning [`SpeciesSet`] (and therefore in the owning [`crate::Crn`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Species(pub(crate) usize);

impl Species {
    /// The dense index of this species.
    #[must_use]
    pub fn index(&self) -> usize {
        self.0
    }
}

impl fmt::Display for Species {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "#{}", self.0)
    }
}

/// An interner assigning dense indices to species names.
///
/// ```
/// use crn_model::SpeciesSet;
///
/// let mut set = SpeciesSet::new();
/// let x = set.intern("X");
/// let y = set.intern("Y");
/// assert_ne!(x, y);
/// assert_eq!(set.intern("X"), x);
/// assert_eq!(set.name(x), "X");
/// assert_eq!(set.len(), 2);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SpeciesSet {
    names: Vec<String>,
    by_name: HashMap<String, usize>,
}

impl SpeciesSet {
    /// Creates an empty species set.
    #[must_use]
    pub fn new() -> Self {
        SpeciesSet::default()
    }

    /// Interns `name`, returning the existing handle if it is already present.
    pub fn intern(&mut self, name: &str) -> Species {
        if let Some(&idx) = self.by_name.get(name) {
            return Species(idx);
        }
        let idx = self.names.len();
        self.names.push(name.to_owned());
        self.by_name.insert(name.to_owned(), idx);
        Species(idx)
    }

    /// Looks up a species by name without interning.
    #[must_use]
    pub fn get(&self, name: &str) -> Option<Species> {
        self.by_name.get(name).copied().map(Species)
    }

    /// The name of a species.
    ///
    /// # Panics
    ///
    /// Panics if the species does not belong to this set.
    #[must_use]
    pub fn name(&self, species: Species) -> &str {
        &self.names[species.0]
    }

    /// The number of species.
    #[must_use]
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// Whether the set is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// Iterates over all species in index order.
    pub fn iter(&self) -> impl Iterator<Item = Species> + '_ {
        (0..self.names.len()).map(Species)
    }

    /// Iterates over `(species, name)` pairs in index order.
    pub fn iter_named(&self) -> impl Iterator<Item = (Species, &str)> + '_ {
        self.names
            .iter()
            .enumerate()
            .map(|(i, n)| (Species(i), n.as_str()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_is_idempotent() {
        let mut set = SpeciesSet::new();
        let a = set.intern("A");
        let b = set.intern("B");
        assert_eq!(set.intern("A"), a);
        assert_eq!(set.intern("B"), b);
        assert_eq!(set.len(), 2);
        assert_eq!(set.name(a), "A");
        assert_eq!(set.name(b), "B");
    }

    #[test]
    fn get_does_not_intern() {
        let mut set = SpeciesSet::new();
        assert_eq!(set.get("X"), None);
        let x = set.intern("X");
        assert_eq!(set.get("X"), Some(x));
        assert_eq!(set.len(), 1);
    }

    #[test]
    fn iteration_orders_by_index() {
        let mut set = SpeciesSet::new();
        let names = ["X1", "X2", "Y", "L"];
        for n in names {
            set.intern(n);
        }
        let collected: Vec<&str> = set.iter_named().map(|(_, n)| n).collect();
        assert_eq!(collected, names);
        assert_eq!(set.iter().count(), 4);
    }
}
