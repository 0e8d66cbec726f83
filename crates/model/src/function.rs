//! Function-computing CRNs: a CRN plus input/output/leader roles.

use crn_numeric::NVec;

use crate::config::Configuration;
use crate::crn::Crn;
use crate::error::CrnError;
use crate::species::Species;

/// The species roles of a function-computing CRN (Section 2.2 of the paper):
/// an ordered list of input species `X_1, …, X_d`, an output species `Y`, and
/// an optional leader species `L` present with count 1 initially.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Roles {
    /// The ordered input species `X_1, …, X_d`.
    pub inputs: Vec<Species>,
    /// The output species `Y`.
    pub output: Species,
    /// The leader species `L`, if the CRN uses one.
    pub leader: Option<Species>,
}

/// A CRN together with the roles needed to compute a function `f : N^d → N`.
///
/// ```
/// use crn_model::examples;
/// use crn_numeric::NVec;
///
/// let double = examples::double_crn(); // X -> 2Y
/// let initial = double.initial_configuration(&NVec::from(vec![3])).unwrap();
/// assert_eq!(initial.count(double.roles().inputs[0]), 3);
/// assert!(double.is_output_oblivious());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct FunctionCrn {
    crn: Crn,
    roles: Roles,
}

impl FunctionCrn {
    /// Wraps a CRN with roles, validating that the roles are consistent.
    ///
    /// # Errors
    ///
    /// Returns [`CrnError::InvalidRoles`] if the input species are not
    /// pairwise distinct, or the output species coincides with an input or the
    /// leader.
    pub fn new(crn: Crn, roles: Roles) -> Result<Self, CrnError> {
        let mut seen = roles.inputs.clone();
        seen.sort();
        seen.dedup();
        if seen.len() != roles.inputs.len() {
            return Err(CrnError::InvalidRoles(
                "input species must be pairwise distinct".into(),
            ));
        }
        if roles.inputs.contains(&roles.output) {
            return Err(CrnError::InvalidRoles(
                "output species cannot also be an input species".into(),
            ));
        }
        if roles.leader == Some(roles.output) {
            return Err(CrnError::InvalidRoles(
                "output species cannot also be the leader".into(),
            ));
        }
        Ok(FunctionCrn { crn, roles })
    }

    /// Convenience constructor resolving role species by name.
    ///
    /// # Errors
    ///
    /// Returns [`CrnError::UnknownSpecies`] if any named species does not
    /// occur in the CRN, or [`CrnError::InvalidRoles`] if the roles are
    /// inconsistent.
    pub fn with_named_roles(
        crn: Crn,
        input_names: &[&str],
        output_name: &str,
        leader_name: Option<&str>,
    ) -> Result<Self, CrnError> {
        let lookup = |name: &str| {
            crn.species_named(name)
                .ok_or_else(|| CrnError::UnknownSpecies(name.to_owned()))
        };
        let inputs = input_names
            .iter()
            .map(|n| lookup(n))
            .collect::<Result<Vec<_>, _>>()?;
        let output = lookup(output_name)?;
        let leader = leader_name.map(lookup).transpose()?;
        FunctionCrn::new(
            crn,
            Roles {
                inputs,
                output,
                leader,
            },
        )
    }

    /// The underlying CRN.
    #[must_use]
    pub fn crn(&self) -> &Crn {
        &self.crn
    }

    /// The species roles.
    #[must_use]
    pub fn roles(&self) -> &Roles {
        &self.roles
    }

    /// The input arity `d`.
    #[must_use]
    pub fn dim(&self) -> usize {
        self.roles.inputs.len()
    }

    /// The output species `Y`.
    #[must_use]
    pub fn output(&self) -> Species {
        self.roles.output
    }

    /// The leader species, if any.
    #[must_use]
    pub fn leader(&self) -> Option<Species> {
        self.roles.leader
    }

    /// The initial configuration `I_x` encoding input `x`: count `x(i)` of
    /// each input species, one leader (if the CRN has one), nothing else.
    ///
    /// # Errors
    ///
    /// Returns [`CrnError::DimensionMismatch`] if `x.dim() != self.dim()`.
    pub fn initial_configuration(&self, x: &NVec) -> Result<Configuration, CrnError> {
        if x.dim() != self.dim() {
            return Err(CrnError::DimensionMismatch {
                expected: self.dim(),
                actual: x.dim(),
            });
        }
        let mut config = Configuration::new();
        for (i, &species) in self.roles.inputs.iter().enumerate() {
            config.add(species, x[i]);
        }
        if let Some(leader) = self.roles.leader {
            config.add(leader, 1);
        }
        Ok(config)
    }

    /// The count of the output species in `config`.
    #[must_use]
    pub fn output_count(&self, config: &Configuration) -> u64 {
        config.count(self.roles.output)
    }

    /// The dense-vector stride needed to address every role species: one past
    /// the largest input/output/leader index.  Role species can come from a
    /// different interner than the CRN's (`FunctionCrn::new` only validates
    /// distinctness), so dense engines must take the max of this and
    /// [`crate::CompiledCrn::stride`] before building their count vectors.
    #[must_use]
    pub fn role_stride(&self) -> usize {
        self.roles
            .inputs
            .iter()
            .chain(Some(&self.roles.output))
            .chain(self.roles.leader.as_ref())
            .map(|s| s.index() + 1)
            .max()
            .unwrap_or(0)
    }

    /// Whether the CRN is *output-oblivious*: the output species is never a
    /// reactant (Section 2.3).
    #[must_use]
    pub fn is_output_oblivious(&self) -> bool {
        !self.crn.any_reaction_consumes(self.roles.output)
    }

    /// Whether the CRN is *output-monotonic*: no reaction strictly decreases
    /// the count of the output species (footnote 7 / Observation 2.4).  Every
    /// output-oblivious CRN is output-monotonic but not conversely (the output
    /// may act as a catalyst).
    #[must_use]
    pub fn is_output_monotonic(&self) -> bool {
        !self.crn.any_reaction_decreases(self.roles.output)
    }

    /// Whether the CRN declares a leader.
    #[must_use]
    pub fn has_leader(&self) -> bool {
        self.roles.leader.is_some()
    }

    /// Number of species (a construction-size metric reported in E9).
    #[must_use]
    pub fn species_count(&self) -> usize {
        self.crn.species().len()
    }

    /// Number of reactions (a construction-size metric reported in E9).
    #[must_use]
    pub fn reaction_count(&self) -> usize {
        self.crn.reactions().len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn min_crn() -> FunctionCrn {
        let mut crn = Crn::new();
        crn.parse_reaction("X1 + X2 -> Y").unwrap();
        FunctionCrn::with_named_roles(crn, &["X1", "X2"], "Y", None).unwrap()
    }

    #[test]
    fn roles_resolution() {
        let f = min_crn();
        assert_eq!(f.dim(), 2);
        assert!(!f.has_leader());
        assert!(f.is_output_oblivious());
        assert!(f.is_output_monotonic());
        assert_eq!(f.species_count(), 3);
        assert_eq!(f.reaction_count(), 1);
    }

    #[test]
    fn unknown_species_rejected() {
        let mut crn = Crn::new();
        crn.parse_reaction("X1 + X2 -> Y").unwrap();
        let err = FunctionCrn::with_named_roles(crn, &["X1", "X3"], "Y", None).unwrap_err();
        assert_eq!(err, CrnError::UnknownSpecies("X3".into()));
    }

    #[test]
    fn duplicate_inputs_rejected() {
        let mut crn = Crn::new();
        crn.parse_reaction("X1 + X2 -> Y").unwrap();
        let err = FunctionCrn::with_named_roles(crn, &["X1", "X1"], "Y", None).unwrap_err();
        assert!(matches!(err, CrnError::InvalidRoles(_)));
    }

    #[test]
    fn output_cannot_be_input_or_leader() {
        let mut crn = Crn::new();
        crn.parse_reaction("X1 + X2 -> Y").unwrap();
        assert!(matches!(
            FunctionCrn::with_named_roles(crn.clone(), &["X1", "Y"], "Y", None),
            Err(CrnError::InvalidRoles(_))
        ));
        assert!(matches!(
            FunctionCrn::with_named_roles(crn, &["X1", "X2"], "Y", Some("Y")),
            Err(CrnError::InvalidRoles(_))
        ));
    }

    #[test]
    fn initial_configuration_encodes_input_and_leader() {
        let mut crn = Crn::new();
        crn.parse_reaction("L + X -> Y").unwrap();
        let f = FunctionCrn::with_named_roles(crn, &["X"], "Y", Some("L")).unwrap();
        let init = f.initial_configuration(&NVec::from(vec![4])).unwrap();
        assert_eq!(init.count(f.roles().inputs[0]), 4);
        assert_eq!(init.count(f.leader().unwrap()), 1);
        assert_eq!(init.total(), 5);
        assert!(matches!(
            f.initial_configuration(&NVec::from(vec![1, 2])),
            Err(CrnError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn output_monotonic_but_not_oblivious() {
        // Y + X -> Y + Z uses Y as a catalyst: monotonic, not oblivious.
        let mut crn = Crn::new();
        crn.parse_reaction("Y + X -> Y + Z").unwrap();
        crn.parse_reaction("W -> Y").unwrap();
        let f = FunctionCrn::with_named_roles(crn, &["X"], "Y", None).unwrap();
        assert!(f.is_output_monotonic());
        assert!(!f.is_output_oblivious());
    }

    #[test]
    fn max_crn_is_not_output_monotonic() {
        let mut crn = Crn::new();
        crn.parse_reaction("X1 -> Z1 + Y").unwrap();
        crn.parse_reaction("X2 -> Z2 + Y").unwrap();
        crn.parse_reaction("Z1 + Z2 -> K").unwrap();
        crn.parse_reaction("K + Y -> 0").unwrap();
        let f = FunctionCrn::with_named_roles(crn, &["X1", "X2"], "Y", None).unwrap();
        assert!(!f.is_output_oblivious());
        assert!(!f.is_output_monotonic());
    }
}
