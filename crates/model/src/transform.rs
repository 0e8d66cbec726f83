//! Structural transformations of CRNs: renaming, fixed-input hardcoding
//! (Observation 5.3), the output-monotonic → output-oblivious rewrite
//! (Observation 2.4), and conversion to bimolecular form (footnote 5).

use std::collections::HashMap;

use crate::crn::Crn;
use crate::error::CrnError;
use crate::function::{FunctionCrn, Roles};
use crate::reaction::Reaction;
use crate::species::Species;

/// Rebuilds a CRN with every species renamed through `rename`; species not in
/// the map keep their names.
///
/// Distinct species must stay distinct after renaming.
///
/// # Errors
///
/// Returns [`CrnError::SpeciesCollision`] if two distinct species would be
/// renamed to the same name.  Species names are user-controlled since the
/// `.crn` parser landed, so a collision is an input error, not a bug.
pub fn rename_species(crn: &Crn, rename: &HashMap<String, String>) -> Result<Crn, CrnError> {
    let mut out = Crn::new();
    let mut map: HashMap<Species, Species> = HashMap::new();
    for (species, name) in crn.species().iter_named() {
        let new_name = rename.get(name).map_or(name, String::as_str);
        let before = out.species().len();
        let new_species = out.add_species(new_name);
        if out.species().len() != before + 1 {
            return Err(CrnError::SpeciesCollision {
                name: new_name.to_owned(),
            });
        }
        map.insert(species, new_species);
    }
    for reaction in crn.reactions() {
        out.add_reaction(reaction.map_species(|s| map[&s]));
    }
    Ok(out)
}

/// Observation 5.3: hardcodes input `i` of `crn` to the constant `j`.
///
/// The leader `L` and input species `X_i` are replaced by fresh species `L'`
/// and `X_i'`, and the reaction `L -> j·X_i' + L'` is added, so the CRN
/// behaves exactly as if `x(i) = j` had been supplied externally.  If the CRN
/// is leaderless a fresh leader is introduced (its only job is to release the
/// hardcoded input).  The result has arity `d − 1`.
///
/// # Errors
///
/// Returns [`CrnError::InvalidRoles`] if `i` is out of range, or
/// [`CrnError::SpeciesCollision`] if the primed fresh names (`X_i'`, `L'`)
/// already occur in the CRN.
pub fn hardcode_input(crn: &FunctionCrn, i: usize, j: u64) -> Result<FunctionCrn, CrnError> {
    if i >= crn.dim() {
        return Err(CrnError::InvalidRoles(format!(
            "input index {i} out of range for arity {}",
            crn.dim()
        )));
    }
    let species = crn.crn().species();
    let xi = crn.roles().inputs[i];
    let xi_name = species.name(xi).to_owned();
    let fresh_xi_name = format!("{xi_name}'");

    let mut rename = HashMap::new();
    rename.insert(xi_name, fresh_xi_name.clone());
    let (leader_name, fresh_leader_name) = match crn.leader() {
        Some(l) => {
            let name = species.name(l).to_owned();
            let fresh = format!("{name}'");
            rename.insert(name.clone(), fresh.clone());
            (name, fresh)
        }
        None => ("L_fix".to_owned(), "L_fix'".to_owned()),
    };

    let mut out = rename_species(crn.crn(), &rename)?;
    // The old leader name (or the fresh leader for leaderless CRNs) becomes the
    // new leader that releases the hardcoded input.
    let new_leader = out.add_species(&leader_name);
    let renamed_old_leader = out.add_species(&fresh_leader_name);
    let renamed_xi = out
        .species_named(&fresh_xi_name)
        .expect("renamed input species exists");
    let mut products = vec![(renamed_xi, j)];
    if crn.leader().is_some() {
        products.push((renamed_old_leader, 1));
    }
    out.add_reaction(Reaction::new(vec![(new_leader, 1)], products));

    let remaining_inputs: Vec<Species> = crn
        .roles()
        .inputs
        .iter()
        .enumerate()
        .filter(|&(k, _)| k != i)
        .map(|(_, &s)| {
            let name = species.name(s);
            out.species_named(name).expect("input species preserved")
        })
        .collect();
    let output = out
        .species_named(species.name(crn.output()))
        .expect("output species preserved");

    FunctionCrn::new(
        out,
        Roles {
            inputs: remaining_inputs,
            output,
            leader: Some(new_leader),
        },
    )
}

/// Observation 2.4: rewrites an output-monotonic CRN into an output-oblivious
/// one computing the same function, by replacing catalytic uses of the output
/// `Y` with a shadow catalyst `Z` that is produced alongside every new `Y`.
///
/// Returns `None` if the CRN is not output-monotonic (some reaction strictly
/// decreases the output count), in which case the rewrite is unsound.
#[must_use]
pub fn make_output_oblivious(crn: &FunctionCrn) -> Option<FunctionCrn> {
    if !crn.is_output_monotonic() {
        return None;
    }
    if crn.is_output_oblivious() {
        return Some(crn.clone());
    }
    let y = crn.output();
    let mut out = crn.crn().clone();
    let z = out.add_species("Z_catalyst");
    let rewritten: Vec<Reaction> = out
        .reactions()
        .iter()
        .map(|r| {
            let consumed = r.reactant_count(y);
            if consumed == 0 && r.product_count(y) == 0 {
                return r.clone();
            }
            let produced = r.product_count(y);
            let net = produced - consumed; // >= 0 by monotonicity
            let reactants: Vec<(Species, u64)> = r
                .reactants()
                .iter()
                .map(|(&s, &c)| if s == y { (z, c) } else { (s, c) })
                .collect();
            let mut products: Vec<(Species, u64)> = r
                .products()
                .iter()
                .filter(|&(&s, _)| s != y)
                .map(|(&s, &c)| (s, c))
                .collect();
            if net > 0 {
                products.push((y, net));
            }
            // Return the borrowed catalysts and shadow every new Y with a Z.
            products.push((z, produced));
            Reaction::new(reactants, products)
        })
        .collect();
    let mut rebuilt = Crn::new();
    for (_, name) in out.species().iter_named() {
        rebuilt.add_species(name);
    }
    for r in rewritten {
        rebuilt.add_reaction(r);
    }
    let roles = crn.roles();
    let species = crn.crn().species();
    let inputs = roles
        .inputs
        .iter()
        .map(|&s| rebuilt.species_named(species.name(s)).expect("preserved"))
        .collect();
    let output = rebuilt
        .species_named(species.name(roles.output))
        .expect("preserved");
    let leader = roles
        .leader
        .map(|l| rebuilt.species_named(species.name(l)).expect("preserved"));
    Some(
        FunctionCrn::new(
            rebuilt,
            Roles {
                inputs,
                output,
                leader,
            },
        )
        .expect("roles stay valid"),
    )
}

/// Converts every reaction with more than two reactants into a chain of
/// reversible bimolecular combination steps followed by a final bimolecular
/// release, as sketched in footnote 5 of the paper
/// (`3X -> Y` becomes `2X ↔ X_2` and `X + X_2 -> Y`).
///
/// Reactions of order ≤ 2 are kept as-is.  Product arity is not restricted
/// (that is only needed for the population-protocol compilation).
#[must_use]
pub fn bimolecularize(crn: &Crn) -> Crn {
    let mut out = Crn::new();
    let mut map: HashMap<Species, Species> = HashMap::new();
    for (species, name) in crn.species().iter_named() {
        map.insert(species, out.add_species(name));
    }
    for (ri, reaction) in crn.reactions().iter().enumerate() {
        if reaction.order() <= 2 {
            out.add_reaction(reaction.map_species(|s| map[&s]));
            continue;
        }
        let mut molecules: Vec<Species> = Vec::new();
        for (&s, &c) in reaction.reactants() {
            for _ in 0..c {
                molecules.push(map[&s]);
            }
        }
        let mut accumulated = molecules[0];
        for (step, &next) in molecules.iter().enumerate().skip(1) {
            let last_step = step == molecules.len() - 1;
            if last_step {
                let products: Vec<(Species, u64)> = reaction
                    .products()
                    .iter()
                    .map(|(&s, &c)| (map[&s], c))
                    .collect();
                out.add_reaction(Reaction::new(vec![(accumulated, 1), (next, 1)], products));
            } else {
                let intermediate = out.add_species(&format!("I_{ri}_{step}"));
                out.add_reaction(Reaction::new(
                    vec![(accumulated, 1), (next, 1)],
                    vec![(intermediate, 1)],
                ));
                out.add_reaction(Reaction::new(
                    vec![(intermediate, 1)],
                    vec![(accumulated, 1), (next, 1)],
                ));
                accumulated = intermediate;
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::examples;
    use crate::reachability::check_stable_computation;
    use crn_numeric::NVec;

    #[test]
    fn rename_species_preserves_structure() {
        let mut crn = Crn::new();
        crn.parse_reaction("X -> 2Y").unwrap();
        let mut rename = HashMap::new();
        rename.insert("Y".to_owned(), "W".to_owned());
        let renamed = rename_species(&crn, &rename).unwrap();
        assert!(renamed.species_named("W").is_some());
        assert!(renamed.species_named("Y").is_none());
        assert_eq!(renamed.describe(), "X -> 2W\n");
    }

    #[test]
    fn rename_collision_is_an_error_not_a_panic() {
        let mut crn = Crn::new();
        crn.parse_reaction("X -> Y").unwrap();
        let mut rename = HashMap::new();
        rename.insert("X".to_owned(), "Y".to_owned());
        assert_eq!(
            rename_species(&crn, &rename).unwrap_err(),
            CrnError::SpeciesCollision { name: "Y".into() }
        );
    }

    #[test]
    fn hardcode_input_of_min_gives_min_with_constant() {
        // min(x1, x2) with x2 hardcoded to 2 computes min(x1, 2).
        let min = examples::min_crn();
        let restricted = hardcode_input(&min, 1, 2).unwrap();
        assert_eq!(restricted.dim(), 1);
        assert!(restricted.has_leader());
        assert!(restricted.is_output_oblivious());
        for x in 0..6u64 {
            let expected = x.min(2);
            let v = check_stable_computation(&restricted, &NVec::from(vec![x]), expected, 10_000)
                .unwrap();
            assert!(v.is_correct(), "min(x,2) failed at x={x}");
        }
    }

    #[test]
    fn hardcode_input_preserves_existing_leader() {
        let crn = examples::min1_leader_crn();
        let restricted = hardcode_input(&crn, 0, 3).unwrap();
        assert_eq!(restricted.dim(), 0);
        // min(1, 3) = 1.
        let v = check_stable_computation(&restricted, &NVec::from(vec![]), 1, 10_000).unwrap();
        assert!(v.is_correct());
    }

    #[test]
    fn hardcode_input_out_of_range() {
        let min = examples::min_crn();
        assert!(hardcode_input(&min, 5, 0).is_err());
    }

    #[test]
    fn make_output_oblivious_rewrites_catalyst() {
        // X -> Y ; Y + A -> Y + B   (Y catalyses A -> B): monotonic, not oblivious.
        let mut crn = Crn::new();
        crn.parse_reaction("X -> Y").unwrap();
        crn.parse_reaction("Y + A -> Y + B").unwrap();
        let f = FunctionCrn::with_named_roles(crn, &["X"], "Y", None).unwrap();
        assert!(!f.is_output_oblivious());
        let rewritten = make_output_oblivious(&f).unwrap();
        assert!(rewritten.is_output_oblivious());
        // The rewritten CRN still computes f(x) = x.
        for x in 0..4u64 {
            let v = check_stable_computation(&rewritten, &NVec::from(vec![x]), x, 10_000).unwrap();
            assert!(v.is_correct());
        }
    }

    #[test]
    fn make_output_oblivious_rejects_decreasing_output() {
        let max = examples::max_crn();
        assert!(make_output_oblivious(&max).is_none());
    }

    #[test]
    fn make_output_oblivious_is_identity_on_oblivious_crns() {
        let min = examples::min_crn();
        let same = make_output_oblivious(&min).unwrap();
        assert_eq!(same.reaction_count(), min.reaction_count());
    }

    #[test]
    fn bimolecularize_reduces_order() {
        let mut crn = Crn::new();
        crn.parse_reaction("3X -> Y").unwrap();
        crn.parse_reaction("A + B -> C").unwrap();
        let converted = bimolecularize(&crn);
        assert!(converted.max_order() <= 2);
        // 3X -> Y becomes 2 reversible + 1 final = 3 reactions, plus the
        // untouched bimolecular one.
        assert_eq!(converted.reactions().len(), 4);
    }

    #[test]
    fn bimolecularize_preserves_computed_function() {
        // 3X -> Y computes floor(x/3); its bimolecular form must as well.
        let mut crn = Crn::new();
        crn.parse_reaction("3X -> Y").unwrap();
        let converted = bimolecularize(&crn);
        let f = FunctionCrn::with_named_roles(converted, &["X"], "Y", None).unwrap();
        for x in 0..8u64 {
            let v = check_stable_computation(&f, &NVec::from(vec![x]), x / 3, 100_000).unwrap();
            assert!(v.is_correct(), "⌊{x}/3⌋ failed");
        }
    }
}
