//! Minimal siphons and traps of the underlying Petri net.
//!
//! A *siphon* is a species set `S` such that every reaction producing into
//! `S` also consumes from `S`: once `S` is empty (unmarked) it stays empty
//! forever, structurally disabling every reaction that needs it.  A *trap*
//! is the time-reversed notion — every reaction consuming from `S` also
//! produces into `S` — so once a trap is marked it can never be emptied
//! again.  Both are computed over the *catalyst-aware* pre/post sets: a
//! catalyst (consumed and re-produced) counts as both consumed-from and
//! produced-into, exactly matching token dynamics.
//!
//! Minimal siphons are enumerated by the standard saturation algorithm: for
//! each seed species, repeatedly pick the first reaction violating the
//! closure condition and branch over the candidate species that could fix
//! it, with mutual-exclusion branching so no closed set is visited twice
//! from one seed; a final global filter keeps only set-minimal results.
//! The enumeration is worst-case exponential, so it stops after
//! [`SIPHON_NODE_CAP`] search nodes and surfaces the truncation (sound:
//! every returned set is a genuine siphon/trap, some may be missed).

use crate::compiled::CompiledCrn;

/// Default cap on branch-and-bound search nodes across one enumeration,
/// surfaced like [`FARKAS_ROW_CAP`](super::invariants::FARKAS_ROW_CAP): the
/// result is sound but incomplete once the cap is hit.
pub const SIPHON_NODE_CAP: usize = 4096;

/// The result of a capped siphon or trap enumeration: each set is a sorted
/// list of dense species indices, the list of sets is sorted and minimal
/// (no returned set strictly contains another).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StructuralSets {
    /// The minimal sets found, each sorted ascending, sorted by size then
    /// lexicographically.
    pub sets: Vec<Vec<usize>>,
    /// Whether the node cap truncated the enumeration.
    pub truncated: bool,
}

/// Catalyst-aware pre sets (species with positive required count) and post
/// sets (species left present after firing: positive net delta, or a
/// reactant not fully consumed) of every reaction.
fn pre_post(compiled: &CompiledCrn) -> (Vec<Vec<usize>>, Vec<Vec<usize>>) {
    let mut pres = Vec::with_capacity(compiled.reaction_count());
    let mut posts = Vec::with_capacity(compiled.reaction_count());
    for reaction in compiled.reactions() {
        let mut pre: Vec<usize> = reaction.reactants().iter().map(|&(s, _)| s).collect();
        pre.sort_unstable();
        pre.dedup();
        let delta_of = |s: usize| {
            reaction
                .delta()
                .iter()
                .find(|&&(t, _)| t == s)
                .map_or(0, |&(_, d)| d)
        };
        let mut post: Vec<usize> = reaction
            .delta()
            .iter()
            .filter(|&&(_, d)| d > 0)
            .map(|&(s, _)| s)
            .collect();
        for &(s, required) in reaction.reactants() {
            // A catalyst or partially-consumed reactant is still present
            // after firing, so it counts as produced-into.
            if i64::try_from(required).expect("counts fit i64") + delta_of(s) > 0 {
                post.push(s);
            }
        }
        post.sort_unstable();
        post.dedup();
        pres.push(pre);
        posts.push(post);
    }
    (pres, posts)
}

/// The members of a word bitset, ascending.
fn members(bits: &[u64]) -> impl Iterator<Item = usize> + '_ {
    bits.iter().enumerate().flat_map(|(i, &word)| {
        let mut rest = word;
        std::iter::from_fn(move || {
            (rest != 0).then(|| {
                let bit = rest.trailing_zeros() as usize;
                rest &= rest - 1;
                i * 64 + bit
            })
        })
    })
}

/// Sets bit `i` of a word bitset.
fn insert(bits: &mut [u64], i: usize) {
    bits[i / 64] |= 1 << (i % 64);
}

/// Whether bit `i` of a word bitset is set.
fn contains(bits: &[u64], i: usize) -> bool {
    bits[i / 64] & (1 << (i % 64)) != 0
}

/// Enumerates minimal nonempty sets closed under "every reaction touching
/// the set via `trigger` also touches it via `fixer`".  Siphons use
/// `trigger = post, fixer = pre`; traps swap the two.
///
/// Each search node is four word bitsets on one flat stack: its set, the
/// species its search excludes, and the reactions its set triggers without
/// fixing (the open ones) or fixes.  A child adds one species, so it
/// updates the last two from that species' rows of a species → reactions
/// index, and a node's first violated reaction is its lowest open one.
fn minimal_closed_sets(
    trigger: &[Vec<usize>],
    fixer: &[Vec<usize>],
    stride: usize,
    node_cap: usize,
) -> StructuralSets {
    let words = stride.div_ceil(64).max(1);
    let reaction_words = trigger.len().div_ceil(64).max(1);
    let by_species = |lists: &[Vec<usize>]| {
        let mut bits = vec![0; stride * reaction_words];
        for (r, species) in lists.iter().enumerate() {
            for &s in species {
                insert(&mut bits[s * reaction_words..], r);
            }
        }
        bits
    };
    let (triggers, fixes) = (by_species(trigger), by_species(fixer));
    // Pushes the child of a node that adds species `c` to `set`, searching
    // with `excluded`.  A fixed reaction stays fixed in every superset, so
    // the child fixes `fixed ∪ fixes(c)` and leaves open
    // `(open ∪ triggers(c)) ∖ fixed ∖ fixes(c)`.
    let push_child = |stack: &mut Vec<u64>, [set, excluded, open, fixed]: [&[u64]; 4], c: usize| {
        let at = stack.len();
        stack.extend_from_slice(set);
        insert(&mut stack[at..], c);
        stack.extend_from_slice(excluded);
        let row = c * reaction_words..(c + 1) * reaction_words;
        let (triggers, fixes) = (&triggers[row.clone()], &fixes[row]);
        stack.extend(
            open.iter()
                .zip(triggers)
                .zip(fixed.iter().zip(fixes))
                .map(|((&o, &t), (&f, &x))| (o | t) & !(f | x)),
        );
        stack.extend(fixed.iter().zip(fixes).map(|(&f, &x)| f | x));
    };
    let width = 2 * (words + reaction_words);
    let mut found: Vec<u64> = Vec::new();
    let mut stack: Vec<u64> = Vec::new();
    let mut node = vec![0; width];
    let mut excluded = vec![0; words];
    let mut nodes = 0usize;
    let mut truncated = false;
    // Each minimal closed set is enumerated from its smallest member:
    // species below the seed are permanently excluded in that seed's search.
    'seeds: for seed in 0..stride {
        excluded.fill(0);
        for s in 0..seed {
            insert(&mut excluded, s);
        }
        // The seed's node is the child of the empty node that adds it.
        node.fill(0);
        let (set, rest) = node.split_at(words);
        let (open, fixed) = rest[words..].split_at(reaction_words);
        push_child(&mut stack, [set, &excluded, open, fixed], seed);
        while !stack.is_empty() {
            let at = stack.len() - width;
            node.copy_from_slice(&stack[at..]);
            stack.truncate(at);
            nodes += 1;
            if nodes > node_cap {
                truncated = true;
                break 'seeds;
            }
            let (set, rest) = node.split_at(words);
            let (excluded_here, rest) = rest.split_at(words);
            let (open, fixed) = rest.split_at(reaction_words);
            let Some(r) = members(open).next() else {
                found.extend_from_slice(set);
                continue;
            };
            // Any closed superset of `set` (avoiding `excluded`) contains
            // some allowed fixer of `r`; partition by the first one it
            // contains so each closed set is reached exactly once.
            excluded.copy_from_slice(excluded_here);
            for &candidate in &fixer[r] {
                if contains(&excluded, candidate) {
                    continue;
                }
                debug_assert!(
                    !contains(set, candidate),
                    "a contained fixer is not a violation"
                );
                push_child(&mut stack, [set, &excluded, open, fixed], candidate);
                insert(&mut excluded, candidate);
            }
        }
    }

    // Keep only set-minimal results: drop every set strictly containing
    // another one, which has fewer members.
    let found: Vec<&[u64]> = found.chunks_exact(words).collect();
    let sizes: Vec<u32> = found
        .iter()
        .map(|set| set.iter().map(|w| w.count_ones()).sum())
        .collect();
    let inside = |inner: &[u64], outer: &[u64]| inner.iter().zip(outer).all(|(&i, &o)| i & !o == 0);
    let mut sets: Vec<Vec<usize>> = (0..found.len())
        .filter(|&i| !(0..found.len()).any(|j| sizes[j] < sizes[i] && inside(found[j], found[i])))
        .map(|i| members(found[i]).collect())
        .collect();
    sets.sort_by(|a, b| a.len().cmp(&b.len()).then_with(|| a.cmp(b)));
    sets.dedup();
    StructuralSets { sets, truncated }
}

/// Enumerates the minimal siphons of `compiled`, capped at `node_cap`
/// search nodes.
#[must_use]
pub fn minimal_siphons(compiled: &CompiledCrn, node_cap: usize) -> StructuralSets {
    let (pre, post) = pre_post(compiled);
    minimal_closed_sets(&post, &pre, compiled.stride(), node_cap)
}

/// Enumerates the minimal traps of `compiled`, capped at `node_cap` search
/// nodes.
#[must_use]
pub fn minimal_traps(compiled: &CompiledCrn, node_cap: usize) -> StructuralSets {
    let (pre, post) = pre_post(compiled);
    minimal_closed_sets(&pre, &post, compiled.stride(), node_cap)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::crn::Crn;
    use crate::examples;

    fn compiled(crn: &Crn) -> CompiledCrn {
        CompiledCrn::compile(crn)
    }

    fn named(crn: &Crn, sets: &StructuralSets) -> Vec<Vec<String>> {
        sets.sets
            .iter()
            .map(|set| {
                set.iter()
                    .map(|&s| crn.species().name(crate::species::Species(s)).to_owned())
                    .collect()
            })
            .collect()
    }

    /// The saturation on `Vec<bool>` sets, two clones per child, scanning
    /// every reaction for the first violation: the differential oracle of
    /// [`minimal_closed_sets`], which must visit the same nodes in the same
    /// order.
    fn minimal_closed_sets_on_bools(
        trigger: &[Vec<usize>],
        fixer: &[Vec<usize>],
        stride: usize,
        node_cap: usize,
    ) -> StructuralSets {
        let mut found: Vec<Vec<bool>> = Vec::new();
        let mut nodes = 0usize;
        let mut truncated = false;
        'seeds: for seed in 0..stride {
            let mut in_set = vec![false; stride];
            in_set[seed] = true;
            let mut excluded = vec![false; stride];
            for e in excluded.iter_mut().take(seed) {
                *e = true;
            }
            let mut stack: Vec<(Vec<bool>, Vec<bool>)> = vec![(in_set, excluded)];
            while let Some((set, mut excluded)) = stack.pop() {
                nodes += 1;
                if nodes > node_cap {
                    truncated = true;
                    break 'seeds;
                }
                let violated = (0..trigger.len()).find(|&r| {
                    trigger[r].iter().any(|&s| set[s]) && !fixer[r].iter().any(|&s| set[s])
                });
                let Some(r) = violated else {
                    found.push(set);
                    continue;
                };
                for &candidate in &fixer[r] {
                    if excluded[candidate] {
                        continue;
                    }
                    let mut child = set.clone();
                    child[candidate] = true;
                    stack.push((child, excluded.clone()));
                    excluded[candidate] = true;
                }
            }
        }
        let inside =
            |inner: &[bool], outer: &[bool]| inner.iter().zip(outer).all(|(&i, &o)| !i || o);
        let mut sets: Vec<Vec<usize>> = found
            .iter()
            .filter(|set| {
                !found
                    .iter()
                    .any(|other| other != *set && inside(other, set))
            })
            .map(|set| (0..stride).filter(|&s| set[s]).collect())
            .collect();
        sets.sort_by(|a, b| a.len().cmp(&b.len()).then_with(|| a.cmp(b)));
        sets.dedup();
        StructuralSets { sets, truncated }
    }

    /// Brute-force reference: every nonempty subset, checked directly, then
    /// filtered to minimal sets.
    fn brute_force(trigger: &[Vec<usize>], fixer: &[Vec<usize>], stride: usize) -> Vec<Vec<usize>> {
        let mut all: Vec<Vec<usize>> = Vec::new();
        for mask in 1u32..(1 << stride) {
            let set: Vec<usize> = (0..stride).filter(|&s| mask & (1 << s) != 0).collect();
            let closed = (0..trigger.len()).all(|r| {
                !trigger[r].iter().any(|&s| set.contains(&s))
                    || fixer[r].iter().any(|&s| set.contains(&s))
            });
            if closed {
                all.push(set);
            }
        }
        let minimal: Vec<Vec<usize>> = all
            .iter()
            .filter(|set| {
                !all.iter()
                    .any(|other| other.len() < set.len() && other.iter().all(|s| set.contains(s)))
            })
            .cloned()
            .collect();
        let mut minimal = minimal;
        minimal.sort_by(|a, b| a.len().cmp(&b.len()).then_with(|| a.cmp(b)));
        minimal
    }

    #[test]
    fn max_crn_siphons_are_the_inputs_and_it_has_no_traps() {
        // X1 and X2 are never produced, so {X1} and {X2} are minimal
        // siphons and every larger siphon contains one of them.  Every
        // species eventually funnels into K + Y -> 0, which produces
        // nothing, so no trap exists at all.
        let max = examples::max_crn();
        let c = compiled(max.crn());
        let siphons = minimal_siphons(&c, SIPHON_NODE_CAP);
        assert!(!siphons.truncated);
        assert_eq!(
            named(max.crn(), &siphons),
            vec![vec!["X1".to_owned()], vec!["X2".to_owned()]]
        );
        let traps = minimal_traps(&c, SIPHON_NODE_CAP);
        assert!(!traps.truncated);
        assert!(traps.sets.is_empty());
    }

    #[test]
    fn min_crn_output_is_a_trap() {
        // X1 + X2 -> Y: nothing consumes Y, so {Y} is a trap.
        let min = examples::min_crn();
        let c = compiled(min.crn());
        let traps = minimal_traps(&c, SIPHON_NODE_CAP);
        assert_eq!(named(min.crn(), &traps), vec![vec!["Y".to_owned()]]);
    }

    #[test]
    fn catalysts_count_as_produced_into() {
        // C + X -> C + Y: {C} is both a siphon and a trap (the catalyst is
        // consumed-from and produced-into), and {Y} is a trap.
        let mut crn = Crn::new();
        crn.parse_reaction("C + X -> C + Y").unwrap();
        let c = compiled(&crn);
        let siphons = named(&crn, &minimal_siphons(&c, SIPHON_NODE_CAP));
        assert!(siphons.contains(&vec!["C".to_owned()]), "{siphons:?}");
        assert!(siphons.contains(&vec!["X".to_owned()]), "{siphons:?}");
        let traps = named(&crn, &minimal_traps(&c, SIPHON_NODE_CAP));
        assert!(traps.contains(&vec!["C".to_owned()]), "{traps:?}");
        assert!(traps.contains(&vec!["Y".to_owned()]), "{traps:?}");
    }

    #[test]
    fn a_cycle_is_both_siphon_and_trap() {
        let mut crn = Crn::new();
        crn.parse_reaction("A -> B").unwrap();
        crn.parse_reaction("B -> A").unwrap();
        let c = compiled(&crn);
        assert_eq!(
            named(&crn, &minimal_siphons(&c, SIPHON_NODE_CAP)),
            vec![vec!["A".to_owned(), "B".to_owned()]]
        );
        assert_eq!(
            named(&crn, &minimal_traps(&c, SIPHON_NODE_CAP)),
            vec![vec!["A".to_owned(), "B".to_owned()]]
        );
    }

    #[test]
    fn a_tiny_node_cap_surfaces_truncation() {
        let max = examples::max_crn();
        let c = compiled(max.crn());
        let cut = minimal_siphons(&c, 1);
        assert!(cut.truncated);
        let full = minimal_siphons(&c, SIPHON_NODE_CAP);
        assert!(cut.sets.len() <= full.sets.len());
    }

    #[test]
    fn enumeration_matches_brute_force_on_assorted_nets() {
        let sources = [
            vec!["X1 + X2 -> Y"],
            vec!["X -> 2Y", "Y -> Z", "Z + X -> Y"],
            vec!["A -> B", "B -> A", "A + C -> D", "D -> C"],
            vec!["L -> W", "W + X -> Y + V", "P -> Q"],
            vec!["2A -> B + C", "C -> A", "B + C -> 2C"],
        ];
        for reactions in &sources {
            let mut crn = Crn::new();
            for r in reactions {
                crn.parse_reaction(r).unwrap();
            }
            let c = compiled(&crn);
            let (pre, post) = pre_post(&c);
            let siphons = minimal_siphons(&c, SIPHON_NODE_CAP);
            assert!(!siphons.truncated);
            assert_eq!(
                siphons.sets,
                brute_force(&post, &pre, c.stride()),
                "siphons of {reactions:?}"
            );
            let traps = minimal_traps(&c, SIPHON_NODE_CAP);
            assert_eq!(
                traps.sets,
                brute_force(&pre, &post, c.stride()),
                "traps of {reactions:?}"
            );
        }
    }

    /// Stoichiometric counts for sampled reactions.
    const COUNTS: [u64; 3] = [1, 1, 2];

    /// A CRN over `species` species `S0`, `S1`, … with one reaction per
    /// sampled row of six terms, three reactant then three product terms.
    /// A term `t` adds `COUNTS[t % 3]` of species `t / 3 mod species`.
    fn sampled_crn(species: usize, rows: &[Vec<usize>]) -> Crn {
        let mut crn = Crn::new();
        let names: Vec<crate::species::Species> = (0..species)
            .map(|s| crn.add_species(&format!("S{s}")))
            .collect();
        for row in rows {
            let side = |terms: &[usize]| {
                let mut counts = vec![0u64; species];
                for &t in terms {
                    counts[(t / COUNTS.len()) % species] += COUNTS[t % COUNTS.len()];
                }
                names
                    .iter()
                    .zip(counts)
                    .filter(|&(_, c)| c > 0)
                    .map(|(&s, c)| (s, c))
                    .collect::<Vec<_>>()
            };
            crn.add_reaction(crate::reaction::Reaction::new(
                side(&row[..3]),
                side(&row[3..]),
            ));
        }
        crn
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        /// On CRNs of at most eight species, every untruncated enumeration
        /// returns exactly the minimal closed sets of a scan over all
        /// `2^S - 1` nonempty species sets.
        #[test]
        fn saturation_returns_the_brute_force_minimal_sets(
            species in 1usize..9,
            rows in proptest::collection::vec(
                proptest::collection::vec(0usize..1 << 12, 6),
                1..9,
            ),
        ) {
            let crn = sampled_crn(species, &rows);
            let c = compiled(&crn);
            let (pre, post) = pre_post(&c);
            let siphons = minimal_siphons(&c, SIPHON_NODE_CAP);
            if !siphons.truncated {
                proptest::prop_assert_eq!(siphons.sets, brute_force(&post, &pre, c.stride()));
            }
            let traps = minimal_traps(&c, SIPHON_NODE_CAP);
            if !traps.truncated {
                proptest::prop_assert_eq!(traps.sets, brute_force(&pre, &post, c.stride()));
            }
        }
    }

    proptest::proptest! {
        /// The bitset saturation visits the `Vec<bool>` saturation's nodes in
        /// the same order: the same sets and the same truncation flag at
        /// every cap from 1 to 64, on CRNs of up to 100 species, whose sets
        /// span two words.
        #[test]
        fn bitset_saturation_matches_the_bool_saturation_at_every_cap(
            species in 1usize..101,
            rows in proptest::collection::vec(
                proptest::collection::vec(0usize..1 << 12, 6),
                1..33,
            ),
        ) {
            let c = compiled(&sampled_crn(species, &rows));
            let (pre, post) = pre_post(&c);
            for (trigger, fixer) in [(&post, &pre), (&pre, &post)] {
                for cap in 1..=64 {
                    proptest::prop_assert_eq!(
                        minimal_closed_sets(trigger, fixer, c.stride(), cap),
                        minimal_closed_sets_on_bools(trigger, fixer, c.stride(), cap),
                        "cap {}",
                        cap
                    );
                }
            }
        }
    }
}
