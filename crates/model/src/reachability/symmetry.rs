//! Input-permutation automorphism detection for symmetry-orbit reduction.
//!
//! A species permutation `σ` that maps the reaction multiset to itself and
//! fixes the output (and leader) species is an automorphism of the whole
//! transition system: it carries the reachability graph of `I_x` onto the
//! graph of the permuted input, preserving terminality, strong connectivity,
//! output counts and the reachable-set size.  Verifying the box therefore
//! only needs one representative per input orbit — the driver skips a point
//! `x` whenever some detected permutation produces a lexicographically
//! smaller equivalent point with the same expected output.
//!
//! Detection works on the species–reaction incidence graph: one vertex per
//! species and per reaction, and an edge between species `s` and reaction
//! `r` labelled `(reactant coefficient, product coefficient)` whenever `r`
//! mentions `s`.  An automorphism of the CRN is exactly a label-preserving
//! automorphism of this graph that maps species to species.  For each
//! candidate bijection of the inputs (capped at [`MAX_SYMMETRY_DIM`]
//! inputs) the search colours the graph twice — on the left each input
//! `j` gets its own colour, on the right input `π(j)` gets that colour,
//! with the output and leader pinned on both sides — and asks for a
//! colour-preserving map from left to right (McKay & Piperno 2014,
//! "Practical graph isomorphism, II"):
//!
//! 1. *Colour refinement* (1-dimensional Weisfeiler–Leman) splits both
//!    colourings in lockstep until they are equitable: a vertex's new
//!    colour is its old colour plus the multiset of (edge label, neighbour
//!    colour) pairs around it.  Any colour-preserving map preserves the
//!    refined colours too, so when the two sides stop having the same
//!    colour-class sizes no automorphism extends the candidate.  In
//!    particular a candidate whose inputs refinement separates before any
//!    individualization is abandoned without a search.
//! 2. *Individualization*: while some species colour class has more than
//!    one member, the first species of the smallest such class gets a fresh
//!    colour on the left, and each member of the class in turn gets it on
//!    the right, followed by refinement — a backtracking search that tries
//!    every possible image, so it misses no automorphism.
//! 3. Once every species is alone in its class, the classes define `σ`.
//!    Equitability already makes `σ` preserve every edge, so it maps the
//!    reaction multiset onto itself; an explicit check of exactly that is
//!    nevertheless the final gate before `σ` is reported.
//!
//! Species no reaction mentions and no role names never affect a
//! trajectory; they keep colours of their own and stay fixed.

use std::collections::BTreeMap;

use crate::compiled::{CompiledCrn, CompiledReaction};
use crate::function::FunctionCrn;

/// Largest input dimension the detector enumerates candidate permutations
/// for (`d!` candidates).
const MAX_SYMMETRY_DIM: usize = 6;

/// A species permutation that maps the reaction multiset onto itself and
/// fixes the output and leader species, as found by the symmetry detector.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Automorphism {
    species: Vec<usize>,
    skip: Vec<usize>,
}

impl Automorphism {
    /// The image of every species index.
    #[must_use]
    pub fn species(&self) -> &[usize] {
        &self.species
    }

    /// The induced input permutation in *skip orientation*: the point `y`
    /// with `y[k] = x[p[k]]` is equivalent to `x` — the automorphism maps
    /// `I_x` onto `I_y` — so the box driver may skip `x` whenever `y` is
    /// lexicographically smaller and carries the same expected output.
    #[must_use]
    pub fn inputs(&self) -> &[usize] {
        &self.skip
    }
}

/// A reaction in σ-comparable canonical form: sorted reactant and delta
/// lists.
type CanonicalReaction = (Vec<(usize, u64)>, Vec<(usize, i64)>);

/// Applies `sigma` to one reaction and returns its canonical form.
fn map_reaction(reaction: &CompiledReaction, sigma: &[usize]) -> CanonicalReaction {
    let mut reactants: Vec<(usize, u64)> = reaction
        .reactants()
        .iter()
        .map(|&(s, c)| (sigma[s], c))
        .collect();
    reactants.sort_unstable();
    let mut delta: Vec<(usize, i64)> = reaction
        .delta()
        .iter()
        .map(|&(s, d)| (sigma[s], d))
        .collect();
    delta.sort_unstable();
    (reactants, delta)
}

/// Whether `sigma` (a full species permutation) maps the reaction multiset
/// onto itself.
fn preserves_reactions(
    compiled: &CompiledCrn,
    canon: &[CanonicalReaction],
    sigma: &[usize],
) -> bool {
    let mut mapped: Vec<CanonicalReaction> = compiled
        .reactions()
        .iter()
        .map(|r| map_reaction(r, sigma))
        .collect();
    mapped.sort_unstable();
    mapped == canon
}

/// The species–reaction incidence graph: vertices `0..species` are species,
/// the rest reactions, and each vertex lists its `(edge label, neighbour)`
/// pairs.
struct Incidence {
    species: usize,
    offsets: Vec<usize>,
    adjacent: Vec<(u32, u32)>,
}

impl Incidence {
    fn of(compiled: &CompiledCrn, species: usize) -> Incidence {
        // (species, reactant coefficient, product coefficient) per reaction.
        let mentions: Vec<Vec<(usize, u64, i128)>> = compiled
            .reactions()
            .iter()
            .map(|reaction| {
                let mut row: Vec<(usize, u64, i128)> = reaction
                    .reactants()
                    .iter()
                    .map(|&(s, c)| (s, c, i128::from(c)))
                    .collect();
                for &(s, d) in reaction.delta() {
                    match row.iter_mut().find(|(t, _, _)| *t == s) {
                        Some((_, _, product)) => *product += i128::from(d),
                        None => row.push((s, 0, i128::from(d))),
                    }
                }
                row
            })
            .collect();
        let mut labels: BTreeMap<(u64, i128), u32> = BTreeMap::new();
        for &(_, rc, pc) in mentions.iter().flatten() {
            labels.insert((rc, pc), 0);
        }
        for (id, label) in labels.values_mut().enumerate() {
            *label = u32::try_from(id).expect("labels fit u32");
        }
        let vertex = |v: usize| u32::try_from(v).expect("incidence vertices fit u32");
        let mut lists: Vec<Vec<(u32, u32)>> = vec![Vec::new(); species + mentions.len()];
        for (r, row) in mentions.iter().enumerate() {
            for &(s, rc, pc) in row {
                let label = labels[&(rc, pc)];
                lists[s].push((label, vertex(species + r)));
                lists[species + r].push((label, vertex(s)));
            }
        }
        let mut offsets = vec![0];
        let mut adjacent = Vec::new();
        for list in lists {
            adjacent.extend(list);
            offsets.push(adjacent.len());
        }
        Incidence {
            species,
            offsets,
            adjacent,
        }
    }

    fn vertices(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Sorts the members of one colour class by their refinement signature,
    /// the sorted `(label, neighbour colour)` pairs around them: `sigs`
    /// receives `(start, end, vertex)` runs of `buf`, in signature order.
    fn sort_class(
        &self,
        members: &[u32],
        colours: &[u32],
        buf: &mut Vec<(u32, u32)>,
        sigs: &mut Vec<(usize, usize, u32)>,
    ) {
        buf.clear();
        sigs.clear();
        for &v in members {
            let v = v as usize;
            let start = buf.len();
            buf.extend(
                self.adjacent[self.offsets[v]..self.offsets[v + 1]]
                    .iter()
                    .map(|&(label, u)| (label, colours[u as usize])),
            );
            buf[start..].sort_unstable();
            sigs.push((start, buf.len(), v as u32));
        }
        sigs.sort_unstable_by(|x, y| buf[x.0..x.1].cmp(&buf[y.0..y.1]));
    }

    /// The equitable refinement of the role colouring: reactions, plain
    /// species, inputs, the output and the leader each form one class, and
    /// every species no reaction mentions and no role names is a class of
    /// its own.
    fn base_colours(&self, crn: &FunctionCrn) -> Vec<u32> {
        let inputs: Vec<usize> = crn.roles().inputs.iter().map(|s| s.index()).collect();
        let out = crn.output().index();
        let leader = crn.leader().map(|l| l.index());
        let mut base = vec![0u32; self.vertices()];
        for (s, colour) in base.iter_mut().enumerate().take(self.species) {
            let mentioned = self.offsets[s + 1] > self.offsets[s];
            *colour = if inputs.contains(&s) {
                2
            } else if s == out {
                3
            } else if Some(s) == leader {
                4
            } else if mentioned {
                1
            } else {
                5 + u32::try_from(s).expect("species fit u32")
            };
        }
        let mut mirror = base.clone();
        let refined = self.refine(&mut base, &mut mirror);
        debug_assert!(refined, "a colouring is isomorphic to itself");
        base
    }

    /// Refines `left` and `right` in lockstep to their coarsest equitable
    /// refinements: each round splits every class by the multiset of
    /// `(label, neighbour colour)` pairs around its members.  Colours are
    /// renumbered canonically — `0..k`, classes in order of their old colour
    /// and then of their signature — so equal colours mean the same class on
    /// both sides.  `false` when the two sides' classes stop matching in
    /// number or size: then no colour-preserving map from left to right
    /// exists.
    ///
    /// After the first round only *dirty* classes are examined, those with a
    /// member next to a vertex whose class split in the previous round (on
    /// either side): any other class saw the same neighbour classes as in
    /// the round before, when it did not split, so it cannot split now.
    fn refine(&self, left: &mut [u32], right: &mut [u32]) -> bool {
        if !canonical_colours(left, right) {
            return false;
        }
        let n = left.len();
        let (mut lbuf, mut rbuf) = (Vec::new(), Vec::new());
        let (mut lsigs, mut rsigs) = (Vec::new(), Vec::new());
        let (mut next_left, mut next_right) = (vec![0u32; n], vec![0u32; n]);
        // Per side, the vertices whose class split in the last round; `None`
        // before the first, which examines every class.
        let mut split: Option<[Vec<bool>; 2]> = None;
        loop {
            let (lmembers, starts) = classes(left);
            let (rmembers, _) = classes(right);
            let k = starts.len() - 1;
            let dirty = match &split {
                None => vec![true; k],
                Some(split) => {
                    let mut dirty = vec![false; k];
                    for (colours, split) in [(&*left, &split[0]), (&*right, &split[1])] {
                        for v in (0..n).filter(|&v| split[v]) {
                            for &(_, u) in &self.adjacent[self.offsets[v]..self.offsets[v + 1]] {
                                dirty[colours[u as usize] as usize] = true;
                            }
                        }
                    }
                    dirty
                }
            };
            let mut now_split = [vec![false; n], vec![false; n]];
            let mut next = 0u32;
            for c in 0..k {
                let (a, b) = (starts[c], starts[c + 1]);
                if b - a == 1 || !dirty[c] {
                    for (&l, &r) in lmembers[a..b].iter().zip(&rmembers[a..b]) {
                        next_left[l as usize] = next;
                        next_right[r as usize] = next;
                    }
                    next += 1;
                    continue;
                }
                self.sort_class(&lmembers[a..b], left, &mut lbuf, &mut lsigs);
                self.sort_class(&rmembers[a..b], right, &mut rbuf, &mut rsigs);
                let first = next;
                for (i, (l, r)) in lsigs.iter().zip(&rsigs).enumerate() {
                    let signature = &lbuf[l.0..l.1];
                    if signature != &rbuf[r.0..r.1] {
                        return false;
                    }
                    if i > 0 && signature != &lbuf[lsigs[i - 1].0..lsigs[i - 1].1] {
                        next += 1;
                    }
                    next_left[l.2 as usize] = next;
                    next_right[r.2 as usize] = next;
                }
                if next > first {
                    for (&l, &r) in lmembers[a..b].iter().zip(&rmembers[a..b]) {
                        now_split[0][l as usize] = true;
                        now_split[1][r as usize] = true;
                    }
                }
                next += 1;
            }
            left.copy_from_slice(&next_left);
            right.copy_from_slice(&next_right);
            if next as usize == k {
                return true;
            }
            split = Some(now_split);
        }
    }
}

/// Renumbers two colourings to `0..k` by the order of their colours, or
/// `false` when they do not use every colour equally often.
fn canonical_colours(left: &mut [u32], right: &mut [u32]) -> bool {
    let mut used = left.to_vec();
    used.sort_unstable();
    let mut mirror = right.to_vec();
    mirror.sort_unstable();
    if used != mirror {
        return false;
    }
    used.dedup();
    for c in left.iter_mut().chain(right.iter_mut()) {
        let class = used.binary_search(c).expect("every colour is listed");
        *c = u32::try_from(class).expect("colours fit u32");
    }
    true
}

/// The vertices of a canonical colouring grouped by colour, each group in
/// ascending vertex order, and where each group starts (one past the end
/// last).
fn classes(colours: &[u32]) -> (Vec<u32>, Vec<usize>) {
    let k = colours.iter().max().map_or(0, |&c| c as usize + 1);
    let mut starts = vec![0usize; k + 1];
    for &c in colours {
        starts[c as usize + 1] += 1;
    }
    for c in 0..k {
        starts[c + 1] += starts[c];
    }
    let mut fill = starts.clone();
    let mut members = vec![0u32; colours.len()];
    for (v, &c) in colours.iter().enumerate() {
        members[fill[c as usize]] = u32::try_from(v).expect("incidence vertices fit u32");
        fill[c as usize] += 1;
    }
    (members, starts)
}

/// The state of one candidate's search: the graph, the reaction multiset
/// the final gate compares against, and the compiled reactions.
struct Search<'a> {
    graph: &'a Incidence,
    compiled: &'a CompiledCrn,
    canon: &'a [CanonicalReaction],
}

impl Search<'_> {
    /// A species permutation mapping the equitable colouring `left` onto
    /// the equitable colouring `right`, if one exists: individualizes one
    /// species of the smallest non-singleton class against every candidate
    /// image in turn, refines, and recurses until every species is alone in
    /// its class.
    fn individualize(&self, left: &[u32], right: &[u32]) -> Option<Vec<usize>> {
        let species = self.graph.species;
        let fresh = left.iter().max().map_or(0, |&c| c + 1);
        let mut sizes = vec![0usize; fresh as usize];
        for &c in &left[..species] {
            sizes[c as usize] += 1;
        }
        // The smallest species class with more than one member, lowest
        // colour first.
        let target = (0..fresh)
            .filter(|&c| sizes[c as usize] > 1)
            .min_by_key(|&c| sizes[c as usize]);
        let Some(target) = target else {
            // Every species is alone in its class: the classes define σ.
            let mut image = vec![usize::MAX; fresh as usize];
            for (t, &c) in right[..species].iter().enumerate() {
                image[c as usize] = t;
            }
            let sigma: Vec<usize> = left[..species].iter().map(|&c| image[c as usize]).collect();
            return preserves_reactions(self.compiled, self.canon, &sigma).then_some(sigma);
        };
        let v = (0..species)
            .find(|&s| left[s] == target)
            .expect("the target class is nonempty");
        for w in (0..species).filter(|&s| right[s] == target) {
            let (mut l, mut r) = (left.to_vec(), right.to_vec());
            l[v] = fresh;
            r[w] = fresh;
            if self.graph.refine(&mut l, &mut r) {
                if let Some(sigma) = self.individualize(&l, &r) {
                    return Some(sigma);
                }
            }
        }
        None
    }
}

/// Detects the non-identity input permutations that extend to CRN
/// automorphisms fixing the output and leader species, one automorphism
/// per input permutation.
pub(crate) fn input_automorphisms(crn: &FunctionCrn, compiled: &CompiledCrn) -> Vec<Automorphism> {
    let d = crn.dim();
    if !(2..=MAX_SYMMETRY_DIM).contains(&d) {
        return Vec::new();
    }
    let stride = compiled.stride().max(crn.role_stride());
    let inputs: Vec<usize> = crn.roles().inputs.iter().map(|s| s.index()).collect();
    let graph = Incidence::of(compiled, stride);

    let base = graph.base_colours(crn);

    let mut canon: Vec<CanonicalReaction> = {
        let identity: Vec<usize> = (0..stride).collect();
        compiled
            .reactions()
            .iter()
            .map(|r| map_reaction(r, &identity))
            .collect()
    };
    canon.sort_unstable();
    let search = Search {
        graph: &graph,
        compiled,
        canon: &canon,
    };
    let fresh = base.iter().max().map_or(0, |&c| c + 1);

    let mut results: Vec<Automorphism> = Vec::new();
    let mut pi: Vec<usize> = (0..d).collect();
    permute_all(&mut pi, 0, &mut |pi| {
        if pi.iter().enumerate().all(|(j, &t)| j == t) {
            return; // identity
        }
        // Candidate: σ(input_j) = input_{pi[j]}.  Refinement of the
        // uncoloured graph must not have told the paired inputs apart.
        if pi
            .iter()
            .enumerate()
            .any(|(j, &t)| base[inputs[j]] != base[inputs[t]])
        {
            return;
        }
        let (mut left, mut right) = (base.clone(), base.clone());
        for (j, &t) in pi.iter().enumerate() {
            let colour = fresh + u32::try_from(j).expect("inputs fit u32");
            left[inputs[j]] = colour;
            right[inputs[t]] = colour;
        }
        if !graph.refine(&mut left, &mut right) {
            return;
        }
        if let Some(species) = search.individualize(&left, &right) {
            // Skip orientation: σ(I_x) = I_y with y[pi[j]] = x[j], i.e.
            // y[k] = x[pi⁻¹(k)].
            let mut skip = vec![0usize; d];
            for (j, &t) in pi.iter().enumerate() {
                skip[t] = j;
            }
            results.push(Automorphism { species, skip });
        }
    });
    results
}

/// Calls `visit` on every permutation of `items` (Heap's algorithm, the
/// recursive form).
fn permute_all(items: &mut Vec<usize>, k: usize, visit: &mut impl FnMut(&[usize])) {
    if k == items.len() {
        visit(items);
        return;
    }
    for i in k..items.len() {
        items.swap(k, i);
        permute_all(items, k + 1, visit);
        items.swap(k, i);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::crn::Crn;
    use crate::examples;

    /// The skip-orientation input permutations detected on `f`.
    fn skips(f: &FunctionCrn) -> Vec<Vec<usize>> {
        let compiled = CompiledCrn::compile(f.crn());
        input_automorphisms(f, &compiled)
            .into_iter()
            .map(|a| a.skip)
            .collect()
    }

    fn roles(reactions: &[&str], inputs: &[&str], output: &str) -> FunctionCrn {
        let mut crn = Crn::new();
        for reaction in reactions {
            crn.parse_reaction(reaction).unwrap();
        }
        crn.add_species(output);
        FunctionCrn::with_named_roles(crn, inputs, output, None).unwrap()
    }

    #[test]
    fn max_crn_has_the_input_swap() {
        assert_eq!(skips(&examples::max_crn()), vec![vec![1, 0]]);
    }

    #[test]
    fn min_crn_has_the_input_swap() {
        assert_eq!(skips(&examples::min_crn()), vec![vec![1, 0]]);
    }

    #[test]
    fn single_input_crns_have_no_orbits() {
        assert!(skips(&examples::double_crn()).is_empty());
    }

    #[test]
    fn asymmetric_reactions_defeat_the_swap() {
        // X1 -> Y but X2 -> 2Y: swapping the inputs changes the reaction
        // multiset, so no automorphism exists.
        let f = roles(&["X1 -> Y", "X2 -> 2Y"], &["X1", "X2"], "Y");
        assert!(skips(&f).is_empty());
    }

    #[test]
    fn symmetric_reactions_without_coupling_species_still_detect() {
        // X1 -> Y and X2 -> Y: the swap is an automorphism with no further
        // species to extend over.
        let f = roles(&["X1 -> Y", "X2 -> Y"], &["X1", "X2"], "Y");
        assert_eq!(skips(&f), vec![vec![1, 0]]);
    }

    /// `X_i` steps every species of `cycle` to the next one, catalytically.
    fn driven_cycle(input: &str, cycle: &[&str]) -> Vec<String> {
        (0..cycle.len())
            .map(|i| {
                let next = cycle[(i + 1) % cycle.len()];
                format!("{input} + {} -> {input} + {next}", cycle[i])
            })
            .collect()
    }

    #[test]
    fn locally_alike_inputs_of_different_cycles_are_not_swapped() {
        // X1 feeds a 6-cycle; X2 feeds one of two 3-cycles.  Around each
        // input the graph looks the same, but no automorphism swaps them.
        let mut fed: Vec<String> = vec!["X1 -> A1".into(), "X2 -> B1".into()];
        for cycle in [
            &["A1", "A2", "A3", "A4", "A5", "A6"][..],
            &["B1", "B2", "B3"],
            &["C1", "C2", "C3"],
        ] {
            for i in 0..cycle.len() {
                fed.push(format!("{} -> {}", cycle[i], cycle[(i + 1) % cycle.len()]));
            }
        }
        let fed: Vec<&str> = fed.iter().map(String::as_str).collect();
        assert!(skips(&roles(&fed, &["X1", "X2"], "Y")).is_empty());
        // The same cycles with X1 driving every step of the 6-cycle and X2
        // every step of both 3-cycles: refinement alone cannot tell the
        // inputs apart (every vertex class is regular), so only the
        // individualization search shows that no automorphism exists.
        let mut driven = driven_cycle("X1", &["A1", "A2", "A3", "A4", "A5", "A6"]);
        driven.extend(driven_cycle("X2", &["B1", "B2", "B3"]));
        driven.extend(driven_cycle("X2", &["C1", "C2", "C3"]));
        let driven: Vec<&str> = driven.iter().map(String::as_str).collect();
        let f = roles(&driven, &["X1", "X2"], "Y");
        let compiled = CompiledCrn::compile(f.crn());
        let base = Incidence::of(&compiled, compiled.stride()).base_colours(&f);
        let [x1, x2] = [0, 1].map(|j| f.roles().inputs[j].index());
        assert_eq!(base[x1], base[x2], "refinement separates X1 and X2");
        assert!(skips(&f).is_empty());
        // Two 6-cycles driven the same way do swap.
        let mut twins = driven_cycle("X1", &["A1", "A2", "A3", "A4", "A5", "A6"]);
        twins.extend(driven_cycle("X2", &["B1", "B2", "B3", "B4", "B5", "B6"]));
        let twins: Vec<&str> = twins.iter().map(String::as_str).collect();
        assert_eq!(skips(&roles(&twins, &["X1", "X2"], "Y")), vec![vec![1, 0]]);
    }
}
