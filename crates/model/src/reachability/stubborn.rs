//! Deadlock-preserving stubborn sets for the terminal scan.
//!
//! A CRN carrying the T-invariant acyclicity certificate is decided by its
//! reachable *terminal* configurations alone (see the engine's terminal
//! scan), so the scan may skip every firing that cannot lead to a terminal
//! configuration the other firings miss.  At each configuration with at
//! least two enabled reactions it expands only the enabled members of one
//! *strong stubborn set* (Valmari 1990, *Stubborn sets for reduced state
//! space generation*; Godefroid 1996, *Partial-Order Methods for the
//! Verification of Concurrent Systems*): the closure of the lowest-index
//! enabled reaction under two rules, both read off the signed net deltas.
//!
//! * An enabled member adds every reaction it *conflicts* with: `t` and `u`
//!   conflict when either one's net delta is negative on a reactant species
//!   of the other.
//! * A disabled member adds every *producer* of its lowest lacking species
//!   (the lowest species whose count is below its requirement): the
//!   reactions whose net delta on that species is positive.
//!
//! A seed that conflicts with no reaction is its own closure at every
//! configuration ([`StubbornSets::lone`]).  The terminal scan's run reads
//! that one lookup to fire such a seed in place without testing any other
//! reaction (in one burst, while it stays the seed, when no lower-index
//! reaction consumes what it changes), and stores nothing until it reaches
//! a configuration whose closure keeps two or more enabled reactions.
//!
//! # Soundness
//!
//! Let `T` be the closure at configuration `M` and `σ` a firing sequence
//! from `M` that uses no reaction of `T`.
//!
//! * **D0** — `T` holds an enabled reaction, its seed.
//! * **D1** — if `σ t` fires from `M` for some `t ∈ T`, then so does `t σ`,
//!   and both end at the same configuration.  A disabled `t` never fires
//!   after `σ`: every producer of the species it lacks is in `T`, so that
//!   count never rises along `σ`.  An enabled `t` lowers no reactant species
//!   of a reaction of `σ` (that reaction would conflict with `t` and be in
//!   `T`), so firing `t` first keeps every step of `σ` enabled, and counts
//!   add up in any order.
//! * **D2** — every enabled `t ∈ T` stays enabled along `σ`: a reaction that
//!   lowers a reactant species of `t` conflicts with `t`.
//!
//! Every terminal configuration `D` reachable from `M` by a sequence `ρ` is
//! then reachable from an expanded successor by a shorter one.  `ρ` fires
//! some reaction of `T`, or else the seed would still be enabled at `D`
//! (D2).  Split `ρ = σ t ρ'` at the first one: by D1, `t` is enabled at `M`
//! and the successor `M + Δt` reaches `D` by `σ ρ'`.  Induction on `|ρ|`
//! shows the reduced exploration reaches every reachable terminal
//! configuration, and by D0 every configuration it leaves unexpanded is
//! terminal.  The argument runs along a finite sequence *to a terminal
//! configuration*, so no cycle proviso is needed.  The same step moves an
//! infinite firing sequence to a successor (through the seed, by D1 and D2,
//! when the sequence avoids `T`), so on an acyclic CRN the reduced
//! exploration is finite exactly when the full one is: the reduction never
//! turns an unbounded space into a pass.
//!
//! The closure depends only on the configuration, never on discovery order
//! or on which worker expands it.

use crate::compiled::{CompiledCrn, CompiledReaction};

use super::csr::CsrGraph;

/// The per-CRN relations behind the stubborn-set closure.
pub(crate) struct StubbornSets {
    /// Row `t`: the reactions `u ≠ t` that conflict with `t`, ascending.
    conflicts: CsrGraph,
    /// Row `s`: the reactions whose net delta on species `s` is positive,
    /// ascending.
    producers: CsrGraph,
}

/// Reusable scratch of [`StubbornSets::reduce`]: per-reaction stamps, equal
/// to `epoch` for the configuration being reduced.
#[derive(Default)]
pub(super) struct Closure {
    enabled: Vec<u32>,
    member: Vec<u32>,
    epoch: u32,
    stack: Vec<usize>,
}

/// Whether `t`'s net delta is negative on a reactant species of `u`.
fn lowers(t: &CompiledReaction, u: &CompiledReaction) -> bool {
    t.delta()
        .iter()
        .any(|&(s, d)| d < 0 && u.reactants().iter().any(|&(r, _)| r == s))
}

impl StubbornSets {
    /// Builds the conflict and producer relations of `compiled`.
    pub(crate) fn of(compiled: &CompiledCrn) -> StubbornSets {
        let reactions = compiled.reactions();
        let mut conflicts = CsrGraph::default();
        for (i, t) in reactions.iter().enumerate() {
            for (j, u) in reactions.iter().enumerate() {
                if i != j && (lowers(t, u) || lowers(u, t)) {
                    conflicts.push_edge(j);
                }
            }
            conflicts.seal_node();
        }
        let mut producers = CsrGraph::default();
        for s in 0..compiled.stride() {
            for (j, u) in reactions.iter().enumerate() {
                if u.delta().iter().any(|&(x, d)| x == s && d > 0) {
                    producers.push_edge(j);
                }
            }
            producers.seal_node();
        }
        StubbornSets {
            conflicts,
            producers,
        }
    }

    /// Whether the closure seeded at the enabled reaction `seed` is `{seed}`
    /// at every configuration: no reaction conflicts with it.  One lookup,
    /// which lets the terminal scan fire the seed without testing any other
    /// reaction.
    pub(super) fn lone(&self, seed: usize) -> bool {
        self.conflicts.successors(seed).is_empty()
    }

    /// Narrows `enabled` — the enabled reactions of one configuration in
    /// ascending order, at least two — to the enabled members of the
    /// closure seeded at the first, keeping their order.  `lacking(r)` is
    /// the lowest species whose count is below the requirement of a
    /// disabled reaction `r`.
    pub(super) fn reduce(
        &self,
        enabled: &mut Vec<usize>,
        lacking: impl Fn(usize) -> usize,
        c: &mut Closure,
    ) {
        if self.lone(enabled[0]) {
            enabled.truncate(1);
            return;
        }
        let n = self.conflicts.node_count();
        if c.member.len() < n {
            c.member.resize(n, 0);
            c.enabled.resize(n, 0);
        }
        c.epoch = c.epoch.checked_add(1).unwrap_or_else(|| {
            c.member.fill(0);
            c.enabled.fill(0);
            1
        });
        let e = c.epoch;
        for &r in enabled.iter() {
            c.enabled[r] = e;
        }
        // Enabled reactions outside the closure so far: once none is left,
        // the closure prunes nothing and need not be finished.
        let mut outside = enabled.len() - 1;
        c.member[enabled[0]] = e;
        c.stack.clear();
        c.stack.push(enabled[0]);
        while let Some(r) = c.stack.pop() {
            let row = if c.enabled[r] == e {
                self.conflicts.successors(r)
            } else {
                self.producers.successors(lacking(r))
            };
            for &u in row {
                if c.member[u] != e {
                    c.member[u] = e;
                    if c.enabled[u] == e {
                        outside -= 1;
                        if outside == 0 {
                            return;
                        }
                    }
                    c.stack.push(u);
                }
            }
        }
        enabled.retain(|&r| c.member[r] == e);
    }
}
