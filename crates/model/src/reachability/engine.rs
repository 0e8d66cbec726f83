//! The state codec, its visitors, and the traversals that drive them.
//!
//! Every stored exploration of the engine is [`bfs`], a breadth-first
//! traversal over hash-interned count vectors ([`Hash`]): node ids are
//! discovery order.  Its visitors are [`CsrBuilder`] (the successor graph
//! behind full verdicts, built only by [`VerdictEngine::check`]) and
//! [`TerminalScan`] (the decision for certified-acyclic CRNs, whose sinks
//! are exactly the terminal configurations; it fires only stubborn sets,
//! see [`StubbornSets`]).
//!
//! A terminal scan starts with a *run* ([`TerminalScan::run`]), which
//! stores nothing: while a node's stubborn set is its seed alone, it fires
//! the seed in place on the loaded count vector.  When no lower-index
//! reaction consumes a species the seed changes, the seed stays the seed
//! until it is disabled, so the run fires it that often in one step, a
//! *burst*.  The reduced graph is a DAG, so the nodes of such a path are
//! exactly the ancestors of the current one and no successor can be one of
//! them.  Only at the first node that fires two or more reactions does the
//! scan store anything: that node becomes the start of a [`bfs`], whose
//! limit counts the path before it.
//!
//! The codec keeps count vectors in the [`ConfigArena`] of the [`Store`],
//! which finds a seen successor by its hash and names it by its
//! [`NodeId`].  [`VerdictEngine::decide`] takes the terminal scan exactly
//! when the CRN carries the acyclicity certificate, and otherwise the full
//! verdict of [`VerdictEngine::check`].  The traversals stay out of line,
//! one function per visitor, so each hot loop is compiled on its own.

use std::mem;

use crn_numeric::NVec;

use crate::analysis::CrnAnalysis;
use crate::compiled::{CompiledCrn, CompiledReaction};
use crate::crn::Crn;
use crate::error::CrnError;

use super::arena::{hash_counts, ConfigArena, NodeId};
use super::csr::CsrGraph;
use super::scc::Condensation;
use super::stubborn::{Closure, StubbornSets};
use super::{BoxCheckStats, StableComputationVerdict};

/// Counts one more node of an exploration after the `counted` so far — the
/// one place the configuration limit is enforced, for stored nodes and a
/// run's path alike.  The limit error is order-independent: it fires
/// exactly when the reachable set exceeds `limit` configurations.
fn admit(counted: usize, limit: usize) -> Result<(), CrnError> {
    if counted >= limit {
        return Err(CrnError::SearchLimitExceeded {
            limit: format!("{limit} reachable configurations"),
        });
    }
    assert!(
        counted < u32::MAX as usize,
        "explorations stay below 2^32 - 1 configurations"
    );
    Ok(())
}

/// How many more nodes [`admit`] counts one at a time after the `counted`
/// so far, up to and including the first it stops at: the most firings one
/// burst of the run makes before it counts the last of them.
fn room(counted: usize, limit: usize) -> u64 {
    u64::try_from(limit.min(u32::MAX as usize) - counted).expect("usize fits u64")
}

/// The memory the codec stores configurations in, kept across explorations
/// so a box sweep allocates only while its largest point grows the buffers.
#[derive(Default)]
struct Store {
    /// The stored count vectors and their index, whose collisions and
    /// grows the observability layer reports.
    arena: ConfigArena,
    /// The CSR builder's edge stamps, sized on demand.
    stamps: Vec<u32>,
    /// The loaded count vector, and a successor scratch.
    cur: Vec<u64>,
    succ: Vec<u64>,
}

/// What the codec learns by firing one enabled reaction on the loaded node.
enum Probe {
    /// The successor is stored already, as this node.
    Seen(NodeId),
    /// The successor is new; its index key is what [`Hash::insert`] needs.
    Unseen(u64),
}

/// Hash-interned count vectors, the engine's state codec: how one
/// exploration stores configurations, tells a seen successor from a new
/// one, and reads the output count of its *loaded* configuration — the
/// start on construction, stored or not.
struct Hash<'a> {
    /// Names the reaction and species of a count overflow.
    crn: &'a Crn,
    reactions: &'a [CompiledReaction],
    out: usize,
    s: &'a mut Store,
}

impl<'a> Hash<'a> {
    /// A codec with `start` loaded and nothing stored.
    fn new(
        crn: &'a Crn,
        compiled: &'a CompiledCrn,
        out: usize,
        s: &'a mut Store,
        start: &[u64],
    ) -> Self {
        s.cur.clear();
        s.cur.extend_from_slice(start);
        s.succ.clear();
        s.succ.resize(start.len(), 0);
        let reactions = compiled.reactions();
        Hash {
            crn,
            reactions,
            out,
            s,
        }
    }

    /// Records the edge `from → to`; `false` if `from` already emitted it.
    fn first_edge(&mut self, from: NodeId, to: NodeId) -> bool {
        let stamps = &mut self.s.stamps;
        if stamps.len() <= to.index() {
            stamps.resize(self.s.arena.len(), u32::MAX);
        }
        mem::replace(&mut stamps[to.index()], from.0) != from.0
    }

    /// The number of stored nodes.
    fn len(&self) -> usize {
        self.s.arena.len()
    }

    /// Empties the storage and stores the loaded configuration as node 0,
    /// the start of a [`bfs`].
    fn plant(&mut self) {
        let s = &mut *self.s;
        s.arena.reset(s.cur.len());
        s.arena.insert(hash_counts(&s.cur), &s.cur);
        s.stamps.clear();
    }

    /// Makes `v` the node later probes fire reactions on.
    fn load(&mut self, v: NodeId) {
        self.s.cur.copy_from_slice(self.s.arena.get(v.index()));
    }

    /// Whether reaction `r` applies to the loaded node.
    fn enabled(&self, r: usize) -> bool {
        self.reactions[r].applicable(&self.s.cur)
    }

    /// The lowest species whose count in the loaded node is below the
    /// requirement of the disabled reaction `r`.
    fn lacking(&self, r: usize) -> usize {
        self.reactions[r]
            .reactants()
            .iter()
            .find(|&&(s, c)| self.s.cur[s] < c)
            .expect("the reaction is disabled")
            .0
    }

    /// Fires the enabled reaction `r` on the loaded node into the successor
    /// scratch; a count the firing pushes past `u64::MAX` is an error,
    /// never a wrapped value.
    fn probe(&mut self, r: usize) -> Result<Probe, CrnError> {
        let s = &mut *self.s;
        self.reactions[r]
            .apply_into(&s.cur, &mut s.succ)
            .map_err(|species| self.crn.count_overflow(r, species))?;
        let key = hash_counts(&s.succ);
        Ok(match s.arena.lookup(key, &s.succ) {
            Some(id) => Probe::Seen(id),
            None => Probe::Unseen(key),
        })
    }

    /// Fires the enabled reaction `r` on the loaded configuration in place,
    /// as often as firing it one at a time while it stays enabled would, up
    /// to `cap` times, and returns how often.  An overflow comes with the
    /// firing that makes it, counting from 1, and the error of
    /// [`probe`](Self::probe).
    fn fire(&mut self, r: usize, cap: u64) -> Result<u64, (u64, CrnError)> {
        self.reactions[r]
            .apply_repeatedly(&mut self.s.cur, cap)
            .map_err(|(firing, species)| (firing, self.crn.count_overflow(r, species)))
    }

    /// Stores the successor the last probe found unseen, whose key is
    /// `key`, as the next node, and returns its id.
    fn insert(&mut self, key: u64) -> NodeId {
        self.s.arena.insert(key, &self.s.succ)
    }

    /// The output count of the loaded configuration.
    fn output(&self) -> u64 {
        self.s.cur[self.out]
    }
}

/// The visitor of a breadth-first traversal.
trait BfsVisitor {
    /// Narrows `enabled`, the ascending enabled reactions of the loaded node
    /// (at least two), to those the traversal fires; by default all.
    fn select(&mut self, _codec: &Hash<'_>, _enabled: &mut Vec<usize>) {}
    /// Sees the edge `from → to`, `to` possibly just inserted.
    fn edge(&mut self, codec: &mut Hash<'_>, from: NodeId, to: NodeId);
    /// Sees the loaded node `v` fully expanded (`terminal`: no reaction
    /// applies); `false` ends the traversal with `Ok(false)`.
    fn expanded(&mut self, codec: &Hash<'_>, v: NodeId, terminal: bool) -> bool;
}

/// Explores everything reachable from the codec's loaded configuration
/// breadth-first, storing it as the start: node ids are discovery order,
/// id 0 is the start.  Each node fires the enabled reactions the visitor
/// selects, in ascending order.  The limit counts the `before` nodes a run
/// passed through ahead of the start, plus every stored node.  `Ok(true)`
/// means every node reached, the start included, was expanded within
/// `limit` configurations; `Ok(false)` is the visitor's early stop, which
/// may pre-empt the limit error.
#[inline(never)] // one loop per visitor, out of the router's register pressure
fn bfs<V: BfsVisitor>(
    codec: &mut Hash<'_>,
    visitor: &mut V,
    limit: usize,
    before: usize,
) -> Result<bool, CrnError> {
    // The start is stored first and counts like any node.
    codec.plant();
    admit(before, limit)?;
    let reactions = codec.reactions.len();
    let mut enabled = Vec::with_capacity(reactions);
    let mut next = 0u32;
    while (next as usize) < codec.len() {
        let v = NodeId(next);
        codec.load(v);
        enabled.clear();
        enabled.extend((0..reactions).filter(|&r| codec.enabled(r)));
        let terminal = enabled.is_empty();
        if enabled.len() > 1 {
            visitor.select(codec, &mut enabled);
        }
        for &r in &enabled {
            let to = match codec.probe(r)? {
                Probe::Seen(to) => to,
                Probe::Unseen(key) => {
                    admit(before + codec.len(), limit)?;
                    codec.insert(key)
                }
            };
            visitor.edge(codec, v, to);
        }
        if !visitor.expanded(codec, v, terminal) {
            return Ok(false);
        }
        next += 1;
    }
    Ok(true)
}

/// Lays the successor graph out in CSR form as the BFS expands nodes in id
/// order, with duplicate edges suppressed by the codec's stamps.
struct CsrBuilder<'a>(&'a mut CsrGraph);

impl BfsVisitor for CsrBuilder<'_> {
    fn edge(&mut self, codec: &mut Hash<'_>, from: NodeId, to: NodeId) {
        if codec.first_edge(from, to) {
            self.0.push_edge(to.index());
        }
    }

    fn expanded(&mut self, _: &Hash<'_>, _: NodeId, _: bool) -> bool {
        self.0.seal_node();
        true
    }
}

/// The decision of a CRN carrying the T-invariant acyclicity certificate:
/// every reachability graph is a DAG, so the sink components are exactly
/// the terminal configurations and "every component recovers" collapses to
/// "every terminal configuration carries the expected output" — checked as
/// the BFS expands, with no edges, no condensation and no second pass.
/// Only terminal configurations matter, so each node fires just the enabled
/// members of one stubborn set, which keeps every reachable terminal
/// configuration reachable (see [`StubbornSets`]).
struct TerminalScan<'a> {
    expected: u64,
    compiled: &'a CompiledCrn,
    stubborn: &'a StubbornSets,
    closure: &'a mut Closure,
}

impl TerminalScan<'_> {
    /// The run: the reduced exploration from the codec's loaded
    /// configuration while it is a path, storing nothing.  At each node it
    /// finds the seed, the lowest-index enabled reaction, and fires it in
    /// place when the node's stubborn set is the seed alone; `*path` counts
    /// the path's nodes ahead of the loaded one.  `Ok(Some(_))` is the
    /// decision at a terminal configuration; `Ok(None)` stops at the first
    /// node that fires two or more reactions, loaded and counted, for a
    /// [`bfs`] to continue from with `before = *path`.
    ///
    /// The run is the scan's own [`bfs`] on a path: it fires before it
    /// counts the successor with [`admit`], so it returns the same result,
    /// the same error included, and counts the same nodes.  No successor
    /// needs a lookup: the reduced graph of a certified CRN is a DAG, and
    /// the nodes so far are exactly the ancestors of the current one.
    ///
    /// A lone seed whose firing enables no lower-index reaction (the first
    /// of its ascending [`CompiledCrn::dependents`] is not below it) is the
    /// seed again at the successor whenever it is still enabled there, so
    /// the run fires it in one *burst*, as often as one firing per node
    /// would: until it is disabled, or up to the firing whose node `admit`
    /// refuses, or up to the first firing that overflows.  That firing's
    /// error is the one a firing per node meets first, the overflow before
    /// the limit, so the burst changes no result and no count.
    fn run(
        &mut self,
        codec: &mut Hash<'_>,
        limit: usize,
        path: &mut usize,
    ) -> Result<Option<bool>, CrnError> {
        admit(0, limit)?;
        let reactions = codec.reactions.len();
        let mut enabled = Vec::new();
        loop {
            let Some(seed) = (0..reactions).find(|&r| codec.enabled(r)) else {
                // A bad terminal is a sink component whose closure is
                // itself, constant on the wrong output: it never recovers.
                return Ok(Some(codec.output() == self.expected));
            };
            let mut cap = 1;
            if self.stubborn.lone(seed) {
                if self
                    .compiled
                    .dependents(seed)
                    .first()
                    .map_or(true, |&r| r >= seed)
                {
                    cap = room(*path, limit);
                }
            } else {
                enabled.clear();
                enabled.push(seed);
                enabled.extend((seed + 1..reactions).filter(|&r| codec.enabled(r)));
                if enabled.len() > 1 {
                    self.stubborn
                        .reduce(&mut enabled, |r| codec.lacking(r), self.closure);
                    if enabled.len() > 1 {
                        return Ok(None);
                    }
                }
            }
            // Every firing of a burst but its last stays within `room`; the
            // last is counted as a single firing is.
            let fired = codec.fire(seed, cap).map_err(|(firing, e)| {
                *path += (firing - 1) as usize;
                e
            })?;
            *path += (fired - 1) as usize;
            admit(*path + 1, limit)?;
            *path += 1;
        }
    }
}

impl BfsVisitor for TerminalScan<'_> {
    fn select(&mut self, codec: &Hash<'_>, enabled: &mut Vec<usize>) {
        self.stubborn
            .reduce(enabled, |r| codec.lacking(r), self.closure);
    }

    fn edge(&mut self, _: &mut Hash<'_>, _: NodeId, _: NodeId) {}

    fn expanded(&mut self, codec: &Hash<'_>, _: NodeId, terminal: bool) -> bool {
        // As at a terminal of the run.
        !terminal || codec.output() == self.expected
    }
}

/// The terminal scan of the codec's loaded configuration: the run, and a
/// [`bfs`] from the node where it branches.  Returns the decision, the
/// configurations counted, and whether the run branched.  Without `run`,
/// the [`bfs`] starts at the loaded configuration itself.
#[inline(never)]
fn terminal_scan(
    codec: &mut Hash<'_>,
    scan: &mut TerminalScan<'_>,
    limit: usize,
    run: bool,
) -> (Result<bool, CrnError>, usize, bool) {
    if !run {
        return (bfs(codec, scan, limit, 0), codec.len(), false);
    }
    // The path nodes ahead of the loaded one; the loaded one counts too,
    // stored or not.
    let mut path = 0;
    match scan.run(codec, limit, &mut path) {
        Ok(Some(decision)) => (Ok(decision), path + 1, false),
        Ok(None) => (bfs(codec, scan, limit, path), path + codec.len(), true),
        Err(e) => (Err(e), path + 1, false),
    }
}

/// A reusable stable-computation checker for one CRN: the codec's store,
/// the CSR graph, condensation scratch and component arrays are recycled
/// across [`check`](VerdictEngine::check) calls.  The parallel box driver
/// gives each worker thread one engine, and every engine borrows the one
/// [`CrnAnalysis`] of the CRN, compiled reactions included.
///
/// [`check`](VerdictEngine::check) builds the full verdict on the
/// hash-interned BFS and reads nothing else of the analysis;
/// [`decide`](VerdictEngine::decide) additionally reads the acyclicity
/// certificate and the stubborn-set relations, and settles certified points
/// by a terminal scan.
pub(super) struct VerdictEngine<'c> {
    analysis: &'c CrnAnalysis<'c>,
    stride: usize,
    store: Store,
    /// The successor graph of the last full verdict.
    csr: CsrGraph,
    /// The terminal scan's stubborn-set scratch.
    closure: Closure,
    cond: Condensation,
    start_dense: Vec<u64>,
    comp_max: Vec<u64>,
    comp_min: Vec<u64>,
    comp_recovers: Vec<bool>,
    /// Pins the route of [`decide`](VerdictEngine::decide), so tests can
    /// run every route against the full verdict.
    #[cfg(test)]
    route_override: Option<tests::Route>,
    /// Starts every terminal scan's [`bfs`] at `I_x`, with no run, so tests
    /// can compare the run with the plain stubborn-set scan.
    #[cfg(test)]
    without_run: bool,
}

impl<'c> VerdictEngine<'c> {
    /// An engine on `analysis`'s CRN and compiled reactions.
    pub(super) fn new(analysis: &'c CrnAnalysis<'c>) -> Self {
        let (crn, compiled) = (analysis.crn(), analysis.compiled());
        // The stride must cover every species the check can touch: the
        // compiled stride spans the CRN's own set plus any foreign species a
        // reaction sneaks in (`add_reaction` does not validate membership),
        // and the role stride covers the species the start configuration is
        // built from.
        let stride = compiled.stride().max(crn.role_stride());
        VerdictEngine {
            analysis,
            stride,
            store: Store::default(),
            csr: CsrGraph::default(),
            closure: Closure::default(),
            cond: Condensation::empty(),
            start_dense: Vec::new(),
            comp_max: Vec::new(),
            comp_min: Vec::new(),
            comp_recovers: Vec::new(),
            #[cfg(test)]
            route_override: None,
            #[cfg(test)]
            without_run: false,
        }
    }

    /// `(collisions, grows)` of the engine's index, cumulative over its
    /// lifetime and every route — the observability layer's dedup metrics.
    pub(super) fn index_metrics(&self) -> (u64, u64) {
        self.store.arena.metrics()
    }

    /// Builds the initial configuration `I_x` densely into `start_dense`:
    /// input counts plus one leader.  Roles are validated distinct, so plain
    /// stores suffice.  An input of the wrong arity is an error.
    fn build_start(&mut self, x: &NVec) -> Result<(), CrnError> {
        let crn = self.analysis.crn();
        if x.dim() != crn.dim() {
            return Err(CrnError::DimensionMismatch {
                expected: crn.dim(),
                actual: x.dim(),
            });
        }
        self.start_dense.clear();
        self.start_dense.resize(self.stride, 0);
        for (i, species) in crn.roles().inputs.iter().enumerate() {
            self.start_dense[species.index()] = x[i];
        }
        if let Some(leader) = crn.leader() {
            self.start_dense[leader.index()] += 1;
        }
        Ok(())
    }

    /// Whether [`decide`](VerdictEngine::decide) takes the terminal scan:
    /// exactly when the CRN carries the acyclicity certificate.
    fn scans(&self) -> bool {
        #[cfg(test)]
        if let Some(route) = self.route_override {
            return route == tests::Route::Scan;
        }
        self.analysis.acyclic()
    }

    /// Whether terminal scans start with a run.
    fn runs(&self) -> bool {
        #[cfg(test)]
        if self.without_run {
            return false;
        }
        true
    }

    /// Decides whether the CRN stably computes `expected_output` on `x` —
    /// the `correct` flag [`check`](VerdictEngine::check) would report.  A
    /// point without the acyclicity certificate takes the full verdict.  A
    /// certified point takes the stubborn-set terminal scan, which
    /// materializes no verdict: `Ok(true)` certifies the point passes with
    /// the scan within the limit, though the scan visits fewer
    /// configurations than `check`, which may still give up on the point;
    /// `Ok(false)` certifies the full check fails or errors, and may come
    /// early, pre-empting the limit error.  The work is counted into
    /// `stats`.
    pub(super) fn decide(
        &mut self,
        x: &NVec,
        expected_output: u64,
        max_configurations: usize,
        stats: &mut BoxCheckStats,
    ) -> Result<bool, CrnError> {
        self.build_start(x)?;
        stats.decided += 1;
        let (result, explored) = if self.scans() {
            self.scan(expected_output, max_configurations, stats)
        } else {
            let verdict = self.verdict(x, expected_output, max_configurations);
            (verdict.map(|v| v.correct), self.store.arena.len())
        };
        stats.configs_explored += u64::try_from(explored).expect("usize fits u64");
        result
    }

    /// Runs the terminal scan from the built `I_x`; returns the decision
    /// and the number of configurations visited, and counts a run that
    /// branched into `stats`.
    fn scan(
        &mut self,
        expected: u64,
        limit: usize,
        stats: &mut BoxCheckStats,
    ) -> (Result<bool, CrnError>, usize) {
        let run = self.runs();
        let (crn, compiled) = (self.analysis.crn(), self.analysis.compiled());
        let scan = &mut TerminalScan {
            expected,
            compiled,
            stubborn: self.analysis.stubborn(),
            closure: &mut self.closure,
        };
        let out = crn.output().index();
        let mut codec = Hash::new(crn.crn(), compiled, out, &mut self.store, &self.start_dense);
        let (result, visited, branched) = terminal_scan(&mut codec, scan, limit, run);
        stats.branched += u64::from(branched);
        (result, visited)
    }

    /// Checks whether the CRN stably computes `expected_output` on `x`.
    /// Equivalent to [`super::check_stable_computation`] (which is this, run
    /// on a fresh engine).  This is the one exploration that builds the
    /// successor graph: everything reachable from `I_x`, breadth-first into
    /// the arena and the CSR graph, so ids — and the configuration a failure
    /// message names — are discovery order.
    pub(super) fn check(
        &mut self,
        x: &NVec,
        expected_output: u64,
        max_configurations: usize,
    ) -> Result<StableComputationVerdict, CrnError> {
        self.build_start(x)?;
        self.verdict(x, expected_output, max_configurations)
    }

    /// The full verdict of [`check`](VerdictEngine::check) from the built
    /// `I_x`.
    fn verdict(
        &mut self,
        x: &NVec,
        expected_output: u64,
        max_configurations: usize,
    ) -> Result<StableComputationVerdict, CrnError> {
        self.csr.reset();
        // The CSR builder reads no outputs, so any output index will do.
        let (crn, compiled) = (self.analysis.crn().crn(), self.analysis.compiled());
        let mut codec = Hash::new(crn, compiled, 0, &mut self.store, &self.start_dense);
        bfs(
            &mut codec,
            &mut CsrBuilder(&mut self.csr),
            max_configurations,
            0,
        )?;
        self.cond.rebuild(&self.csr);

        let arena = &self.store.arena;
        let csr = &self.csr;
        let cond = &self.cond;
        let out_idx = self.analysis.crn().output().index();
        let out_of = |v: usize| arena.get(v)[out_idx];

        // Every configuration of a strongly connected component reaches the
        // same closure, so all three verdict queries are per-component, each
        // one reverse-topological fold over the condensation.
        let k = cond.component_count();
        cond.fold_into(csr, u64::MIN, out_of, u64::max, &mut self.comp_max);
        cond.fold_into(csr, u64::MAX, out_of, u64::min, &mut self.comp_min);
        let comp_max = &self.comp_max;
        let comp_min = &self.comp_min;

        // A component is *stable* when the output count can never change
        // again anywhere in its closure; all its configurations then carry
        // the single output value `comp_max[c]`.  A component *recovers* when
        // it is itself stable-with-the-expected-output or reaches a component
        // that recovers.
        cond.fold_into(
            csr,
            false,
            |v| {
                let c = cond.component_of(v);
                comp_max[c] == comp_min[c] && comp_max[c] == expected_output
            },
            |a, b| a || b,
            &mut self.comp_recovers,
        );
        let comp_recovers = &self.comp_recovers;
        let all_recover = comp_recovers.iter().all(|&r| r);

        let mut stable_outputs: Vec<u64> = (0..k)
            .filter(|&c| comp_max[c] == comp_min[c])
            .map(|c| comp_max[c])
            .collect();
        stable_outputs.sort_unstable();
        stable_outputs.dedup();

        let failure = if all_recover {
            None
        } else {
            let bad = (0..arena.len())
                .find(|&v| !comp_recovers[cond.component_of(v)])
                .expect("some bad index");
            Some(format!(
                "configuration {} cannot reach a stable configuration with output {}",
                arena
                    .sparse(bad)
                    .display(self.analysis.crn().crn().species()),
                expected_output
            ))
        };

        Ok(StableComputationVerdict {
            input: x.clone(),
            expected_output,
            correct: all_recover,
            reachable_configurations: arena.len(),
            max_output_reachable: comp_max[cond.component_of(0)],
            stable_outputs,
            failure,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::crn::Crn;
    use crate::function::FunctionCrn;
    use crate::reachability::arena::mix;
    use crate::reachability::check_stable_computation;
    use crate::reachability::oracle::check_stable_computation_naive;
    use crate::reaction::Reaction;
    use crate::species::Species;
    use proptest::prelude::*;

    /// How [`VerdictEngine::decide`] settles one point, when a test pins it.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub(super) enum Route {
        /// The stubborn-set terminal scan.
        Scan,
        /// The full verdict of [`VerdictEngine::check`].
        Verdict,
    }

    /// Every route `decide` can take.
    const ROUTES: [Route; 2] = [Route::Scan, Route::Verdict];

    /// Whether `route` can decide points of `engine`'s CRN: the terminal
    /// scan needs the acyclicity certificate.
    fn admissible(engine: &VerdictEngine<'_>, route: Route) -> bool {
        route == Route::Verdict || engine.analysis.acyclic()
    }

    /// Decides every point of `[0, bound]` on every admissible route and
    /// compares with the per-point reference, a fresh
    /// [`check_stable_computation`] at each point: `Ok(true)` exactly when
    /// the reference verdict is correct, otherwise a reference failure or
    /// the identical error.  The one exception is a stubborn-set scan, which
    /// visits fewer configurations than the reference: it may pass a point
    /// past the limit, and the reference must then pass it at a raised
    /// limit.
    fn routes_match_reference(crn: &FunctionCrn, f: impl Fn(&NVec) -> u64, bound: u64) {
        const LIMIT: usize = 300;
        const RAISED: usize = 300_000;
        let reference =
            |x: &NVec, expected, limit| check_stable_computation(crn, x, expected, limit);
        let analysis = CrnAnalysis::of(crn);
        for route in ROUTES {
            let scan = route == Route::Scan;
            let mut engine = VerdictEngine::new(&analysis);
            if !admissible(&engine, route) {
                continue;
            }
            engine.route_override = Some(route);
            let mut stats = BoxCheckStats::default();
            for x in NVec::box_iter(crn.dim(), bound) {
                let expected = f(&x);
                let decided = engine.decide(&x, expected, LIMIT, &mut stats);
                match (decided, reference(&x, expected, LIMIT)) {
                    (Ok(decision), Ok(verdict)) => {
                        prop_assert_eq!(decision, verdict.is_correct(), "{:?} at {}", route, x);
                    }
                    (Ok(true), Err(_)) => {
                        prop_assert!(scan, "{:?} passed {} past the limit", route, x);
                        let raised = reference(&x, expected, RAISED);
                        prop_assert!(
                            matches!(&raised, Ok(v) if v.is_correct()),
                            "{:?} passed {} but the reference says {:?}",
                            route,
                            x,
                            raised
                        );
                    }
                    (Ok(false), Err(_)) => {}
                    (Err(e), truth) => {
                        prop_assert_eq!(Some(e), truth.err(), "{:?} at {}", route, x);
                    }
                }
            }
        }
    }

    #[test]
    fn the_limit_counts_the_start_on_every_route() {
        // `X -> Y` at x = 0: the start is terminal and all there is.
        let mut crn = Crn::new();
        crn.parse_reaction("X -> Y").unwrap();
        let crn = FunctionCrn::with_named_roles(crn, &["X"], "Y", None).unwrap();
        let analysis = CrnAnalysis::of(&crn);
        let x = NVec::from(vec![0]);
        let too_many = Err(CrnError::SearchLimitExceeded {
            limit: "0 reachable configurations".to_owned(),
        });
        for route in ROUTES {
            let mut engine = VerdictEngine::new(&analysis);
            assert!(admissible(&engine, route), "{route:?}");
            engine.route_override = Some(route);
            let mut stats = BoxCheckStats::default();
            let mut decide = |limit| engine.decide(&x, 0, limit, &mut stats);
            assert_eq!(decide(0), too_many, "{route:?}");
            assert_eq!(decide(1), Ok(true), "{route:?}");
        }
        let check = |limit| check_stable_computation(&crn, &x, 0, limit).map(|v| v.correct);
        assert_eq!(check(0), too_many);
        assert_eq!(check(1), Ok(true));
        let naive = |limit| check_stable_computation_naive(&crn, &x, 0, limit).map(|v| v.correct);
        assert_eq!(naive(0), too_many);
        assert_eq!(naive(1), Ok(true));
    }

    #[test]
    fn every_scan_codec_fires_the_same_stubborn_sets() {
        // At I_(x, c) the seed `X -> Y` conflicts with the disabled
        // `X + A + B -> Y`, which lacks A and B.  Its lowest lacking species
        // is A, whose producer `C -> A` joins the closure: nothing is pruned.
        // A scan that named B instead (nothing produces B) would prune
        // `C -> A` and count 27 configurations over the box, not 33.
        let mut crn = Crn::new();
        for reaction in ["X -> Y", "X + A + B -> Y", "C -> A"] {
            crn.parse_reaction(reaction).unwrap();
        }
        let crn = FunctionCrn::with_named_roles(crn, &["X", "C"], "Y", None).unwrap();
        let analysis = CrnAnalysis::of(&crn);
        assert!(analysis.acyclic());
        routes_match_reference(&crn, |x| x[0], 2);
        let counted: u64 = NVec::box_iter(2, 2)
            .map(|x| decide_both_ways(&analysis, &x, x[0], 100).1)
            .sum();
        assert_eq!(counted, 33);
    }

    #[test]
    fn an_overflowing_t_semiflow_certifies_nothing() {
        // The cycle closes only after E -> 0 fires 2^128 times per 0 -> A:
        // its T-semiflow does not fit i128, so the enumeration is truncated
        // and the CRN is not certified acyclic.
        let mut crn = Crn::new();
        for reaction in [
            "0 -> A",
            "A -> 4294967296B",
            "B -> 4294967296C",
            "C -> 4294967296D",
            "D -> 4294967296E",
            "E -> 0",
        ] {
            crn.parse_reaction(reaction).unwrap();
        }
        let crn = FunctionCrn::with_named_roles(crn, &["A"], "E", None).expect("valid roles");
        assert!(!CrnAnalysis::of(&crn).acyclic());
    }

    /// A CRN over `{X, Y, Z}` from sampled stoichiometries: input `X`,
    /// output `Y`.
    fn random_crn(stoich: &[Vec<u64>]) -> FunctionCrn {
        crn_over(&["X", "Y", "Z"], stoich)
    }

    /// A CRN over the species `names` (which include `X` and `Y`) from
    /// stoichiometry rows, each the reactant counts followed by the product
    /// counts: input `X`, output `Y`.
    fn crn_over(names: &[&str], stoich: &[Vec<u64>]) -> FunctionCrn {
        let mut crn = Crn::new();
        let species: Vec<Species> = names.iter().map(|n| crn.add_species(n)).collect();
        let n = species.len();
        for row in stoich {
            let side = |counts: &[u64]| -> Vec<(Species, u64)> {
                species
                    .iter()
                    .copied()
                    .zip(counts.iter().copied())
                    .collect()
            };
            crn.add_reaction(Reaction::new(side(&row[..n]), side(&row[n..])));
        }
        FunctionCrn::with_named_roles(crn, &["X"], "Y", None).expect("valid roles")
    }

    /// `X -> A; A -> Y; A -> Z` over `{X, Y, Z, A}`: nothing conflicts with
    /// `X -> A`, so the run fires it once per copy of `X` and then branches
    /// at the conflicting pair `A -> Y`, `A -> Z`.
    const CHAIN_THEN_PAIR: [[u64; 8]; 3] = [
        [1, 0, 0, 0, 0, 0, 0, 1],
        [0, 0, 0, 1, 0, 1, 0, 0],
        [0, 0, 0, 1, 0, 0, 1, 0],
    ];

    /// A scan engine that starts with the run, or without it.
    fn scan_engine<'c>(analysis: &'c CrnAnalysis<'c>, run: bool) -> VerdictEngine<'c> {
        let mut engine = VerdictEngine::new(analysis);
        engine.route_override = Some(Route::Scan);
        engine.without_run = !run;
        engine
    }

    /// One decision of `x` on fresh scan engines, with and without the run:
    /// both must return the same result, the error included, and count the
    /// same configurations.  Returns that result and count, and the
    /// configurations stored with the run and without it.
    fn decide_both_ways(
        analysis: &CrnAnalysis<'_>,
        x: &NVec,
        expected: u64,
        limit: usize,
    ) -> (Result<bool, CrnError>, u64, [usize; 2]) {
        let [with_run, plain] = [true, false].map(|run| {
            let mut engine = scan_engine(analysis, run);
            let mut stats = BoxCheckStats::default();
            let result = engine.decide(x, expected, limit, &mut stats);
            (result, stats.configs_explored, engine.store.arena.len())
        });
        assert_eq!(with_run.0, plain.0, "at {x}, limit {limit}");
        assert_eq!(with_run.1, plain.1, "at {x}, limit {limit}");
        (with_run.0, with_run.1, [with_run.2, plain.2])
    }

    /// Decides every point of `[0, bound]` on one scan engine with the run
    /// and one without, which must agree point by point on the result, the
    /// error included, and on the configurations counted.  Returns the
    /// points whose run branched.
    fn run_matches_plain_scan(
        crn: &FunctionCrn,
        f: impl Fn(&NVec) -> u64,
        bound: u64,
        limit: usize,
    ) -> u64 {
        let analysis = CrnAnalysis::of(crn);
        let mut with_run = scan_engine(&analysis, true);
        let mut plain = scan_engine(&analysis, false);
        let (mut ran, mut scanned) = (BoxCheckStats::default(), BoxCheckStats::default());
        for x in NVec::box_iter(crn.dim(), bound) {
            let expected = f(&x);
            let decided = with_run.decide(&x, expected, limit, &mut ran);
            let reference = plain.decide(&x, expected, limit, &mut scanned);
            assert_eq!(decided, reference, "at {x}, limit {limit}");
            let counted = BoxCheckStats {
                branched: ran.branched,
                ..scanned
            };
            assert_eq!(ran, counted, "at {x}, limit {limit}");
        }
        assert_eq!(scanned.branched, 0, "no run, no branch");
        ran.branched
    }

    #[test]
    fn a_run_stores_only_the_space_from_its_branch() {
        // At x = 3 the run passes {3X}, {2X, A} and {X, 2A} (in one burst of
        // `X -> A`) and branches at {3A}.  The scan stores {3A} and its
        // descendants, ten splits of three between A, Y and Z, of the 13
        // configurations both ways count.
        let crn = crn_over(&["X", "Y", "Z", "A"], &CHAIN_THEN_PAIR.map(Vec::from));
        let analysis = CrnAnalysis::of(&crn);
        assert!(analysis.acyclic());
        let x = NVec::from(vec![3]);
        // {2Y, Z} is a terminal with the wrong output.
        assert_eq!(
            decide_both_ways(&analysis, &x, 3, 100),
            (Ok(false), 13, [10, 13])
        );
        assert_eq!(run_matches_plain_scan(&crn, |x| x[0], 6, 1_000), 6);
        // `X -> Y` is one path from every start: nothing is ever stored.
        let chain = crn_over(&["X", "Y"], &[vec![1, 0, 0, 1]]);
        let analysis = CrnAnalysis::of(&chain);
        let decided = decide_both_ways(&analysis, &NVec::from(vec![5]), 5, 100);
        assert_eq!(decided, (Ok(true), 6, [0, 6]));
    }

    #[test]
    fn a_limit_cuts_the_run_and_the_scan_after_it_as_it_cuts_the_plain_scan() {
        let too_many = |limit: usize| {
            Err(CrnError::SearchLimitExceeded {
                limit: format!("{limit} reachable configurations"),
            })
        };
        // `X -> Y` at x = 5: a path of six configurations, all counted by the
        // run.  Every limit below six gives up, having counted the limit (and
        // the start, at a limit of 0).
        let chain = crn_over(&["X", "Y"], &[vec![1, 0, 0, 1]]);
        let analysis = CrnAnalysis::of(&chain);
        let x = NVec::from(vec![5]);
        for limit in 0..=7 {
            let (result, counted, _) = decide_both_ways(&analysis, &x, 5, limit);
            if limit < 6 {
                assert_eq!(result, too_many(limit), "limit {limit}");
                assert_eq!(counted, limit.max(1) as u64, "limit {limit}");
            } else {
                assert_eq!((result, counted), (Ok(true), 6), "limit {limit}");
            }
        }
        // The chain in front of the pair at x = 4: a path of four
        // configurations before the branch at {4A}, then 15 configurations
        // of the stored scan, whose limit counts the path too.
        let crn = crn_over(&["X", "Y", "Z", "A"], &CHAIN_THEN_PAIR.map(Vec::from));
        let analysis = CrnAnalysis::of(&crn);
        let x = NVec::from(vec![4]);
        for limit in 0..=20 {
            let (result, counted, _) = decide_both_ways(&analysis, &x, 2, limit);
            if limit < 19 {
                assert_eq!(result, too_many(limit), "limit {limit}");
                assert_eq!(counted, limit.max(1) as u64, "limit {limit}");
            } else {
                assert_eq!((result, counted), (Ok(false), 19), "limit {limit}");
            }
        }
    }

    #[test]
    fn an_overflow_at_the_limit_wins_on_both_paths() {
        // `X -> (2^63 - 1) Y` at x = 3: the third firing would push Y past
        // u64::MAX.  At a limit of 3, the configuration it would make is the
        // one the limit refuses, but both paths fire before they count, so
        // both report the overflow; a limit of 2 refuses the configuration
        // before it.
        let mut crn = Crn::new();
        crn.parse_reaction("X -> 9223372036854775807 Y").unwrap();
        let crn = FunctionCrn::with_named_roles(crn, &["X"], "Y", None).unwrap();
        let analysis = CrnAnalysis::of(&crn);
        let x = NVec::from(vec![3]);
        let overflow = Err(CrnError::CountOverflow {
            reaction: "X -> 9223372036854775807Y".into(),
            species: "Y".into(),
        });
        let decide = |limit| decide_both_ways(&analysis, &x, 0, limit);
        assert_eq!(decide(3), (overflow.clone(), 3, [0, 3]));
        assert_eq!(decide(4), (overflow, 3, [0, 3]));
        let (refused, counted, _) = decide(2);
        assert!(matches!(refused, Err(CrnError::SearchLimitExceeded { .. })));
        assert_eq!(counted, 2);
    }

    #[test]
    fn a_lone_seed_that_enables_a_lower_reaction_fires_once_per_node() {
        // `A -> Y; X -> A; A -> Z`: nothing conflicts with `X -> A`, but it
        // feeds the lower-index `A -> Y`, which is the seed at its successor.
        // A burst of `X -> A` would skip the nodes where `A -> Y` and
        // `A -> Z` branch, and count fewer configurations than the plain
        // scan.
        let crn = crn_over(
            &["X", "Y", "Z", "A"],
            &[
                vec![0, 0, 0, 1, 0, 1, 0, 0],
                vec![1, 0, 0, 0, 0, 0, 0, 1],
                vec![0, 0, 0, 1, 0, 0, 1, 0],
            ],
        );
        let analysis = CrnAnalysis::of(&crn);
        assert!(analysis.acyclic());
        assert!(analysis.stubborn().lone(1));
        for x in 0..=4 {
            let x = NVec::from(vec![x]);
            for limit in 0..=30 {
                for expected in [0, x[0]] {
                    // The run and the plain scan agree, or this panics.
                    let _ = decide_both_ways(&analysis, &x, expected, limit);
                }
            }
        }
        // At x = 2 the run branches at {X, A}, before its second firing of
        // `X -> A`, and the scan counts 9 configurations.
        let (_, counted, [stored, _]) = decide_both_ways(&analysis, &NVec::from(vec![2]), 0, 100);
        assert_eq!((counted, stored), (9, 8));
    }

    #[test]
    fn a_burst_names_the_first_species_of_its_overflowing_firing() {
        // `X -> (2^63 - 1) Y + (2^63 - 1) Z` at x = 3: both products pass
        // u64::MAX at the third firing, and firing one at a time meets Y
        // first.  The burst of all three firings makes the same error, and
        // below a limit of 3 the limit comes first.
        let mut crn = Crn::new();
        crn.parse_reaction("X -> 9223372036854775807 Y + 9223372036854775807 Z")
            .unwrap();
        let crn = FunctionCrn::with_named_roles(crn, &["X"], "Y", None).unwrap();
        let analysis = CrnAnalysis::of(&crn);
        let x = NVec::from(vec![3]);
        for limit in 0..=5 {
            let (result, counted, _) = decide_both_ways(&analysis, &x, 0, limit);
            if limit < 3 {
                assert!(
                    matches!(result, Err(CrnError::SearchLimitExceeded { .. })),
                    "limit {limit}: {result:?}"
                );
                assert_eq!(counted, limit.max(1) as u64, "limit {limit}");
            } else {
                let overflow = Err(CrnError::CountOverflow {
                    reaction: "X -> 9223372036854775807Y + 9223372036854775807Z".into(),
                    species: "Y".into(),
                });
                assert_eq!((result, counted), (overflow, 3), "limit {limit}");
            }
        }
    }

    /// Collects the terminal configurations a hash-coded BFS reaches,
    /// firing only stubborn sets when `stubborn` is given.
    struct Terminals<'a> {
        stubborn: Option<(&'a StubbornSets, Closure)>,
        found: Vec<Vec<u64>>,
    }

    impl BfsVisitor for Terminals<'_> {
        fn select(&mut self, codec: &Hash<'_>, enabled: &mut Vec<usize>) {
            if let Some((table, closure)) = &mut self.stubborn {
                table.reduce(enabled, |r| codec.lacking(r), closure);
            }
        }

        fn edge(&mut self, _: &mut Hash<'_>, _: NodeId, _: NodeId) {}

        fn expanded(&mut self, codec: &Hash<'_>, _: NodeId, terminal: bool) -> bool {
            if terminal {
                self.found.push(codec.s.cur.clone());
            }
            true
        }
    }

    /// Sorted terminal configurations, and the configurations stored.
    type TerminalRun = (Vec<Vec<u64>>, usize);

    /// The terminal run of a BFS from `start`, reduced by `stubborn` when
    /// given.
    fn terminals(
        analysis: &CrnAnalysis<'_>,
        start: &[u64],
        stubborn: Option<&StubbornSets>,
    ) -> Result<TerminalRun, CrnError> {
        let mut store = Store::default();
        let (crn, compiled) = (analysis.crn().crn(), analysis.compiled());
        let mut codec = Hash::new(crn, compiled, 0, &mut store, start);
        let mut visitor = Terminals {
            stubborn: stubborn.map(|table| (table, Closure::default())),
            found: Vec::new(),
        };
        bfs(&mut codec, &mut visitor, 20_000, 0)?;
        visitor.found.sort_unstable();
        Ok((visitor.found, codec.len()))
    }

    /// A random forced-acyclic CRN over eight species `S0..S7` with sparse
    /// reactions — one or two reactant species, up to three products, some
    /// catalysts — and a start configuration, all drawn from `seed`.  Every
    /// kept reaction strictly lowers the weighting `Σ (s + 1) · c(s)`, so no
    /// firing sequence returns to its start.
    fn sparse_acyclic_crn(seed: u64) -> (FunctionCrn, Vec<u64>) {
        let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        let mut draw = |n: u64| {
            state = state.wrapping_add(1);
            mix(state) % n
        };
        let mut crn = Crn::new();
        let species: Vec<Species> = (0..8).map(|i| crn.add_species(&format!("S{i}"))).collect();
        let weight = |side: &[(Species, u64)]| -> u64 {
            side.iter().map(|&(s, c)| (s.index() as u64 + 1) * c).sum()
        };
        for _ in 0..2 + draw(7) {
            let mut reactants = vec![(species[draw(8) as usize], 1 + draw(2))];
            if draw(2) == 1 {
                reactants.push((species[draw(8) as usize], 1 + draw(2)));
            }
            let mut products: Vec<(Species, u64)> = (0..draw(4))
                .map(|_| (species[draw(8) as usize], 1 + draw(2)))
                .collect();
            if draw(3) == 0 {
                products.push(reactants[0]);
            }
            if weight(&products) < weight(&reactants) {
                crn.add_reaction(Reaction::new(reactants, products));
            }
        }
        let start = (0..8).map(|_| draw(3)).collect();
        let crn = FunctionCrn::with_named_roles(crn, &["S0"], "S1", None).expect("valid roles");
        (crn, start)
    }

    /// The reduced and full runs of `sparse_acyclic_crn(seed)`, or `None`
    /// when the full space exceeds the test limit.
    fn reduced_and_full(seed: u64) -> Option<(TerminalRun, TerminalRun)> {
        let (crn, start) = sparse_acyclic_crn(seed);
        let analysis = CrnAnalysis::of(&crn);
        assert!(
            analysis.acyclic(),
            "seed {seed}: the weighting certifies acyclicity"
        );
        let full = terminals(&analysis, &start, None).ok()?;
        let reduced = terminals(&analysis, &start, Some(analysis.stubborn()))
            .expect("the reduced space is no larger than the full one");
        Some((reduced, full))
    }

    #[test]
    fn the_sparse_generator_exercises_the_reduction() {
        // Fixed seeds: how often the stubborn sets prune anything, how often
        // there is more than one terminal configuration to keep, and how
        // often both (356, 249 and 72 of these 4,000 seeds).
        let (mut pruned, mut several, mut both) = (0, 0, 0);
        for seed in 0..4_000 {
            let Some(((reduced, stored), (full, all))) = reduced_and_full(seed) else {
                continue;
            };
            assert_eq!(reduced, full, "seed {seed}");
            pruned += usize::from(stored < all);
            several += usize::from(full.len() > 1);
            both += usize::from(stored < all && full.len() > 1);
        }
        assert!(
            pruned >= 300 && several >= 200 && both >= 50,
            "{pruned} pruned, {several} with several terminals, {both} both"
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Deadlock preservation: on forced-acyclic CRNs with sparse,
        /// partly catalytic reactions, the stubborn-set BFS reaches exactly
        /// the full BFS's terminal configurations, storing no more.
        #[test]
        fn stubborn_sets_keep_every_terminal_configuration(seed in 0u64..u64::MAX) {
            if let Some(((reduced, stored), (full, all))) = reduced_and_full(seed) {
                prop_assert_eq!(reduced, full);
                prop_assert!(stored <= all);
            }
        }
    }

    proptest! {
        #[test]
        fn every_route_matches_the_reference_engine(
            stoich in proptest::collection::vec(proptest::collection::vec(0u64..3, 6), 1..4),
            a in 0u64..3,
            b in 0u64..2,
            bound in 0u64..4,
        ) {
            routes_match_reference(&random_crn(&stoich), |x| a * x[0] + b, bound);
        }

        /// Forced-acyclic CRNs: every kept reaction strictly lowers the
        /// positive weighting `3X + Y + 2Z`, so no firing sequence returns
        /// to its start, the certificate holds, and the scan route runs.
        #[test]
        fn every_route_matches_the_reference_engine_on_acyclic_crns(
            stoich in proptest::collection::vec(proptest::collection::vec(0u64..3, 6), 1..5),
            a in 0u64..3,
            b in 0u64..2,
            bound in 0u64..5,
        ) {
            let weight = |c: &[u64]| 3 * c[0] + c[1] + 2 * c[2];
            let kept: Vec<Vec<u64>> = stoich
                .into_iter()
                .filter(|row| weight(&row[3..6]) < weight(&row[0..3]))
                .collect();
            let crn = random_crn(&kept);
            prop_assert!(CrnAnalysis::of(&crn).acyclic());
            routes_match_reference(&crn, |x| a * x[0] + b, bound);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The run against the plain stubborn-set scan on certified CRNs
        /// over `{X, Y, Z, A}`: sampled rows that strictly lower the positive
        /// weighting `4X + Y + Z + 2A`, half of them behind the chain in
        /// front of a conflicting pair, so that runs branch after a path.
        /// Every point gets the same result, the error included, and the
        /// same count, at limits that cut the run, the scan after it, or
        /// neither.  Both routes of each CRN, the run included, also match
        /// the per-point reference.
        #[test]
        fn the_run_matches_the_plain_scan(
            stoich in proptest::collection::vec(proptest::collection::vec(0u64..3, 8), 0..4),
            chain in 0u8..2,
            a in 0u64..3,
            b in 0u64..2,
            bound in 0u64..6,
            limit in 0usize..30,
        ) {
            let weight = |c: &[u64]| 4 * c[0] + c[1] + c[2] + 2 * c[3];
            let mut rows: Vec<Vec<u64>> = if chain == 1 {
                CHAIN_THEN_PAIR.map(Vec::from).to_vec()
            } else {
                Vec::new()
            };
            rows.extend(stoich.into_iter().filter(|row| weight(&row[4..]) < weight(&row[..4])));
            let crn = crn_over(&["X", "Y", "Z", "A"], &rows);
            prop_assert!(CrnAnalysis::of(&crn).acyclic());
            run_matches_plain_scan(&crn, |x| a * x[0] + b, bound, limit);
            routes_match_reference(&crn, |x| a * x[0] + b, bound);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Wide counts: `X -> kY` with `k` from 43 to 199 joins rows that
        /// strictly lower the positive weighting `200X + Y + 2Z`, so the
        /// certificate holds, Y reaches `k · bound > 127` from the top
        /// corner, and the run fires `X -> kY` in bursts whenever no lower
        /// row consumes X, Y or Z.
        #[test]
        fn every_route_matches_the_reference_engine_on_wide_hulls(
            stoich in proptest::collection::vec(proptest::collection::vec(0u64..3, 6), 0..3),
            k in 43u64..200,
            a in 0u64..3,
            b in 0u64..2,
            bound in 3u64..5,
        ) {
            let weight = |c: &[u64]| 200 * c[0] + c[1] + 2 * c[2];
            let mut kept: Vec<Vec<u64>> = stoich
                .into_iter()
                .filter(|row| weight(&row[3..6]) < weight(&row[0..3]))
                .collect();
            kept.push(vec![1, 0, 0, 0, k, 0]);
            let crn = random_crn(&kept);
            prop_assert!(CrnAnalysis::of(&crn).acyclic());
            routes_match_reference(&crn, |x| a * x[0] + b, bound);
        }
    }
}
