//! State codecs, visitors, and the two traversals that drive them.
//!
//! Every exploration of the engine is one of two generic, monomorphized
//! traversals over a state [`Codec`]:
//!
//! * [`bfs`] — breadth-first, node ids in discovery order.  Its visitors
//!   are [`CsrBuilder`] (the successor graph behind full verdicts and
//!   [`ReachabilityGraph`]) and [`TerminalScan`] (the decision for
//!   certified-acyclic CRNs, whose sinks are exactly the terminal
//!   configurations; it fires only stubborn sets, see
//!   [`StubbornSets`]).
//! * [`dfs`] — depth-first with Tarjan's algorithm inline.  Its visitors
//!   fold each strongly connected component as it pops: [`RecoverFold`]
//!   (closure max/min output and recoverability) and [`MemoFold`] (the
//!   cross-point summaries, with cache hits as virtual children).
//!
//! The codecs differ only in how a configuration is stored and
//! deduplicated: [`Hash`] interns count vectors, [`Direct`] keys them by a
//! mixed-radix code over a proven interval box, and [`Packed`] holds a
//! whole configuration in one byte-packed word, deduplicated by a dense
//! visited table or a hashed code index.  [`VerdictEngine::decide`] picks
//! the codec × visitor pair of each point through [`route`].  The traversals
//! stay out of line, one function per pair, so each hot loop is compiled on
//! its own.
//!
//! [`ReachabilityGraph`]: super::ReachabilityGraph

use crn_sync::Arc;
use std::collections::HashMap;
use std::mem;

use crn_numeric::NVec;

use crate::analysis::{
    conservation_basis, nonnegative_t_semiflows, t_invariant_basis, ConservationLaw,
    CountIntervals, Liveness, SpeciesBounds, Stoichiometry, FARKAS_ROW_CAP,
};
use crate::compiled::{CompiledCrn, CompiledReaction};
use crate::error::CrnError;
use crate::function::FunctionCrn;

use super::arena::ConfigArena;
use super::csr::CsrGraph;
use super::memo::{MemoCache, SetId, SharedLog, Summary, EMPTY_SET};
use super::scc::Condensation;
use super::stubborn::{Closure, StubbornSets};
use super::symmetry;
use super::{BoxCheckStats, StableComputationVerdict};

/// Largest interval-box volume for which the engine switches from hash
/// interning to the mixed-radix code index.  The only hard requirement is
/// that reaction offsets stay representable (`i64`); the cap keeps the
/// arithmetic comfortably clear of overflow.
const DIRECT_INDEX_CAP: u128 = 1 << 62;

/// The point-independent static-analysis artifacts of a pruned engine:
/// monotone potential bounds, the signed conservation-law basis, the
/// T-invariant acyclicity certificate, and the stubborn-set relations of
/// the terminal scan.
pub(super) struct BoxAnalysis {
    bounds: SpeciesBounds,
    laws: Vec<ConservationLaw>,
    /// No nonzero nonnegative T-invariant exists: no firing sequence can
    /// restore a configuration, so *every* reachability graph of this CRN is
    /// acyclic (a cycle's firing-count vector would be such an invariant).
    /// Certified either by a trivial signed T-invariant basis
    /// ([`t_invariant_basis`] is uncapped, and complete whenever it is not
    /// `None` for overflow) or by an untruncated empty T-semiflow
    /// enumeration.
    acyclic: bool,
    stubborn: StubbornSets,
}

/// A perfect mixed-radix encoding of the interval box
/// `∏ [lower(s), upper(s)]` proven to contain every reachable configuration:
/// configuration `c` maps to the injective code `Σ (c(s) − lower(s)) ·
/// place(s)`, and firing reaction `r` *translates* the code by the constant
/// `offset(r)` — so BFS successor identity is one integer addition plus one
/// probe of a u64-keyed index, with no count-vector copy, no word-wise
/// hashing, and no `apply_into` for already-seen configurations.
pub(super) struct DirectSpec {
    lower: Vec<u64>,
    place: Vec<u64>,
    /// Per-reaction code translation `Σ delta(s) · place(s)`.
    offsets: Vec<i64>,
    /// All reactions' reactant requirements flattened into one array —
    /// reaction `r`'s entries are `reqs[req_offsets[r]..req_offsets[r + 1]]`
    /// — so the hot applicability test walks two dense arrays instead of
    /// chasing one `Vec` per reaction.
    reqs: Vec<(usize, u64)>,
    req_offsets: Vec<u32>,
}

impl DirectSpec {
    /// Builds the encoding when the box is finite and at most
    /// [`DIRECT_INDEX_CAP`] configurations; `None` otherwise.
    fn build(intervals: &CountIntervals, compiled: &CompiledCrn) -> Option<DirectSpec> {
        if intervals.state_space()? > DIRECT_INDEX_CAP {
            return None;
        }
        let n = intervals.len();
        let mut lower = Vec::with_capacity(n);
        let mut place = Vec::with_capacity(n);
        let mut running: u64 = 1;
        for s in 0..n {
            lower.push(intervals.lower(s));
            place.push(running);
            let width = intervals.upper(s).expect("finite volume") - intervals.lower(s) + 1;
            running = running.checked_mul(width).expect("volume fits the cap");
        }
        // Wrapping, like the code moves themselves: an offset is only ever
        // added to the code of a configuration the reaction applies to, and
        // there it is the difference of two in-box codes.  A reaction that
        // never applies inside the box may overflow, harmlessly.
        let offsets = compiled
            .reactions()
            .iter()
            .map(|reaction| {
                reaction.delta().iter().fold(0i64, |sum, &(s, d)| {
                    let place = i64::try_from(place[s]).expect("place fits i64");
                    sum.wrapping_add(d.wrapping_mul(place))
                })
            })
            .collect();
        let mut reqs = Vec::new();
        let mut req_offsets = vec![0u32];
        for reaction in compiled.reactions() {
            reqs.extend_from_slice(reaction.reactants());
            req_offsets.push(u32::try_from(reqs.len()).expect("requirement count fits u32"));
        }
        Some(DirectSpec {
            lower,
            place,
            offsets,
            reqs,
            req_offsets,
        })
    }

    /// Reaction `r`'s reactant requirements.
    fn reqs(&self, r: usize) -> &[(usize, u64)] {
        &self.reqs[self.req_offsets[r] as usize..self.req_offsets[r + 1] as usize]
    }

    /// The code of `counts`, which must lie inside the box.
    fn encode(&self, counts: &[u64]) -> u64 {
        counts
            .iter()
            .zip(&self.lower)
            .zip(&self.place)
            .map(|((&c, &lo), &p)| (c - lo) * p)
            .sum()
    }
}

/// Per-lane high bits of the packed byte encoding, the borrow sentinels of
/// the SWAR applicability test.
const LANE_HIGH: u64 = 0x8080_8080_8080_8080;

/// A whole-configuration byte packing for certified-acyclic CRNs on small
/// hulls: species `s` is byte lane `s` of one `u64`, so firing a reaction is
/// a single wrapping addition and the applicability test is branch-free SWAR
/// over all species at once.  Eligible when the box-wide interval hull keeps
/// every count at or below 127 across at most 8 species — every reachable
/// lane then stays in `[0, 127]`, additions never carry between lanes, and
/// the packed value *is* a perfect mixed-radix code (radix 256, lower bound
/// zero), so discovery order, deduplication and the configuration-limit
/// error are bit-identical to the spec-coded passes.
pub(super) struct PackedSpec {
    /// Per-reaction packed reactant requirements; lanes are clamped to 128,
    /// which the test below reads as "never applicable" — correct, since no
    /// reachable lane exceeds 127.
    reqs: Vec<u64>,
    /// Per-reaction packed deltas in two's complement (mod 2^64).
    deltas: Vec<u64>,
    /// Bit shift of the output species' lane.
    out_shift: u32,
    /// Mixed-radix place values of the *dense* hull code (radix
    /// `upper + 1` per species), when the hull volume fits
    /// [`DENSE_VISITED_CAP`]; empty otherwise.  With a dense code every
    /// dedup probe is a single epoch-stamped array load instead of a hash
    /// chain, and the code itself is maintained incrementally.
    dense_place: Vec<u64>,
    /// Per-reaction dense-code deltas in two's complement — firing reaction
    /// `r` moves the dense code by one `wrapping_add`.
    dense_deltas: Vec<u64>,
    /// Hull volume (the dense-code range); `0` disables the dense codec.
    dense_volume: usize,
}

/// Largest hull volume the packed codec tracks with a dense visited-stamp
/// table (u32 stamps, so 8 MiB of reusable scratch at the cap); bigger
/// hulls fall back to the hashed [`CodeIndex`].
const DENSE_VISITED_CAP: usize = 1 << 21;

/// The weights of `laws` on the species `cols`, one row per law.
fn law_matrix(laws: &[ConservationLaw], cols: &[usize]) -> Vec<Vec<i128>> {
    laws.iter()
        .map(|law| cols.iter().map(|&s| law.weight(s)).collect())
        .collect()
}

/// The pivot columns of `rows` in row-echelon form, by fraction-free `i128`
/// elimination, or `None` when the elimination overflows.  The pivot
/// columns are linearly independent and their count is the rank.
fn echelon_pivots(mut rows: Vec<Vec<i128>>) -> Option<Vec<usize>> {
    let cols = rows.first().map_or(0, Vec::len);
    let mut pivots = Vec::new();
    for col in 0..cols {
        let rank = pivots.len();
        let Some(p) = (rank..rows.len()).find(|&r| rows[r][col] != 0) else {
            continue;
        };
        rows.swap(rank, p);
        let (head, rest) = rows.split_at_mut(rank + 1);
        let pivot_row = &head[rank];
        for row in rest.iter_mut().filter(|row| row[col] != 0) {
            let (pv, q) = (pivot_row[col], row[col]);
            for j in 0..cols {
                row[j] = row[j]
                    .checked_mul(pv)?
                    .checked_sub(pivot_row[j].checked_mul(q)?)?;
            }
        }
        pivots.push(col);
    }
    Some(pivots)
}

impl PackedSpec {
    /// Builds the packing when every hull count of the `stride` species fits
    /// a 7-bit lane; `None` otherwise.
    fn build(
        hull: &CountIntervals,
        compiled: &CompiledCrn,
        laws: &[ConservationLaw],
        stride: usize,
        out_idx: usize,
    ) -> Option<PackedSpec> {
        if stride > 8 || (0..stride).any(|s| hull.upper(s).map_or(true, |u| u > 127)) {
            return None;
        }
        // Dense hull code: place values over radix `upper + 1` for the
        // species that are not law pivots, kept only when the volume fits
        // the stamp table.  Within one exploration every law's value is
        // fixed by the start, and the pivots are linearly independent, so
        // two configurations of one reachable set that agree off the pivots
        // are equal: dropping the pivots keeps the code injective.  An
        // overflowing elimination projects nothing.
        let all: Vec<usize> = (0..stride).collect();
        let pivots = echelon_pivots(law_matrix(laws, &all)).unwrap_or_default();
        let mut dense_place = vec![0u64; stride];
        let mut volume = 1usize;
        for s in (0..stride).filter(|s| !pivots.contains(s)) {
            dense_place[s] = volume as u64;
            let radix = hull.upper(s).expect("uppers checked above") as usize + 1;
            volume = match volume.checked_mul(radix) {
                Some(v) if v <= DENSE_VISITED_CAP => v,
                _ => 0,
            };
            if volume == 0 {
                dense_place.clear();
                break;
            }
        }
        let mut reqs = Vec::with_capacity(compiled.reaction_count());
        let mut deltas = Vec::with_capacity(compiled.reaction_count());
        let mut dense_deltas = Vec::with_capacity(compiled.reaction_count());
        for reaction in compiled.reactions() {
            let mut req = 0u64;
            for &(s, c) in reaction.reactants() {
                req |= c.min(128) << (8 * s);
            }
            let mut delta = 0u64;
            let mut dense_delta = 0u64;
            for &(s, d) in reaction.delta() {
                // Wrapping mod-2^64 arithmetic: oversized deltas only occur
                // on reactions the clamped requirement already rules out.
                delta = delta.wrapping_add((d as u64).wrapping_mul(1u64 << (8 * s)));
                if let Some(&place) = dense_place.get(s) {
                    dense_delta = dense_delta.wrapping_add((d as u64).wrapping_mul(place));
                }
            }
            reqs.push(req);
            deltas.push(delta);
            dense_deltas.push(dense_delta);
        }
        Some(PackedSpec {
            reqs,
            deltas,
            out_shift: u32::try_from(8 * out_idx).expect("output lane within 8 species"),
            dense_place,
            dense_deltas,
            dense_volume: volume,
        })
    }

    /// The dense hull code of a byte-packed configuration; meaningful only
    /// when `dense_volume > 0`.
    fn dense_code(&self, packed: u64) -> u64 {
        self.dense_place
            .iter()
            .enumerate()
            .map(|(s, &p)| ((packed >> (8 * s)) & 0xff) * p)
            .sum()
    }

    /// Packs a count vector (all lanes at most 127) into its byte code.
    fn pack(&self, counts: &[u64]) -> u64 {
        counts
            .iter()
            .enumerate()
            .map(|(s, &c)| {
                debug_assert!(c <= 127, "hull admits every packed configuration");
                c << (8 * s)
            })
            .sum()
    }

    /// The output count of `word`.
    fn output(&self, word: u64) -> u64 {
        (word >> self.out_shift) & 0xff
    }
}

/// The SplitMix64 finalizer: a full-avalanche mix of one word, so
/// lexicographically adjacent codes spread across the slot table.
fn mix_code(code: u64) -> u64 {
    let mut z = code.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A node of one exploration: the discovery position of a stored
/// configuration.  [`admit`] mints every id past the start and keeps it
/// below `u32::MAX`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct NodeId(u32);

impl NodeId {
    /// The start configuration, which every codec stores on construction.
    const START: NodeId = NodeId(0);

    fn index(self) -> usize {
        self.0 as usize
    }
}

/// The id of the node a traversal is about to insert after the `len`
/// stored so far — the one place the configuration limit is enforced.  The
/// limit error is order-independent: it fires exactly when the reachable
/// set exceeds `limit` configurations.
fn admit(len: usize, limit: usize) -> Result<NodeId, CrnError> {
    if len >= limit {
        return Err(CrnError::SearchLimitExceeded {
            limit: format!("{limit} reachable configurations"),
        });
    }
    assert!(
        len < u32::MAX as usize,
        "explorations stay below 2^32 - 1 configurations"
    );
    Ok(NodeId(len as u32))
}

/// One out-edge of the DFS graph in 4 bytes: a stored node, or (high bit
/// set) an entry of the memo visitor's per-run cache-hit table.
#[derive(Clone, Copy)]
struct Edge(u32);

/// What an [`Edge`] points at.
enum Target {
    Vertex(NodeId),
    /// A cache hit: a summarized subtree, folded but never traversed.
    Summary(u32),
}

impl Edge {
    const SUMMARY: u32 = 1 << 31;

    fn vertex(id: NodeId) -> Edge {
        assert!(
            id.0 & Edge::SUMMARY == 0,
            "DFS explorations stay below 2^31 configurations"
        );
        Edge(id.0)
    }

    fn summary(hit: u32) -> Edge {
        assert!(hit & Edge::SUMMARY == 0, "cache hits stay below 2^31");
        Edge(hit | Edge::SUMMARY)
    }

    fn target(self) -> Target {
        if self.0 & Edge::SUMMARY == 0 {
            Target::Vertex(NodeId(self.0))
        } else {
            Target::Summary(self.0 & !Edge::SUMMARY)
        }
    }
}

/// An open-addressing index over codes: like the arena's hash index, but
/// keyed by one u64 code per configuration instead of the full count
/// vector, so memory stays proportional to the *reachable* set (cache
/// resident) rather than the interval box, and every probe compares a single
/// word.  Slots are epoch-stamped `(epoch << 32) | (id + 1)` cells, so
/// resetting between the points of a box sweep is O(1) — no memset of a
/// table sized for the sweep's biggest point.
#[derive(Default)]
struct CodeIndex {
    slots: Vec<u64>,
    epoch: u32,
}

impl CodeIndex {
    /// Empties the index, keeping the allocation: stale slots are recognized
    /// by their epoch stamp.
    fn reset(&mut self) {
        match self.epoch.checked_add(1) {
            Some(e) => self.epoch = e,
            None => {
                self.slots.iter_mut().for_each(|s| *s = 0);
                self.epoch = 1;
            }
        }
    }

    /// The live id in `slot`, if any.
    fn occupant(&self, slot: usize) -> Option<NodeId> {
        let cell = self.slots[slot];
        let id = (cell as u32).checked_sub(1)?;
        (cell >> 32 == u64::from(self.epoch)).then_some(NodeId(id))
    }

    /// The id of `code`, where `code_of` maps stored ids to their codes.
    fn lookup(&self, code: u64, code_of: impl Fn(usize) -> u64) -> Option<NodeId> {
        let mask = self.slots.len() - 1;
        let mut slot = (mix_code(code) as usize) & mask;
        loop {
            match self.occupant(slot) {
                None => return None,
                Some(id) if code_of(id.index()) == code => return Some(id),
                Some(_) => slot = (slot + 1) & mask,
            }
        }
    }

    /// Indexes the newest stored id, whose code the caller has established
    /// is absent.
    fn insert(&mut self, id: NodeId, code_of: impl Fn(usize) -> u64) {
        // Grow at 1/2 load: probes run on the seen-successor fast path, so
        // short chains are worth the memory.
        if (id.index() + 1) * 2 > self.slots.len() {
            let new_len = (self.slots.len() * 2).max(16);
            self.slots.clear();
            self.slots.resize(new_len, 0);
            for i in 0..=id.0 {
                self.place(i, &code_of);
            }
        } else {
            self.place(id.0, &code_of);
        }
    }

    fn place(&mut self, id: u32, code_of: &impl Fn(usize) -> u64) {
        let mask = self.slots.len() - 1;
        let mut slot = (mix_code(code_of(id as usize)) as usize) & mask;
        while self.occupant(slot).is_some() {
            slot = (slot + 1) & mask;
        }
        self.slots[slot] = (u64::from(self.epoch) << 32) | u64::from(id + 1);
    }
}

/// Per-node record of the direct codec: the code plus the duplicate-edge
/// stamp (the last node that emitted an edge to this one), deliberately in
/// one struct so the probe's code confirmation and the edge-dedup check
/// touch the same cache line.
#[derive(Clone, Copy)]
struct DirectNode {
    code: u64,
    last_emit: u32,
}

/// The memory the codecs store configurations in, kept across explorations
/// so a box sweep allocates only while its largest point grows the buffers.
#[derive(Default)]
pub(super) struct Store {
    /// Count vectors of the hash and direct codecs.
    pub(super) arena: ConfigArena,
    /// The hash codec's edge stamps, sized on demand.
    stamps: Vec<u32>,
    /// The direct codec's per-node records.
    nodes: Vec<DirectNode>,
    /// The code index of the direct and hashed packed codecs.
    index: CodeIndex,
    /// The packed codecs' words, and the dense-table codec's codes.
    words: Vec<u64>,
    dense: Vec<u64>,
    /// The dense-table codec's visited stamps; `epoch` marks this run's.
    visited: Vec<u32>,
    epoch: u32,
    /// The count vector being expanded, and a successor scratch.
    cur: Vec<u64>,
    succ: Vec<u64>,
}

impl Store {
    /// Empties the count-vector state for a run over `stride` species.
    fn reset_counts(&mut self, stride: usize) {
        self.arena.reset(stride);
        self.stamps.clear();
        self.cur.clear();
        self.cur.resize(stride, 0);
        self.succ.clear();
        self.succ.resize(stride, 0);
    }
}

/// What a codec learns by firing one enabled reaction on the loaded node.
enum Probe<S, K> {
    /// The successor is stored already.
    Seen(S),
    /// The successor is new; the key is what [`Codec::insert`] needs.
    Unseen(K),
}

/// A state codec: how one exploration stores configurations, tells a seen
/// successor from a new one, and reads a node's output count.
trait Codec {
    /// How a probe names a seen successor: its id, or `()` for a codec that
    /// keeps no ids.
    type Seen: Copy;
    type Key: Copy;
    fn len(&self) -> usize;
    fn reactions(&self) -> usize;
    /// Makes `v` the node later probes fire reactions on.
    fn load(&mut self, v: NodeId);
    /// Whether reaction `r` applies to the loaded node.
    fn enabled(&self, r: usize) -> bool;
    /// The lowest species whose count in the loaded node is below the
    /// requirement of the disabled reaction `r`.
    fn lacking(&self, r: usize) -> usize;
    /// Fires the enabled reaction `r` on the loaded node.
    fn probe(&mut self, r: usize) -> Probe<Self::Seen, Self::Key>;
    /// Stores the unseen successor `key` of the loaded node under reaction
    /// `r` as node `id`.
    fn insert(&mut self, r: usize, key: Self::Key, id: NodeId) -> Self::Seen;
    fn output(&self, v: NodeId) -> u64;
}

/// The lowest species of `reqs` (ascending) whose count falls short.
fn lowest_lacking(reqs: &[(usize, u64)], counts: &[u64]) -> usize {
    reqs.iter()
        .find(|&&(s, c)| counts[s] < c)
        .expect("the reaction is disabled")
        .0
}

/// A codec that names seen successors, so visitors can record edges.
trait GraphCodec: Codec<Seen = NodeId> {
    /// Records the edge `from → to`; `false` if `from` already emitted it.
    fn first_edge(&mut self, from: NodeId, to: NodeId) -> bool;
}

/// Hash-interned count vectors: the codec of points without a proven
/// interval box, and of every [`ReachabilityGraph`](super::ReachabilityGraph).
struct Hash<'a> {
    reactions: &'a [CompiledReaction],
    out: usize,
    s: &'a mut Store,
}

impl<'a> Hash<'a> {
    fn new(compiled: &'a CompiledCrn, out: usize, s: &'a mut Store, start: &[u64]) -> Self {
        s.reset_counts(start.len());
        s.arena.insert_new(start);
        let reactions = compiled.reactions();
        Hash { reactions, out, s }
    }
}

impl Codec for Hash<'_> {
    type Seen = NodeId;
    type Key = ();

    fn len(&self) -> usize {
        self.s.arena.len()
    }

    fn reactions(&self) -> usize {
        self.reactions.len()
    }

    fn load(&mut self, v: NodeId) {
        self.s.cur.copy_from_slice(self.s.arena.get(v.index()));
    }

    fn enabled(&self, r: usize) -> bool {
        self.reactions[r].applicable(&self.s.cur)
    }

    fn lacking(&self, r: usize) -> usize {
        lowest_lacking(self.reactions[r].reactants(), &self.s.cur)
    }

    fn probe(&mut self, r: usize) -> Probe<NodeId, ()> {
        self.reactions[r].apply_into(&self.s.cur, &mut self.s.succ);
        match self.s.arena.lookup(&self.s.succ) {
            // Stored ids were admitted, so they fit u32.
            Some(id) => Probe::Seen(NodeId(id as u32)),
            None => Probe::Unseen(()),
        }
    }

    fn insert(&mut self, _: usize, _: (), id: NodeId) -> NodeId {
        self.s.arena.insert_new(&self.s.succ);
        id
    }

    fn output(&self, v: NodeId) -> u64 {
        self.s.arena.get(v.index())[self.out]
    }
}

impl GraphCodec for Hash<'_> {
    fn first_edge(&mut self, from: NodeId, to: NodeId) -> bool {
        let stamps = &mut self.s.stamps;
        if stamps.len() <= to.index() {
            stamps.resize(self.s.arena.len(), u32::MAX);
        }
        mem::replace(&mut stamps[to.index()], from.0) != from.0
    }
}

/// Mixed-radix codes over a proven interval box (one point's, or the sweep
/// hull): successor identity is one addition plus a single-word probe, and
/// a seen successor never materializes its counts.  Discovery order — and
/// therefore every id, edge and verdict — is that of the hash codec.
struct Direct<'a> {
    spec: &'a DirectSpec,
    reactions: &'a [CompiledReaction],
    out: usize,
    s: &'a mut Store,
    /// The loaded node's code.
    code: u64,
}

impl<'a> Direct<'a> {
    fn new(
        spec: &'a DirectSpec,
        compiled: &'a CompiledCrn,
        out: usize,
        s: &'a mut Store,
        start: &[u64],
    ) -> Self {
        s.reset_counts(start.len());
        s.arena.push_unindexed(start);
        s.nodes.clear();
        let code = spec.encode(start);
        s.nodes.push(DirectNode {
            code,
            last_emit: u32::MAX,
        });
        s.index.reset();
        s.index.insert(NodeId::START, |_| code);
        let reactions = compiled.reactions();
        Direct {
            spec,
            reactions,
            out,
            s,
            code,
        }
    }

    /// The code of node `v` — the memo key when coded over the hull.
    fn code(&self, v: NodeId) -> u64 {
        self.s.nodes[v.index()].code
    }
}

impl Codec for Direct<'_> {
    type Seen = NodeId;
    type Key = u64;

    fn len(&self) -> usize {
        self.s.nodes.len()
    }

    fn reactions(&self) -> usize {
        self.spec.offsets.len()
    }

    fn load(&mut self, v: NodeId) {
        self.s.cur.copy_from_slice(self.s.arena.get(v.index()));
        self.code = self.s.nodes[v.index()].code;
    }

    #[inline(always)] // per reaction; shared by four traversal instances
    fn enabled(&self, r: usize) -> bool {
        self.spec.reqs(r).iter().all(|&(s, c)| self.s.cur[s] >= c)
    }

    fn lacking(&self, r: usize) -> usize {
        lowest_lacking(self.spec.reqs(r), &self.s.cur)
    }

    #[inline(always)]
    fn probe(&mut self, r: usize) -> Probe<NodeId, u64> {
        // The box bounds are sound, so the translated code stays in range.
        let code = self.code.wrapping_add_signed(self.spec.offsets[r]);
        let nodes = &self.s.nodes;
        match self.s.index.lookup(code, |i| nodes[i].code) {
            Some(id) => Probe::Seen(id),
            None => Probe::Unseen(code),
        }
    }

    #[inline(always)]
    fn insert(&mut self, r: usize, code: u64, id: NodeId) -> NodeId {
        let s = &mut *self.s;
        self.reactions[r].apply_into(&s.cur, &mut s.succ);
        debug_assert_eq!(self.spec.encode(&s.succ), code);
        s.arena.push_unindexed(&s.succ);
        s.nodes.push(DirectNode {
            code,
            last_emit: u32::MAX,
        });
        let nodes = &s.nodes;
        s.index.insert(id, |i| nodes[i].code);
        id
    }

    fn output(&self, v: NodeId) -> u64 {
        self.s.arena.get(v.index())[self.out]
    }
}

impl GraphCodec for Direct<'_> {
    fn first_edge(&mut self, from: NodeId, to: NodeId) -> bool {
        mem::replace(&mut self.s.nodes[to.index()].last_emit, from.0) != from.0
    }
}

/// One byte-packed word per configuration (see [`PackedSpec`]), so the
/// loops touch no count vectors at all.  With `DENSE`, deduplicated through
/// an epoch-stamped visited table indexed by the law-projected hull code,
/// which firing a reaction moves by one `wrapping_add`; otherwise through
/// the hashed [`CodeIndex`].  Membership is membership either way, so the
/// discovery order and the limit error are the same.  Neither variant
/// names seen successors, so packed codecs pair only with the terminal
/// scan.
struct Packed<'a, const DENSE: bool> {
    spec: &'a PackedSpec,
    /// The spec's tables and the store's buffers, borrowed apart so the
    /// hot loop keeps their headers (and the epoch) in registers.
    reqs: &'a [u64],
    deltas: &'a [u64],
    dense_deltas: &'a [u64],
    words: &'a mut Vec<u64>,
    dense: &'a mut Vec<u64>,
    visited: &'a mut [u32],
    epoch: u32,
    index: &'a mut CodeIndex,
    /// The loaded word, and its dense code.
    cur: u64,
    code: u64,
}

impl<'a, const DENSE: bool> Packed<'a, DENSE> {
    fn new(spec: &'a PackedSpec, s: &'a mut Store, start: u64) -> Self {
        s.words.clear();
        s.words.push(start);
        if DENSE {
            if s.visited.len() < spec.dense_volume {
                s.visited.resize(spec.dense_volume, 0);
            }
            s.epoch = s.epoch.checked_add(1).unwrap_or_else(|| {
                s.visited.fill(0);
                1
            });
            s.dense.clear();
            s.dense.push(spec.dense_code(start));
            s.visited[s.dense[0] as usize] = s.epoch;
        } else {
            s.index.reset();
            s.index.insert(NodeId::START, |_| start);
        }
        let Store {
            words,
            dense,
            visited,
            epoch,
            index,
            ..
        } = s;
        let epoch = *epoch;
        let (reqs, deltas, dense_deltas) =
            (&spec.reqs[..], &spec.deltas[..], &spec.dense_deltas[..]);
        Packed {
            spec,
            reqs,
            deltas,
            dense_deltas,
            words,
            dense,
            visited,
            epoch,
            index,
            cur: start,
            code: 0,
        }
    }

    /// The high bits of the lanes whose count meets reaction `r`'s
    /// requirement.  With every count lane in [0, 127] and requirement lanes
    /// clamped to 128, `(cur | HIGH) - req` never borrows across lanes, and
    /// a lane's high bit survives exactly when its count meets the
    /// requirement.
    fn met(&self, r: usize) -> u64 {
        (self.cur | LANE_HIGH).wrapping_sub(self.reqs[r]) & LANE_HIGH
    }
}

impl<const DENSE: bool> Codec for Packed<'_, DENSE> {
    type Seen = ();
    type Key = u64;

    fn len(&self) -> usize {
        self.words.len()
    }

    fn reactions(&self) -> usize {
        self.deltas.len()
    }

    fn load(&mut self, v: NodeId) {
        self.cur = self.words[v.index()];
        if DENSE {
            self.code = self.dense[v.index()];
        }
    }

    fn enabled(&self, r: usize) -> bool {
        self.met(r) == LANE_HIGH
    }

    fn lacking(&self, r: usize) -> usize {
        ((self.met(r) ^ LANE_HIGH).trailing_zeros() / 8) as usize
    }

    fn probe(&mut self, r: usize) -> Probe<(), u64> {
        // The key is the successor's dense code, or its word.
        let (key, seen) = if DENSE {
            let code = self.code.wrapping_add(self.dense_deltas[r]);
            (code, self.visited[code as usize] == self.epoch)
        } else {
            let word = self.cur.wrapping_add(self.deltas[r]);
            let words = &*self.words;
            (word, self.index.lookup(word, |i| words[i]).is_some())
        };
        if seen {
            Probe::Seen(())
        } else {
            Probe::Unseen(key)
        }
    }

    fn insert(&mut self, r: usize, key: u64, id: NodeId) {
        if DENSE {
            self.visited[key as usize] = self.epoch;
            self.dense.push(key);
            self.words.push(self.cur.wrapping_add(self.deltas[r]));
        } else {
            self.words.push(key);
            let words = &*self.words;
            self.index.insert(id, |i| words[i]);
        }
    }

    fn output(&self, v: NodeId) -> u64 {
        self.spec.output(self.words[v.index()])
    }
}

/// The visitor of a breadth-first traversal.
trait BfsVisitor<C: Codec> {
    /// Narrows `enabled`, the ascending enabled reactions of the loaded node
    /// (at least two), to those the traversal fires; by default all.
    fn select(&mut self, _codec: &C, _enabled: &mut Vec<usize>) {}
    /// Sees the edge `from → to`, `to` possibly just inserted.
    fn edge(&mut self, codec: &mut C, from: NodeId, to: C::Seen);
    /// Sees `v` fully expanded (`terminal`: no reaction applies); `false`
    /// ends the traversal with `Ok(false)`.
    fn expanded(&mut self, codec: &C, v: NodeId, terminal: bool) -> bool;
}

/// Explores everything reachable from the codec's start breadth-first:
/// node ids are discovery order, id 0 is the start.  Each node fires the
/// enabled reactions the visitor selects, in ascending order.  `Ok(true)`
/// means every node reached was expanded within `limit` configurations;
/// `Ok(false)` is the visitor's early stop, which may pre-empt the limit
/// error.
#[inline(never)] // one loop per instance, out of the router's register pressure
fn bfs<C: Codec, V: BfsVisitor<C>>(
    codec: &mut C,
    visitor: &mut V,
    limit: usize,
) -> Result<bool, CrnError> {
    let mut enabled = Vec::with_capacity(codec.reactions());
    let mut next = 0u32;
    while (next as usize) < codec.len() {
        let v = NodeId(next);
        codec.load(v);
        enabled.clear();
        enabled.extend((0..codec.reactions()).filter(|&r| codec.enabled(r)));
        let terminal = enabled.is_empty();
        if enabled.len() > 1 {
            visitor.select(codec, &mut enabled);
        }
        for &r in &enabled {
            let to = match codec.probe(r) {
                Probe::Seen(to) => to,
                Probe::Unseen(key) => codec.insert(r, key, admit(codec.len(), limit)?),
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

impl<C: GraphCodec> BfsVisitor<C> for CsrBuilder<'_> {
    fn edge(&mut self, codec: &mut C, from: NodeId, to: NodeId) {
        if codec.first_edge(from, to) {
            self.0.push_edge(to.index());
        }
    }

    fn expanded(&mut self, _: &C, _: NodeId, _: bool) -> bool {
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
    stubborn: &'a StubbornSets,
    closure: &'a mut Closure,
}

impl<C: Codec> BfsVisitor<C> for TerminalScan<'_> {
    fn select(&mut self, codec: &C, enabled: &mut Vec<usize>) {
        self.stubborn
            .reduce(enabled, |r| codec.lacking(r), self.closure);
    }

    fn edge(&mut self, _: &mut C, _: NodeId, _: C::Seen) {}

    fn expanded(&mut self, codec: &C, v: NodeId, terminal: bool) -> bool {
        // A bad terminal is a sink component whose closure is itself,
        // constant on the wrong output: it can never recover.
        !terminal || codec.output(v) == self.expected
    }
}

/// Marks a Tarjan index or component id not set yet.
const UNSET: u32 = u32::MAX;

/// Per-node state of the depth-first traversal's inline Tarjan.  A node is
/// on the Tarjan stack exactly while it has an index but no component.
#[derive(Clone, Copy)]
struct DfsNode {
    index: u32,
    low: u32,
    comp: u32,
    /// The node's out-edges are `edges[start..end]`.
    start: u32,
    end: u32,
}

/// Reusable scratch of [`dfs`]: the per-node Tarjan state, the flat edge
/// rows, the Tarjan stack and the simulated recursion's frames.
#[derive(Default)]
struct Dfs {
    nodes: Vec<DfsNode>,
    edges: Vec<Edge>,
    stack: Vec<NodeId>,
    frames: Vec<(NodeId, u32)>,
}

impl Dfs {
    /// The out-edges of `v`.
    fn row(&self, v: NodeId) -> &[Edge] {
        let node = self.nodes[v.index()];
        &self.edges[node.start as usize..node.end as usize]
    }

    /// The component of a popped node.
    fn comp(&self, v: NodeId) -> u32 {
        self.nodes[v.index()].comp
    }

    fn edge_pos(&self) -> u32 {
        u32::try_from(self.edges.len()).expect("edge count fits u32")
    }
}

/// The visitor of the depth-first traversal.
trait DfsVisitor<C: GraphCodec> {
    /// Offered each unseen successor of `from` before it is stored; `true`
    /// absorbs it as a virtual child (the visitor pushed its own edge onto
    /// `edges`), so it is never stored or expanded.
    fn absorb(&mut self, _key: C::Key, _from: NodeId, _edges: &mut Vec<Edge>) -> bool {
        false
    }

    /// Folds the component `comp` made of `members` as Tarjan pops it;
    /// every edge leaving it lands in an earlier, already final component.
    /// `false` ends the traversal with `Ok(false)`.
    fn component(&mut self, codec: &C, g: &Dfs, comp: u32, members: &[NodeId]) -> bool;
}

/// Explores everything reachable from the codec's start depth-first with
/// Tarjan's algorithm inline, handing each strongly connected component to
/// the visitor as it pops (reverse topological order).  Every node is
/// expanded exactly once, as in [`bfs`] but in another order; the reachable
/// set, and so the limit error, is the same.  `Ok(false)` is the visitor's
/// early stop, which may pre-empt the limit error.
#[inline(never)]
fn dfs<C: GraphCodec, V: DfsVisitor<C>>(
    codec: &mut C,
    visitor: &mut V,
    g: &mut Dfs,
    limit: usize,
) -> Result<bool, CrnError> {
    const NEW: DfsNode = DfsNode {
        index: UNSET,
        low: 0,
        comp: UNSET,
        start: 0,
        end: 0,
    };
    g.nodes.clear();
    g.nodes.push(NEW);
    g.edges.clear();
    g.stack.clear();
    g.frames.clear();
    g.frames.push((NodeId::START, 0));
    let (mut next_index, mut comps) = (0u32, 0u32);
    while let Some(&(v, cursor)) = g.frames.last() {
        if cursor == 0 {
            // First visit: expand the node, so its row is final before its
            // first edge is followed.
            let start = g.edge_pos();
            codec.load(v);
            for r in 0..codec.reactions() {
                if !codec.enabled(r) {
                    continue;
                }
                let to = match codec.probe(r) {
                    Probe::Seen(to) => to,
                    Probe::Unseen(key) if visitor.absorb(key, v, &mut g.edges) => continue,
                    Probe::Unseen(key) => {
                        let id = admit(codec.len(), limit)?;
                        g.nodes.push(NEW);
                        codec.insert(r, key, id)
                    }
                };
                if codec.first_edge(v, to) {
                    g.edges.push(Edge::vertex(to));
                }
            }
            let (index, end) = (next_index, g.edge_pos());
            g.nodes[v.index()] = DfsNode {
                index,
                low: index,
                comp: UNSET,
                start,
                end,
            };
            next_index += 1;
            g.stack.push(v);
        }
        let node = g.nodes[v.index()];
        let pos = node.start + cursor;
        if pos < node.end {
            g.frames.last_mut().expect("frame exists").1 += 1;
            // A summary edge is folded at the pop, never traversed.
            if let Target::Vertex(w) = g.edges[pos as usize].target() {
                let child = g.nodes[w.index()];
                if child.index == UNSET {
                    g.frames.push((w, 0));
                } else if child.comp == UNSET {
                    let low = &mut g.nodes[v.index()].low;
                    *low = (*low).min(child.index);
                }
            }
            continue;
        }
        g.frames.pop();
        if node.low == node.index {
            // The component is the stack suffix of Tarjan indices at least
            // `node.index`.
            let mut base = g.stack.len();
            while base > 0 && g.nodes[g.stack[base - 1].index()].index >= node.index {
                base -= 1;
            }
            for &w in &g.stack[base..] {
                g.nodes[w.index()].comp = comps;
            }
            if !visitor.component(codec, g, comps, &g.stack[base..]) {
                return Ok(false);
            }
            comps += 1;
            g.stack.truncate(base);
        }
        if let Some(&(parent, _)) = g.frames.last() {
            let low = &mut g.nodes[parent.index()].low;
            *low = (*low).min(node.low);
        }
    }
    Ok(true)
}

/// Decides "can every reachable configuration still reach a stable
/// configuration with the expected output?" from each popped component's
/// closure max/min output and recoverability (one cell per component).
struct RecoverFold<'a> {
    expected: u64,
    cells: &'a mut Vec<(u64, u64, bool)>,
}

impl<C: GraphCodec> DfsVisitor<C> for RecoverFold<'_> {
    fn component(&mut self, codec: &C, g: &Dfs, comp: u32, members: &[NodeId]) -> bool {
        let (mut mx, mut mn, mut rec) = (u64::MIN, u64::MAX, false);
        for &m in members {
            let out = codec.output(m);
            (mx, mn) = (mx.max(out), mn.min(out));
            for e in g.row(m) {
                if let Target::Vertex(w) = e.target() {
                    if g.comp(w) != comp {
                        let (cmx, cmn, crec) = self.cells[g.comp(w) as usize];
                        (mx, mn, rec) = (mx.max(cmx), mn.min(cmn), rec || crec);
                    }
                }
            }
        }
        // A non-recovering component decides the answer, whatever the rest
        // of the graph looks like.
        let rec = rec || (mx == mn && mx == self.expected);
        self.cells.push((mx, mn, rec));
        rec
    }
}

/// The memo visitor's per-run scratch: the popped components' summaries by
/// component id, and this run's cache hits (the virtual children) with
/// their edge stamps and their ids by hull code.
#[derive(Default)]
struct MemoScratch {
    comps: Vec<Summary>,
    hits: Vec<Summary>,
    hit_stamps: Vec<u32>,
    hit_ids: HashMap<u64, u32>,
}

/// Folds cross-point [`Summary`]s over the hull-coded direct codec.  A
/// successor whose hull code carries a cached summary becomes a *virtual*
/// child: its subtree is never expanded, and the folds consume the
/// summary's output sets instead.  Every finished component's members are
/// queued in `pending` with their shared summary; the caller publishes them
/// only when the run returns `Ok` — a truncated exploration never populates
/// the cache.
struct MemoFold<'a> {
    expected: u64,
    cache: &'a mut MemoCache,
    pending: &'a mut Vec<(u64, Summary)>,
    memo: &'a mut MemoScratch,
}

impl<'d> DfsVisitor<Direct<'d>> for MemoFold<'_> {
    #[inline(always)]
    fn absorb(&mut self, code: u64, from: NodeId, edges: &mut Vec<Edge>) -> bool {
        // Only successors no stored node matched get here, so a
        // configuration is never both a node and a virtual child of a run.
        let Some(summary) = self.cache.lookup(code) else {
            return false;
        };
        let memo = &mut *self.memo;
        let (hits, stamps) = (&mut memo.hits, &mut memo.hit_stamps);
        let hit = *memo.hit_ids.entry(code).or_insert_with(|| {
            hits.push(summary);
            stamps.push(u32::MAX);
            u32::try_from(hits.len() - 1).expect("hit count fits u32")
        });
        if mem::replace(&mut memo.hit_stamps[hit as usize], from.0) != from.0 {
            edges.push(Edge::summary(hit));
        }
        true
    }

    #[inline(always)]
    fn component(&mut self, codec: &Direct<'d>, g: &Dfs, comp: u32, members: &[NodeId]) -> bool {
        let pool = &mut self.cache.pool;
        // Fold the closure's output extrema, stable-output set `so` (values
        // some closure configuration is output-stable at) and recoverable
        // set `rset` (values *every* closure configuration can still reach
        // stably), plus a size bound.
        let (mut mx, mut mn, mut so) = (u64::MIN, u64::MAX, EMPTY_SET);
        let mut rset: Option<SetId> = None;
        let mut size = members.len() as u64;
        for &m in members {
            let out = codec.output(m);
            (mx, mn) = (mx.max(out), mn.min(out));
            for e in g.row(m) {
                let child = match e.target() {
                    Target::Summary(hit) => self.memo.hits[hit as usize],
                    Target::Vertex(w) if g.comp(w) == comp => continue,
                    Target::Vertex(w) => self.memo.comps[g.comp(w) as usize],
                };
                (mx, mn) = (mx.max(child.mx), mn.min(child.mn));
                so = pool.union(so, child.so);
                rset = Some(rset.map_or(child.rset, |r| pool.intersect(r, child.rset)));
                size = size.saturating_add(child.size_bound);
            }
        }
        if mx == mn {
            // One output value across the whole closure: every member is
            // output-stable with it.
            let single = pool.singleton(mx);
            so = pool.union(so, single);
        }
        let rset = rset.unwrap_or(so);
        if !pool.contains(rset, self.expected) {
            // Some configuration of this closure can never recover the
            // expected output: the full check fails or errors, never passes.
            return false;
        }
        let size_bound = size;
        let summary = Summary {
            mx,
            mn,
            so,
            rset,
            size_bound,
        };
        self.pending
            .extend(members.iter().map(|&m| (codec.code(m), summary)));
        self.memo.comps.push(summary);
        true
    }
}

/// Reusable storage for explorations: the codecs' store, the CSR graph of
/// the last BFS, and the DFS scratch.
#[derive(Default)]
pub(super) struct ExploreState {
    pub(super) store: Store,
    pub(super) csr: CsrGraph,
    dfs: Dfs,
}

impl ExploreState {
    /// Explores everything reachable from `start` (a count vector at least
    /// `compiled.stride()` long) breadth-first into `self.store.arena` and
    /// `self.csr`: ids are discovery order, id 0 is the start.  Coded by
    /// `spec` when the caller proved an interval box, hash-interned
    /// otherwise — the order, and so every id and edge, is the same either
    /// way.
    pub(super) fn graph(
        &mut self,
        compiled: &CompiledCrn,
        start: &[u64],
        spec: Option<&DirectSpec>,
        limit: usize,
    ) -> Result<(), CrnError> {
        self.csr.reset();
        let csr = &mut CsrBuilder(&mut self.csr);
        // The CSR builder reads no outputs, so any output index will do.
        let store = &mut self.store;
        match spec {
            Some(spec) => bfs(
                &mut Direct::new(spec, compiled, 0, store, start),
                csr,
                limit,
            ),
            None => bfs(&mut Hash::new(compiled, 0, store, start), csr, limit),
        }?;
        Ok(())
    }
}

/// A conservation-law refutation oracle: answers "is `target` provably
/// unreachable from `source`?" in `O(laws × species)` without exploring any
/// state space.
///
/// Built once per CRN from the *signed* conservation-law basis of the
/// stoichiometry matrix (see [`conservation_basis`]).  Every reachable
/// configuration `c'` satisfies `v·c' = v·c` for each basis law `v`, so a
/// law weighing source and target differently is a proof of unreachability.
/// The basis spans the whole left nullspace, which makes the oracle
/// *complete for linear refutation*: if any rational invariant separates the
/// two configurations, some basis law does.
///
/// The oracle is sound but (necessarily) incomplete overall — reachability
/// also fails for non-linear reasons — so a `None` answer means "explore".
pub struct InvariantOracle {
    laws: Vec<ConservationLaw>,
}

impl InvariantOracle {
    /// Computes the conservation-law basis of `compiled`.
    #[must_use]
    pub fn new(compiled: &CompiledCrn) -> Self {
        InvariantOracle {
            laws: conservation_basis(&Stoichiometry::of(compiled)),
        }
    }

    /// Returns a law weighing `source` and `target` differently, if one
    /// exists — a static proof that neither configuration can reach the
    /// other.  Both slices are dense count vectors; indices beyond the law
    /// stride (species untouched by every reaction) weigh zero.
    #[must_use]
    pub fn refutes(&self, source: &[u64], target: &[u64]) -> Option<&ConservationLaw> {
        self.laws.iter().find(|law| law.refutes(source, target))
    }

    /// The basis laws the oracle consults.
    #[must_use]
    pub fn laws(&self) -> &[ConservationLaw] {
        &self.laws
    }
}

/// The outcome of a purely static look at one box point: the interval
/// abstraction either proves the point passes, proves it cannot pass, or
/// abstains.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) enum StaticOutcome {
    /// Every reachable configuration carries the expected output count and
    /// the reachable space provably fits the search limit: the full check
    /// would return a correct verdict without erroring.
    Pass,
    /// The expected output count lies outside the reachable interval of the
    /// output species: the full check would fail or error, never pass.
    Fail,
}

/// Everything the box engine precomputes once per sweep: the box-wide hull
/// code space, the packed byte encoding, the symmetry group, and the
/// cross-worker summary exchange.  All of it depends only on the CRN, the
/// bound and the configuration limit, so the driver builds one plan and
/// every worker shares it by reference.
pub(super) struct SweepPlan {
    /// The mixed-radix code over the box-wide interval hull — a
    /// point-independent key space shared by every sweep point, used to key
    /// the cross-point cache.
    hull_spec: Option<DirectSpec>,
    /// The byte packing for certified-acyclic CRNs whose hull fits 7-bit
    /// lanes.
    packed: Option<PackedSpec>,
    /// Whether the hull provably fits the configuration limit: then no point
    /// of the sweep can error on it, and memo runs skip the per-summary size
    /// certificates.
    limit_certified: bool,
    /// Whether cross-point memoization can ever pay off: a hull code space
    /// exists and the conservation laws do not already separate every pair
    /// of box points into disjoint reachable sets.
    pub(super) cache_enabled: bool,
    /// Input permutations extending to CRN automorphisms, in skip
    /// orientation (see [`symmetry::input_automorphisms`]).
    pub(super) perms: Vec<Vec<usize>>,
    /// The cross-worker summary exchange.
    pub(super) shared: SharedLog,
}

impl SweepPlan {
    pub(super) fn build(
        crn: &FunctionCrn,
        analysis: &Arc<BoxAnalysis>,
        bound: u64,
        max_configurations: usize,
    ) -> SweepPlan {
        let compiled = CompiledCrn::compile(crn.crn());
        let stride = compiled.stride().max(crn.role_stride());
        // The hull is the interval analysis seeded at the box's top corner:
        // the monotone potentials and the liveness closure both grow with
        // the start, so the resulting box contains every configuration
        // reachable from *any* point of the sweep.
        let mut top = vec![0u64; stride];
        for species in &crn.roles().inputs {
            top[species.index()] = bound;
        }
        if let Some(leader) = crn.leader() {
            top[leader.index()] += 1;
        }
        let support: Vec<usize> = (0..stride).filter(|&s| top[s] > 0).collect();
        let live = Liveness::analyze(&compiled, &support);
        let hull = analysis.bounds.box_hull(&top, &live);
        let hull_spec = DirectSpec::build(&hull, &compiled);
        let packed = if analysis.acyclic {
            PackedSpec::build(
                &hull,
                &compiled,
                &analysis.laws,
                stride,
                crn.output().index(),
            )
        } else {
            None
        };
        let limit_certified = hull
            .state_space()
            .is_some_and(|v| v <= max_configurations as u128);
        // At full input rank the laws' values separate every pair of box
        // points, so reachable sets of distinct points are disjoint and the
        // cache could never hit.  An overflowing elimination reports rank 0
        // (the gate is a performance heuristic, never a soundness one).
        let inputs: Vec<usize> = crn.roles().inputs.iter().map(|s| s.index()).collect();
        let rank = echelon_pivots(law_matrix(&analysis.laws, &inputs)).map_or(0, |p| p.len());
        let cache_enabled = hull_spec.is_some() && rank < inputs.len();
        let perms = symmetry::input_automorphisms(crn, &compiled);
        SweepPlan {
            hull_spec,
            packed,
            limit_certified,
            cache_enabled,
            perms,
            shared: SharedLog::new(),
        }
    }
}

/// The codec × visitor pair that decides one point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Route {
    /// The hull-coded direct codec under the memo fold.
    HullMemo,
    /// Packed words in the dense visited table, terminal scan.
    PackedDenseScan,
    /// Packed words in the hashed code index, terminal scan.
    PackedHashScan,
    /// The point's interval-box code, terminal scan.
    DirectScan,
    /// The point's interval-box code, recover fold.
    DirectFold,
    /// Hash-interned count vectors, terminal scan.
    HashScan,
    /// Hash-interned count vectors, recover fold.
    HashFold,
}

/// Picks the route of one point.  The visitor comes from the acyclicity
/// certificate: every certified point takes the stubborn-set terminal scan,
/// on the byte packing of the sweep plan (`packed`, built only under the
/// certificate) or else on the point's own codec.  Without the certificate
/// the hull code under the memo fold runs when the cross-point cache is on
/// (`memo`), and the recover fold otherwise.  The point's codec is its
/// interval-box code when `box_fits` (finite and within
/// [`DIRECT_INDEX_CAP`], evaluated only when consulted), hash interning
/// otherwise.
fn route(
    memo: bool,
    packed: Option<&PackedSpec>,
    acyclic: bool,
    box_fits: impl FnOnce() -> bool,
) -> Route {
    if let Some(packed) = packed {
        return if packed.dense_volume > 0 {
            Route::PackedDenseScan
        } else {
            Route::PackedHashScan
        };
    }
    if memo && !acyclic {
        return Route::HullMemo;
    }
    match (box_fits(), acyclic) {
        (true, true) => Route::DirectScan,
        (true, false) => Route::DirectFold,
        (false, true) => Route::HashScan,
        (false, false) => Route::HashFold,
    }
}

/// A reusable stable-computation checker for one CRN: reactions are compiled
/// once, and the exploration state, condensation scratch and component arrays
/// are recycled across [`check`](VerdictEngine::check) calls.  The parallel
/// box driver gives each worker thread one engine.
///
/// A *pruned* engine ([`with_analysis`](VerdictEngine::with_analysis))
/// additionally carries the static-analysis artifacts — monotone-potential
/// [`SpeciesBounds`] and the signed conservation-law basis — and uses them
/// to (a) answer [`static_verdict`](VerdictEngine::static_verdict) queries
/// without building an arena, (b) [`decide`](VerdictEngine::decide) points,
/// and (c) explore through the mixed-radix code index whenever the proven
/// interval box is finite.  A *reference* engine
/// ([`reference`](VerdictEngine::reference)) skips all of it and always runs
/// the hash-interned BFS; both produce bit-identical verdicts wherever the
/// reference finishes within the limit.
pub(super) struct VerdictEngine<'c> {
    crn: &'c FunctionCrn,
    compiled: CompiledCrn,
    stride: usize,
    /// Static-analysis artifacts; `None` on a reference engine.  Behind an
    /// `Arc` because they depend only on the CRN: the box driver computes
    /// them once and every worker engine shares the result.
    analysis: Option<Arc<BoxAnalysis>>,
    /// The interval analysis of the last analyzed start configuration, so a
    /// [`static_verdict`](VerdictEngine::static_verdict) followed by a
    /// [`check`](VerdictEngine::check) on the same point pays for liveness
    /// and bound propagation once, not twice.
    cached_intervals: Option<(Vec<u64>, CountIntervals)>,
    state: ExploreState,
    /// The recover fold's per-component cells.
    cells: Vec<(u64, u64, bool)>,
    /// The terminal scan's stubborn-set scratch.
    closure: Closure,
    memo: MemoScratch,
    cond: Condensation,
    start_dense: Vec<u64>,
    start_support: Vec<usize>,
    comp_max: Vec<u64>,
    comp_min: Vec<u64>,
    comp_recovers: Vec<bool>,
    /// Pins the route of [`decide`](VerdictEngine::decide), so tests can
    /// run every codec × visitor pair against the reference engine.
    #[cfg(test)]
    route_override: Option<Route>,
}

impl<'c> VerdictEngine<'c> {
    /// The per-CRN static analysis the pruned engine runs on: monotone
    /// potential bounds plus the signed conservation-law basis.  Point
    /// independent, so a box driver computes it once and hands clones of the
    /// `Arc` to every worker via
    /// [`with_analysis`](VerdictEngine::with_analysis).
    pub(super) fn analyze(crn: &FunctionCrn) -> Arc<BoxAnalysis> {
        let compiled = CompiledCrn::compile(crn.crn());
        let stoich = Stoichiometry::of(&compiled);
        // An overflowed basis is `None`, never empty: it certifies nothing.
        let acyclic = t_invariant_basis(&stoich).is_some_and(|basis| basis.is_empty()) || {
            let flows = nonnegative_t_semiflows(&stoich, FARKAS_ROW_CAP);
            !flows.truncated && flows.semiflows.is_empty()
        };
        Arc::new(BoxAnalysis {
            bounds: SpeciesBounds::of(&compiled),
            laws: conservation_basis(&stoich),
            acyclic,
            stubborn: StubbornSets::of(&compiled),
        })
    }

    /// The analysis-free engine: plain hash-interned BFS on every point,
    /// exactly the pre-analysis behaviour, and the differential oracle of
    /// every other route.
    pub(super) fn reference(crn: &'c FunctionCrn) -> Self {
        Self::with_analysis(crn, None)
    }

    /// `(collisions, grows)` of the engine's configuration arena, cumulative
    /// over its lifetime — the observability layer's dedup metrics.
    pub(super) fn arena_metrics(&self) -> (u64, u64) {
        self.state.store.arena.metrics()
    }

    /// An engine with the given (possibly shared) analysis artifacts, or a
    /// reference engine when `None`.
    pub(super) fn with_analysis(crn: &'c FunctionCrn, analysis: Option<Arc<BoxAnalysis>>) -> Self {
        let compiled = CompiledCrn::compile(crn.crn());
        // The stride must cover every species the check can touch: the
        // compiled stride spans the CRN's own set plus any foreign species a
        // reaction sneaks in (`add_reaction` does not validate membership),
        // and the role stride covers the species the start configuration is
        // built from.
        let stride = compiled.stride().max(crn.role_stride());
        VerdictEngine {
            crn,
            compiled,
            stride,
            analysis,
            cached_intervals: None,
            state: ExploreState::default(),
            cells: Vec::new(),
            closure: Closure::default(),
            memo: MemoScratch::default(),
            cond: Condensation::empty(),
            start_dense: Vec::new(),
            start_support: Vec::new(),
            comp_max: Vec::new(),
            comp_min: Vec::new(),
            comp_recovers: Vec::new(),
            #[cfg(test)]
            route_override: None,
        }
    }

    /// Builds the initial configuration `I_x` densely into `start_dense`:
    /// input counts plus one leader.  Roles are validated distinct, so plain
    /// stores suffice.
    fn build_start(&mut self, x: &NVec) {
        self.start_dense.clear();
        self.start_dense.resize(self.stride, 0);
        for (i, species) in self.crn.roles().inputs.iter().enumerate() {
            self.start_dense[species.index()] = x[i];
        }
        if let Some(leader) = self.crn.leader() {
            self.start_dense[leader.index()] += 1;
        }
    }

    /// Ensures `cached_intervals` holds the reachable-count intervals of the
    /// current `start_dense`; returns `false` on a reference engine (no
    /// analysis, nothing cached).
    fn refresh_intervals(&mut self) -> bool {
        let Some(analysis) = self.analysis.as_ref() else {
            return false;
        };
        let BoxAnalysis { bounds, laws, .. } = &**analysis;
        let stale = self
            .cached_intervals
            .as_ref()
            .map_or(true, |(start, _)| *start != self.start_dense);
        if stale {
            self.start_support.clear();
            self.start_support
                .extend((0..self.stride).filter(|&s| self.start_dense[s] > 0));
            let live = Liveness::analyze(&self.compiled, &self.start_support);
            let intervals = bounds.intervals(&self.start_dense, &live, laws);
            self.cached_intervals = Some((self.start_dense.clone(), intervals));
        }
        true
    }

    /// The volume of the current start's interval box, if finite (always
    /// `None` on a reference engine).
    fn point_volume(&mut self) -> Option<u128> {
        if !self.refresh_intervals() {
            return None;
        }
        self.cached_intervals.as_ref()?.1.state_space()
    }

    /// The direct code over the current start's interval box, when it is
    /// finite and within the cap.
    fn point_spec(&mut self) -> Option<DirectSpec> {
        if !self.refresh_intervals() {
            return None;
        }
        let (_, intervals) = self.cached_intervals.as_ref()?;
        DirectSpec::build(intervals, &self.compiled)
    }

    /// Classifies `x` without exploring: `Some(Pass)` and `Some(Fail)` are
    /// proofs about what [`check`](VerdictEngine::check) would return, `None`
    /// means the analysis abstains (always the case on a reference engine or
    /// a dimension mismatch — the full check owns those errors).
    pub(super) fn static_verdict(
        &mut self,
        x: &NVec,
        expected_output: u64,
        max_configurations: usize,
    ) -> Option<StaticOutcome> {
        if x.dim() != self.crn.dim() {
            return None;
        }
        self.build_start(x);
        if !self.refresh_intervals() {
            return None;
        }
        let (_, intervals) = self.cached_intervals.as_ref().expect("just refreshed");
        let out = self.crn.output().index();
        if expected_output < intervals.lower(out)
            || intervals.upper(out).is_some_and(|u| expected_output > u)
        {
            // No reachable configuration carries the expected count, so no
            // stable-with-expected-output configuration exists: the full
            // check fails (or exceeds the search limit trying).
            return Some(StaticOutcome::Fail);
        }
        if intervals.pinned(out) == Some(expected_output)
            && intervals
                .state_space()
                .is_some_and(|v| v <= max_configurations as u128)
        {
            // The output count is invariant across the whole reachable
            // space, so every configuration is output-stable with the
            // expected value, and the space provably fits the limit.
            return Some(StaticOutcome::Pass);
        }
        None
    }

    /// The route [`decide`](VerdictEngine::decide) takes on the current
    /// start; `memo` says whether the cross-point cache is on.
    fn pick_route(&mut self, plan: &SweepPlan, memo: bool) -> Route {
        #[cfg(test)]
        if let Some(route) = self
            .route_override
            .filter(|&r| memo || r != Route::HullMemo)
        {
            return route;
        }
        let acyclic = self.analysis.as_ref().is_some_and(|a| a.acyclic);
        route(memo, plan.packed.as_ref(), acyclic, || {
            self.point_volume().is_some_and(|v| v <= DIRECT_INDEX_CAP)
        })
    }

    /// Decides whether the CRN stably computes `expected_output` on `x` —
    /// the `correct` flag [`check`](VerdictEngine::check) would report —
    /// without materializing a verdict.  `Ok(true)` certifies the point
    /// passes with the route's exploration within the limit: a stubborn-set
    /// terminal scan stores fewer configurations than `check`, which may
    /// still give up on the point.  `Ok(false)` certifies the full check
    /// fails or errors, and may come early, pre-empting the limit error.
    /// [`route`] picks the codec and visitor.  On a cyclic CRN with a
    /// cache, the memoizing pass runs first and falls back to the exact
    /// route when it cannot certify the limit.  The work is counted into
    /// `stats`.
    #[allow(clippy::too_many_arguments)] // the point, the sweep plan's layers, the counters
    pub(super) fn decide(
        &mut self,
        x: &NVec,
        expected_output: u64,
        max_configurations: usize,
        plan: &SweepPlan,
        cache: Option<&mut MemoCache>,
        pending: &mut Vec<(u64, Summary)>,
        stats: &mut BoxCheckStats,
    ) -> Result<bool, CrnError> {
        if x.dim() != self.crn.dim() {
            return Err(CrnError::DimensionMismatch {
                expected: self.crn.dim(),
                actual: x.dim(),
            });
        }
        self.build_start(x);
        let mut route = self.pick_route(plan, cache.is_some());
        if route == Route::HullMemo {
            let cache = cache.expect("the memo route runs with a cache");
            if let Some(decision) = self.decide_memo(
                expected_output,
                max_configurations,
                plan,
                cache,
                pending,
                stats,
            )? {
                return Ok(decision);
            }
            route = self.pick_route(plan, false);
        }
        stats.decided += 1;
        let (result, explored) = self.run_route(route, plan, expected_output, max_configurations);
        stats.configs_explored += u64::try_from(explored).expect("usize fits u64");
        result
    }

    /// The memo route: answers from a summary cached for the start itself,
    /// or runs the memo fold over the hull code and publishes its finished
    /// components.  `Ok(None)` means "a pass this run cannot certify against
    /// the limit": the caller reruns the point on an exact route.
    fn decide_memo(
        &mut self,
        expected: u64,
        limit: usize,
        plan: &SweepPlan,
        cache: &mut MemoCache,
        pending: &mut Vec<(u64, Summary)>,
        stats: &mut BoxCheckStats,
    ) -> Result<Option<bool>, CrnError> {
        let hull = plan
            .hull_spec
            .as_ref()
            .expect("an enabled cache implies a hull code space");
        cache.import(&plan.shared);
        // "The reference exploration fits the limit" needs a certificate:
        // the sweep-wide one, or the closure's size bound.
        let fits = |size: u64| plan.limit_certified || size <= limit as u64;
        if let Some(summary) = cache.lookup(hull.encode(&self.start_dense)) {
            stats.cache_served += 1;
            if !cache.pool.contains(summary.rset, expected) {
                return Ok(Some(false));
            }
            return Ok(fits(summary.size_bound).then_some(true));
        }
        let hits_before = cache.hits;
        pending.clear();
        self.memo.comps.clear();
        self.memo.hits.clear();
        self.memo.hit_stamps.clear();
        self.memo.hit_ids.clear();
        let out = self.crn.output().index();
        let store = &mut self.state.store;
        let mut codec = Direct::new(hull, &self.compiled, out, store, &self.start_dense);
        let mut fold = MemoFold {
            expected,
            cache,
            pending,
            memo: &mut self.memo,
        };
        let result = dfs(&mut codec, &mut fold, &mut self.state.dfs, limit);
        stats.configs_explored += codec.len() as u64;
        let decision = match result {
            Err(e) => {
                // The summaries die with the error: publishing partial work
                // could make cache contents (and thus hit counters) depend
                // on which worker errored first.
                stats.publish_suppressed += pending.len() as u64;
                pending.clear();
                return Err(e);
            }
            // A non-recovering component: the full check fails or errors.
            Ok(false) => Some(false),
            Ok(true) => {
                let root = self.memo.comps.last().expect("the root component popped");
                fits(root.size_bound).then_some(true)
            }
        };
        // Publish the finished components — their closures were fully
        // summarized even if the decision came early.
        for &(code, summary) in pending.iter() {
            cache.insert(code, summary);
        }
        cache.export(&plan.shared, pending);
        pending.clear();
        if cache.hits > hits_before {
            stats.cache_served += 1;
        }
        if decision.is_some() {
            stats.decided += 1;
        }
        Ok(decision)
    }

    /// Runs one exact route on the current start; returns the decision and
    /// the number of configurations stored.
    fn run_route(
        &mut self,
        route: Route,
        plan: &SweepPlan,
        expected: u64,
        limit: usize,
    ) -> (Result<bool, CrnError>, usize) {
        let point = matches!(route, Route::DirectScan | Route::DirectFold).then(|| {
            self.point_spec()
                .expect("the route checked the point's box")
        });
        let packed = plan.packed.as_ref();
        let (compiled, start) = (&self.compiled, &self.start_dense);
        let out = self.crn.output().index();
        let (store, g) = (&mut self.state.store, &mut self.state.dfs);
        let analysis = self
            .analysis
            .as_deref()
            .expect("decisions run on pruned engines");
        let scan = &mut TerminalScan {
            expected,
            stubborn: &analysis.stubborn,
            closure: &mut self.closure,
        };
        self.cells.clear();
        let fold = &mut RecoverFold {
            expected,
            cells: &mut self.cells,
        };
        match route {
            Route::HullMemo => unreachable!("the memo route runs through decide_memo"),
            Route::PackedDenseScan | Route::PackedHashScan => {
                let spec = packed.expect("packed routes have a packing");
                if route == Route::PackedDenseScan {
                    let mut codec = Packed::<true>::new(spec, store, spec.pack(start));
                    (bfs(&mut codec, scan, limit), codec.len())
                } else {
                    let mut codec = Packed::<false>::new(spec, store, spec.pack(start));
                    (bfs(&mut codec, scan, limit), codec.len())
                }
            }
            Route::DirectScan | Route::DirectFold => {
                let spec = point.as_ref().expect("built above");
                let mut codec = Direct::new(spec, compiled, out, store, start);
                let result = if route == Route::DirectScan {
                    bfs(&mut codec, scan, limit)
                } else {
                    dfs(&mut codec, fold, g, limit)
                };
                (result, codec.len())
            }
            Route::HashScan | Route::HashFold => {
                let mut codec = Hash::new(compiled, out, store, start);
                let result = if route == Route::HashScan {
                    bfs(&mut codec, scan, limit)
                } else {
                    dfs(&mut codec, fold, g, limit)
                };
                (result, codec.len())
            }
        }
    }

    /// Checks whether the CRN stably computes `expected_output` on `x`.
    /// Equivalent to [`super::check_stable_computation`] (which is this, run
    /// on a fresh engine).  The exploration is breadth-first, so ids — and
    /// the configuration a failure message names — are discovery order.
    pub(super) fn check(
        &mut self,
        x: &NVec,
        expected_output: u64,
        max_configurations: usize,
    ) -> Result<StableComputationVerdict, CrnError> {
        if x.dim() != self.crn.dim() {
            return Err(CrnError::DimensionMismatch {
                expected: self.crn.dim(),
                actual: x.dim(),
            });
        }
        self.build_start(x);
        let spec = self.point_spec();
        let start = &self.start_dense;
        self.state
            .graph(&self.compiled, start, spec.as_ref(), max_configurations)?;
        self.cond.rebuild(&self.state.csr);

        let arena = &self.state.store.arena;
        let csr = &self.state.csr;
        let cond = &self.cond;
        let out_idx = self.crn.output().index();
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
                arena.sparse(bad).display(self.crn.crn().species()),
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
    use crate::examples;
    use crate::reaction::Reaction;
    use crate::species::Species;
    use proptest::prelude::*;

    fn input_indices(crn: &FunctionCrn) -> Vec<usize> {
        crn.roles().inputs.iter().map(|s| s.index()).collect()
    }

    #[test]
    fn max_laws_have_full_input_rank_so_the_cache_stays_off() {
        let max = examples::max_crn();
        let analysis = VerdictEngine::analyze(&max);
        assert_eq!(analysis.laws.len(), 2);
        let pivots = echelon_pivots(law_matrix(&analysis.laws, &input_indices(&max)));
        assert_eq!(pivots.map(|p| p.len()), Some(2));
        assert!(!SweepPlan::build(&max, &analysis, 3, 10_000).cache_enabled);
    }

    #[test]
    fn add_law_has_rank_one_so_the_cache_stays_on() {
        let mut crn = Crn::new();
        crn.parse_reaction("X1 -> Y").unwrap();
        crn.parse_reaction("X2 -> Y").unwrap();
        let add = FunctionCrn::with_named_roles(crn, &["X1", "X2"], "Y", None).unwrap();
        let analysis = VerdictEngine::analyze(&add);
        assert_eq!(analysis.laws.len(), 1);
        let pivots = echelon_pivots(law_matrix(&analysis.laws, &input_indices(&add)));
        assert_eq!(pivots.map(|p| p.len()), Some(1));
        assert!(SweepPlan::build(&add, &analysis, 3, 10_000).cache_enabled);
    }

    #[test]
    fn overflowing_elimination_gives_none() {
        assert_eq!(echelon_pivots(vec![vec![i128::MAX, 1], vec![2, 3]]), None);
        assert_eq!(
            echelon_pivots(vec![vec![2, 4], vec![1, 2], vec![0, 3]]),
            Some(vec![0, 1])
        );
    }

    #[test]
    fn oversized_acyclic_boxes_route_to_the_hash_scan() {
        // X -> A1 + … + A31 at x = 3: four reachable configurations in an
        // interval box of 4^32 states, past the direct-code cap, and 32
        // species, past the packing's 8 lanes.
        let products: Vec<String> = (1..=31).map(|i| format!("A{i}")).collect();
        let mut crn = Crn::new();
        crn.parse_reaction(&format!("X -> {}", products.join(" + ")))
            .unwrap();
        let fanout = FunctionCrn::with_named_roles(crn, &["X"], "A1", None).unwrap();
        let analysis = VerdictEngine::analyze(&fanout);
        assert!(analysis.acyclic);
        let plan = SweepPlan::build(&fanout, &analysis, 3, 1_000);
        assert!(plan.hull_spec.is_none() && plan.packed.is_none());
        let mut engine = VerdictEngine::with_analysis(&fanout, Some(analysis));
        let x = NVec::from(vec![3]);
        engine.build_start(&x);
        assert_eq!(engine.pick_route(&plan, false), Route::HashScan);
        let mut stats = BoxCheckStats::default();
        let decided = engine.decide(&x, 3, 1_000, &plan, None, &mut Vec::new(), &mut stats);
        assert_eq!(decided, Ok(true));
        assert_eq!((stats.decided, stats.configs_explored), (1, 4));
    }

    /// Every route [`route`] can select.
    const ROUTES: [Route; 7] = [
        Route::HullMemo,
        Route::PackedDenseScan,
        Route::PackedHashScan,
        Route::DirectScan,
        Route::DirectFold,
        Route::HashScan,
        Route::HashFold,
    ];

    /// Whether `route` can decide the engine's current start: its codec
    /// exists, and a terminal scan needs the acyclicity certificate (the
    /// packing is only ever built under it).
    fn admissible(engine: &mut VerdictEngine<'_>, plan: &SweepPlan, route: Route) -> bool {
        let acyclic = engine.analysis.as_ref().is_some_and(|a| a.acyclic);
        let box_fits = engine.point_volume().is_some_and(|v| v <= DIRECT_INDEX_CAP);
        match route {
            Route::HullMemo => plan.hull_spec.is_some(),
            Route::PackedDenseScan => plan.packed.as_ref().is_some_and(|p| p.dense_volume > 0),
            Route::PackedHashScan => plan.packed.is_some(),
            Route::DirectScan => box_fits && acyclic,
            Route::DirectFold => box_fits,
            Route::HashScan => acyclic,
            Route::HashFold => true,
        }
    }

    /// Decides every point of `[0, bound]` on every admissible route — each
    /// route with its own plan and cache, swept in box order so later points
    /// meet summaries of earlier ones as virtual children — and compares
    /// with the reference engine: `Ok(true)` exactly when the reference
    /// verdict is correct, otherwise a reference failure or the identical
    /// error.  The one exception is a stubborn-set scan, which stores fewer
    /// configurations than the reference: it may pass a point past the
    /// limit, and the reference must then pass it at a raised limit.  Every
    /// scan codec fires the same stubborn sets in the same order, so all of
    /// them store the same number of configurations at each point.  The
    /// reference verdict comes from `Condensation::rebuild` plus
    /// `fold_into`, so the fold routes are held to exactly those folds.
    fn routes_match_reference(crn: &FunctionCrn, f: impl Fn(&NVec) -> u64, bound: u64) {
        const LIMIT: usize = 300;
        const RAISED: usize = 300_000;
        let analysis = VerdictEngine::analyze(crn);
        let mut reference = VerdictEngine::reference(crn);
        let mut scanned: HashMap<NVec, u64> = HashMap::new();
        for route in ROUTES {
            let scan = matches!(
                route,
                Route::PackedDenseScan
                    | Route::PackedHashScan
                    | Route::DirectScan
                    | Route::HashScan
            );
            let plan = SweepPlan::build(crn, &analysis, bound, LIMIT);
            let mut engine = VerdictEngine::with_analysis(crn, Some(Arc::clone(&analysis)));
            engine.route_override = Some(route);
            let mut cache = MemoCache::default();
            let (mut pending, mut stats) = (Vec::new(), BoxCheckStats::default());
            for x in NVec::box_iter(crn.dim(), bound) {
                engine.build_start(&x);
                if !admissible(&mut engine, &plan, route) {
                    continue;
                }
                let expected = f(&x);
                let before = stats.configs_explored;
                let decided = engine.decide(
                    &x,
                    expected,
                    LIMIT,
                    &plan,
                    Some(&mut cache),
                    &mut pending,
                    &mut stats,
                );
                if scan {
                    let stored = stats.configs_explored - before;
                    let first = *scanned.entry(x.clone()).or_insert(stored);
                    prop_assert_eq!(stored, first, "{:?} at {}", route, x);
                }
                match (decided, reference.check(&x, expected, LIMIT)) {
                    (Ok(decision), Ok(verdict)) => {
                        prop_assert_eq!(decision, verdict.is_correct(), "{:?} at {}", route, x);
                    }
                    (Ok(true), Err(_)) => {
                        prop_assert!(scan, "{:?} passed {} past the limit", route, x);
                        let raised = reference.check(&x, expected, RAISED);
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
    fn every_scan_codec_fires_the_same_stubborn_sets() {
        // At I_(x, c) the seed `X -> Y` conflicts with the disabled
        // `X + A + B -> Y`, which lacks A and B.  Its lowest lacking species
        // is A, whose producer `C -> A` joins the closure: nothing is pruned.
        // A codec that named B instead (nothing produces B) would prune
        // `C -> A` and store fewer configurations than the others.
        let mut crn = Crn::new();
        for reaction in ["X -> Y", "X + A + B -> Y", "C -> A"] {
            crn.parse_reaction(reaction).unwrap();
        }
        let crn = FunctionCrn::with_named_roles(crn, &["X", "C"], "Y", None).unwrap();
        assert!(VerdictEngine::analyze(&crn).acyclic);
        routes_match_reference(&crn, |x| x[0], 2);
    }

    #[test]
    fn an_overflowing_t_invariant_basis_certifies_nothing() {
        // The cycle closes only after E -> 0 fires 2^128 times per 0 -> A:
        // its T-invariant does not fit i128, and the CRN is not acyclic.
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
        assert!(!VerdictEngine::analyze(&crn).acyclic);
    }

    /// A CRN over `{X, Y, Z}` from sampled stoichiometries: input `X`,
    /// output `Y`.
    fn random_crn(stoich: &[Vec<u64>]) -> FunctionCrn {
        let mut crn = Crn::new();
        let species: Vec<Species> = ["X", "Y", "Z"].iter().map(|n| crn.add_species(n)).collect();
        for row in stoich {
            let side = |counts: &[u64]| -> Vec<(Species, u64)> {
                species
                    .iter()
                    .copied()
                    .zip(counts.iter().copied())
                    .collect()
            };
            crn.add_reaction(Reaction::new(side(&row[0..3]), side(&row[3..6])));
        }
        FunctionCrn::with_named_roles(crn, &["X"], "Y", None).expect("valid roles")
    }

    /// Collects the terminal configurations a hash-coded BFS reaches,
    /// firing only stubborn sets when `stubborn` is given.
    struct Terminals<'a> {
        stubborn: Option<(&'a StubbornSets, Closure)>,
        found: Vec<Vec<u64>>,
    }

    impl BfsVisitor<Hash<'_>> for Terminals<'_> {
        fn select(&mut self, codec: &Hash<'_>, enabled: &mut Vec<usize>) {
            if let Some((table, closure)) = &mut self.stubborn {
                table.reduce(enabled, |r| codec.lacking(r), closure);
            }
        }

        fn edge(&mut self, _: &mut Hash<'_>, _: NodeId, _: NodeId) {}

        fn expanded(&mut self, codec: &Hash<'_>, v: NodeId, terminal: bool) -> bool {
            if terminal {
                self.found.push(codec.s.arena.get(v.index()).to_vec());
            }
            true
        }
    }

    /// Sorted terminal configurations, and the configurations stored.
    type TerminalRun = (Vec<Vec<u64>>, usize);

    /// The terminal run of a BFS from `start`, reduced by `stubborn` when
    /// given.
    fn terminals(
        compiled: &CompiledCrn,
        start: &[u64],
        stubborn: Option<&StubbornSets>,
    ) -> Result<TerminalRun, CrnError> {
        let mut store = Store::default();
        let mut codec = Hash::new(compiled, 0, &mut store, start);
        let mut visitor = Terminals {
            stubborn: stubborn.map(|table| (table, Closure::default())),
            found: Vec::new(),
        };
        bfs(&mut codec, &mut visitor, 20_000)?;
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
            mix_code(state) % n
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
        let analysis = VerdictEngine::analyze(&crn);
        assert!(
            analysis.acyclic,
            "seed {seed}: the weighting certifies acyclicity"
        );
        let compiled = CompiledCrn::compile(crn.crn());
        let full = terminals(&compiled, &start, None).ok()?;
        let reduced = terminals(&compiled, &start, Some(&analysis.stubborn))
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
        /// to its start, the certificate holds, and the scan and packed
        /// routes run.
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
            prop_assert!(VerdictEngine::analyze(&crn).acyclic);
            routes_match_reference(&crn, |x| a * x[0] + b, bound);
        }
    }
}
