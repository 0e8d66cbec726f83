//! Exhaustive bounded reachability and stable-computation checking.
//!
//! Stable computation (Section 2.2) is a reachability property: a CRN stably
//! computes `f` on input `x` if from *every* configuration reachable from the
//! initial configuration `I_x`, a *stable* configuration with output count
//! `f(x)` remains reachable.  For the small CRNs used throughout the paper the
//! reachable configuration space is finite, so the property can be checked
//! exactly by exhaustive search; this module implements that check plus the
//! "maximum output ever reachable" query used by the impossibility witnesses
//! (Lemma 4.1 / Figure 6).
//!
//! # Engine architecture
//!
//! The checker is organised as a small subsystem:
//!
//! * [`arena`](self) (internal) — an interned **configuration arena**: dense
//!   count vectors in one allocation, with an open-addressing hash index over
//!   arena ids, so exploration never clones a sparse configuration per edge;
//! * [`CsrGraph`] — successor storage laid out in **compressed sparse row**
//!   form directly during the breadth-first exploration;
//! * [`Condensation`] — **Tarjan SCC condensation**; the three reachability
//!   queries behind a verdict (max/min reachable output, recoverability)
//!   each become one linear pass over the components in reverse topological
//!   order instead of an iterate-until-stable fixpoint;
//! * the **exploration engine** (internal) — two generic traversals, one
//!   breadth-first and one depth-first with Tarjan inline, over interchangeable
//!   state codecs (hash-interned, mixed-radix coded, byte-packed), each
//!   driving a visitor that builds the graph or decides the verdict; the
//!   decision for certified-acyclic CRNs fires only stubborn sets, which
//!   keep every reachable terminal configuration;
//! * [`check_on_box`] / [`BoxCheck`] — a **parallel driver** sharding the
//!   input box across scoped threads with a deterministic,
//!   lexicographically-first result.

mod arena;
mod csr;
mod engine;
mod memo;
mod parallel;
mod scc;
mod stubborn;
mod symmetry;

use crn_sync::OnceLock;

use serde::{Deserialize, Serialize};

use crn_numeric::NVec;

use crate::config::Configuration;
use crate::crn::Crn;
use crate::error::CrnError;
use crate::function::FunctionCrn;
use crate::species::Species;

use arena::ConfigArena;
use engine::{ExploreState, VerdictEngine};

pub use csr::CsrGraph;
pub use engine::InvariantOracle;
pub use scc::Condensation;

/// Limits for exhaustive exploration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ReachabilityLimits {
    /// Maximum number of distinct configurations to explore before giving up.
    pub max_configurations: usize,
}

impl Default for ReachabilityLimits {
    fn default() -> Self {
        ReachabilityLimits {
            max_configurations: 200_000,
        }
    }
}

/// Observability counters for one box sweep: how many points the engine
/// actually explored versus decided statically, served from the cross-point
/// cache, or skipped as symmetry replays.  Returned by [`BoxCheck::run`] and
/// surfaced by `crn verify --stats`.
///
/// The counters never influence verdicts; they exist so the effect of each
/// incremental layer is measurable on real sweeps.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct BoxCheckStats {
    /// Total number of points in the box.
    pub points: u64,
    /// Points that reached an engine pass (everything except symmetry skips).
    pub evaluated: u64,
    /// Points skipped because an input automorphism maps them to a
    /// lexicographically smaller point with the same expected output.
    pub symmetry_skipped: u64,
    /// Points decided `Pass` by the static interval analysis alone.
    pub static_pass: u64,
    /// Points decided `Fail` by the static interval analysis alone.
    pub static_fail: u64,
    /// Points settled by an exploration: a decision pass (including memo
    /// runs that populated or consulted the cache), or a full verdict on the
    /// reference engine.
    pub decided: u64,
    /// Points whose decision came at least partly from cached summaries (a
    /// root-level cache hit, or a frontier that hit summarized territory).
    pub cache_served: u64,
    /// Configurations materialized across every exploration of the sweep.
    pub configs_explored: u64,
    /// Lookups into the cross-point summary cache.
    pub cache_lookups: u64,
    /// Lookups that found a summary.
    pub cache_hits: u64,
    /// Distinct summaries held by the largest per-worker cache at the end of
    /// the sweep.
    pub cache_entries: u64,
    /// Component summaries discarded unpublished because their memoizing
    /// exploration errored out (the error, not the summaries, is the
    /// exploration's result; publishing partial work could differ between
    /// worker interleavings).
    pub publish_suppressed: u64,
}

impl BoxCheckStats {
    /// The fraction of cache lookups that hit, or 0.0 for a sweep that never
    /// looked (cache disabled or no decision pass ran).
    #[must_use]
    pub fn cache_hit_rate(&self) -> f64 {
        if self.cache_lookups == 0 {
            0.0
        } else {
            #[allow(clippy::cast_precision_loss)]
            {
                self.cache_hits as f64 / self.cache_lookups as f64
            }
        }
    }

    /// Folds one worker's counters into the sweep totals.  `points` is set
    /// once by the driver, and `cache_entries` reports the largest per-worker
    /// cache (entries are duplicated across workers by the shared log, so
    /// summing would double-count).
    fn merge(&mut self, other: &BoxCheckStats) {
        self.evaluated += other.evaluated;
        self.symmetry_skipped += other.symmetry_skipped;
        self.static_pass += other.static_pass;
        self.static_fail += other.static_fail;
        self.decided += other.decided;
        self.cache_served += other.cache_served;
        self.configs_explored += other.configs_explored;
        self.cache_lookups += other.cache_lookups;
        self.cache_hits += other.cache_hits;
        self.cache_entries = self.cache_entries.max(other.cache_entries);
        self.publish_suppressed += other.publish_suppressed;
    }
}

/// The reachability graph over the configurations reachable from a start
/// configuration.
///
/// Configurations live in a dense interned arena; sparse [`Configuration`]
/// values are materialized lazily, only if [`configurations`] is called.
///
/// [`configurations`]: ReachabilityGraph::configurations
#[derive(Debug, Clone)]
pub struct ReachabilityGraph {
    arena: ConfigArena,
    csr: CsrGraph,
    sparse: OnceLock<Vec<Configuration>>,
}

impl ReachabilityGraph {
    /// Explores all configurations reachable from `start` in `crn`,
    /// breadth-first.  Configuration ids are discovery (BFS) order; id 0 is
    /// `start`.
    ///
    /// # Errors
    ///
    /// Returns [`CrnError::SearchLimitExceeded`] if more than
    /// `limits.max_configurations` distinct configurations are found.
    pub fn explore(
        crn: &Crn,
        start: &Configuration,
        limits: ReachabilityLimits,
    ) -> Result<Self, CrnError> {
        let compiled = crate::compiled::CompiledCrn::compile(crn);
        let stride = arena::stride_for(compiled.stride(), start);
        let start_dense = arena::to_dense(start, stride).expect("stride covers start");
        let mut state = ExploreState::default();
        state.graph(&compiled, &start_dense, None, limits.max_configurations)?;
        Ok(ReachabilityGraph {
            arena: state.store.arena,
            csr: state.csr,
            sparse: OnceLock::new(),
        })
    }

    /// The number of distinct reachable configurations.
    #[must_use]
    pub fn len(&self) -> usize {
        self.arena.len()
    }

    /// Whether the graph is empty (never the case after a successful explore).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.arena.len() == 0
    }

    /// All reachable configurations (index 0 is the start configuration).
    ///
    /// Materialized from the arena on first call and cached.
    #[must_use]
    pub fn configurations(&self) -> &[Configuration] {
        self.sparse.get_or_init(|| {
            (0..self.arena.len())
                .map(|i| self.arena.sparse(i))
                .collect()
        })
    }

    /// Whether `target` is reachable from the start configuration.
    ///
    /// An O(1) expected-time query through the arena's hash index, which stays
    /// alive after [`explore`](ReachabilityGraph::explore).
    #[must_use]
    pub fn contains(&self, target: &Configuration) -> bool {
        match arena::to_dense(target, self.arena.stride()) {
            Some(dense) => self.arena.lookup(&dense).is_some(),
            // A positive count of a species outside the explored stride can
            // never have been interned.
            None => false,
        }
    }

    /// The successors of configuration `id`, in discovery order.
    #[must_use]
    pub fn successors(&self, id: usize) -> &[usize] {
        self.csr.successors(id)
    }

    /// The CSR successor structure of the graph.
    #[must_use]
    pub fn graph(&self) -> &CsrGraph {
        &self.csr
    }

    /// The Tarjan condensation of the graph (one linear pass).
    #[must_use]
    pub fn condensation(&self) -> Condensation {
        Condensation::of(&self.csr)
    }

    /// The count of `species` in every reachable configuration, by id.
    #[must_use]
    pub fn species_counts(&self, species: Species) -> Vec<u64> {
        let idx = species.index();
        if idx >= self.arena.stride() {
            return vec![0; self.arena.len()];
        }
        (0..self.arena.len())
            .map(|i| self.arena.get(i)[idx])
            .collect()
    }
}

/// The result of checking whether a CRN stably computes a value on one input.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct StableComputationVerdict {
    /// The input that was checked.
    pub input: NVec,
    /// The expected output `f(x)`.
    pub expected_output: u64,
    /// Whether the CRN stably computes `f(x)` on this input.
    pub correct: bool,
    /// The number of distinct reachable configurations explored.
    pub reachable_configurations: usize,
    /// The largest output count in any reachable configuration.  A value
    /// greater than `expected_output` in an output-oblivious CRN is a proof of
    /// incorrectness (output can never be consumed again).
    pub max_output_reachable: u64,
    /// The set of output values of stable reachable configurations.
    pub stable_outputs: Vec<u64>,
    /// If incorrect, a human-readable reason.
    pub failure: Option<String>,
}

impl StableComputationVerdict {
    /// Whether the CRN stably computes the expected value on this input.
    #[must_use]
    pub fn is_correct(&self) -> bool {
        self.correct
    }
}

/// Checks whether `crn` stably computes `expected_output` on input `x` by
/// exhaustive bounded reachability.
///
/// One BFS exploration plus one Tarjan condensation answer all three
/// reachability queries (max/min reachable output and recoverability) in time
/// linear in the explored graph.
///
/// # Errors
///
/// Returns [`CrnError::DimensionMismatch`] for an input of the wrong arity and
/// [`CrnError::SearchLimitExceeded`] if the reachable space exceeds
/// `max_configurations`.
pub fn check_stable_computation(
    crn: &FunctionCrn,
    x: &NVec,
    expected_output: u64,
    max_configurations: usize,
) -> Result<StableComputationVerdict, CrnError> {
    VerdictEngine::with_analysis(crn, Some(VerdictEngine::analyze(crn))).check(
        x,
        expected_output,
        max_configurations,
    )
}

/// Checks stable computation of `f` on every input in the box `[0, bound]^d`,
/// sharding the inputs across worker threads (up to one per available core,
/// with each worker granted enough inputs to amortize its spawn cost).
///
/// The scan runs the *incremental* box engine: it decides points statically
/// from the interval analysis where it can, skips inputs whose symmetry
/// orbit already contains a checked representative, and explores the rest
/// through the cheapest state codec the analysis admits.  Certified-acyclic
/// CRNs take a terminal scan that fires only stubborn sets; other CRNs
/// memoize per-component output-set summaries across box points (keyed by
/// the box-wide hull code, shared across workers) when the conservation
/// laws allow cross-point hits.  Box points are decoded from a mixed-radix
/// index on demand, so the sweep allocates `O(1)` memory in the box size.
/// The result is nonetheless bit-identical to [`BoxCheck::reference`] — the
/// first failing verdict in lexicographic input order, the same one a
/// sequential unpruned scan would return, byte identical failure messages
/// and errors included — or `Ok(None)` if all inputs pass, wherever the
/// reference finishes within `max_configurations`.  The limit bounds the
/// configurations each exploration stores, and the terminal scan stores
/// fewer than the reference, so it may pass a point the reference gives up
/// on.
///
/// # Errors
///
/// Propagates the errors of [`check_stable_computation`]; when several inputs
/// fail or error, the outcome of the lexicographically-first one wins.
pub fn check_on_box(
    crn: &FunctionCrn,
    f: impl Fn(&NVec) -> u64 + Sync,
    bound: u64,
    max_configurations: usize,
) -> Result<Option<StableComputationVerdict>, CrnError> {
    BoxCheck::new(crn, f, bound, max_configurations).run().0
}

/// A configurable [`check_on_box`] sweep: the engine and the worker count,
/// with the sweep's [`BoxCheckStats`] returned alongside the outcome.
///
/// ```
/// use crn_model::{examples, BoxCheck};
///
/// let min = examples::min_crn();
/// let (outcome, stats) = BoxCheck::new(&min, |x| x[0].min(x[1]), 3, 10_000)
///     .workers(1)
///     .run();
/// assert_eq!(outcome, Ok(None));
/// assert_eq!(stats.points, 16);
/// ```
pub struct BoxCheck<'a, F> {
    crn: &'a FunctionCrn,
    f: F,
    bound: u64,
    max_configurations: usize,
    workers: Option<usize>,
    reference: bool,
}

impl<'a, F: Fn(&NVec) -> u64 + Sync> BoxCheck<'a, F> {
    /// A sweep of `crn` against `f` on `[0, bound]^d` on the incremental
    /// engine, with the default worker count.
    pub fn new(crn: &'a FunctionCrn, f: F, bound: u64, max_configurations: usize) -> Self {
        BoxCheck {
            crn,
            f,
            bound,
            max_configurations,
            workers: None,
            reference: false,
        }
    }

    /// Runs the reference engine instead: no static analysis, a full
    /// hash-interned verdict at every point.  The differential oracle of the
    /// incremental engine — both return bit-identical outcomes wherever the
    /// reference finishes within the limit.  Its stats count every checked
    /// point as decided.
    #[must_use]
    pub fn reference(mut self) -> Self {
        self.reference = true;
        self
    }

    /// Pins the worker-thread count (`1` runs the plain sequential scan).
    /// Outcomes are identical at every worker count.
    #[must_use]
    pub fn workers(mut self, workers: usize) -> Self {
        self.workers = Some(workers);
        self
    }

    /// Runs the sweep: the verdict of the lexicographically-first input that
    /// does not pass (or `Ok(None)`), plus the sweep's counters.
    ///
    /// # Errors
    ///
    /// The outcome propagates the errors of [`check_stable_computation`]
    /// exactly as [`check_on_box`] does.
    pub fn run(
        &self,
    ) -> (
        Result<Option<StableComputationVerdict>, CrnError>,
        BoxCheckStats,
    ) {
        // By default, one worker per available core, capped so every worker
        // gets at least `MIN_POINTS_PER_WORKER` box points.
        let workers = self.workers.unwrap_or_else(|| {
            let points = self
                .bound
                .saturating_add(1)
                .saturating_pow(u32::try_from(self.crn.dim()).unwrap_or(u32::MAX));
            parallel::default_workers()
                .min(
                    usize::try_from(points / parallel::MIN_POINTS_PER_WORKER).unwrap_or(usize::MAX),
                )
                .max(1)
        });
        parallel::check_on_box_sharded(
            self.crn,
            &self.f,
            self.bound,
            self.max_configurations,
            workers,
            self.reference,
        )
    }
}

/// The maximum count of the output species over every configuration reachable
/// from `I_x`.  Used to exhibit overproduction: for an output-oblivious CRN the
/// output can never shrink, so a reachable output above `f(x)` shows the CRN
/// does not stably compute `f`.
///
/// # Errors
///
/// Propagates the errors of [`ReachabilityGraph::explore`].
pub fn max_output_reachable(
    crn: &FunctionCrn,
    x: &NVec,
    max_configurations: usize,
) -> Result<u64, CrnError> {
    let start = crn.initial_configuration(x)?;
    let graph =
        ReachabilityGraph::explore(crn.crn(), &start, ReachabilityLimits { max_configurations })?;
    Ok(graph
        .species_counts(crn.output())
        .into_iter()
        .max()
        .unwrap_or(0))
}

/// Whether `target` is reachable from `start` in `crn`, with conservation-law
/// refutation before exploration.
///
/// The query first tries two static refutations: (a) species untouched by
/// every reaction must have identical counts in `start` and `target`, and
/// (b) no basis law of the [`InvariantOracle`] may weigh the two
/// configurations differently.  Either failing proves unreachability in
/// `O(species)` per law, without building an arena.  Only when both pass is
/// the reachable space explored exhaustively.
///
/// The verdict is always identical to [`target_reachable_exhaustive`]; the
/// oracle only ever converts an expensive `false` into a cheap one.
///
/// # Errors
///
/// Returns [`CrnError::SearchLimitExceeded`] if a (non-refuted) exploration
/// exceeds `max_configurations`.
pub fn target_reachable(
    crn: &Crn,
    start: &Configuration,
    target: &Configuration,
    max_configurations: usize,
) -> Result<bool, CrnError> {
    target_search(crn, start, target, max_configurations, true)
}

/// [`target_reachable`] without the static refutations: always explores.
/// Kept as the differential-testing baseline for the oracle (a refutation
/// must never contradict this function) and as the E17 comparison point.
///
/// # Errors
///
/// Returns [`CrnError::SearchLimitExceeded`] if the exploration exceeds
/// `max_configurations`.
pub fn target_reachable_exhaustive(
    crn: &Crn,
    start: &Configuration,
    target: &Configuration,
    max_configurations: usize,
) -> Result<bool, CrnError> {
    target_search(crn, start, target, max_configurations, false)
}

/// The target-reachability query, trying the static refutations first when
/// `refute` is set.
fn target_search(
    crn: &Crn,
    start: &Configuration,
    target: &Configuration,
    max_configurations: usize,
    refute: bool,
) -> Result<bool, CrnError> {
    let compiled = crate::compiled::CompiledCrn::compile(crn);
    let stride = arena::stride_for(arena::stride_for(compiled.stride(), start), target);
    let start_dense = arena::to_dense(start, stride).expect("stride covers start");
    let target_dense = arena::to_dense(target, stride).expect("stride covers target");
    // Species at indices past the compiled stride appear in no reaction, so
    // their counts are constant along every trajectory.
    if refute
        && (start_dense[compiled.stride()..] != target_dense[compiled.stride()..]
            || InvariantOracle::new(&compiled)
                .refutes(&start_dense, &target_dense)
                .is_some())
    {
        return Ok(false);
    }
    let mut state = ExploreState::default();
    state.graph(&compiled, &start_dense, None, max_configurations)?;
    Ok(state.store.arena.lookup(&target_dense).is_some())
}

/// All configurations reachable from `start` (convenience wrapper).
///
/// # Errors
///
/// Propagates the errors of [`ReachabilityGraph::explore`].
pub fn reachable_configurations(
    crn: &Crn,
    start: &Configuration,
    max_configurations: usize,
) -> Result<Vec<Configuration>, CrnError> {
    Ok(
        ReachabilityGraph::explore(crn, start, ReachabilityLimits { max_configurations })?
            .configurations()
            .to_vec(),
    )
}

#[cfg(test)]
mod oracle;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::examples;
    use crate::reaction::Reaction;

    type Outcome = Result<Option<StableComputationVerdict>, CrnError>;

    fn incremental_scan(
        crn: &FunctionCrn,
        f: impl Fn(&NVec) -> u64 + Sync,
        bound: u64,
        max_configurations: usize,
        workers: usize,
    ) -> Outcome {
        stats_scan(crn, f, bound, max_configurations, workers).0
    }

    fn stats_scan(
        crn: &FunctionCrn,
        f: impl Fn(&NVec) -> u64 + Sync,
        bound: u64,
        max_configurations: usize,
        workers: usize,
    ) -> (Outcome, BoxCheckStats) {
        BoxCheck::new(crn, f, bound, max_configurations)
            .workers(workers)
            .run()
    }

    fn reference_scan(
        crn: &FunctionCrn,
        f: impl Fn(&NVec) -> u64 + Sync,
        bound: u64,
        max_configurations: usize,
    ) -> Outcome {
        BoxCheck::new(crn, f, bound, max_configurations)
            .reference()
            .run()
            .0
    }

    /// A sequential scan on the fixpoint oracle: the first failing verdict.
    fn naive_scan(
        crn: &FunctionCrn,
        f: impl Fn(&NVec) -> u64,
        bound: u64,
        max_configurations: usize,
    ) -> Outcome {
        for x in NVec::enumerate_box(crn.dim(), bound) {
            let verdict =
                oracle::check_stable_computation_naive(crn, &x, f(&x), max_configurations)?;
            if !verdict.is_correct() {
                return Ok(Some(verdict));
            }
        }
        Ok(None)
    }
    use proptest::prelude::*;

    #[test]
    fn double_crn_stably_computes_2x() {
        let double = examples::double_crn();
        for x in 0..6u64 {
            let v = check_stable_computation(&double, &NVec::from(vec![x]), 2 * x, 10_000).unwrap();
            assert!(v.is_correct(), "failed at x={x}: {:?}", v.failure);
            assert_eq!(v.max_output_reachable, 2 * x);
            assert_eq!(v.stable_outputs, vec![2 * x]);
        }
    }

    #[test]
    fn min_crn_stably_computes_min() {
        let min = examples::min_crn();
        for x1 in 0..5u64 {
            for x2 in 0..5u64 {
                let v =
                    check_stable_computation(&min, &NVec::from(vec![x1, x2]), x1.min(x2), 10_000)
                        .unwrap();
                assert!(v.is_correct());
            }
        }
    }

    #[test]
    fn min_crn_rejects_wrong_value() {
        let min = examples::min_crn();
        let v = check_stable_computation(&min, &NVec::from(vec![2, 3]), 3, 10_000).unwrap();
        assert!(!v.is_correct());
        assert!(v.failure.is_some());
    }

    #[test]
    fn max_crn_stably_computes_max_despite_overshoot() {
        let max = examples::max_crn();
        for x1 in 0..4u64 {
            for x2 in 0..4u64 {
                let v =
                    check_stable_computation(&max, &NVec::from(vec![x1, x2]), x1.max(x2), 50_000)
                        .unwrap();
                assert!(v.is_correct(), "failed at ({x1},{x2}): {:?}", v.failure);
                // The overshoot phenomenon from Section 1.2: the output can
                // transiently exceed max(x1,x2) (it can reach x1+x2).
                assert_eq!(v.max_output_reachable, x1 + x2);
            }
        }
    }

    #[test]
    fn check_on_box_passes_for_min() {
        let min = examples::min_crn();
        let bad = check_on_box(&min, |x| x[0].min(x[1]), 3, 10_000).unwrap();
        assert!(bad.is_none());
    }

    #[test]
    fn check_on_box_reports_failure() {
        // X1 + X2 -> Y does NOT compute max; the box check finds the failure.
        let min = examples::min_crn();
        let bad = check_on_box(&min, |x| x[0].max(x[1]), 2, 10_000).unwrap();
        let verdict = bad.expect("must fail somewhere");
        assert!(!verdict.is_correct());
    }

    #[test]
    fn sharded_box_check_is_deterministic_and_matches_sequential() {
        let min = examples::min_crn();
        let sequential = incremental_scan(&min, |x| x[0].max(x[1]), 3, 10_000, 1).unwrap();
        for workers in [2usize, 4, 8] {
            let sharded = incremental_scan(&min, |x| x[0].max(x[1]), 3, 10_000, workers).unwrap();
            assert_eq!(sharded, sequential, "workers={workers}");
        }
        // The failing input must be the lexicographically first one: (0, 1).
        assert_eq!(
            sequential.unwrap().input,
            NVec::from(vec![0, 1]),
            "lexicographically-first failure"
        );
    }

    #[test]
    fn sharded_box_check_propagates_the_first_error() {
        let double = examples::double_crn();
        // Every input from x=3 up exceeds the tiny limit; the error reported
        // must be the one at the first such input regardless of sharding.
        let sequential = incremental_scan(&double, |x| 2 * x[0], 8, 4, 1).unwrap_err();
        let sharded = incremental_scan(&double, |x| 2 * x[0], 8, 4, 4).unwrap_err();
        assert_eq!(sharded, sequential);
    }

    #[test]
    fn pruned_box_check_matches_reference_on_figure_examples() {
        // Passing box (max overshoots transiently but recovers everywhere).
        let max = examples::max_crn();
        assert_eq!(
            check_on_box(&max, |x| x[0].max(x[1]), 3, 100_000).unwrap(),
            reference_scan(&max, |x| x[0].max(x[1]), 3, 100_000).unwrap()
        );
        // Wrong function: 2x+1 is statically refuted at every point (the law
        // 2X + Y caps the output at 2x), so the parallel scan only ever
        // materializes the winner — which must be bit-identical to the
        // reference scan's lexicographically-first failure.
        let double = examples::double_crn();
        let pruned = check_on_box(&double, |x| 2 * x[0] + 1, 4, 10_000).unwrap();
        let reference = reference_scan(&double, |x| 2 * x[0] + 1, 4, 10_000).unwrap();
        assert_eq!(pruned, reference);
        assert_eq!(pruned.unwrap().input, NVec::from(vec![0]));
        // Failing box with the failure mid-box.
        let min = examples::min_crn();
        assert_eq!(
            check_on_box(&min, |x| x[0].max(x[1]), 3, 10_000).unwrap(),
            reference_scan(&min, |x| x[0].max(x[1]), 3, 10_000).unwrap()
        );
    }

    #[test]
    fn pruned_box_check_matches_reference_on_errors() {
        // The search limit blows mid-box; pruned and reference scans must
        // surface the identical (lexicographically-first) error.
        let double = examples::double_crn();
        let pruned = incremental_scan(&double, |x| 2 * x[0], 8, 4, 4).unwrap_err();
        let reference = reference_scan(&double, |x| 2 * x[0], 8, 4).unwrap_err();
        assert_eq!(pruned, reference);
    }

    #[test]
    fn pruned_box_check_matches_reference_on_cyclic_crns() {
        // `X -> Y; Y -> X` cycles forever, so no positive input ever
        // stabilizes: the T-invariant acyclicity certificate does not apply
        // and the pruned scan takes the fused exploration-plus-Tarjan
        // decision path.  Both the failing box and the passing one (the
        // identity-on-zero slice) must match the reference bit for bit.
        let mut crn = Crn::new();
        crn.parse_reaction("X -> Y").unwrap();
        crn.parse_reaction("Y -> X").unwrap();
        let flip = FunctionCrn::with_named_roles(crn, &["X"], "Y", None).expect("valid roles");
        let pruned = check_on_box(&flip, |x| x[0], 3, 10_000).unwrap();
        let reference = reference_scan(&flip, |x| x[0], 3, 10_000).unwrap();
        assert_eq!(pruned, reference);
        assert_eq!(
            pruned.expect("x = 1 never stabilizes").input,
            NVec::from(vec![1])
        );
        // A cyclic CRN where every box point passes: X converts to Y once
        // and the A/B flip-flop is debris that never touches the output —
        // every sink component is reachable and output-stable.
        let mut crn = Crn::new();
        crn.parse_reaction("X -> Y + A").unwrap();
        crn.parse_reaction("A -> B").unwrap();
        crn.parse_reaction("B -> A").unwrap();
        let id = FunctionCrn::with_named_roles(crn, &["X"], "Y", None).expect("valid roles");
        let pruned = check_on_box(&id, |x| x[0], 3, 10_000).unwrap();
        let reference = reference_scan(&id, |x| x[0], 3, 10_000).unwrap();
        assert_eq!(pruned, reference);
        assert!(pruned.is_none());
    }

    /// The sum gadget `X1 -> Y; X2 -> Y` plus the dead cycle `A -> B;
    /// B -> A`: symmetric in its inputs, and conserving `X1 + X2 + Y` —
    /// which leaves the input-law rank at 1 < 2, so the cross-point cache
    /// stays enabled.  `A` and `B` start empty and nothing produces them, so
    /// the cycle changes no reachable set, but it voids the acyclicity
    /// certificate: the sweep takes the memo fold, not the terminal scan.
    fn cyclic_sum_crn() -> FunctionCrn {
        let mut crn = Crn::new();
        for reaction in ["X1 -> Y", "X2 -> Y", "A -> B", "B -> A"] {
            crn.parse_reaction(reaction).unwrap();
        }
        FunctionCrn::with_named_roles(crn, &["X1", "X2"], "Y", None).expect("valid roles")
    }

    #[test]
    fn box_stats_count_symmetry_cache_and_static_work() {
        let sum = cyclic_sum_crn();
        let f = |x: &NVec| x[0] + x[1];
        let (result, stats) = stats_scan(&sum, f, 2, 10_000, 1);
        assert_eq!(result.unwrap(), None, "the sum CRN computes the sum");
        assert_eq!(stats.points, 9);
        // The input swap is detected, so the strict lower triangle of the
        // box — (1,0), (2,0), (2,1) — replays the verdicts of its mirror
        // images.
        assert_eq!(stats.symmetry_skipped, 3);
        assert_eq!(stats.evaluated + stats.symmetry_skipped, stats.points);
        // Later points stop their expansions on summaries cached by earlier
        // ones (e.g. (1,1) hits territory summarized under (0,1) and (0,2)).
        assert!(stats.cache_hits > 0, "no cache hits: {stats:?}");
        assert!(stats.cache_entries > 0);
        assert!(stats.cache_lookups >= stats.cache_hits);
        assert!(stats.cache_hit_rate() > 0.0);
        // Every evaluated point is accounted to exactly one engine pass.
        assert_eq!(
            stats.static_pass + stats.static_fail + stats.decided,
            stats.evaluated
        );
        // The sharded sweep agrees with the sequential one.
        let (sharded, _) = stats_scan(&sum, f, 2, 10_000, 3);
        assert_eq!(sharded.unwrap(), None);
    }

    #[test]
    fn truncated_explorations_never_populate_the_cache() {
        // With a limit of 2 configurations: (0,0) passes statically, (0,1)
        // explores exactly 2 configurations and publishes their summaries,
        // (1,0) is a symmetry replay of (0,1), and (1,1) — 4 reachable
        // configurations — blows the limit mid-exploration.  The truncated
        // run must discard its partial summaries, leaving exactly the two
        // entries (0,1) published, and the sweep must surface the identical
        // (lexicographically-first) error the reference scan produces.
        let sum = cyclic_sum_crn();
        let f = |x: &NVec| x[0] + x[1];
        let (result, stats) = stats_scan(&sum, f, 1, 2, 1);
        let reference = reference_scan(&sum, f, 1, 2);
        assert_eq!(result, reference);
        result.unwrap_err();
        assert_eq!(stats.symmetry_skipped, 1);
        assert_eq!(
            stats.cache_entries, 2,
            "the truncated run at (1,1) must not leak summaries: {stats:?}"
        );
    }

    #[test]
    fn stubborn_scans_may_pass_where_the_reference_gives_up() {
        // `X1 -> Y; X2 -> Y` is certified acyclic and its reactions never
        // conflict, so the terminal scan fires only `X1 -> Y` while any X1
        // is left: a chain of x1 + x2 + 1 configurations instead of the
        // (x1 + 1)(x2 + 1) grid the reference stores.  At a limit of 10 the
        // reference gives up at (2, 3), the scan passes the whole box, and
        // the reference agrees once the limit is raised.
        let mut crn = Crn::new();
        crn.parse_reaction("X1 -> Y").unwrap();
        crn.parse_reaction("X2 -> Y").unwrap();
        let sum = FunctionCrn::with_named_roles(crn, &["X1", "X2"], "Y", None).unwrap();
        let f = |x: &NVec| x[0] + x[1];
        assert!(matches!(
            reference_scan(&sum, f, 3, 10),
            Err(CrnError::SearchLimitExceeded { .. })
        ));
        let (outcome, stats) = stats_scan(&sum, f, 3, 10, 1);
        assert_eq!(outcome, Ok(None));
        // (0,0) is static; (0,1)..(0,3), (1,1)..(1,3), (2,2), (2,3), (3,3).
        assert_eq!(stats.configs_explored, 2 + 3 + 4 + 3 + 4 + 5 + 5 + 6 + 7);
        assert_eq!(reference_scan(&sum, f, 3, 10_000), Ok(None));
    }

    #[test]
    fn acyclic_sweeps_explore_identically_at_every_worker_count() {
        // Every point's stubborn sets depend on its configurations alone, so
        // certified-acyclic sweeps store the same configurations whichever
        // worker expands them.
        fn sweep_at_1_2_4(crn: &FunctionCrn, f: fn(&NVec) -> u64, bound: u64) {
            let (first, first_stats) = stats_scan(crn, f, bound, 100_000, 1);
            for workers in [2, 4] {
                let (outcome, stats) = stats_scan(crn, f, bound, 100_000, workers);
                assert_eq!(outcome, first, "workers={workers}");
                if first == Ok(None) {
                    assert_eq!(stats, first_stats, "workers={workers}");
                }
            }
        }
        let max = examples::max_crn();
        sweep_at_1_2_4(&max, |x| x[0].max(x[1]), 12);
        sweep_at_1_2_4(&examples::min_crn(), |x| x[0].min(x[1]), 12);
        sweep_at_1_2_4(&max, |x| x[0] + x[1], 6);
    }

    #[test]
    fn symmetry_replay_failures_are_byte_identical() {
        // The max CRN with the *wrong* expected function: failures must
        // surface with byte-identical messages through the orbit-reduced
        // scan, at every worker count.
        let max = examples::max_crn();
        let symmetric = |x: &NVec| x[0].min(x[1]);
        let asymmetric = |x: &NVec| x[0];
        let reference_sym = reference_scan(&max, symmetric, 3, 100_000);
        let reference_asym = reference_scan(&max, asymmetric, 3, 100_000);
        for workers in 1..=4 {
            assert_eq!(
                incremental_scan(&max, symmetric, 3, 100_000, workers),
                reference_sym,
                "workers={workers}"
            );
            assert_eq!(
                incremental_scan(&max, asymmetric, 3, 100_000, workers),
                reference_asym,
                "workers={workers}"
            );
        }
        let verdict = reference_sym.unwrap().expect("min is not max");
        assert_eq!(verdict.input, NVec::from(vec![0, 1]));
        assert!(verdict.failure.is_some());
    }

    #[test]
    fn max_output_reachable_detects_overshoot() {
        let max = examples::max_crn();
        let m = max_output_reachable(&max, &NVec::from(vec![2, 3]), 50_000).unwrap();
        assert_eq!(m, 5);
    }

    #[test]
    fn search_limit_is_enforced() {
        let double = examples::double_crn();
        let err = check_stable_computation(&double, &NVec::from(vec![30]), 60, 5).unwrap_err();
        assert!(matches!(err, CrnError::SearchLimitExceeded { .. }));
    }

    #[test]
    fn reachable_configurations_of_double() {
        let double = examples::double_crn();
        let start = double.initial_configuration(&NVec::from(vec![2])).unwrap();
        let reach = reachable_configurations(double.crn(), &start, 1000).unwrap();
        // {2X}, {1X,2Y}, {0X,4Y}
        assert_eq!(reach.len(), 3);
    }

    #[test]
    fn contains_answers_through_the_arena_index() {
        let double = examples::double_crn();
        let start = double.initial_configuration(&NVec::from(vec![2])).unwrap();
        let graph = ReachabilityGraph::explore(double.crn(), &start, ReachabilityLimits::default())
            .unwrap();
        assert!(graph.contains(&start));
        let x = double.roles().inputs[0];
        let y = double.output();
        assert!(graph.contains(&Configuration::from_counts(vec![(x, 1), (y, 2)])));
        assert!(graph.contains(&Configuration::from_counts(vec![(y, 4)])));
        assert!(!graph.contains(&Configuration::from_counts(vec![(y, 3)])));
        // A species the exploration never saw cannot be contained.
        assert!(!graph.contains(&Configuration::from_counts(vec![(Species(99), 1)])));
    }

    #[test]
    fn reactions_with_foreign_species_do_not_panic() {
        // `Crn::add_reaction` does not validate that reaction species belong
        // to the CRN's interner; the dense stride must still cover them (the
        // seed's sparse engine accepted such CRNs without crashing).
        let mut crn = Crn::new();
        let a = crn.add_species("A");
        let foreign = Species(5);
        crn.add_reaction(Reaction::new(vec![(a, 1)], vec![(foreign, 1)]));
        let start = Configuration::from_counts(vec![(a, 2)]);
        let reach = reachable_configurations(&crn, &start, 100).unwrap();
        // {2A}, {1A, 1F}, {2F}
        assert_eq!(reach.len(), 3);
        let graph =
            ReachabilityGraph::explore(&crn, &start, ReachabilityLimits::default()).unwrap();
        assert!(graph.contains(&Configuration::from_counts(vec![(foreign, 2)])));
    }

    #[test]
    fn roles_with_foreign_species_do_not_panic() {
        // `FunctionCrn::new` validates only role distinctness, so a Species
        // interned by a *larger* CRN can serve as a role of a smaller one;
        // the engine's stride must cover it (the seed engine returned a
        // verdict here rather than crashing).
        let mut crn = Crn::new();
        crn.parse_reaction("A -> A").unwrap();
        let f = FunctionCrn::new(
            crn,
            crate::function::Roles {
                inputs: vec![Species(7)],
                output: Species(9),
                leader: None,
            },
        )
        .unwrap();
        let x = NVec::from(vec![2]);
        let fast = check_stable_computation(&f, &x, 0, 1_000).unwrap();
        let slow = oracle::check_stable_computation_naive(&f, &x, 0, 1_000).unwrap();
        assert_eq!(fast, slow);
    }

    #[test]
    fn min1x_leader_crn_is_oblivious_and_correct() {
        let crn = examples::min1_leader_crn();
        assert!(crn.is_output_oblivious());
        for x in 0..5u64 {
            let expected = x.min(1);
            let v = check_stable_computation(&crn, &NVec::from(vec![x]), expected, 10_000).unwrap();
            assert!(v.is_correct());
        }
    }

    #[test]
    fn min1x_leaderless_crn_is_correct_but_not_oblivious() {
        let crn = examples::min1_leaderless_crn();
        assert!(!crn.is_output_oblivious());
        for x in 0..5u64 {
            let expected = x.min(1);
            let v = check_stable_computation(&crn, &NVec::from(vec![x]), expected, 10_000).unwrap();
            assert!(v.is_correct());
        }
    }

    #[test]
    fn scc_engine_matches_oracle_on_figure_examples() {
        // E2 parity: the SCC engine's verdicts must be bit-identical to the
        // seed fixpoint engine on the Figure 1/2 examples, passing or failing.
        let cases: Vec<(FunctionCrn, NVec, u64)> = vec![
            (examples::double_crn(), NVec::from(vec![4]), 8),
            (examples::min_crn(), NVec::from(vec![3, 5]), 3),
            (examples::min_crn(), NVec::from(vec![2, 3]), 3), // failing
            (examples::max_crn(), NVec::from(vec![2, 3]), 3),
            (examples::max_crn(), NVec::from(vec![2, 3]), 5), // failing
            (examples::min1_leader_crn(), NVec::from(vec![4]), 1),
            (examples::min1_leaderless_crn(), NVec::from(vec![0]), 0),
        ];
        for (crn, x, expected) in &cases {
            let fast = check_stable_computation(crn, x, *expected, 100_000);
            let slow = oracle::check_stable_computation_naive(crn, x, *expected, 100_000);
            assert_eq!(fast, slow, "diverged on input {x}");
        }
        // Box-level parity, including a failing box.
        let min = examples::min_crn();
        assert_eq!(
            check_on_box(&min, |x| x[0].min(x[1]), 3, 10_000).unwrap(),
            naive_scan(&min, |x| x[0].min(x[1]), 3, 10_000).unwrap()
        );
        assert_eq!(
            check_on_box(&min, |x| x[0].max(x[1]), 2, 10_000).unwrap(),
            naive_scan(&min, |x| x[0].max(x[1]), 2, 10_000).unwrap()
        );
        let max = examples::max_crn();
        assert_eq!(
            check_on_box(&max, |x| x[0].max(x[1]), 3, 100_000).unwrap(),
            naive_scan(&max, |x| x[0].max(x[1]), 3, 100_000).unwrap()
        );
    }

    /// Builds a small arbitrary CRN over species `{X, Y, Z}` from sampled
    /// stoichiometries: input `X`, output `Y`.
    fn random_crn(stoich: &[Vec<u64>]) -> FunctionCrn {
        let mut crn = Crn::new();
        let x = crn.add_species("X");
        let y = crn.add_species("Y");
        let z = crn.add_species("Z");
        let species = [x, y, z];
        for row in stoich {
            let reactants: Vec<(Species, u64)> = species
                .iter()
                .zip(&row[0..3])
                .map(|(&s, &c)| (s, c))
                .collect();
            let products: Vec<(Species, u64)> = species
                .iter()
                .zip(&row[3..6])
                .map(|(&s, &c)| (s, c))
                .collect();
            crn.add_reaction(Reaction::new(reactants, products));
        }
        FunctionCrn::with_named_roles(crn, &["X"], "Y", None).expect("valid roles")
    }

    #[test]
    fn oracle_refutes_max_overshoot_statically() {
        // From I_(x1,x2) of the max CRN, the pure configuration {Y: x1+x2}
        // is unreachable whenever x1+x2 > 0 (the Z/K debris cannot all be
        // cleared while keeping every Y), and the laws X1+Y-Z2-K and
        // X2+Y-Z1-K prove it without exploration.
        let max = examples::max_crn();
        let compiled = crate::compiled::CompiledCrn::compile(max.crn());
        let oracle = InvariantOracle::new(&compiled);
        assert_eq!(oracle.laws().len(), 2);
        let y = max.output();
        for x1 in 0..4u64 {
            for x2 in 0..4u64 {
                let input = NVec::from(vec![x1, x2]);
                let start = max.initial_configuration(&input).unwrap();
                let target = Configuration::from_counts(vec![(y, x1 + x2)]);
                let start_dense = arena::to_dense(&start, compiled.stride()).unwrap();
                let target_dense = arena::to_dense(&target, compiled.stride()).unwrap();
                let refuted = oracle.refutes(&start_dense, &target_dense).is_some();
                assert_eq!(refuted, x1 + x2 > 0, "at ({x1},{x2})");
                // Bit-identical verdicts with and without the oracle.
                let fast = target_reachable(max.crn(), &start, &target, 100_000).unwrap();
                let slow =
                    target_reachable_exhaustive(max.crn(), &start, &target, 100_000).unwrap();
                assert_eq!(fast, slow, "at ({x1},{x2})");
                assert_eq!(fast, x1 + x2 == 0, "at ({x1},{x2})");
            }
        }
    }

    #[test]
    fn target_reachable_finds_reachable_targets() {
        let double = examples::double_crn();
        let start = double.initial_configuration(&NVec::from(vec![3])).unwrap();
        let x = double.roles().inputs[0];
        let y = double.output();
        for k in 0..=3u64 {
            let target = Configuration::from_counts(vec![(x, 3 - k), (y, 2 * k)]);
            assert!(target_reachable(double.crn(), &start, &target, 1_000).unwrap());
        }
        // {Y: 3} is refuted by the law 2X + Y: 2·3 + 0 = 6 ≠ 2·0 + 3.
        let odd = Configuration::from_counts(vec![(y, 3)]);
        let compiled = crate::compiled::CompiledCrn::compile(double.crn());
        let oracle = InvariantOracle::new(&compiled);
        let s = arena::to_dense(&start, compiled.stride()).unwrap();
        let t = arena::to_dense(&odd, compiled.stride()).unwrap();
        assert!(oracle.refutes(&s, &t).is_some());
        assert!(!target_reachable(double.crn(), &start, &odd, 1_000).unwrap());
    }

    #[test]
    fn foreign_species_mismatch_is_refuted_without_exploring() {
        // A species no reaction touches differs between start and target: the
        // constant-species precheck refutes it even with a limit of 1.
        let double = examples::double_crn();
        let start = double.initial_configuration(&NVec::from(vec![2])).unwrap();
        let mut target = start.clone();
        target.add(Species(40), 1);
        assert!(!target_reachable(double.crn(), &start, &target, 1).unwrap());
    }

    /// Builds a CRN over `{X1, X2, Y, Z}` that is symmetric in its inputs by
    /// construction: each sampled reaction is added twice, once as drawn and
    /// once with X1 and X2 swapped, so the input swap is always an
    /// automorphism of the union.
    fn symmetric_random_crn(stoich: &[Vec<u64>]) -> FunctionCrn {
        let mut crn = Crn::new();
        let x1 = crn.add_species("X1");
        let x2 = crn.add_species("X2");
        let y = crn.add_species("Y");
        let z = crn.add_species("Z");
        for row in stoich {
            for species in [[x1, x2, y, z], [x2, x1, y, z]] {
                let reactants: Vec<(Species, u64)> = species
                    .iter()
                    .zip(&row[0..4])
                    .map(|(&s, &c)| (s, c))
                    .collect();
                let products: Vec<(Species, u64)> = species
                    .iter()
                    .zip(&row[4..8])
                    .map(|(&s, &c)| (s, c))
                    .collect();
                crn.add_reaction(Reaction::new(reactants, products));
            }
        }
        FunctionCrn::with_named_roles(crn, &["X1", "X2"], "Y", None).expect("valid roles")
    }

    proptest! {
        /// Orbit-reduced sweeps on CRNs with forced input symmetry return
        /// outcomes bit-identical to the reference scan — for symmetric
        /// *and* asymmetric expected functions (the latter disables most
        /// replays through the `f(y) == f(x)` guard), sequential and
        /// sharded.  On an all-pass box the swap must actually have been
        /// detected: exactly the strict lower triangle is replayed.
        #[test]
        fn symmetric_box_check_matches_reference(
            stoich in proptest::collection::vec(proptest::collection::vec(0u64..3, 8), 1..3),
            a in 0u64..3,
            b in 0u64..2,
            bound in 0u64..3,
        ) {
            let crn = symmetric_random_crn(&stoich);
            let symmetric = |x: &NVec| a * (x[0] + x[1]) + b;
            let reference = reference_scan(&crn, symmetric, bound, 300);
            let (sequential, stats) = stats_scan(&crn, symmetric, bound, 300, 1);
            prop_assert_eq!(&sequential, &reference);
            let sharded = incremental_scan(&crn, symmetric, bound, 300, 3);
            prop_assert_eq!(&sharded, &reference);
            if matches!(&sequential, Ok(None)) {
                prop_assert_eq!(stats.symmetry_skipped, bound * (bound + 1) / 2);
                prop_assert_eq!(stats.evaluated + stats.symmetry_skipped, stats.points);
            }
            let asymmetric = |x: &NVec| a * x[0] + b;
            let reference = reference_scan(&crn, asymmetric, bound, 300);
            let sequential = incremental_scan(&crn, asymmetric, bound, 300, 1);
            prop_assert_eq!(&sequential, &reference);
            let sharded = incremental_scan(&crn, asymmetric, bound, 300, 3);
            prop_assert_eq!(&sharded, &reference);
        }

        /// Differential soundness of the invariant oracle: whenever it
        /// refutes a start/target pair of a random CRN, the exhaustive
        /// engine must agree the target is unreachable — and with or
        /// without the oracle the final verdicts are bit-identical.
        #[test]
        fn invariant_oracle_agrees_with_exhaustive_search(
            stoich in proptest::collection::vec(proptest::collection::vec(0u64..3, 6), 1..4),
            x in 0u64..5,
            target_counts in proptest::collection::vec(0u64..5, 3),
        ) {
            let crn = random_crn(&stoich);
            let start = crn.initial_configuration(&NVec::from(vec![x])).unwrap();
            let species = [
                crn.roles().inputs[0],
                crn.output(),
                crn.crn().species_named("Z").unwrap(),
            ];
            let target = Configuration::from_counts(
                species
                    .iter()
                    .zip(&target_counts)
                    .map(|(&s, &c)| (s, c))
                    .collect::<Vec<_>>(),
            );
            let fast = target_reachable(crn.crn(), &start, &target, 5_000);
            let slow = target_reachable_exhaustive(crn.crn(), &start, &target, 5_000);
            match (&fast, &slow) {
                // The oracle may refute without exploring, so it can succeed
                // where the exhaustive engine blows the limit; it must never
                // claim reachable in that case.
                (Ok(v), Err(_)) => prop_assert!(!v),
                _ => prop_assert_eq!(fast, slow),
            }
            // A refutation must never contradict a completed exploration.
            let compiled = crate::compiled::CompiledCrn::compile(crn.crn());
            let oracle = InvariantOracle::new(&compiled);
            let stride = arena::stride_for(compiled.stride(), &start);
            let s = arena::to_dense(&start, stride).unwrap();
            let t = arena::to_dense(&target, stride).unwrap();
            if oracle.refutes(&s, &t).is_some() {
                if let Ok(reachable) = slow {
                    prop_assert!(!reachable, "oracle refuted a reachable target");
                }
            }
        }

        /// Additivity of reachability (Section 2.2): if A ->* B then A + C ->* B + C.
        #[test]
        fn reachability_is_additive(x in 0u64..5, extra in 0u64..4) {
            let double = examples::double_crn();
            let input = NVec::from(vec![x]);
            let start = double.initial_configuration(&input).unwrap();
            let reach = reachable_configurations(double.crn(), &start, 10_000).unwrap();
            // Add `extra` copies of the input species to both sides.
            let x_species = double.roles().inputs[0];
            let mut addition = Configuration::new();
            addition.add(x_species, extra);
            let start_plus = start.plus(&addition);
            let reach_plus = reachable_configurations(double.crn(), &start_plus, 10_000).unwrap();
            for b in &reach {
                prop_assert!(reach_plus.contains(&b.plus(&addition)));
            }
        }

        /// The tentpole determinism contract: the analysis-pruned box scan
        /// (static pass/fail verdicts plus direct-indexed exploration) and
        /// the unpruned reference scan return bit-identical outcomes on
        /// arbitrary small CRNs — same verdict fields, same
        /// lexicographically-first failure, same errors.
        #[test]
        fn pruned_box_check_matches_reference(
            stoich in proptest::collection::vec(proptest::collection::vec(0u64..3, 6), 1..4),
            a in 0u64..3,
            b in 0u64..2,
            bound in 0u64..4,
        ) {
            let crn = random_crn(&stoich);
            let f = |x: &NVec| a * x[0] + b;
            let reference = reference_scan(&crn, f, bound, 300);
            let sequential = incremental_scan(&crn, f, bound, 300, 1);
            prop_assert_eq!(&sequential, &reference);
            let sharded = incremental_scan(&crn, f, bound, 300, 3);
            prop_assert_eq!(&sharded, &reference);
        }

        /// Differential check: on arbitrary small CRNs the SCC engine and the
        /// naive fixpoint oracle return identical verdicts — or identical
        /// errors when the reachable space blows past the search limit.
        #[test]
        fn scc_engine_agrees_with_fixpoint_oracle(
            stoich in proptest::collection::vec(proptest::collection::vec(0u64..3, 6), 1..4),
            x in 0u64..5,
            expected in 0u64..5,
        ) {
            let crn = random_crn(&stoich);
            let input = NVec::from(vec![x]);
            let fast = check_stable_computation(&crn, &input, expected, 2_000);
            let slow = oracle::check_stable_computation_naive(&crn, &input, expected, 2_000);
            prop_assert_eq!(fast, slow);
        }
    }
}
