//! Exhaustive bounded reachability and stable-computation checking.
//!
//! Stable computation (Section 2.2) is a reachability property: a CRN stably
//! computes `f` on input `x` if from *every* configuration reachable from the
//! initial configuration `I_x`, a *stable* configuration with output count
//! `f(x)` remains reachable.  For the small CRNs used throughout the paper the
//! reachable configuration space is finite, so the property can be checked
//! exactly by exhaustive search.  [`check_stable_computation`] is that check;
//! its verdict also carries the largest output ever reachable, which the
//! impossibility witnesses read (Lemma 4.1 / Figure 6).
//!
//! # Engine architecture
//!
//! The checker is organised as a small subsystem:
//!
//! * `arena` (internal) — a **configuration arena** of dense count vectors
//!   in one allocation, which owns the engine's one open-addressing
//!   **index** from a vector's 64-bit hash to its node id, so exploration
//!   never clones a sparse configuration per edge;
//! * `csr` (internal) — successor storage laid out in **compressed sparse
//!   row** form directly during the breadth-first exploration;
//! * `scc` (internal) — **Tarjan SCC condensation**; the three reachability
//!   queries behind a verdict (max/min reachable output, recoverability)
//!   each become one linear pass over the components in reverse topological
//!   order instead of an iterate-until-stable fixpoint;
//! * the **exploration engine** (internal) — one breadth-first traversal
//!   over hash-interned count vectors, driving a visitor that builds the
//!   graph of a full verdict or scans for bad terminal configurations; the
//!   scan decides certified-acyclic CRNs and fires only stubborn sets, which
//!   keep every reachable terminal configuration, starting with a run that
//!   fires lone stubborn reactions in place, each as often as it stays the
//!   seed in one step where it can, and stores nothing until the first node
//!   that fires two; every other point takes the full verdict;
//! * [`check_on_box`] / [`BoxCheck`] — a **parallel driver** sharding the
//!   input box across scoped threads with a deterministic,
//!   lexicographically-first result.

mod arena;
mod csr;
mod engine;
mod parallel;
mod scc;
pub(crate) mod stubborn;
pub(crate) mod symmetry;

use crn_numeric::NVec;

use crate::analysis::CrnAnalysis;
use crate::error::CrnError;
use crate::function::FunctionCrn;

use engine::VerdictEngine;

pub use parallel::box_point_count;
pub use symmetry::Automorphism;

/// Observability counters for one box sweep: how many points the engine
/// explored versus skipped as symmetry replays, and how many configurations
/// the explorations stored.  Returned by [`BoxCheck::run`] and surfaced by
/// `crn verify --stats`.
///
/// The counters never influence verdicts; they exist so the effect of each
/// incremental layer is measurable on real sweeps.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BoxCheckStats {
    /// Total number of points in the box.
    pub points: u64,
    /// Points that reached an engine pass (everything except symmetry skips).
    pub evaluated: u64,
    /// Points skipped because an input automorphism maps them to a
    /// lexicographically smaller point with the same expected output.
    pub symmetry_skipped: u64,
    /// Points settled by an exploration: a terminal scan, or a full
    /// verdict.
    pub decided: u64,
    /// Configurations visited across every exploration of the sweep: each
    /// one the configuration limit counts, stored or not.
    pub configs_explored: u64,
    /// Decided points whose terminal scan branched: the run from `I_x`
    /// reached a node that fires two or more reactions, and the scan stored
    /// the space from there.  Not a `crn verify --stats` key.
    pub branched: u64,
}

impl BoxCheckStats {
    /// Folds one worker's counters into the sweep totals; `points` is set
    /// once by the driver.
    fn merge(&mut self, other: &BoxCheckStats) {
        self.evaluated += other.evaluated;
        self.symmetry_skipped += other.symmetry_skipped;
        self.decided += other.decided;
        self.configs_explored += other.configs_explored;
        self.branched += other.branched;
    }
}

/// The result of checking whether a CRN stably computes a value on one input.
#[derive(Debug, Clone, PartialEq, Eq)]
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
/// Returns [`CrnError::DimensionMismatch`] for an input of the wrong arity,
/// [`CrnError::SearchLimitExceeded`] if the reachable space exceeds
/// `max_configurations`, and [`CrnError::CountOverflow`] if a reachable
/// firing would push a count past `u64::MAX`.
pub fn check_stable_computation(
    crn: &FunctionCrn,
    x: &NVec,
    expected_output: u64,
    max_configurations: usize,
) -> Result<StableComputationVerdict, CrnError> {
    VerdictEngine::new(&CrnAnalysis::of(crn)).check(x, expected_output, max_configurations)
}

/// Checks stable computation of `f` on every input in the box `[0, bound]^d`,
/// scanning on the calling thread and sharding the rest of the inputs across
/// one helper thread per further available core once the rest is projected
/// to take long enough to repay their spawn.
///
/// The sweep builds the CRN's [`CrnAnalysis`] and drops it when done; a
/// caller that also lints the CRN builds the analysis itself and runs
/// [`BoxCheck::new`] on it, so both share every artifact.
///
/// The sweep skips inputs whose symmetry orbit already contains a checked
/// representative and explores every other point.  Certified-acyclic CRNs
/// take a terminal scan that fires only stubborn sets: it fires a node's
/// lone stubborn reaction in place, as often in one step as the reaction
/// stays the node's seed where no lower-index reaction consumes what it
/// changes, and stores configurations only from the first node that fires
/// two.  Every other point takes the full verdict of
/// [`check_stable_computation`].  Box points are decoded from a mixed-radix
/// index on demand, so the sweep allocates `O(1)` memory in the box size.
/// The result is nonetheless bit-identical to a sequential loop of
/// [`check_stable_computation`] over the box in lexicographic order — the
/// first failing verdict, byte identical failure messages and errors
/// included — or `Ok(None)` if all inputs pass, wherever that loop finishes
/// within `max_configurations`.  The limit bounds the configurations each
/// exploration visits, and the terminal scan visits fewer than a full
/// verdict, so it may pass a point the loop gives up on.
///
/// # Errors
///
/// Propagates the errors of [`check_stable_computation`]; when several inputs
/// fail or error, the outcome of the lexicographically-first one wins.  A
/// box with more points than fit in `u64` (see [`box_point_count`]) is
/// refused with [`CrnError::SearchLimitExceeded`] before any point is
/// checked.
pub fn check_on_box(
    crn: &FunctionCrn,
    f: impl Fn(&NVec) -> u64 + Sync,
    bound: u64,
    max_configurations: usize,
) -> Result<Option<StableComputationVerdict>, CrnError> {
    BoxCheck::new(&CrnAnalysis::of(crn), f, bound, max_configurations)
        .run()
        .0
}

/// A configurable [`check_on_box`] sweep over a CRN's shared
/// [`CrnAnalysis`]: the worker count, with the sweep's [`BoxCheckStats`]
/// returned alongside the outcome.
///
/// ```
/// use crn_model::analysis::CrnAnalysis;
/// use crn_model::{examples, BoxCheck};
///
/// let min = examples::min_crn();
/// let analysis = CrnAnalysis::of(&min);
/// let (outcome, stats) = BoxCheck::new(&analysis, |x| x[0].min(x[1]), 3, 10_000)
///     .workers(1)
///     .run();
/// assert_eq!(outcome, Ok(None));
/// assert_eq!(stats.points, 16);
/// ```
pub struct BoxCheck<'a, F> {
    analysis: &'a CrnAnalysis<'a>,
    f: F,
    bound: u64,
    max_configurations: usize,
    workers: Option<usize>,
}

impl<'a, F: Fn(&NVec) -> u64 + Sync> BoxCheck<'a, F> {
    /// A sweep of the analyzed CRN against `f` on `[0, bound]^d`, with the
    /// default worker count.
    pub fn new(analysis: &'a CrnAnalysis<'a>, f: F, bound: u64, max_configurations: usize) -> Self {
        BoxCheck {
            analysis,
            f,
            bound,
            max_configurations,
            workers: None,
        }
    }

    /// Pins the worker-thread count: the calling thread scans as one worker
    /// and spawns the other `workers − 1` (at most one per box point) before
    /// its first draw, where the default count forks helpers only once the
    /// projected rest of the sweep repays them.  `1` runs the plain
    /// sequential scan.  Outcomes are identical at every worker count.
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
        parallel::check_on_box_sharded(
            self.analysis,
            &self.f,
            self.bound,
            self.max_configurations,
            self.workers,
        )
    }
}

#[cfg(test)]
pub(crate) mod oracle;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Configuration;
    use crate::crn::Crn;
    use crate::examples;
    use crate::reaction::Reaction;
    use crate::species::Species;

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
        BoxCheck::new(&CrnAnalysis::of(crn), f, bound, max_configurations)
            .workers(workers)
            .run()
    }

    /// The per-point reference: a sequential loop of full verdicts over the
    /// box in lexicographic order, sharing no code with the sweep driver.
    fn reference_scan(
        crn: &FunctionCrn,
        f: impl Fn(&NVec) -> u64,
        bound: u64,
        max_configurations: usize,
    ) -> Outcome {
        for x in NVec::box_iter(crn.dim(), bound) {
            let verdict = check_stable_computation(crn, &x, f(&x), max_configurations)?;
            if !verdict.is_correct() {
                return Ok(Some(verdict));
            }
        }
        Ok(None)
    }

    /// A sequential scan on the fixpoint oracle: the first failing verdict.
    fn naive_scan(
        crn: &FunctionCrn,
        f: impl Fn(&NVec) -> u64,
        bound: u64,
        max_configurations: usize,
    ) -> Outcome {
        for x in NVec::box_iter(crn.dim(), bound) {
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
    fn a_count_overflow_is_an_error_on_the_scan_and_the_full_verdict() {
        // `X -> (2^63 - 1) Y` on x = 3 makes 3·(2^63 - 1) copies of `Y`,
        // more than `u64` holds.  The claim is the count wrapped modulo 2^64,
        // which a wrapping add would have confirmed.
        let mut crn = Crn::new();
        crn.parse_reaction("X -> 9223372036854775807 Y").unwrap();
        let crn = FunctionCrn::with_named_roles(crn, &["X"], "Y", None).unwrap();
        let wrapped = |x: &NVec| x[0].wrapping_mul(i64::MAX as u64);
        let overflow = CrnError::CountOverflow {
            reaction: "X -> 9223372036854775807Y".into(),
            species: "Y".into(),
        };
        let x = NVec::from(vec![3]);
        assert_eq!(
            check_stable_computation(&crn, &x, wrapped(&x), 100).unwrap_err(),
            overflow
        );
        // The sweep decides x = 3 by a hash-coded terminal scan, which must
        // fail the point, and its full re-check reports the overflow.
        assert_eq!(incremental_scan(&crn, wrapped, 3, 100, 1), Err(overflow));
        assert_eq!(incremental_scan(&crn, wrapped, 2, 100, 1), Ok(None));
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
        // Wrong function: 2x+1 fails at every point (the law 2X + Y caps
        // the output at 2x), and the parallel scan materializes only the
        // winner — which must be bit-identical to the reference scan's
        // lexicographically-first failure.
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
        // and the pruned scan decides each explored point by the full
        // verdict.  Both the failing box and the passing one (the
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
    /// B -> A`: symmetric in its inputs.  `A` and `B` start empty and
    /// nothing produces them, so the cycle changes no reachable set, but it
    /// voids the acyclicity certificate: the sweep decides by full
    /// verdicts, not the terminal scan.
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
        // Every evaluated point is settled by exactly one exploration.
        assert_eq!(stats.decided, stats.evaluated);
        // The sharded sweep agrees with the sequential one.
        let (sharded, _) = stats_scan(&sum, f, 2, 10_000, 3);
        assert_eq!(sharded.unwrap(), None);
    }

    #[test]
    fn truncated_explorations_never_populate_the_cache() {
        // With a limit of 2 configurations: (0,0) explores its one
        // configuration, (0,1) explores exactly 2, (1,0) is a symmetry replay of
        // (0,1), and (1,1) — 4 reachable configurations — blows the limit
        // mid-exploration.  The sweep must surface the identical
        // (lexicographically-first) error the reference scan produces.
        let sum = cyclic_sum_crn();
        let f = |x: &NVec| x[0] + x[1];
        let (result, stats) = stats_scan(&sum, f, 1, 2, 1);
        let reference = reference_scan(&sum, f, 1, 2);
        assert_eq!(result, reference);
        result.unwrap_err();
        assert_eq!(stats.symmetry_skipped, 1);
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
        // (0,0)..(0,3), (1,1)..(1,3), (2,2), (2,3), (3,3).
        assert_eq!(
            stats.configs_explored,
            1 + 2 + 3 + 4 + 3 + 4 + 5 + 5 + 6 + 7
        );
        assert_eq!(reference_scan(&sum, f, 3, 10_000), Ok(None));
    }

    #[test]
    fn sweeps_explore_identically_at_every_worker_count() {
        // Every point's stubborn sets depend on its configurations alone,
        // and full verdicts share nothing across points, so a passing sweep
        // visits the same configurations, and its runs branch at the same
        // points, whichever worker expands them.
        fn sweep_at_1_2_4(crn: &FunctionCrn, f: fn(&NVec) -> u64, bound: u64) -> BoxCheckStats {
            let (first, first_stats) = stats_scan(crn, f, bound, 100_000, 1);
            for workers in [2, 4] {
                let (outcome, stats) = stats_scan(crn, f, bound, 100_000, workers);
                assert_eq!(outcome, first, "workers={workers}");
                if first == Ok(None) {
                    assert_eq!(stats, first_stats, "workers={workers}");
                }
            }
            first_stats
        }
        let max = examples::max_crn();
        let paths = sweep_at_1_2_4(&max, |x| x[0].max(x[1]), 12);
        assert_eq!(paths.branched, 0, "nothing conflicts in the max CRN");
        sweep_at_1_2_4(&examples::min_crn(), |x| x[0].min(x[1]), 12);
        sweep_at_1_2_4(&max, |x| x[0] + x[1], 6);
        sweep_at_1_2_4(&cyclic_sum_crn(), |x| x[0] + x[1], 6);
        // `X -> Y` and `X -> Z` conflict wherever X is left, so every run
        // but the one from the terminal x = 0 branches at once.
        let mut crn = Crn::new();
        for reaction in ["X -> Y", "X -> Z", "Z -> Y"] {
            crn.parse_reaction(reaction).unwrap();
        }
        let fork = FunctionCrn::with_named_roles(crn, &["X"], "Y", None).unwrap();
        let forked = sweep_at_1_2_4(&fork, |x| x[0], 6);
        assert_eq!((forked.decided, forked.branched), (7, 6));
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
        // The field does not depend on the expected value, which fails here.
        let max = examples::max_crn();
        let v = check_stable_computation(&max, &NVec::from(vec![2, 3]), 0, 50_000).unwrap();
        assert_eq!(v.max_output_reachable, 5);
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
        let v = check_stable_computation(&double, &NVec::from(vec![2]), 4, 1000).unwrap();
        // {2X}, {1X,2Y}, {0X,4Y}
        assert_eq!(v.reachable_configurations, 3);
    }

    #[test]
    fn reactions_with_foreign_species_do_not_panic() {
        // `Crn::add_reaction` does not validate that reaction species belong
        // to the CRN's interner; the dense stride must still cover them (the
        // seed's sparse engine accepted such CRNs without crashing).
        let mut crn = Crn::new();
        let a = crn.add_species("A");
        crn.add_species("B");
        let foreign = Species(5);
        crn.add_reaction(Reaction::new(vec![(a, 1)], vec![(foreign, 1)]));
        let f = FunctionCrn::with_named_roles(crn, &["A"], "B", None).unwrap();
        let x = NVec::from(vec![2]);
        let fast = check_stable_computation(&f, &x, 0, 100).unwrap();
        // {2A}, {1A, 1F}, {2F}
        assert_eq!(fast.reachable_configurations, 3);
        assert!(fast.is_correct());
        let slow = oracle::check_stable_computation_naive(&f, &x, 0, 100).unwrap();
        assert_eq!(fast, slow);
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

    /// Whether renaming every species `s` to `sigma[s]` maps the reactions
    /// of `crn` onto themselves as a multiset, each reaction compared as its
    /// sorted reactant and product counts.
    fn maps_reactions_onto_themselves(crn: &Crn, sigma: &[usize]) -> bool {
        type Side = Vec<(usize, u64)>;
        let renamed = |rename: &dyn Fn(usize) -> usize| -> Vec<(Side, Side)> {
            let side = |counts: &std::collections::BTreeMap<Species, u64>| -> Side {
                let mut side: Side = counts
                    .iter()
                    .map(|(s, &c)| (rename(s.index()), c))
                    .collect();
                side.sort_unstable();
                side
            };
            let mut reactions: Vec<(Side, Side)> = crn
                .reactions()
                .iter()
                .map(|r| (side(r.reactants()), side(r.products())))
                .collect();
            reactions.sort_unstable();
            reactions
        };
        renamed(&|s| s) == renamed(&|s| sigma[s])
    }

    proptest! {
        /// The detector finds the swap `symmetric_random_crn` forces, and
        /// every automorphism it reports maps the reaction multiset onto
        /// itself — rebuilt here from the `Crn`'s own reactions, not through
        /// the detector's final gate — fixes the output and moves the
        /// inputs as its skip orientation says.
        #[test]
        fn the_detector_finds_every_forced_swap(
            stoich in proptest::collection::vec(proptest::collection::vec(0u64..3, 8), 1..5),
        ) {
            let crn = symmetric_random_crn(&stoich);
            let analysis = CrnAnalysis::of(&crn);
            let found = analysis.automorphisms();
            let skips: Vec<&[usize]> = found.iter().map(Automorphism::inputs).collect();
            prop_assert_eq!(skips, vec![&[1usize, 0][..]]);
            let inputs: Vec<usize> = crn.roles().inputs.iter().map(|s| s.index()).collect();
            for automorphism in found {
                let sigma = automorphism.species();
                prop_assert!(maps_reactions_onto_themselves(crn.crn(), sigma));
                prop_assert_eq!(sigma[crn.output().index()], crn.output().index());
                for (k, &j) in automorphism.inputs().iter().enumerate() {
                    prop_assert_eq!(sigma[inputs[j]], inputs[k]);
                }
            }
        }

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

        /// Additivity of reachability (Section 2.2): if A ->* B then A + C ->* B + C.
        #[test]
        fn reachability_is_additive(x in 0u64..5, extra in 0u64..4) {
            let double = examples::double_crn();
            let input = NVec::from(vec![x]);
            let start = double.initial_configuration(&input).unwrap();
            let reach = oracle::NaiveGraph::explore(double.crn(), &start, 10_000).unwrap();
            // Add `extra` copies of the input species to both sides.
            let x_species = double.roles().inputs[0];
            let mut addition = Configuration::new();
            addition.add(x_species, extra);
            let start_plus = start.plus(&addition);
            let reach_plus =
                oracle::NaiveGraph::explore(double.crn(), &start_plus, 10_000).unwrap();
            let reach_plus = &reach_plus.configurations;
            for b in &reach.configurations {
                prop_assert!(reach_plus.contains(&b.plus(&addition)));
            }
        }

        /// The determinism contract: the box sweep (symmetry skips plus
        /// routed explorations) and the sequential loop of full verdicts
        /// return bit-identical outcomes on arbitrary small CRNs — same
        /// verdict fields, same lexicographically-first failure, same
        /// errors.
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
