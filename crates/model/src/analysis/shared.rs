//! The per-CRN analysis that `crn lint` and the box engine share.
//!
//! Linting and verifying a CRN need much of the same static analysis: the
//! compiled reactions, the stoichiometry and, costliest of all, the
//! [`SpeciesBounds`] potential cone.  A [`CrnAnalysis`] computes each
//! artifact at most once, on first use, and keeps it for every later
//! reader — [`CrnAnalysis::lint`], and every worker of a
//! [`BoxCheck`](crate::BoxCheck) sweep, which shares the analysis by
//! reference.  A command builds one per item and drops it once it is done
//! with it, so nothing outlives the command.
//!
//! Under `--profile`, the costly initializers show as their own spans:
//! `model.analysis.bounds` (the decreasing-potential cone) and
//! `model.analysis.t_semiflows` (the T-semiflows, which both the `C009`
//! lint and the acyclicity certificate read), each once per analysis.
//! The enumerations only lint reads show under `model.analysis.lint`:
//! `model.analysis.semiflows`, `model.analysis.siphons` and
//! `model.analysis.traps`.

use crn_sync::OnceLock;

use crate::compiled::CompiledCrn;
use crate::function::FunctionCrn;
use crate::reachability::stubborn::StubbornSets;
use crate::reachability::symmetry::{input_automorphisms, Automorphism};

use super::bounds::SpeciesBounds;
use super::invariants::FARKAS_ROW_CAP;
use super::stoichiometry::Stoichiometry;
use super::t_invariants::{nonnegative_t_semiflows, TSemiflowEnumeration};

/// The static analysis of one function CRN, each artifact computed lazily
/// and at most once.
///
/// ```
/// use crn_model::analysis::CrnAnalysis;
/// use crn_model::{examples, BoxCheck};
///
/// let min = examples::min_crn();
/// let analysis = CrnAnalysis::of(&min);
/// assert!(analysis.lint().findings.is_empty());
/// // The sweep reuses the analysis the lint run already computed.
/// let (outcome, stats) = BoxCheck::new(&analysis, |x| x[0].min(x[1]), 3, 10_000).run();
/// assert_eq!(outcome, Ok(None));
/// assert_eq!(stats.symmetry_skipped, 6);
/// ```
pub struct CrnAnalysis<'a> {
    crn: &'a FunctionCrn,
    compiled: CompiledCrn,
    stoich: OnceLock<Stoichiometry>,
    bounds: OnceLock<SpeciesBounds>,
    t_semiflows: OnceLock<TSemiflowEnumeration>,
    stubborn: OnceLock<StubbornSets>,
    automorphisms: OnceLock<Vec<Automorphism>>,
}

impl<'a> CrnAnalysis<'a> {
    /// Compiles `crn`; every other artifact waits for its first reader.
    #[must_use]
    pub fn of(crn: &'a FunctionCrn) -> Self {
        CrnAnalysis {
            crn,
            compiled: CompiledCrn::compile(crn.crn()),
            stoich: OnceLock::new(),
            bounds: OnceLock::new(),
            t_semiflows: OnceLock::new(),
            stubborn: OnceLock::new(),
            automorphisms: OnceLock::new(),
        }
    }

    /// The analyzed CRN.
    pub(crate) fn crn(&self) -> &'a FunctionCrn {
        self.crn
    }

    /// The compiled reactions.
    pub(crate) fn compiled(&self) -> &CompiledCrn {
        &self.compiled
    }

    pub(crate) fn stoichiometry(&self) -> &Stoichiometry {
        self.stoich
            .get_or_init(|| Stoichiometry::of(&self.compiled))
    }

    /// The monotone-potential bounds (see [`SpeciesBounds::of`]).
    pub(crate) fn bounds(&self) -> &SpeciesBounds {
        self.bounds.get_or_init(|| {
            let _span = crn_obs::span("model.analysis.bounds");
            SpeciesBounds::of_stoichiometry(self.stoichiometry(), FARKAS_ROW_CAP)
        })
    }

    /// The minimal T-semiflows (see [`nonnegative_t_semiflows`]).
    pub(crate) fn t_semiflows(&self) -> &TSemiflowEnumeration {
        self.t_semiflows.get_or_init(|| {
            let _span = crn_obs::span("model.analysis.t_semiflows");
            nonnegative_t_semiflows(self.stoichiometry(), FARKAS_ROW_CAP)
        })
    }

    /// No nonzero nonnegative T-invariant exists: no firing sequence can
    /// restore a configuration, so *every* reachability graph of this CRN is
    /// acyclic (a cycle's firing-count vector would be such an invariant,
    /// and every such invariant is a nonnegative combination of minimal
    /// T-semiflows).  Certified by an untruncated, empty T-semiflow
    /// enumeration; a truncated one certifies nothing.
    pub(crate) fn acyclic(&self) -> bool {
        let flows = self.t_semiflows();
        !flows.truncated && flows.semiflows.is_empty()
    }

    /// The stubborn-set relations of the terminal scan.
    pub(crate) fn stubborn(&self) -> &StubbornSets {
        self.stubborn
            .get_or_init(|| StubbornSets::of(&self.compiled))
    }

    /// The detected automorphisms that permute the inputs and fix the
    /// output and leader, one per non-identity input permutation they
    /// induce.  Sound but deliberately incomplete: only CRNs with two to
    /// six inputs are searched, and a missed automorphism only costs a box
    /// sweep redundant work.
    #[must_use]
    pub fn automorphisms(&self) -> &[Automorphism] {
        self.automorphisms
            .get_or_init(|| input_automorphisms(self.crn, &self.compiled))
    }
}
