//! Typed structural lints with stable codes `C001`–`C009`.
//!
//! Each lint is a *static* fact about a [`FunctionCrn`] — no state space is
//! explored.  The codes are stable identifiers for tooling (goldens, CI
//! filters, `--json` consumers):
//!
//! | code | meaning |
//! |------|---------|
//! | `C001` | dead species: never producible from the inputs and leader |
//! | `C002` | unfireable reaction: some reactant is never producible |
//! | `C003` | output consumed non-catalytically ⇒ not output-oblivious (Observation 2.2) |
//! | `C004` | leader consumed by competing reactions and never regenerated |
//! | `C005` | a conservation law bounds the output to zero from every input |
//! | `C006` | a minimal siphon starts unmarked and can never become marked |
//! | `C007` | a markable trap permanently locks conservation budget away from the output |
//! | `C008` | a producible species no decreasing potential bounds — divergence risk |
//! | `C009` | a reaction outside every T-semiflow support in a cyclic bounded CRN |
//!
//! `C001`/`C002` come from the [`Liveness`] fixpoint (sound: flagged
//! structure is dead for *every* initial configuration over the declared
//! roles).  `C003` is syntactic on reaction deltas.  `C004` is a heuristic
//! for the classic starved-leader bug, deliberately conservative so that
//! single-use leaders (`L + X -> Y` computing `min(1, x)`) stay silent.
//! `C005` instantiates the P-semiflow bound: a nonnegative law `v` with zero
//! weight on every input, positive weight `v(Y)` on the output, and
//! `⌊v·c₀ / v(Y)⌋ = 0` for the leader-only part of the initial configuration
//! proves `Y = 0` along every trajectory from every input — the CRN cannot
//! compute anything but zero.
//!
//! The analysis-v2 codes instantiate Petri-net structure theory:
//!
//! * `C006` — a minimal siphon disjoint from the inputs and leader starts
//!   empty and, by the siphon property, stays empty forever: every reaction
//!   consuming from it is structurally dead for every input.
//! * `C007` — a minimal trap `Q` not containing the output, markable from
//!   the declared roles, whose species all carry positive weight under an
//!   input-independent nonnegative law that also weighs the output: marking
//!   `Q` permanently sinks at least `min_{s∈Q} v(s)` of the conserved
//!   budget, strictly lowering the output's reachable ceiling.
//! * `C008` — a producible species covered by no decreasing potential: no
//!   invariant reasoning bounds its count, so it may diverge (skipped when
//!   the potential enumeration truncated — absence would be unreliable).
//! * `C009` — in a structurally bounded CRN (every species covered by a
//!   decreasing potential) any infinite firing sequence repeats a
//!   configuration, so the reactions fired infinitely often form a
//!   T-semiflow support; a reaction outside every support fires at most
//!   finitely often.  Only reported when the CRN has at least one
//!   T-semiflow (otherwise *every* reaction of a terminating CRN would be
//!   flagged) and no relevant enumeration truncated.
//!
//! When a cap or an `i128` overflow does truncate an enumeration,
//! [`lint_full`] reports it as an explicit "analysis incomplete" note naming
//! the cause, instead of silently narrowing.

use crate::compiled::CompiledCrn;
use crate::function::FunctionCrn;
use crate::species::Species;

use super::bounds::SpeciesBounds;
use super::invariants::{nonnegative_laws_capped, ConservationLaw, FARKAS_ROW_CAP};
use super::liveness::Liveness;
use super::siphons::{minimal_siphons, minimal_traps, SIPHON_NODE_CAP};
use super::stoichiometry::Stoichiometry;
use super::t_invariants::nonnegative_t_semiflows;

/// Stable lint identifiers.  The numeric suffix never changes meaning.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum LintCode {
    /// Dead species: never producible from the inputs and leader.
    DeadSpecies,
    /// Unfireable reaction: some reactant is never producible.
    UnfireableReaction,
    /// The output species is consumed on a non-catalytic path.
    OutputConsumed,
    /// The leader is consumed by competing reactions and never regenerated.
    LeaderStarved,
    /// A conservation law bounds the output to zero from every input.
    OutputExcluded,
    /// A minimal siphon starts unmarked and can never become marked.
    UnmarkedSiphon,
    /// A markable trap permanently locks conservation budget away from the
    /// output.
    OutputLockingTrap,
    /// A producible species bounded by no decreasing potential.
    UnboundedSpecies,
    /// A reaction outside every T-semiflow support of a cyclic bounded CRN.
    TransientReaction,
}

impl LintCode {
    /// The stable code string, e.g. `"C003"`.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            LintCode::DeadSpecies => "C001",
            LintCode::UnfireableReaction => "C002",
            LintCode::OutputConsumed => "C003",
            LintCode::LeaderStarved => "C004",
            LintCode::OutputExcluded => "C005",
            LintCode::UnmarkedSiphon => "C006",
            LintCode::OutputLockingTrap => "C007",
            LintCode::UnboundedSpecies => "C008",
            LintCode::TransientReaction => "C009",
        }
    }
}

impl std::fmt::Display for LintCode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One structural finding: a code, the anchoring species and/or reaction
/// (reaction indices follow the CRN's reaction order), and a rendered
/// human-readable message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Lint {
    /// Which lint fired.
    pub code: LintCode,
    /// The species the finding is about, when species-anchored.
    pub species: Option<Species>,
    /// The index of the offending reaction, when reaction-anchored.
    pub reaction: Option<usize>,
    /// A rendered message with species names substituted in.
    pub message: String,
}

/// The complete result of one lint run: the findings, plus "analysis
/// incomplete" notes for every enumeration an internal cap truncated (no
/// silent caps — a clean finding list means nothing if the search that
/// would have produced findings was cut short).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LintOutcome {
    /// The findings, in stable `(code, reaction, species)` order.
    pub findings: Vec<Lint>,
    /// Human-readable truncation notes, in a fixed emission order.
    pub notes: Vec<String>,
}

/// Runs every lint against a function CRN, in stable code order, dropping
/// the truncation notes.  Prefer [`lint_full`] in user-facing tooling.
#[must_use]
pub fn lint(f: &FunctionCrn) -> Vec<Lint> {
    lint_full(f).findings
}

/// Runs every lint against a function CRN, in stable code order, together
/// with the "analysis incomplete" notes.
#[must_use]
pub fn lint_full(f: &FunctionCrn) -> LintOutcome {
    let crn = f.crn();
    let species = crn.species();
    let compiled = CompiledCrn::compile(crn);
    let mut out = Vec::new();
    let mut notes = Vec::new();

    // C001 / C002 — liveness from the declared initial species.
    let mut initial: Vec<usize> = f.roles().inputs.iter().map(|s| s.index()).collect();
    if let Some(leader) = f.leader() {
        initial.push(leader.index());
    }
    let live = Liveness::analyze(&compiled, &initial);
    for s in live.dead_species() {
        // Only named species can be dead here: the compiled stride covers
        // exactly the interner plus reaction-mentioned species, and every
        // reaction-mentioned species is interned.
        if s < species.len() {
            let sp = Species(s);
            out.push(Lint {
                code: LintCode::DeadSpecies,
                species: Some(sp),
                reaction: None,
                message: format!(
                    "species `{}` is never producible from the inputs",
                    species.name(sp)
                ),
            });
        }
    }
    for r in live.unfireable_reactions() {
        out.push(Lint {
            code: LintCode::UnfireableReaction,
            species: None,
            reaction: Some(r),
            message: format!(
                "reaction `{}` can never fire: a reactant is never producible",
                crn.reactions()[r].display(species)
            ),
        });
    }

    // C003 — a reaction that strictly decreases the output species makes the
    // CRN non-output-oblivious (Observation 2.2); catalytic uses are fine.
    let output = f.output();
    for (r, reaction) in crn.reactions().iter().enumerate() {
        if reaction.decreases(output) {
            out.push(Lint {
                code: LintCode::OutputConsumed,
                species: Some(output),
                reaction: Some(r),
                message: format!(
                    "output `{}` is consumed non-catalytically by `{}`: \
                     the CRN is not output-oblivious",
                    species.name(output),
                    crn.reactions()[r].display(species)
                ),
            });
        }
    }

    // C004 — the leader is contested (reactant of two or more reactions, at
    // least one of which destroys it) and nothing ever regenerates it.  A
    // single consuming reaction is the normal single-use-leader idiom and
    // stays silent.
    if let Some(leader) = f.leader() {
        let regenerated = crn.reactions().iter().any(|rx| rx.produces(leader));
        let consumers: Vec<usize> = (0..crn.reactions().len())
            .filter(|&r| crn.reactions()[r].consumes(leader))
            .collect();
        let destroyed = consumers
            .iter()
            .any(|&r| crn.reactions()[r].decreases(leader));
        if !regenerated && consumers.len() >= 2 && destroyed {
            out.push(Lint {
                code: LintCode::LeaderStarved,
                species: Some(leader),
                reaction: consumers.first().copied(),
                message: format!(
                    "leader `{}` is consumed by {} reactions and never regenerated",
                    species.name(leader),
                    consumers.len()
                ),
            });
        }
    }

    // C005 — a nonnegative conservation law proves the output stays zero.
    let stoich = Stoichiometry::of(&compiled);
    let inputs = &f.roles().inputs;
    let leader = f.leader();
    let semiflows = nonnegative_laws_capped(&stoich, FARKAS_ROW_CAP);
    if semiflows.truncated {
        notes.push(farkas_note(
            "P-semiflow",
            semiflows.overflowed,
            "C005/C007 may miss laws",
        ));
    }
    for law in &semiflows.laws {
        if let Some(message) = output_excluded(law, inputs, output, leader, species) {
            out.push(Lint {
                code: LintCode::OutputExcluded,
                species: Some(output),
                reaction: None,
                message,
            });
            break; // one witness law is enough
        }
    }

    // C006 — a minimal siphon disjoint from every initially-marked species
    // starts empty; by the siphon property nothing can ever mark it.
    let mut marked = vec![false; compiled.stride()];
    for &s in &initial {
        if s < marked.len() {
            marked[s] = true;
        }
    }
    let siphons = minimal_siphons(&compiled, SIPHON_NODE_CAP);
    if siphons.truncated {
        notes.push(format!(
            "analysis incomplete: siphon enumeration truncated at {SIPHON_NODE_CAP} nodes \
             (C006 may miss siphons)"
        ));
    }
    for set in &siphons.sets {
        if set.iter().any(|&s| marked[s]) {
            continue;
        }
        out.push(Lint {
            code: LintCode::UnmarkedSiphon,
            species: set
                .iter()
                .find(|&&s| s < species.len())
                .map(|&s| Species(s)),
            reaction: None,
            message: format!(
                "siphon {{{}}} starts unmarked and no reaction can ever mark it: \
                 every reaction consuming from it is structurally dead",
                display_set(set, species)
            ),
        });
    }

    // C007 — a markable trap whose species all sink input-independent
    // conservation budget the output needs: once the trap is marked, the
    // output's reachable ceiling drops for good.
    let traps = minimal_traps(&compiled, SIPHON_NODE_CAP);
    if traps.truncated {
        notes.push(format!(
            "analysis incomplete: trap enumeration truncated at {SIPHON_NODE_CAP} nodes \
             (C007 may miss traps)"
        ));
    }
    for set in &traps.sets {
        if set.contains(&output.index()) {
            continue;
        }
        if !set.iter().any(|&s| live.producible(s)) {
            continue; // a trap that can never be marked locks nothing
        }
        let Some((law, ceiling, locked)) =
            trap_locks_output(set, &semiflows.laws, inputs, output, leader)
        else {
            continue;
        };
        out.push(Lint {
            code: LintCode::OutputLockingTrap,
            species: set
                .iter()
                .find(|&&s| s < species.len())
                .map(|&s| Species(s)),
            reaction: None,
            message: format!(
                "trap {{{}}} can become marked and then permanently locks conservation \
                 budget away from output `{}`: law {} caps the output at {} instead of {}",
                display_set(set, species),
                species.name(output),
                law.display(species),
                locked,
                ceiling
            ),
        });
    }

    // C008 — a producible species no decreasing potential covers: no
    // invariant reasoning bounds its count, so it may grow without bound.
    // Skipped entirely under truncation (the claim is about absence).
    let bounds = SpeciesBounds::of(&compiled);
    if bounds.truncated() {
        notes.push(farkas_note(
            "potential",
            bounds.overflowed(),
            "C008/C009 skipped",
        ));
    } else {
        for s in 0..species.len() {
            if live.producible(s) && !bounds.covered(s) {
                out.push(Lint {
                    code: LintCode::UnboundedSpecies,
                    species: Some(Species(s)),
                    reaction: None,
                    message: format!(
                        "species `{}` is bounded by no conservation law or decreasing \
                         potential: its count may diverge",
                        species.name(Species(s))
                    ),
                });
            }
        }
    }

    // C009 — in a structurally bounded CRN, a reaction outside every
    // T-semiflow support fires at most finitely often.  Reported only when
    // the CRN actually has repeatable cycles, so terminating CRNs (where
    // the fact is vacuously true of every reaction) stay silent.
    let t_semiflows = nonnegative_t_semiflows(&stoich, FARKAS_ROW_CAP);
    if t_semiflows.truncated {
        notes.push(farkas_note(
            "T-semiflow",
            t_semiflows.overflowed,
            "C009 skipped",
        ));
    }
    let structurally_bounded =
        !bounds.truncated() && (0..compiled.stride()).all(|s| bounds.covered(s));
    if !t_semiflows.truncated && structurally_bounded && !t_semiflows.semiflows.is_empty() {
        let mut in_support = vec![false; crn.reactions().len()];
        for flow in &t_semiflows.semiflows {
            for r in flow.support() {
                if r < in_support.len() {
                    in_support[r] = true;
                }
            }
        }
        for (r, covered) in in_support.iter().enumerate() {
            if !covered {
                out.push(Lint {
                    code: LintCode::TransientReaction,
                    species: None,
                    reaction: Some(r),
                    message: format!(
                        "reaction `{}` lies outside every T-invariant of this bounded CRN: \
                         it can fire at most finitely often while the cycles run forever",
                        crn.reactions()[r].display(species)
                    ),
                });
            }
        }
    }

    out.sort_by(|a, b| {
        (a.code, a.reaction, a.species.map(|s| s.index())).cmp(&(
            b.code,
            b.reaction,
            b.species.map(|s| s.index()),
        ))
    });
    LintOutcome {
        findings: out,
        notes,
    }
}

/// The "analysis incomplete" note of a truncated Farkas enumeration of
/// `what`, naming its cause — an `i128` overflow when one occurred, else the
/// row cap — and the `consequence` for the lints built on it.
fn farkas_note(what: &str, overflowed: bool, consequence: &str) -> String {
    let cause = if overflowed {
        "dropped combinations that overflow i128".to_owned()
    } else {
        format!("truncated at {FARKAS_ROW_CAP} rows")
    };
    format!("analysis incomplete: {what} enumeration {cause} ({consequence})")
}

/// Renders a species-index set as comma-separated names (foreign indices as
/// `#i`).
fn display_set(set: &[usize], species: &crate::species::SpeciesSet) -> String {
    set.iter()
        .map(|&s| {
            if s < species.len() {
                species.name(Species(s)).to_owned()
            } else {
                format!("#{s}")
            }
        })
        .collect::<Vec<_>>()
        .join(", ")
}

/// Checks whether marking trap `set` strictly lowers the output ceiling of
/// some input-independent nonnegative law: the law must weigh the output
/// and every trap species positively, weigh every input zero, and satisfy
/// `⌊(B − w_min) / v(Y)⌋ < ⌊B / v(Y)⌋ > 0` for the leader-only budget `B`.
fn trap_locks_output<'l>(
    set: &[usize],
    laws: &'l [ConservationLaw],
    inputs: &[Species],
    output: Species,
    leader: Option<Species>,
) -> Option<(&'l ConservationLaw, i128, i128)> {
    for law in laws {
        let vy = law.weight(output.index());
        if vy <= 0 {
            continue;
        }
        if inputs.iter().any(|x| law.weight(x.index()) != 0) {
            continue;
        }
        if set.iter().any(|&s| law.weight(s) <= 0) {
            continue;
        }
        let budget = leader.map_or(0, |l| law.weight(l.index()));
        let ceiling = budget / vy;
        if ceiling == 0 {
            continue; // C005 territory: the output is excluded outright
        }
        let w_min = set.iter().map(|&s| law.weight(s)).min().unwrap_or(0);
        let locked = (budget - w_min).div_euclid(vy).max(0);
        if locked < ceiling {
            return Some((law, ceiling, locked));
        }
    }
    None
}

/// Checks whether `law` bounds the output to zero regardless of inputs:
/// zero weight on every input, positive weight on the output, and a
/// leader-only initial budget below one output's worth.
fn output_excluded(
    law: &ConservationLaw,
    inputs: &[Species],
    output: Species,
    leader: Option<Species>,
    species: &crate::species::SpeciesSet,
) -> Option<String> {
    let vy = law.weight(output.index());
    if vy <= 0 {
        return None;
    }
    if inputs.iter().any(|x| law.weight(x.index()) != 0) {
        return None;
    }
    // v·c₀ over the input-independent part of the initial configuration:
    // only the leader (count 1) contributes — inputs weigh zero by the
    // check above, and everything else starts at zero count.
    let budget = leader.map_or(0, |l| law.weight(l.index()));
    if budget / vy != 0 {
        return None;
    }
    Some(format!(
        "conservation law {} bounds output `{}` to zero from every input",
        law.display(species),
        species.name(output)
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::crn::Crn;
    use crate::examples;

    fn codes(lints: &[Lint]) -> Vec<&'static str> {
        lints.iter().map(|l| l.code.as_str()).collect()
    }

    #[test]
    fn figure1_examples_lint_as_expected() {
        // min is clean; max flags only the K + Y -> 0 output consumption.
        assert!(lint(&examples::min_crn()).is_empty());
        let max = lint(&examples::max_crn());
        assert_eq!(codes(&max), vec!["C003"]);
        assert_eq!(max[0].reaction, Some(3));
    }

    #[test]
    fn single_use_leader_is_not_starved() {
        // L + X -> Y computing min(1, x): the classic leader idiom is fine.
        assert!(lint(&examples::min1_leader_crn()).is_empty());
    }

    #[test]
    fn dead_chain_fires_c001_c002_and_c006() {
        // D and U are dead (C001), D -> U can never fire (C002), and {D} is
        // an unmarked siphon (C006) — the structural view of the same bug.
        let mut crn = Crn::new();
        crn.parse_reaction("X -> Y").unwrap();
        crn.parse_reaction("D -> U").unwrap();
        let f = crate::function::FunctionCrn::with_named_roles(crn, &["X"], "Y", None).unwrap();
        let lints = lint(&f);
        assert_eq!(codes(&lints), vec!["C001", "C001", "C002", "C006"]);
        assert_eq!(lints[2].reaction, Some(1));
        assert!(lints[3].message.contains("siphon {D}"), "{lints:?}");
    }

    #[test]
    fn contested_leader_fires_c004() {
        let mut crn = Crn::new();
        crn.parse_reaction("L + X -> W").unwrap();
        crn.parse_reaction("L + W -> Y").unwrap();
        let f =
            crate::function::FunctionCrn::with_named_roles(crn, &["X"], "Y", Some("L")).unwrap();
        let lints = lint(&f);
        assert!(codes(&lints).contains(&"C004"), "{lints:?}");
    }

    #[test]
    fn regenerated_leader_is_not_starved() {
        let mut crn = Crn::new();
        crn.parse_reaction("L + X -> W").unwrap();
        crn.parse_reaction("L + W -> Y + L").unwrap();
        let f =
            crate::function::FunctionCrn::with_named_roles(crn, &["X"], "Y", Some("L")).unwrap();
        assert!(!codes(&lint(&f)).contains(&"C004"));
    }

    #[test]
    fn starved_output_fires_c005() {
        // L -> W ; 2W -> Y with one leader: law L + W + 2Y gives budget 1,
        // floor(1/2) = 0, so Y can never rise above zero for any input X.
        let mut crn = Crn::new();
        crn.parse_reaction("L -> W").unwrap();
        crn.parse_reaction("2W -> Y").unwrap();
        crn.add_species("X");
        let f =
            crate::function::FunctionCrn::with_named_roles(crn, &["X"], "Y", Some("L")).unwrap();
        let lints = lint(&f);
        assert!(codes(&lints).contains(&"C005"), "{lints:?}");
    }

    #[test]
    fn productive_output_does_not_fire_c005() {
        // X -> 2Y: the only semiflow-style law involving Y weighs X too.
        assert!(lint(&examples::double_crn()).is_empty());
    }

    #[test]
    fn locked_budget_fires_c007() {
        // L -> 2B ; B + X -> Y ; B -> V: the law 2L + B + Y + V gives the
        // output a leader-only ceiling of 2, but any budget token B straying
        // into the trap {V} permanently locks one Y away.
        let mut crn = Crn::new();
        crn.parse_reaction("L -> 2B").unwrap();
        crn.parse_reaction("B + X -> Y").unwrap();
        crn.parse_reaction("B -> V").unwrap();
        let f =
            crate::function::FunctionCrn::with_named_roles(crn, &["X"], "Y", Some("L")).unwrap();
        let lints = lint(&f);
        assert_eq!(codes(&lints), vec!["C007"], "{lints:?}");
        assert!(lints[0].message.contains("trap {V}"), "{lints:?}");
        assert!(lints[0].message.contains("at 1 instead of 2"), "{lints:?}");
    }

    #[test]
    fn uncovered_species_fires_c008() {
        // X -> Y ; Y -> Y + G: G only ever grows, and no potential covers it.
        let mut crn = Crn::new();
        crn.parse_reaction("X -> Y").unwrap();
        crn.parse_reaction("Y -> Y + G").unwrap();
        let f = crate::function::FunctionCrn::with_named_roles(crn, &["X"], "Y", None).unwrap();
        let lints = lint(&f);
        assert_eq!(codes(&lints), vec!["C008"], "{lints:?}");
        assert!(lints[0].message.contains('G'), "{lints:?}");
    }

    #[test]
    fn reaction_outside_the_cycles_fires_c009() {
        // X -> Y makes irreversible progress while A <-> B cycles forever;
        // the CRN is structurally bounded, so X -> Y fires finitely often.
        let mut crn = Crn::new();
        crn.parse_reaction("X -> Y").unwrap();
        crn.parse_reaction("A -> B").unwrap();
        crn.parse_reaction("B -> A").unwrap();
        let f =
            crate::function::FunctionCrn::with_named_roles(crn, &["X"], "Y", Some("A")).unwrap();
        let lints = lint(&f);
        assert_eq!(codes(&lints), vec!["C009"], "{lints:?}");
        assert_eq!(lints[0].reaction, Some(0));
    }

    #[test]
    fn terminating_crns_do_not_fire_c009() {
        // max has no T-invariants at all: flagging every reaction of every
        // terminating CRN would be pure noise, so C009 stays silent.
        let max = lint(&examples::max_crn());
        assert!(!codes(&max).contains(&"C009"), "{max:?}");
    }

    #[test]
    fn truncation_surfaces_as_notes_not_silence() {
        // A full run of the adversarial-but-small examples produces no
        // notes: nothing truncated, so nothing to disclaim.
        assert!(lint_full(&examples::max_crn()).notes.is_empty());
        assert!(lint_full(&examples::min_crn()).notes.is_empty());
    }

    fn random_function_crn(rows: &[Vec<u64>]) -> crate::function::FunctionCrn {
        let mut crn = Crn::new();
        for name in ["X", "Y", "Z"] {
            crn.add_species(name);
        }
        for row in rows {
            let side = |counts: &[u64]| {
                counts
                    .iter()
                    .enumerate()
                    .filter(|&(_, &c)| c > 0)
                    .map(|(s, &c)| (Species(s), c))
                    .collect::<Vec<_>>()
            };
            crn.add_reaction(crate::reaction::Reaction::new(
                side(&row[..3]),
                side(&row[3..]),
            ));
        }
        crate::function::FunctionCrn::with_named_roles(crn, &["X"], "Y", None).unwrap()
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(48))]

        /// Linting is deterministic, and the species-anchored findings
        /// (everything not tied to a reaction index) are independent of the
        /// order reactions were declared in.
        #[test]
        fn lints_are_deterministic_and_order_insensitive(
            rows in proptest::collection::vec(
                proptest::collection::vec(0u64..3, 6),
                1..4,
            ),
            seed in 0usize..24,
        ) {
            let f = random_function_crn(&rows);
            let first = lint_full(&f);
            let second = lint_full(&f);
            proptest::prop_assert_eq!(&first, &second);

            // A deterministic permutation of the declaration order.
            let mut permuted = rows.clone();
            if permuted.len() > 1 {
                let k = seed % permuted.len();
                permuted.rotate_left(k);
                if seed % 2 == 1 {
                    permuted.reverse();
                }
            }
            let g = random_function_crn(&permuted);
            let reordered = lint_full(&g);
            let species_anchored = |outcome: &LintOutcome| {
                let mut msgs: Vec<String> = outcome
                    .findings
                    .iter()
                    .filter(|l| l.reaction.is_none())
                    .map(|l| format!("{}: {}", l.code, l.message))
                    .collect();
                msgs.sort();
                msgs
            };
            proptest::prop_assert_eq!(
                species_anchored(&first),
                species_anchored(&reordered)
            );
            proptest::prop_assert_eq!(first.notes, reordered.notes);
        }
    }
}
