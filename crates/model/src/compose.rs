//! Composition of function CRNs by concatenation (Section 2.3), generalized
//! to an n-stage pipeline engine.
//!
//! Observation 2.2: if an upstream CRN `C_f` is output-oblivious, renaming its
//! output species to the input species of a downstream CRN `C_g` (and keeping
//! all other species disjoint) yields a CRN that stably computes `g ∘ f`.
//! [`Pipeline`] grows that one construction into a DAG of modules: every
//! stage input is wired either to a global input or to an earlier stage's
//! output, fan-out (one source feeding several consumers) happens through
//! explicit copy reactions `S -> S^(1) + … + S^(m)` exactly as in the proof
//! of Lemma 6.2, and the classic two-level helpers ([`concatenate`],
//! [`compose_feed_forward`], [`parallel_union`]) are thin wrappers over it.
//!
//! # Freshness invariant
//!
//! Every species of the built CRN is interned through [`Pipeline::build`]'s
//! fresh-name allocator, which never reuses a name that is already present in
//! the target interner.  Identifications (a module output landing on the wire
//! that doubles as a downstream input) happen only through the explicit
//! species map, never through name equality.  Consequently composition cannot
//! capture or collide **regardless of the modules' species names** — a parsed
//! module whose species are literally called `W0`, `Y_out`, `L` or `f0.X1`
//! composes exactly like any other, and the build never panics.

use std::collections::HashMap;

use crate::crn::Crn;
use crate::error::CrnError;
use crate::function::{FunctionCrn, Roles};
use crate::reaction::Reaction;
use crate::species::Species;

/// Identifies a stage added to a [`Pipeline`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct StageId(usize);

impl StageId {
    /// The stage's position in insertion order.
    #[must_use]
    pub fn index(self) -> usize {
        self.0
    }
}

/// Where a stage input draws its tokens from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PipeSource {
    /// Global input `i` of the composed CRN.
    Global(usize),
    /// The output of an earlier stage.
    Stage(StageId),
}

struct Stage {
    label: String,
    module: FunctionCrn,
    feeds: Vec<PipeSource>,
}

/// An n-stage DAG of function-CRN modules, materialized into one composed
/// [`FunctionCrn`] by [`Pipeline::build`].
///
/// Stages are added in topological order by construction: a stage may only
/// reference global inputs and stages that already exist, so cycles cannot be
/// expressed.  Fan-out, parallel union and concatenation are all edge
/// patterns of the same graph:
///
/// ```
/// use crn_model::compose::{PipeSource, Pipeline};
/// use crn_model::examples;
///
/// // min(2x, x): the global input fans out to a doubler and an identity
/// // stage, whose outputs meet in a min stage.
/// let mut p = Pipeline::new(1);
/// let double = p.add_stage("double", &examples::double_crn(), &[PipeSource::Global(0)]).unwrap();
/// let ident = p.add_stage("id", &examples::identity_crn(), &[PipeSource::Global(0)]).unwrap();
/// let min = p
///     .add_stage("min", &examples::min_crn(), &[PipeSource::Stage(double), PipeSource::Stage(ident)])
///     .unwrap();
/// let composed = p.build(min).unwrap();
/// assert_eq!(composed.dim(), 1);
/// ```
pub struct Pipeline {
    global_dim: usize,
    stages: Vec<Stage>,
}

impl Pipeline {
    /// A pipeline over `global_dim` global inputs and no stages yet.
    #[must_use]
    pub fn new(global_dim: usize) -> Self {
        Pipeline {
            global_dim,
            stages: Vec::new(),
        }
    }

    /// The number of global inputs.
    #[must_use]
    pub fn global_dim(&self) -> usize {
        self.global_dim
    }

    /// The number of stages added so far.
    #[must_use]
    pub fn stage_count(&self) -> usize {
        self.stages.len()
    }

    /// Adds a module as a stage, wiring input `k` of the module to
    /// `feeds[k]`.  `label` names the stage's species in the composed CRN
    /// (`{label}.{species}`, made fresh if taken).
    ///
    /// # Errors
    ///
    /// Returns [`CrnError::InvalidRoles`] if `feeds` does not match the
    /// module's arity or references a global input / stage that does not
    /// exist (stages can only reference *earlier* stages, which keeps the
    /// graph acyclic by construction).
    pub fn add_stage(
        &mut self,
        label: &str,
        module: &FunctionCrn,
        feeds: &[PipeSource],
    ) -> Result<StageId, CrnError> {
        if feeds.len() != module.dim() {
            return Err(CrnError::InvalidRoles(format!(
                "stage `{label}` takes {} inputs, wired to {}",
                module.dim(),
                feeds.len()
            )));
        }
        for &source in feeds {
            match source {
                PipeSource::Global(i) if i >= self.global_dim => {
                    return Err(CrnError::InvalidRoles(format!(
                        "stage `{label}` reads global input {i}, but the pipeline has {}",
                        self.global_dim
                    )));
                }
                PipeSource::Stage(id) if id.0 >= self.stages.len() => {
                    return Err(CrnError::InvalidRoles(format!(
                        "stage `{label}` reads stage {}, which is not defined yet",
                        id.0
                    )));
                }
                _ => {}
            }
        }
        self.stages.push(Stage {
            label: label.to_owned(),
            module: module.clone(),
            feeds: feeds.to_vec(),
        });
        Ok(StageId(self.stages.len() - 1))
    }

    /// The stages whose output feeds another stage but whose module is *not*
    /// output-oblivious, as `(id, label)` pairs.
    ///
    /// Observation 2.2 needs every such feeder to be oblivious for the
    /// composed CRN to stably compute the composition; [`Pipeline::build`]
    /// deliberately does not enforce this (the paper's Section 1.2
    /// counterexample composes a non-oblivious max on purpose), so callers
    /// that want the guarantee check this list first.
    #[must_use]
    pub fn non_oblivious_feeders(&self) -> Vec<(StageId, String)> {
        let mut feeds_downstream = vec![false; self.stages.len()];
        for stage in &self.stages {
            for &source in &stage.feeds {
                if let PipeSource::Stage(id) = source {
                    feeds_downstream[id.0] = true;
                }
            }
        }
        self.stages
            .iter()
            .enumerate()
            .filter(|&(i, stage)| feeds_downstream[i] && !stage.module.is_output_oblivious())
            .map(|(i, stage)| (StageId(i), stage.label.clone()))
            .collect()
    }

    /// Materializes the pipeline into one CRN whose output is the output of
    /// `output` and whose inputs are the global inputs, importing every
    /// module with guaranteed-fresh species (see the module docs for the
    /// freshness invariant).
    ///
    /// Module leaders are released by one fresh global leader `L`; a source
    /// feeding several consumers is copied by an explicit fan-out reaction.
    ///
    /// # Errors
    ///
    /// Returns [`CrnError::InvalidRoles`] if `output` does not name a stage
    /// of this pipeline.
    pub fn build(&self, output: StageId) -> Result<FunctionCrn, CrnError> {
        if output.0 >= self.stages.len() {
            return Err(CrnError::InvalidRoles(format!(
                "output stage {} does not exist (pipeline has {} stages)",
                output.0,
                self.stages.len()
            )));
        }
        let n_sources = self.global_dim + self.stages.len();
        let source_index = |source: PipeSource| match source {
            PipeSource::Global(i) => i,
            PipeSource::Stage(id) => self.global_dim + id.0,
        };
        // Which (stage, port) pairs consume each source, in deterministic
        // stage-then-port order.
        let mut consumers: Vec<Vec<(usize, usize)>> = vec![Vec::new(); n_sources];
        for (si, stage) in self.stages.iter().enumerate() {
            for (port, &source) in stage.feeds.iter().enumerate() {
                consumers[source_index(source)].push((si, port));
            }
        }

        let mut crn = Crn::new();
        let mut port_species: HashMap<(usize, usize), Species> = HashMap::new();
        let mut external_output: Option<Species> = None;

        // Distributes `source` to its consumers: identified directly when it
        // has a single consumer, otherwise through per-consumer copies and a
        // fan-out reaction.  The pipeline output counts as one consumer (its
        // copy is named from `external_base`) so the output species is never
        // consumed by fan-out.
        let distribute = |crn: &mut Crn,
                          source: Species,
                          ports: &[(usize, usize)],
                          external_base: Option<&str>,
                          port_species: &mut HashMap<(usize, usize), Species>|
         -> Option<Species> {
            let total = ports.len() + usize::from(external_base.is_some());
            if total <= 1 {
                for &(si, port) in ports {
                    port_species.insert((si, port), source);
                }
                return external_base.map(|_| source);
            }
            let base = crn.species().name(source).to_owned();
            let mut copies: Vec<(Species, u64)> = Vec::with_capacity(total);
            for (j, &(si, port)) in ports.iter().enumerate() {
                let copy = fresh_species(crn, &format!("{base}.{}", j + 1));
                port_species.insert((si, port), copy);
                copies.push((copy, 1));
            }
            let external = external_base.map(|name| {
                let copy = fresh_species(crn, name);
                copies.push((copy, 1));
                copy
            });
            crn.add_reaction(Reaction::new(vec![(source, 1)], copies));
            external
        };

        // Global inputs and their distribution.
        let globals: Vec<Species> = (0..self.global_dim)
            .map(|i| fresh_species(&mut crn, &format!("X{}", i + 1)))
            .collect();
        for (i, &global) in globals.iter().enumerate() {
            distribute(&mut crn, global, &consumers[i], None, &mut port_species);
        }

        // Import each stage in order; its wire is distributed immediately so
        // later stages find their port species ready.
        let mut module_leaders: Vec<Species> = Vec::new();
        for (si, stage) in self.stages.iter().enumerate() {
            let wire = fresh_species(&mut crn, &format!("{}.out", stage.label));
            let mut map: HashMap<Species, Species> = HashMap::new();
            for (port, &input) in stage.module.roles().inputs.iter().enumerate() {
                map.insert(input, port_species[&(si, port)]);
            }
            map.insert(stage.module.output(), wire);
            for (species, name) in stage.module.crn().species().iter_named() {
                map.entry(species)
                    .or_insert_with(|| fresh_species(&mut crn, &format!("{}.{name}", stage.label)));
            }
            for reaction in stage.module.crn().reactions() {
                crn.add_reaction(reaction.map_species(|s| map[&s]));
            }
            if let Some(leader) = stage.module.leader() {
                module_leaders.push(map[&leader]);
            }
            let external = distribute(
                &mut crn,
                wire,
                &consumers[self.global_dim + si],
                (si == output.0).then_some("Y_out"),
                &mut port_species,
            );
            if si == output.0 {
                external_output = external;
            }
        }

        // One fresh global leader releases every module leader.
        let leader = if module_leaders.is_empty() {
            None
        } else {
            let global_leader = fresh_species(&mut crn, "L");
            crn.add_reaction(Reaction::new(
                vec![(global_leader, 1)],
                module_leaders.iter().map(|&l| (l, 1)).collect::<Vec<_>>(),
            ));
            Some(global_leader)
        };

        FunctionCrn::new(
            crn,
            Roles {
                inputs: globals,
                output: external_output.expect("the output stage was distributed"),
                leader,
            },
        )
    }
}

/// Interns a species under `base` if that name is free, otherwise under
/// `base.2`, `base.3`, … — the first suffix not yet taken.  The returned
/// species is always newly created, never an existing one.
fn fresh_species(crn: &mut Crn, base: &str) -> Species {
    if crn.species_named(base).is_none() {
        return crn.add_species(base);
    }
    for suffix in 2usize.. {
        let candidate = format!("{base}.{suffix}");
        if crn.species_named(&candidate).is_none() {
            return crn.add_species(&candidate);
        }
    }
    unreachable!("some numeric suffix is always free")
}

/// Concatenates a single upstream CRN computing `f : N^d → N` with a
/// downstream CRN computing `g : N → N`, yielding a CRN for `g ∘ f`.
///
/// The upstream output species becomes the downstream input wire; all other
/// species stay disjoint through fresh interning.  A fresh global leader `L`
/// is introduced with the reaction `L -> L_f + L_g` (producing whichever
/// module leaders exist), as in the paper's definition of the concatenated
/// CRN.
///
/// Correctness (Observation 2.2) requires the *upstream* CRN to be
/// output-oblivious; this function does not enforce that, because the paper
/// also uses non-oblivious upstream CRNs to demonstrate how composition fails
/// (Section 1.2) — callers that need the guarantee should check
/// [`FunctionCrn::is_output_oblivious`] first (or use
/// [`Pipeline::non_oblivious_feeders`]).
///
/// # Errors
///
/// Returns [`CrnError::InvalidRoles`] if the downstream CRN does not have
/// exactly one input.
pub fn concatenate(
    upstream: &FunctionCrn,
    downstream: &FunctionCrn,
) -> Result<FunctionCrn, CrnError> {
    if downstream.dim() != 1 {
        return Err(CrnError::InvalidRoles(format!(
            "downstream CRN must have exactly 1 input, has {}",
            downstream.dim()
        )));
    }
    compose_feed_forward(std::slice::from_ref(upstream), downstream, false)
}

/// Wires `upstreams[k]` to input `k` of `downstream`.
///
/// When `share_inputs` is `false`, the composed CRN's input list is the
/// concatenation of the upstream input lists (each upstream owns its own
/// inputs).  When `share_inputs` is `true`, all upstream CRNs must have the
/// same arity `d`, the composed CRN has arity `d`, and fan-out reactions
/// `X_i -> X_i^{(1)} + … + X_i^{(m)}` copy each global input to every
/// upstream module — the "fan out" operation described in the proof of
/// Lemma 6.2.
///
/// # Errors
///
/// Returns [`CrnError::InvalidRoles`] if the downstream arity does not match
/// the number of upstream modules, or (with `share_inputs`) the upstream
/// arities differ.
pub fn compose_feed_forward(
    upstreams: &[FunctionCrn],
    downstream: &FunctionCrn,
    share_inputs: bool,
) -> Result<FunctionCrn, CrnError> {
    if downstream.dim() != upstreams.len() {
        return Err(CrnError::InvalidRoles(format!(
            "downstream arity {} does not match {} upstream modules",
            downstream.dim(),
            upstreams.len()
        )));
    }
    if share_inputs {
        let dims: Vec<usize> = upstreams.iter().map(FunctionCrn::dim).collect();
        if dims.windows(2).any(|w| w[0] != w[1]) {
            return Err(CrnError::InvalidRoles(format!(
                "shared-input composition requires equal upstream arities, got {dims:?}"
            )));
        }
    }
    let global_dim = if share_inputs {
        upstreams.first().map_or(0, FunctionCrn::dim)
    } else {
        upstreams.iter().map(FunctionCrn::dim).sum()
    };
    let mut pipeline = Pipeline::new(global_dim);
    let mut offset = 0;
    let mut stage_ids = Vec::with_capacity(upstreams.len());
    for (k, upstream) in upstreams.iter().enumerate() {
        let feeds: Vec<PipeSource> = if share_inputs {
            (0..upstream.dim()).map(PipeSource::Global).collect()
        } else {
            let feeds = (offset..offset + upstream.dim())
                .map(PipeSource::Global)
                .collect();
            offset += upstream.dim();
            feeds
        };
        stage_ids.push(PipeSource::Stage(pipeline.add_stage(
            &format!("f{k}"),
            upstream,
            &feeds,
        )?));
    }
    let down = pipeline.add_stage("g", downstream, &stage_ids)?;
    pipeline.build(down)
}

/// Places two function CRNs side by side with disjoint species (no wiring).
///
/// The result has the concatenated input list and reports the *first* CRN's
/// output; it is used to build multi-output computations where each component
/// is computed by a parallel CRN (footnote 6 of the paper).
///
/// # Errors
///
/// Returns [`CrnError::InvalidRoles`] if role resolution fails (should not
/// happen for well-formed inputs).
pub fn parallel_union(first: &FunctionCrn, second: &FunctionCrn) -> Result<FunctionCrn, CrnError> {
    let mut pipeline = Pipeline::new(first.dim() + second.dim());
    let a = pipeline.add_stage(
        "a",
        first,
        &(0..first.dim()).map(PipeSource::Global).collect::<Vec<_>>(),
    )?;
    pipeline.add_stage(
        "b",
        second,
        &(first.dim()..first.dim() + second.dim())
            .map(PipeSource::Global)
            .collect::<Vec<_>>(),
    )?;
    pipeline.build(a)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::examples;
    use crate::function::Roles;
    use crate::reachability::check_stable_computation;
    use crn_numeric::NVec;

    #[test]
    fn two_times_min_via_concatenation() {
        // Section 1.2: 2·min(x1,x2) composed from X1+X2->W and W->2Y.
        let min = examples::min_crn();
        let double = examples::double_crn();
        let composed = concatenate(&min, &double).unwrap();
        assert!(composed.is_output_oblivious());
        for x1 in 0..4u64 {
            for x2 in 0..4u64 {
                let expected = 2 * x1.min(x2);
                let v = check_stable_computation(
                    &composed,
                    &NVec::from(vec![x1, x2]),
                    expected,
                    50_000,
                )
                .unwrap();
                assert!(v.is_correct(), "2·min failed at ({x1},{x2})");
            }
        }
    }

    #[test]
    fn composing_non_oblivious_max_with_double_can_overproduce() {
        // Section 1.2: renaming the max CRN's output to W and adding W -> 2Y
        // can erroneously produce up to 2(x1+x2) copies of Y.
        let max = examples::max_crn();
        let double = examples::double_crn();
        let composed = concatenate(&max, &double).unwrap();
        let v = check_stable_computation(&composed, &NVec::from(vec![1, 1]), 2, 100_000).unwrap();
        assert!(
            !v.is_correct(),
            "composition of non-oblivious max must fail"
        );
        assert!(v.max_output_reachable > 2);
        assert_eq!(v.max_output_reachable, 4); // 2(x1 + x2)
    }

    #[test]
    fn concatenation_propagates_leaders() {
        let min1 = examples::min1_leader_crn();
        let double = examples::double_crn();
        let composed = concatenate(&min1, &double).unwrap();
        assert!(composed.has_leader());
        // 2 · min(1, x)
        for x in 0..4u64 {
            let expected = 2 * x.min(1);
            let v = check_stable_computation(&composed, &NVec::from(vec![x]), expected, 50_000)
                .unwrap();
            assert!(v.is_correct());
        }
    }

    #[test]
    fn downstream_must_be_unary_for_concatenate() {
        let min = examples::min_crn();
        assert!(matches!(
            concatenate(&min, &examples::min_crn()),
            Err(CrnError::InvalidRoles(_))
        ));
    }

    #[test]
    fn shared_input_feed_forward_computes_min_of_double_and_identity() {
        // min(2x, x) = x computed as feed-forward with shared input x.
        let double = examples::double_crn();
        let identity = examples::identity_crn();
        let min = examples::min_crn();
        let composed = compose_feed_forward(&[double, identity], &min, true).unwrap();
        assert_eq!(composed.dim(), 1);
        for x in 0..5u64 {
            let v = check_stable_computation(&composed, &NVec::from(vec![x]), x, 100_000).unwrap();
            assert!(v.is_correct(), "min(2x,x) failed at {x}");
        }
    }

    #[test]
    fn unshared_feed_forward_concatenates_input_lists() {
        // min(2a, 3b) from separate inputs a and b.
        let double = examples::multiply_crn(2);
        let triple = examples::multiply_crn(3);
        let min = examples::min_crn();
        let composed = compose_feed_forward(&[double, triple], &min, false).unwrap();
        assert_eq!(composed.dim(), 2);
        for a in 0..4u64 {
            for b in 0..4u64 {
                let expected = (2 * a).min(3 * b);
                let v =
                    check_stable_computation(&composed, &NVec::from(vec![a, b]), expected, 100_000)
                        .unwrap();
                assert!(v.is_correct(), "min(2a,3b) failed at ({a},{b})");
            }
        }
    }

    #[test]
    fn shared_inputs_require_equal_arities() {
        let double = examples::double_crn(); // arity 1
        let min = examples::min_crn(); // arity 2
        let downstream = examples::min_crn();
        assert!(matches!(
            compose_feed_forward(&[double, min], &downstream, true),
            Err(CrnError::InvalidRoles(_))
        ));
    }

    #[test]
    fn arity_mismatch_rejected() {
        let double = examples::double_crn();
        let min = examples::min_crn();
        assert!(matches!(
            compose_feed_forward(&[double], &min, false),
            Err(CrnError::InvalidRoles(_))
        ));
    }

    #[test]
    fn parallel_union_keeps_modules_independent() {
        let double = examples::double_crn();
        let min1 = examples::min1_leader_crn();
        let union = parallel_union(&double, &min1).unwrap();
        assert_eq!(union.dim(), 2);
        assert!(union.has_leader());
        // The reported output is the first module's (2x), regardless of the
        // second module's input.
        for x in 0..4u64 {
            let v =
                check_stable_computation(&union, &NVec::from(vec![x, 3]), 2 * x, 50_000).unwrap();
            assert!(v.is_correct());
        }
    }

    // ----- the n-stage engine -----------------------------------------------

    /// A module whose species are named after the engine's own wires and
    /// leader — the adversarial inputs of the name-capture bug class.
    fn adversarially_named_min() -> FunctionCrn {
        let mut crn = Crn::new();
        crn.parse_reaction("W0 + L -> Y_out").unwrap();
        FunctionCrn::with_named_roles(crn, &["W0", "L"], "Y_out", None).unwrap()
    }

    #[test]
    fn reserved_looking_species_names_compose_without_capture() {
        // min(x1, x2) with species literally named W0, L and Y_out, fed into
        // a doubler whose species are named f0.X and f0.Y: the composed CRN
        // must still compute 2·min (no wire/leader capture, no panic).
        let min = adversarially_named_min();
        let mut crn = Crn::new();
        crn.parse_reaction("f0.X -> 2f0.Y").unwrap();
        let double = FunctionCrn::with_named_roles(crn, &["f0.X"], "f0.Y", None).unwrap();
        let composed = concatenate(&min, &double).unwrap();
        assert!(composed.is_output_oblivious());
        for x1 in 0..4u64 {
            for x2 in 0..4u64 {
                let v = check_stable_computation(
                    &composed,
                    &NVec::from(vec![x1, x2]),
                    2 * x1.min(x2),
                    50_000,
                )
                .unwrap();
                assert!(v.is_correct(), "adversarial 2·min failed at ({x1},{x2})");
            }
        }
    }

    #[test]
    fn adversarial_names_survive_shared_fan_out_and_leaders() {
        // The same adversarial module in a shared-input fan-out against a
        // leader-carrying module: all fresh-name paths (globals, copies,
        // wires, leader) are exercised at once.
        let adversarial = adversarially_named_min();
        let min1 = {
            // min(1, x1) + 0·x2 as a 2-ary module with a leader named L.
            let mut crn = Crn::new();
            crn.parse_reaction("L + X1 -> Y_out").unwrap();
            crn.add_species("X2");
            FunctionCrn::new(
                crn.clone(),
                Roles {
                    inputs: vec![
                        crn.species_named("X1").unwrap(),
                        crn.species_named("X2").unwrap(),
                    ],
                    output: crn.species_named("Y_out").unwrap(),
                    leader: crn.species_named("L"),
                },
            )
            .unwrap()
        };
        let downstream = examples::min_crn();
        let composed = compose_feed_forward(&[adversarial, min1], &downstream, true).unwrap();
        assert_eq!(composed.dim(), 2);
        assert!(composed.has_leader());
        for x1 in 0..3u64 {
            for x2 in 0..3u64 {
                let expected = x1.min(x2).min(x1.min(1));
                let v = check_stable_computation(
                    &composed,
                    &NVec::from(vec![x1, x2]),
                    expected,
                    200_000,
                )
                .unwrap();
                assert!(v.is_correct(), "failed at ({x1},{x2})");
            }
        }
    }

    #[test]
    fn three_stage_dag_with_shared_intermediate_wire() {
        // x ── double ──┬── min ── out        min(2x, 2x+1) = 2x, with the
        //               └ add_one ┘           doubler's wire fanned out.
        let mut p = Pipeline::new(1);
        let double = p
            .add_stage("double", &examples::double_crn(), &[PipeSource::Global(0)])
            .unwrap();
        let add_one = {
            let mut crn = Crn::new();
            crn.parse_reaction("X -> Y").unwrap();
            crn.parse_reaction("K -> Y").unwrap();
            FunctionCrn::with_named_roles(crn, &["X"], "Y", Some("K")).unwrap()
        };
        let plus = p
            .add_stage("plus1", &add_one, &[PipeSource::Stage(double)])
            .unwrap();
        let min = p
            .add_stage(
                "min",
                &examples::min_crn(),
                &[PipeSource::Stage(double), PipeSource::Stage(plus)],
            )
            .unwrap();
        let composed = p.build(min).unwrap();
        assert_eq!(composed.dim(), 1);
        assert!(composed.has_leader());
        for x in 0..4u64 {
            let v =
                check_stable_computation(&composed, &NVec::from(vec![x]), 2 * x, 200_000).unwrap();
            assert!(v.is_correct(), "min(2x, 2x+1) failed at {x}");
        }
    }

    #[test]
    fn output_wire_with_downstream_consumers_gets_a_dedicated_copy() {
        // The output stage's wire also feeds another stage; the reported
        // output species must not be consumed by the fan-out reaction.
        let mut p = Pipeline::new(1);
        let double = p
            .add_stage("double", &examples::double_crn(), &[PipeSource::Global(0)])
            .unwrap();
        p.add_stage(
            "sink",
            &examples::identity_crn(),
            &[PipeSource::Stage(double)],
        )
        .unwrap();
        let composed = p.build(double).unwrap();
        assert!(composed.is_output_oblivious());
        for x in 0..4u64 {
            let v =
                check_stable_computation(&composed, &NVec::from(vec![x]), 2 * x, 50_000).unwrap();
            assert!(v.is_correct(), "doubling with a tap failed at {x}");
        }
    }

    #[test]
    fn pipeline_wiring_errors_are_reported_not_panicked() {
        let mut p = Pipeline::new(1);
        // Arity mismatch.
        assert!(matches!(
            p.add_stage("bad", &examples::min_crn(), &[PipeSource::Global(0)]),
            Err(CrnError::InvalidRoles(_))
        ));
        // Unknown global.
        assert!(matches!(
            p.add_stage("bad", &examples::identity_crn(), &[PipeSource::Global(7)]),
            Err(CrnError::InvalidRoles(_))
        ));
        // Forward reference (would be a cycle).
        assert!(matches!(
            p.add_stage(
                "bad",
                &examples::identity_crn(),
                &[PipeSource::Stage(StageId(3))]
            ),
            Err(CrnError::InvalidRoles(_))
        ));
        // Output stage must exist.
        assert!(matches!(
            p.build(StageId(0)),
            Err(CrnError::InvalidRoles(_))
        ));
    }

    #[test]
    fn non_oblivious_feeders_are_detected() {
        let mut p = Pipeline::new(2);
        let max = p
            .add_stage(
                "max",
                &examples::max_crn(),
                &[PipeSource::Global(0), PipeSource::Global(1)],
            )
            .unwrap();
        let double = p
            .add_stage("double", &examples::double_crn(), &[PipeSource::Stage(max)])
            .unwrap();
        let feeders = p.non_oblivious_feeders();
        assert_eq!(feeders.len(), 1);
        assert_eq!(feeders[0].0, max);
        assert_eq!(feeders[0].1, "max");
        // The output stage itself need not be oblivious: max as the final
        // stage is fine.
        let mut tail = Pipeline::new(2);
        tail.add_stage(
            "max",
            &examples::max_crn(),
            &[PipeSource::Global(0), PipeSource::Global(1)],
        )
        .unwrap();
        assert!(tail.non_oblivious_feeders().is_empty());
        // And the escape hatch still builds the unsound composition.
        let composed = p.build(double).unwrap();
        let v = check_stable_computation(&composed, &NVec::from(vec![1, 1]), 2, 100_000).unwrap();
        assert!(!v.is_correct());
    }

    #[test]
    fn fresh_species_never_reuses_names() {
        let mut crn = Crn::new();
        let a = fresh_species(&mut crn, "W0");
        let b = fresh_species(&mut crn, "W0");
        let c = fresh_species(&mut crn, "W0");
        assert_ne!(a, b);
        assert_ne!(b, c);
        assert_eq!(crn.species().name(b), "W0.2");
        assert_eq!(crn.species().name(c), "W0.3");
    }
}
