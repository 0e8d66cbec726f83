//! Lowering between the `.crn` AST and the workspace's semantic types, in
//! both directions:
//!
//! * [`lower_crn`] / [`crn_to_item`] — `crn` items ↔ [`FunctionCrn`];
//! * [`lower_fn`] — `fn` items → [`SemilinearFunction`] presentations;
//! * [`lower_spec`] / [`spec_to_item`] — `spec` items ↔ [`ObliviousSpec`];
//! * [`lower_pipeline`] / [`lower_document`] — `pipeline` items →
//!   composed [`FunctionCrn`]s through the capture-proof
//!   [`crn_model::compose::Pipeline`] engine.
//!
//! Lowering errors are reported as [`Diagnostic`]s anchored to the item's
//! span, so the CLI renders them exactly like parse errors.

use std::collections::BTreeMap;

use crn_core::quilt::QuiltAffine;
use crn_core::spec::{EventuallyMin, ObliviousSpec};
use crn_model::compose::{PipeSource, Pipeline, StageId};
use crn_model::{Crn, FunctionCrn, Reaction, Species};
use crn_numeric::{lcm_u64, CongruenceClass, NVec, QVec, Rational, ZVec};
use crn_semilinear::{AffinePiece, ModSet, SemilinearFunction, SemilinearSet, ThresholdSet};

use crate::ast::{
    CrnItem, Document, FnItem, Guard, GuardAtom, Item, LinExpr, Piece, PipelineItem, ReactionAst,
    Rel, SpecBody, SpecItem, When, WhenBody,
};
use crate::parser::RESERVED;
use crate::span::{Diagnostic, Span};

/// A lowered `crn` item: the function CRN plus the item's optional extras.
#[derive(Debug, Clone)]
pub struct LoweredCrn {
    /// The CRN with resolved roles.
    pub crn: FunctionCrn,
    /// The initial input vector from the `init` declaration, in input order.
    pub init: Option<NVec>,
    /// The name of the `fn`/`spec` item this CRN claims to compute.
    pub computes: Option<String>,
}

/// Lowers a `crn` item to a [`FunctionCrn`].
///
/// # Errors
///
/// Returns a [`Diagnostic`] when the roles are inconsistent (duplicate
/// inputs, output used as input, …), the `init` declaration names a
/// non-input species, or a species' total coefficient on one side of a
/// reaction exceeds `i64::MAX`.
pub fn lower_crn(item: &CrnItem) -> Result<LoweredCrn, Diagnostic> {
    let mut crn = Crn::new();
    // Intern the role species first so they exist even when no reaction
    // mentions them (e.g. a constant CRN ignores its input).
    for input in &item.inputs {
        crn.add_species(input);
    }
    crn.add_species(&item.output);
    if let Some(leader) = &item.leader {
        crn.add_species(leader);
    }
    for reaction in &item.reactions {
        // Repeated terms of a species add up; checked, since the engine
        // works with each reaction's net change as a signed 64-bit count.
        let side = |crn: &mut Crn, terms: &[(u64, String)]| {
            let mut totals: BTreeMap<Species, u64> = BTreeMap::new();
            for (count, name) in terms {
                let total = totals.entry(crn.add_species(name)).or_insert(0);
                *total = total
                    .checked_add(*count)
                    .filter(|&t| i64::try_from(t).is_ok())
                    .ok_or_else(|| {
                        Diagnostic::new(
                            format!(
                                "total stoichiometric coefficient of `{name}` exceeds {}",
                                i64::MAX
                            ),
                            reaction.span,
                        )
                        .with_help(
                            "repeated terms of a species add up, and each side's total \
                             must fit a signed 64-bit integer",
                        )
                    })?;
            }
            Ok::<_, Diagnostic>(totals)
        };
        let reactants = side(&mut crn, &reaction.reactants)?;
        let products = side(&mut crn, &reaction.products)?;
        crn.add_reaction(Reaction::new(reactants, products));
    }
    let inputs: Vec<&str> = item.inputs.iter().map(String::as_str).collect();
    let function =
        FunctionCrn::with_named_roles(crn, &inputs, &item.output, item.leader.as_deref()).map_err(
            |e| {
                Diagnostic::new(
                    format!("invalid roles in crn `{}`: {e}", item.name),
                    item.span,
                )
            },
        )?;
    let init = if item.init.is_empty() {
        None
    } else {
        let mut counts = vec![0u64; item.inputs.len()];
        for (species, count) in &item.init {
            let Some(index) = item.inputs.iter().position(|i| i == species) else {
                return Err(Diagnostic::new(
                    format!(
                        "`init` sets `{species}`, which is not an input of crn `{}`",
                        item.name
                    ),
                    item.span,
                )
                .with_help("`init` gives the input encoding; only input species can be set"));
            };
            counts[index] = *count;
        }
        Some(NVec::from(counts))
    };
    Ok(LoweredCrn {
        crn: function,
        init,
        computes: item.computes.clone(),
    })
}

/// A lowered item of any kind (see [`lower_item`]).
#[derive(Debug, Clone)]
pub enum LoweredItem {
    /// A lowered `crn` item.
    Crn(LoweredCrn),
    /// A lowered `fn` item.
    SemilinearFn(SemilinearFunction),
    /// A lowered `spec` item.
    Spec(ObliviousSpec),
}

/// Lowers any *self-contained* item by dispatching on its kind — the single
/// place that maps item kinds to lowering functions.
///
/// # Errors
///
/// Propagates the kind-specific lowering diagnostics.  `pipeline` items are
/// rejected here because they reference sibling items; lower whole documents
/// with [`lower_document`], or a single pipeline with [`lower_pipeline`].
pub fn lower_item(item: &Item) -> Result<LoweredItem, Diagnostic> {
    match item {
        Item::Crn(item) => lower_crn(item).map(LoweredItem::Crn),
        Item::Fn(item) => lower_fn(item).map(LoweredItem::SemilinearFn),
        Item::Spec(item) => lower_spec(item).map(LoweredItem::Spec),
        Item::Pipeline(item) => Err(Diagnostic::new(
            format!(
                "pipeline `{}` cannot be lowered in isolation (its stages reference other items)",
                item.name
            ),
            item.span,
        )
        .with_help("use `lower_document`, or `lower_pipeline` with a module lookup")),
    }
}

/// A lowered `pipeline` item: the composed CRN plus composition metadata.
#[derive(Debug, Clone)]
pub struct LoweredPipeline {
    /// The composed function CRN (inputs in `inputs` order, fresh species).
    pub crn: FunctionCrn,
    /// The name of the `fn`/`spec` item this pipeline claims to compute.
    pub computes: Option<String>,
    /// Number of composed stages.
    pub stage_count: usize,
    /// Stage names whose output feeds a later stage although their module is
    /// not output-oblivious — Observation 2.2 does not cover such wirings, so
    /// callers surface these as diagnostics (the CLI's `compose` refuses them
    /// without `--allow-non-oblivious`).
    pub non_oblivious_feeders: Vec<String>,
}

/// Lowers a `pipeline` item by composing its stages with the capture-proof
/// [`Pipeline`] engine.  `module` resolves a stage's module name to a
/// function CRN (typically the document's `crn` items and earlier
/// pipelines).
///
/// # Errors
///
/// Returns a [`Diagnostic`] anchored to the offending stage for unresolved
/// modules, arity mismatches and invalid wiring.
pub fn lower_pipeline<'a>(
    item: &PipelineItem,
    mut module: impl FnMut(&str) -> Option<&'a FunctionCrn>,
) -> Result<LoweredPipeline, Diagnostic> {
    let mut pipeline = Pipeline::new(item.inputs.len());
    let mut stage_ids: Vec<(String, StageId)> = Vec::new();
    for stage in &item.stages {
        let Some(m) = module(&stage.module) else {
            return Err(Diagnostic::new(
                format!(
                    "stage `{}` uses `{}`, but no crn or pipeline item of that name is in scope",
                    stage.name, stage.module
                ),
                stage.span,
            )
            .with_help("stages reference crn items, or pipeline items declared earlier"));
        };
        let mut feeds = Vec::with_capacity(stage.args.len());
        for arg in &stage.args {
            let source = item
                .inputs
                .iter()
                .position(|input| input == arg)
                .map(PipeSource::Global)
                .or_else(|| {
                    stage_ids
                        .iter()
                        .find(|(name, _)| name == arg)
                        .map(|&(_, id)| PipeSource::Stage(id))
                });
            let Some(source) = source else {
                return Err(Diagnostic::new(
                    format!(
                        "stage `{}` is wired to `{arg}`, which is neither a pipeline input \
                         nor an earlier stage",
                        stage.name
                    ),
                    stage.span,
                ));
            };
            feeds.push(source);
        }
        let id = pipeline
            .add_stage(&stage.name, m, &feeds)
            .map_err(|e| Diagnostic::new(format!("stage `{}`: {e}", stage.name), stage.span))?;
        stage_ids.push((stage.name.clone(), id));
    }
    let Some(&(_, output)) = stage_ids.iter().find(|(name, _)| *name == item.output) else {
        return Err(Diagnostic::new(
            format!(
                "pipeline `{}` outputs `{}`, which is not a stage",
                item.name, item.output
            ),
            item.span,
        ));
    };
    let non_oblivious_feeders = pipeline
        .non_oblivious_feeders()
        .into_iter()
        .map(|(_, label)| label)
        .collect();
    let crn = pipeline.build(output).map_err(|e| {
        Diagnostic::new(
            format!("pipeline `{}` does not compose: {e}", item.name),
            item.span,
        )
    })?;
    Ok(LoweredPipeline {
        crn,
        computes: item.computes.clone(),
        stage_count: item.stages.len(),
        non_oblivious_feeders,
    })
}

/// A fully lowered document: every item by kind, with pipelines composed
/// against the document's own `crn` items and earlier pipelines.
#[derive(Debug, Clone, Default)]
pub struct LoweredDocument {
    /// Lowered `crn` items, in source order.
    pub crns: Vec<(String, LoweredCrn)>,
    /// Lowered `fn` items, in source order.
    pub fns: Vec<(String, SemilinearFunction)>,
    /// Lowered `spec` items, in source order.
    pub specs: Vec<(String, ObliviousSpec)>,
    /// Lowered `pipeline` items, in source order.
    pub pipelines: Vec<(String, LoweredPipeline)>,
}

/// Lowers a whole document.  Non-pipeline items are lowered first (a
/// pipeline may reference a `crn` item declared below it); pipelines are
/// then composed in source order, each seeing every `crn` item plus the
/// pipelines lowered before it.
///
/// # Errors
///
/// Propagates the first item's lowering diagnostic.
pub fn lower_document(doc: &Document) -> Result<LoweredDocument, Diagnostic> {
    let _span = crn_obs::span("lang.lower");
    let mut out = LoweredDocument::default();
    for item in &doc.items {
        match item {
            Item::Crn(item) => out.crns.push((item.name.clone(), lower_crn(item)?)),
            Item::Fn(item) => out.fns.push((item.name.clone(), lower_fn(item)?)),
            Item::Spec(item) => out.specs.push((item.name.clone(), lower_spec(item)?)),
            Item::Pipeline(_) => {}
        }
    }
    for item in &doc.items {
        if let Item::Pipeline(item) = item {
            let lowered = lower_pipeline(item, |name| {
                out.crns
                    .iter()
                    .find(|(n, _)| n == name)
                    .map(|(_, c)| &c.crn)
                    .or_else(|| {
                        out.pipelines
                            .iter()
                            .find(|(n, _)| n == name)
                            .map(|(_, p)| &p.crn)
                    })
            })?;
            out.pipelines.push((item.name.clone(), lowered));
        }
    }
    Ok(out)
}

/// The least common multiple of the denominators of `expr`'s coefficients and
/// constant (always ≥ 1).
fn denominator_lcm(expr: &LinExpr) -> Result<u64, Diagnostic> {
    let mut lcm = 1u64;
    for value in expr.coeffs.iter().chain(Some(&expr.constant)) {
        let denom = u64::try_from(value.denom())
            .map_err(|_| Diagnostic::new("coefficient denominator overflows", Span::default()))?;
        lcm = lcm_u64(lcm, denom);
    }
    Ok(lcm)
}

/// Scales `expr` by `scale` and returns integer coefficients and constant.
fn scaled_integer(expr: &LinExpr, scale: u64, span: Span) -> Result<(Vec<i64>, i64), Diagnostic> {
    let scale = Rational::from(scale as i64);
    let to_i64 = |value: Rational| -> Result<i64, Diagnostic> {
        (value * scale)
            .to_integer()
            .and_then(|v| i64::try_from(v).ok())
            .ok_or_else(|| {
                Diagnostic::new("coefficient overflows after clearing denominators", span)
            })
    };
    let coeffs = expr
        .coeffs
        .iter()
        .map(|&c| to_i64(c))
        .collect::<Result<Vec<_>, _>>()?;
    let constant = to_i64(expr.constant)?;
    Ok((coeffs, constant))
}

/// Lowers one guard atom to a semilinear set.
fn lower_atom(atom: &GuardAtom, dim: usize, span: Span) -> Result<SemilinearSet, Diagnostic> {
    match atom {
        GuardAtom::Cmp { lhs, rel, rhs } => {
            // Normalize to `diff ≥ bound` form(s): diff = rhs − lhs for ≤,
            // lhs − rhs for ≥, both for ==.  Scaling by a positive integer
            // preserves the comparison; strict inequalities tighten to ≥ 1
            // because all quantities are integers on N^d.
            let sets = |diff: LinExpr, strict: bool| -> Result<SemilinearSet, Diagnostic> {
                let scale = denominator_lcm(&diff)?;
                let (coeffs, constant) = scaled_integer(&diff, scale, span)?;
                let bound = if strict { 1 } else { 0 };
                Ok(SemilinearSet::threshold(ThresholdSet::new(
                    ZVec::from(coeffs),
                    bound - constant,
                )))
            };
            match rel {
                Rel::Le => sets(rhs.sub(lhs), false),
                Rel::Lt => sets(rhs.sub(lhs), true),
                Rel::Ge => sets(lhs.sub(rhs), false),
                Rel::Gt => sets(lhs.sub(rhs), true),
                Rel::Eq => Ok(sets(rhs.sub(lhs), false)?.and(sets(lhs.sub(rhs), false)?)),
            }
        }
        GuardAtom::Mod {
            expr,
            modulus,
            residue,
        } => {
            if denominator_lcm(expr)? != 1 {
                return Err(Diagnostic::new(
                    "congruence guards need integer coefficients".to_owned(),
                    span,
                )
                .with_help("multiply the congruence through by the denominators first"));
            }
            let (coeffs, constant) = scaled_integer(expr, 1, span)?;
            let _ = dim;
            Ok(SemilinearSet::modular(ModSet::new(
                ZVec::from(coeffs),
                *residue as i64 - constant,
                *modulus,
            )))
        }
    }
}

/// Lowers a `fn` item to a [`SemilinearFunction`] presentation.
///
/// Each `case` contributes one `(domain, affine piece)` pair; `otherwise`
/// denotes the complement of the union of every earlier case's domain.
/// Disjointness and totality are *not* decided here (they are undecidable
/// from the syntax alone); use
/// [`SemilinearFunction::validate_on_box`] as `crn check` does.
///
/// # Errors
///
/// Returns a [`Diagnostic`] for guards that cannot be lowered (non-integer
/// congruence coefficients, overflow), a value whose common denominator or
/// scaled coefficients do not fit `i128` (see [`AffinePiece::new`]), or an
/// `otherwise` in the first case position with later cases (ambiguous by
/// construction).
pub fn lower_fn(item: &FnItem) -> Result<SemilinearFunction, Diagnostic> {
    let dim = item.params.len();
    let mut domains: Vec<SemilinearSet> = Vec::new();
    let mut pieces: Vec<(SemilinearSet, AffinePiece)> = Vec::new();
    for (index, case) in item.cases.iter().enumerate() {
        let domain = match &case.guard {
            Guard::Conj(atoms) => {
                let mut set: Option<SemilinearSet> = None;
                for atom in atoms {
                    let lowered = lower_atom(atom, dim, item.span)?;
                    set = Some(match set {
                        None => lowered,
                        Some(acc) => acc.and(lowered),
                    });
                }
                set.expect("the grammar requires at least one atom")
            }
            Guard::Otherwise => {
                if index + 1 != item.cases.len() {
                    return Err(Diagnostic::new(
                        format!("`otherwise` must be the last case of fn `{}`", item.name),
                        item.span,
                    ));
                }
                match domains.iter().cloned().reduce(SemilinearSet::or) {
                    Some(union) => union.not(),
                    None => SemilinearSet::all(dim),
                }
            }
        };
        domains.push(domain.clone());
        let value = AffinePiece::new(QVec::from(case.value.coeffs.clone()), case.value.constant)
            .ok_or_else(|| {
                Diagnostic::new(
                    format!(
                        "case {} of fn `{}`: the common denominator of its value, or a \
                         coefficient scaled to it, does not fit i128",
                        index + 1,
                        item.name
                    ),
                    item.span,
                )
            })?;
        pieces.push((domain, value));
    }
    SemilinearFunction::new(dim, pieces).map_err(|e| {
        Diagnostic::new(
            format!("invalid presentation for fn `{}`: {e}", item.name),
            item.span,
        )
    })
}

/// Builds the quilt-affine function `x ↦ ⌊gradient·x + constant⌋`.
fn floor_quilt(expr: &LinExpr, span: Span) -> Result<QuiltAffine, Diagnostic> {
    let dim = expr.coeffs.len();
    let gradient = QVec::from(expr.coeffs.clone());
    if !gradient.is_nonnegative() {
        return Err(Diagnostic::new(
            "floor pieces need a nonnegative gradient".to_owned(),
            span,
        ));
    }
    let mut period = 1u64;
    for coef in &expr.coeffs {
        let denom = u64::try_from(coef.denom())
            .map_err(|_| Diagnostic::new("gradient denominator overflows", span))?;
        period = lcm_u64(period, denom);
    }
    let mut offsets = BTreeMap::new();
    for class in CongruenceClass::enumerate_all(dim, period) {
        let rep = class.representative();
        let value = gradient.dot_n(&rep) + expr.constant;
        offsets.insert(
            rep.as_slice().to_vec(),
            Rational::from(value.floor()) - gradient.dot_n(&rep),
        );
    }
    QuiltAffine::new(&gradient, period, &offsets)
        .map_err(|e| Diagnostic::new(format!("invalid floor piece: {e}"), span))
}

/// Lowers one spec piece to a [`QuiltAffine`] function.
fn lower_piece(piece: &Piece, span: Span) -> Result<QuiltAffine, Diagnostic> {
    match piece {
        Piece::Affine(expr) => {
            QuiltAffine::affine(&QVec::from(expr.coeffs.clone()), expr.constant)
                .map_err(|e| Diagnostic::new(format!("invalid affine piece: {e}"), span).with_help(
                    "an affine piece must be integer-valued on N^d; use floor(…) or quilt { … } for fractional gradients",
                ))
        }
        Piece::Floor(expr) => floor_quilt(expr, span),
        Piece::Quilt {
            gradient,
            period,
            offsets,
        } => {
            let table: BTreeMap<Vec<u64>, Rational> =
                offsets.iter().cloned().collect();
            QuiltAffine::new(&QVec::from(gradient.clone()), *period, &table)
                .map_err(|e| Diagnostic::new(format!("invalid quilt piece: {e}"), span))
        }
    }
}

fn lower_spec_body(
    body: &SpecBody,
    params: &[String],
    name: &str,
    span: Span,
) -> Result<ObliviousSpec, Diagnostic> {
    let dim = params.len();
    if dim == 0 {
        // Dimension 0: the body must be a single constant piece.
        if body.whens.is_empty() && body.pieces.len() == 1 {
            if let Piece::Affine(expr) = &body.pieces[0] {
                if let Some(value) = expr
                    .constant
                    .to_integer()
                    .and_then(|v| u64::try_from(v).ok())
                {
                    return Ok(ObliviousSpec::Constant(value));
                }
            }
        }
        return Err(Diagnostic::new(
            format!("spec `{name}` has no parameters, so its body must be a single nonnegative constant"),
            span,
        )
        .with_help("write `min 5;` with no threshold or restrictions"));
    }
    let threshold = NVec::from(body.threshold.clone());
    let pieces = body
        .pieces
        .iter()
        .map(|piece| lower_piece(piece, span))
        .collect::<Result<Vec<_>, _>>()?;
    let eventual = EventuallyMin::new(threshold, pieces)
        .map_err(|e| Diagnostic::new(format!("invalid spec `{name}`: {e}"), span))?;
    let mut restrictions = BTreeMap::new();
    for when in &body.whens {
        let key = (when.param, when.value);
        if restrictions.contains_key(&key) {
            return Err(Diagnostic::new(
                format!(
                    "duplicate restriction `when {} = {}` in spec `{name}`",
                    params[when.param], when.value
                ),
                span,
            ));
        }
        let remaining = crate::ast::remaining_params(params, when.param);
        let sub = match &when.body {
            WhenBody::Constant(value) => ObliviousSpec::Constant(*value),
            WhenBody::Block(inner) => lower_spec_body(inner, &remaining, name, span)?,
        };
        restrictions.insert(key, sub);
    }
    // Pre-check coverage so the error names the parameter, not its index.
    for (i, param) in params.iter().enumerate() {
        for j in 0..body.threshold[i] {
            if !restrictions.contains_key(&(i, j)) {
                return Err(Diagnostic::new(
                    format!("spec `{name}` is missing the restriction `when {param} = {j}`"),
                    span,
                )
                .with_help(format!(
                    "every value below the threshold needs one, e.g. `when {param} = {j}: …;`"
                )));
            }
        }
    }
    ObliviousSpec::compound(eventual, restrictions)
        .map_err(|e| Diagnostic::new(format!("invalid spec `{name}`: {e}"), span))
}

/// Lowers a `spec` item to an [`ObliviousSpec`].
///
/// # Errors
///
/// Returns a [`Diagnostic`] for malformed pieces (non-integer affine values,
/// missing quilt offsets) or missing/duplicate restrictions.
pub fn lower_spec(item: &SpecItem) -> Result<ObliviousSpec, Diagnostic> {
    lower_spec_body(&item.body, &item.params, &item.name, item.span)
}

// ----- the reverse direction (semantic types → AST) -------------------------

/// Makes `name` a valid, non-reserved `.crn` identifier (used when emitting
/// synthesized CRNs, whose composed species names are already valid; this is
/// a safety net for exotic inputs).
fn sanitize(name: &str, taken: &[String]) -> String {
    let mut out: String = name
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '_' || c == '.' {
                c
            } else {
                '_'
            }
        })
        .collect();
    if out.is_empty() || !(out.as_bytes()[0].is_ascii_alphabetic() || out.as_bytes()[0] == b'_') {
        out.insert(0, 's');
    }
    while RESERVED.contains(&out.as_str()) || taken.contains(&out) {
        out.push('_');
    }
    out
}

/// Converts a [`FunctionCrn`] into a `crn` item named `name`.
#[must_use]
pub fn crn_to_item(
    name: &str,
    crn: &FunctionCrn,
    computes: Option<&str>,
    init: Option<&NVec>,
) -> CrnItem {
    let species_set = crn.crn().species();
    let mut names: Vec<String> = Vec::with_capacity(species_set.len());
    for (_, raw) in species_set.iter_named() {
        let sane = sanitize(raw, &names);
        names.push(sane);
    }
    let name_of = |s: crn_model::Species| names[s.index()].clone();
    let side = |terms: &BTreeMap<crn_model::Species, u64>| {
        terms
            .iter()
            .map(|(&species, &count)| (count, name_of(species)))
            .collect::<Vec<_>>()
    };
    let reactions = crn
        .crn()
        .reactions()
        .iter()
        .map(|r| ReactionAst {
            reactants: side(r.reactants()),
            products: side(r.products()),
            span: Span::default(),
        })
        .collect();
    let inputs: Vec<String> = crn.roles().inputs.iter().map(|&s| name_of(s)).collect();
    let init = init
        .map(|x| {
            inputs
                .iter()
                .zip(x.iter())
                .map(|(input, &count)| (input.clone(), count))
                .collect()
        })
        .unwrap_or_default();
    CrnItem {
        name: sanitize(name, &[]),
        inputs,
        output: name_of(crn.output()),
        output_span: Span::default(),
        leader: crn.leader().map(name_of),
        computes: computes.map(str::to_owned),
        init,
        reactions,
        span: Span::default(),
    }
}

/// Default parameter names `x1, …, xd`.
#[must_use]
pub fn default_params(dim: usize) -> Vec<String> {
    (1..=dim).map(|i| format!("x{i}")).collect()
}

fn quilt_to_piece(g: &QuiltAffine) -> Piece {
    if g.period() == 1 {
        let offset = g.offset_of(&NVec::zeros(g.dim()));
        Piece::Affine(LinExpr {
            coeffs: g.gradient().as_slice().to_vec(),
            constant: offset,
        })
    } else {
        let offsets = CongruenceClass::enumerate_all(g.dim(), g.period())
            .iter()
            .map(|class| {
                let rep = class.representative();
                let key = rep.as_slice().to_vec();
                let value = g.offset_of(&rep);
                (key, value)
            })
            .collect();
        Piece::Quilt {
            gradient: g.gradient().as_slice().to_vec(),
            period: g.period(),
            offsets,
        }
    }
}

fn spec_to_body(spec: &ObliviousSpec) -> SpecBody {
    match spec {
        ObliviousSpec::Constant(value) => SpecBody {
            threshold: Vec::new(),
            pieces: vec![Piece::Affine(LinExpr::constant(
                0,
                Rational::from(*value as i64),
            ))],
            whens: Vec::new(),
        },
        ObliviousSpec::Compound {
            eventual,
            restrictions,
        } => {
            let threshold = eventual.threshold().as_slice().to_vec();
            let pieces = eventual.pieces().iter().map(quilt_to_piece).collect();
            let whens = restrictions
                .iter()
                .map(|(&(param, value), sub)| {
                    let body = if sub.dim() == 0 {
                        // A dimension-0 restriction is a constant by
                        // construction; evaluate it at the empty input.
                        WhenBody::Constant(sub.eval(&NVec::zeros(0)).expect("constants evaluate"))
                    } else {
                        WhenBody::Block(spec_to_body(sub))
                    };
                    When { param, value, body }
                })
                .collect();
            SpecBody {
                threshold,
                pieces,
                whens,
            }
        }
    }
}

/// Converts an [`ObliviousSpec`] into a `spec` item named `name`, with
/// parameters `x1, …, xd`.
#[must_use]
pub fn spec_to_item(name: &str, spec: &ObliviousSpec) -> SpecItem {
    SpecItem {
        name: sanitize(name, &[]),
        params: default_params(spec.dim()),
        body: spec_to_body(spec),
        span: Span::default(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::Item;
    use crate::parser::parse;
    use crn_numeric::NVec;

    fn fn_item(source: &str) -> FnItem {
        let doc = parse(source).unwrap();
        let Item::Fn(item) = doc.items.into_iter().next().unwrap() else {
            panic!("expected a fn item");
        };
        item
    }

    fn spec_item(source: &str) -> SpecItem {
        let doc = parse(source).unwrap();
        let Item::Spec(item) = doc.items.into_iter().next().unwrap() else {
            panic!("expected a spec item");
        };
        item
    }

    fn crn_item(source: &str) -> CrnItem {
        let doc = parse(source).unwrap();
        let Item::Crn(item) = doc.items.into_iter().next().unwrap() else {
            panic!("expected a crn item");
        };
        item
    }

    #[test]
    fn lower_crn_resolves_roles_and_init() {
        let item = crn_item(
            "crn max { inputs X1 X2; output Y; init X2 = 5; X1 -> Z1 + Y; X2 -> Z2 + Y; Z1 + Z2 -> K; K + Y -> 0; }",
        );
        let lowered = lower_crn(&item).unwrap();
        assert_eq!(lowered.crn.dim(), 2);
        assert!(!lowered.crn.has_leader());
        assert_eq!(lowered.init, Some(NVec::from(vec![0, 5])));
        assert_eq!(lowered.crn.reaction_count(), 4);
    }

    #[test]
    fn lower_crn_rejects_coefficients_past_i64() {
        for reaction in [
            "X -> 9223372036854775808 Y",
            "X -> 5000000000000000000 Y + 5000000000000000000 Y",
            "X -> 10000000000000000000 Y + 10000000000000000000 Y",
        ] {
            let source = format!("crn c {{ inputs X; output Y; {reaction}; }}");
            let err = lower_crn(&crn_item(&source)).unwrap_err();
            assert!(
                err.message.contains("coefficient of `Y` exceeds"),
                "{reaction}: {}",
                err.message
            );
            let start = source.find(reaction).unwrap();
            assert_eq!(
                err.span.start, start,
                "{reaction}: anchored at the reaction"
            );
        }
        // The largest coefficient that fits still lowers, and so does a sum
        // that reaches it exactly.
        for reaction in [
            "X -> 9223372036854775807 Y",
            "X -> 4611686018427387903 Y + 4611686018427387904 Y",
        ] {
            let source = format!("crn c {{ inputs X; output Y; {reaction}; }}");
            let lowered = lower_crn(&crn_item(&source)).unwrap();
            let y = lowered.crn.output();
            let products = lowered.crn.crn().reactions()[0].products().clone();
            assert_eq!(products.get(&y), Some(&(i64::MAX as u64)), "{reaction}");
        }
    }

    #[test]
    fn lower_crn_rejects_non_input_init() {
        let item = crn_item("crn c { inputs X; output Y; init Y = 1; X -> Y; }");
        let err = lower_crn(&item).unwrap_err();
        assert!(err.message.contains("not an input"));
    }

    #[test]
    fn lowered_fn_matches_closed_form() {
        let item = fn_item("fn max2(x1, x2) { case x1 <= x2: x2; otherwise: x1; }");
        let f = lower_fn(&item).unwrap();
        f.validate_on_box(5).unwrap();
        for x1 in 0..5u64 {
            for x2 in 0..5u64 {
                assert_eq!(f.eval(&NVec::from(vec![x1, x2])).unwrap(), x1.max(x2));
            }
        }
    }

    #[test]
    fn lowered_fn_with_congruences() {
        let item = fn_item(
            "fn stair(x) { case x <= 2: 0; case x >= 3 and x % 2 == 0: 2 x; case x >= 3 and x % 2 == 1: 2 x + 1; }",
        );
        let f = lower_fn(&item).unwrap();
        f.validate_on_box(10).unwrap();
        for x in 0..10u64 {
            let expected = if x < 3 { 0 } else { 2 * x + x % 2 };
            assert_eq!(f.eval(&NVec::from(vec![x])).unwrap(), expected);
        }
    }

    #[test]
    fn lowered_fn_with_rational_guard() {
        // x1/2 <= x2 ⟺ x1 <= 2 x2.
        let item = fn_item("fn f(x1, x2) { case 1/2 x1 <= x2: 1; otherwise: 0; }");
        let f = lower_fn(&item).unwrap();
        assert_eq!(f.eval(&NVec::from(vec![4, 2])).unwrap(), 1);
        assert_eq!(f.eval(&NVec::from(vec![5, 2])).unwrap(), 0);
    }

    #[test]
    fn a_value_without_an_i128_common_denominator_is_rejected() {
        // lcm(2^64 - 1, 2^64 - 2) is past i128.
        let item = fn_item(
            "fn g(x1, x2) { case x1 >= 0: 1/18446744073709551615 x1 + 1/18446744073709551614 x2; }",
        );
        let err = lower_fn(&item).unwrap_err();
        assert!(
            err.message.contains("case 1 of fn `g`") && err.message.contains("does not fit i128"),
            "{}",
            err.message
        );
        // One of the two denominators alone fits.
        let item = fn_item("fn g(x1, x2) { case x1 >= 0: 1/18446744073709551615 x1 + x2; }");
        assert!(lower_fn(&item).is_ok());
    }

    #[test]
    fn congruence_with_fractions_rejected() {
        let item = fn_item("fn f(x) { case 1/2 x % 2 == 0: 1; otherwise: 0; }");
        let err = lower_fn(&item).unwrap_err();
        assert!(err.message.contains("integer coefficients"));
    }

    #[test]
    fn lowered_spec_evaluates_like_its_meaning() {
        let item = spec_item("spec minone(x) { threshold 1; min 1; when x = 0: 0; }");
        let spec = lower_spec(&item).unwrap();
        for x in 0..6u64 {
            assert_eq!(spec.eval(&NVec::from(vec![x])).unwrap(), x.min(1));
        }
    }

    #[test]
    fn floor_piece_matches_closed_form() {
        let item = spec_item("spec g(x) { min floor(3/2 x); }");
        let spec = lower_spec(&item).unwrap();
        for x in 0..12u64 {
            assert_eq!(spec.eval(&NVec::from(vec![x])).unwrap(), 3 * x / 2);
        }
    }

    #[test]
    fn missing_restriction_names_the_parameter() {
        let item = spec_item("spec s(x) { threshold 2; min x; when x = 0: 0; }");
        let err = lower_spec(&item).unwrap_err();
        assert!(err.message.contains("when x = 1"), "{}", err.message);
    }

    #[test]
    fn spec_round_trips_through_item() {
        let item = spec_item(
            "spec s(x1, x2) { threshold 1 0; min x1 + x2, floor(1/2 x1 + 1/2 x2 + 3); when x1 = 0: { min 2 x2; } }",
        );
        let spec = lower_spec(&item).unwrap();
        let back = spec_to_item("s", &spec);
        let spec2 = lower_spec(&back).unwrap();
        for x1 in 0..5u64 {
            for x2 in 0..5u64 {
                let x = NVec::from(vec![x1, x2]);
                assert_eq!(spec.eval(&x).unwrap(), spec2.eval(&x).unwrap());
            }
        }
    }

    #[test]
    fn crn_round_trips_through_item() {
        let item = crn_item(
            "crn max { inputs X1 X2; output Y; init X1 = 3, X2 = 7; X1 -> Z1 + Y; X2 -> Z2 + Y; Z1 + Z2 -> K; K + Y -> 0; }",
        );
        let lowered = lower_crn(&item).unwrap();
        let back = crn_to_item("max", &lowered.crn, None, lowered.init.as_ref());
        assert_eq!(back.inputs, item.inputs);
        assert_eq!(back.output, item.output);
        assert_eq!(back.init, item.init);
        let relowered = lower_crn(&back).unwrap();
        assert_eq!(relowered.crn.reaction_count(), lowered.crn.reaction_count());
    }

    #[test]
    fn sanitize_avoids_reserved_and_duplicates() {
        assert_eq!(sanitize("min", &[]), "min_");
        assert_eq!(sanitize("a b", &[]), "a_b");
        assert_eq!(sanitize("1X", &[]), "s1X");
        assert_eq!(sanitize("Y", &["Y".into()]), "Y_");
    }

    const PIPELINE_DOC: &str = "\
        crn min_stage { inputs X1 X2; output Y; X1 + X2 -> Y; }\n\
        crn double_stage { inputs X; output Y; X -> 2Y; }\n\
        pipeline two_min {\n  inputs a b;\n  stage m = min_stage(a, b);\n  \
        stage d = double_stage(m);\n  output d;\n  computes f;\n}\n";

    #[test]
    fn lower_document_composes_pipelines() {
        let doc = parse(PIPELINE_DOC).unwrap();
        let lowered = lower_document(&doc).unwrap();
        assert_eq!(lowered.crns.len(), 2);
        assert_eq!(lowered.pipelines.len(), 1);
        let (name, pipeline) = &lowered.pipelines[0];
        assert_eq!(name, "two_min");
        assert_eq!(pipeline.stage_count, 2);
        assert_eq!(pipeline.computes.as_deref(), Some("f"));
        assert!(pipeline.non_oblivious_feeders.is_empty());
        assert_eq!(pipeline.crn.dim(), 2);
        assert!(pipeline.crn.is_output_oblivious());
        // The composed CRN computes 2·min.
        let v =
            crn_model::check_stable_computation(&pipeline.crn, &NVec::from(vec![2, 3]), 4, 50_000)
                .unwrap();
        assert!(v.is_correct());
    }

    #[test]
    fn pipelines_compose_against_earlier_pipelines() {
        // A second pipeline uses the first as a module: 2·(2·min).
        let source = format!(
            "{PIPELINE_DOC}pipeline four_min {{\n  inputs a b;\n  \
             stage t = two_min(a, b);\n  stage d = double_stage(t);\n  output d;\n}}\n"
        );
        let doc = parse(&source).unwrap();
        let lowered = lower_document(&doc).unwrap();
        assert_eq!(lowered.pipelines.len(), 2);
        let four = &lowered.pipelines[1].1;
        let v = crn_model::check_stable_computation(&four.crn, &NVec::from(vec![2, 3]), 8, 200_000)
            .unwrap();
        assert!(v.is_correct());
    }

    #[test]
    fn adversarial_species_names_do_not_capture_pipeline_wires() {
        // Module species literally named W0, L, Y_out and f0.X1 flow through
        // the parser into composition; the engine's fresh interning must keep
        // them disjoint from its own wires (the PR's headline bug class).
        let source = "\
            crn min_stage { inputs W0 L; output Y_out; W0 + L -> Y_out; }\n\
            crn double_stage { inputs f0.X1; output f0.Y; f0.X1 -> 2f0.Y; }\n\
            pipeline two_min {\n  inputs a b;\n  stage m = min_stage(a, b);\n  \
            stage d = double_stage(m);\n  output d;\n}\n";
        let doc = parse(source).unwrap();
        let lowered = lower_document(&doc).unwrap();
        let pipeline = &lowered.pipelines[0].1;
        for (x1, x2) in [(0u64, 0u64), (1, 2), (3, 1)] {
            let v = crn_model::check_stable_computation(
                &pipeline.crn,
                &NVec::from(vec![x1, x2]),
                2 * x1.min(x2),
                50_000,
            )
            .unwrap();
            assert!(v.is_correct(), "adversarial pipeline failed at ({x1},{x2})");
        }
    }

    #[test]
    fn pipeline_diagnostics_name_the_stage() {
        let doc = parse("pipeline p { inputs a; stage s = nothing(a); output s; }").unwrap();
        let err = lower_document(&doc).unwrap_err();
        assert!(err.message.contains("stage `s`"), "{}", err.message);
        assert!(err.message.contains("`nothing`"), "{}", err.message);

        // Arity mismatch between the wiring and the module.
        let doc = parse(
            "crn id { inputs X; output Y; X -> Y; }\n\
             pipeline p { inputs a b; stage s = id(a, b); output s; }",
        )
        .unwrap();
        let err = lower_document(&doc).unwrap_err();
        assert!(err.message.contains("stage `s`"), "{}", err.message);
        assert!(err.message.contains("1 inputs"), "{}", err.message);
    }

    #[test]
    fn non_oblivious_feeders_are_reported_not_rejected() {
        let doc = parse(
            "crn max_stage { inputs X1 X2; output Y; X1 -> Z1 + Y; X2 -> Z2 + Y; \
             Z1 + Z2 -> K; K + Y -> 0; }\n\
             crn double_stage { inputs X; output Y; X -> 2Y; }\n\
             pipeline bad { inputs a b; stage m = max_stage(a, b); \
             stage d = double_stage(m); output d; }",
        )
        .unwrap();
        let lowered = lower_document(&doc).unwrap();
        assert_eq!(
            lowered.pipelines[0].1.non_oblivious_feeders,
            vec!["m".to_owned()]
        );
    }

    #[test]
    fn lower_item_rejects_pipelines_with_guidance() {
        let doc = parse("pipeline p { inputs a; stage s = m(a); output s; }").unwrap();
        let err = lower_item(&doc.items[0]).unwrap_err();
        assert!(err.message.contains("in isolation"), "{}", err.message);
        assert!(err.help.unwrap().contains("lower_document"));
    }
}
