//! The abstract syntax of a `.crn` document.
//!
//! A document is a sequence of named items: raw CRNs (`crn`), semilinear
//! function presentations (`fn`) and oblivious specifications (`spec`).
//! Linear expressions are normalized at parse time into coefficient vectors
//! over the parameter scope ([`LinExpr`]), so two texts denoting the same
//! expression parse to equal ASTs and the pretty-printer's output is
//! canonical.

use crn_numeric::Rational;

use crate::span::Span;

/// A parsed `.crn` document: an ordered list of items.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Document {
    /// The items, in source order.
    pub items: Vec<Item>,
}

impl Document {
    /// Finds an item by name.
    #[must_use]
    pub fn find(&self, name: &str) -> Option<&Item> {
        self.items.iter().find(|item| item.name() == name)
    }
}

/// One top-level item.
#[derive(Debug, Clone, PartialEq)]
pub enum Item {
    /// A raw CRN with role declarations (`crn name { … }`).
    Crn(CrnItem),
    /// A semilinear function presentation (`fn name(params) { … }`).
    Fn(FnItem),
    /// An oblivious specification (`spec name(params) { … }`).
    Spec(SpecItem),
    /// A composition of `crn`/`pipeline` items (`pipeline name { … }`).
    Pipeline(PipelineItem),
}

impl Item {
    /// The item's declared name.
    #[must_use]
    pub fn name(&self) -> &str {
        match self {
            Item::Crn(item) => &item.name,
            Item::Fn(item) => &item.name,
            Item::Spec(item) => &item.name,
            Item::Pipeline(item) => &item.name,
        }
    }

    /// The item's source span.
    #[must_use]
    pub fn span(&self) -> Span {
        match self {
            Item::Crn(item) => item.span,
            Item::Fn(item) => item.span,
            Item::Spec(item) => item.span,
            Item::Pipeline(item) => item.span,
        }
    }

    /// Whether the item denotes a CRN (a `crn` or `pipeline` item).  These
    /// share one namespace, distinct from the `fn`/`spec` namespace, so a
    /// pipeline and the function it computes may carry the same name.
    #[must_use]
    pub fn is_crn_like(&self) -> bool {
        matches!(self, Item::Crn(_) | Item::Pipeline(_))
    }
}

/// The parameter scope of a `when` restriction: `params` with the parameter
/// at `fixed` removed.  Shared by the parser, printer and lowering so nested
/// restriction scopes can never disagree.
#[must_use]
pub fn remaining_params(params: &[String], fixed: usize) -> Vec<String> {
    params
        .iter()
        .enumerate()
        .filter(|&(i, _)| i != fixed)
        .map(|(_, p)| p.clone())
        .collect()
}

/// One reaction `reactants -> products`, each side a list of
/// `(coefficient, species)` terms in source order.
///
/// Equality ignores the [`span`](ReactionAst::span): two reactions are equal
/// when they denote the same rewrite, wherever they were written.
#[derive(Debug, Clone)]
pub struct ReactionAst {
    /// The left-hand side (consumed species).
    pub reactants: Vec<(u64, String)>,
    /// The right-hand side (produced species).
    pub products: Vec<(u64, String)>,
    /// The span of the reaction (through the terminating `;`), for lint
    /// diagnostics anchored at the offending reaction.
    pub span: Span,
}

impl PartialEq for ReactionAst {
    fn eq(&self, other: &Self) -> bool {
        self.reactants == other.reactants && self.products == other.products
    }
}

/// A `crn` item: role declarations, an optional link to the function it
/// computes, an optional initial input, and the reaction list.
///
/// Equality ignores the [`span`](CrnItem::span): two items are equal when
/// they denote the same CRN, wherever they were written.
#[derive(Debug, Clone)]
pub struct CrnItem {
    /// The item name.
    pub name: String,
    /// The ordered input species `X_1, …, X_d`.
    pub inputs: Vec<String>,
    /// The output species.
    pub output: String,
    /// The span of the `output` declaration's species name, for lints
    /// anchored at the output role rather than any one reaction.
    pub output_span: Span,
    /// The leader species, if declared.
    pub leader: Option<String>,
    /// The name of a `fn` or `spec` item this CRN claims to compute.
    pub computes: Option<String>,
    /// Initial counts for input species (`init X1 = 3, X2 = 5;`).
    pub init: Vec<(String, u64)>,
    /// The reactions, in source order.
    pub reactions: Vec<ReactionAst>,
    /// The span of the whole item.
    pub span: Span,
}

impl PartialEq for CrnItem {
    fn eq(&self, other: &Self) -> bool {
        self.name == other.name
            && self.inputs == other.inputs
            && self.output == other.output
            && self.leader == other.leader
            && self.computes == other.computes
            && self.init == other.init
            && self.reactions == other.reactions
    }
}

/// One `stage name = module(arg, …);` declaration of a pipeline.
///
/// Equality ignores the [`span`](StageAst::span).
#[derive(Debug, Clone)]
pub struct StageAst {
    /// The stage's name (referenced by later stages and `output`).
    pub name: String,
    /// The `crn` or `pipeline` item providing the stage's module.
    pub module: String,
    /// The wiring: each argument names a pipeline input or an earlier stage.
    pub args: Vec<String>,
    /// The span of the declaration (for wiring diagnostics).
    pub span: Span,
}

impl PartialEq for StageAst {
    fn eq(&self, other: &Self) -> bool {
        self.name == other.name && self.module == other.module && self.args == other.args
    }
}

/// A `pipeline` item: named stages over `crn`/`pipeline` modules wired into a
/// DAG, composed by the capture-proof engine of `crn_model::compose`.
///
/// Equality ignores the [`span`](PipelineItem::span).
#[derive(Debug, Clone)]
pub struct PipelineItem {
    /// The item name (shares the `crn` namespace).
    pub name: String,
    /// The ordered global inputs.
    pub inputs: Vec<String>,
    /// The stages, in wiring (topological) order.
    pub stages: Vec<StageAst>,
    /// The stage whose output is the pipeline's output.
    pub output: String,
    /// The name of a `fn` or `spec` item this pipeline claims to compute.
    pub computes: Option<String>,
    /// The span of the whole item.
    pub span: Span,
}

impl PartialEq for PipelineItem {
    fn eq(&self, other: &Self) -> bool {
        self.name == other.name
            && self.inputs == other.inputs
            && self.stages == other.stages
            && self.output == other.output
            && self.computes == other.computes
    }
}

/// A linear expression over the parameters in scope, normalized to one
/// rational coefficient per parameter plus a rational constant.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LinExpr {
    /// Coefficient of each parameter, indexed by scope position.
    pub coeffs: Vec<Rational>,
    /// The constant term.
    pub constant: Rational,
}

impl LinExpr {
    /// The zero expression over `dim` parameters.
    #[must_use]
    pub fn zero(dim: usize) -> Self {
        LinExpr {
            coeffs: vec![Rational::ZERO; dim],
            constant: Rational::ZERO,
        }
    }

    /// The constant expression `value`.
    #[must_use]
    pub fn constant(dim: usize, value: Rational) -> Self {
        LinExpr {
            coeffs: vec![Rational::ZERO; dim],
            constant: value,
        }
    }

    /// The difference `self − other` (used to normalize comparisons).
    #[must_use]
    pub fn sub(&self, other: &LinExpr) -> LinExpr {
        LinExpr {
            coeffs: self
                .coeffs
                .iter()
                .zip(&other.coeffs)
                .map(|(&a, &b)| a - b)
                .collect(),
            constant: self.constant - other.constant,
        }
    }
}

/// A comparison operator in a `fn` case guard.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rel {
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `==`
    Eq,
}

/// One atomic guard condition.
#[derive(Debug, Clone, PartialEq)]
pub enum GuardAtom {
    /// A linear comparison `lhs REL rhs`.
    Cmp {
        /// Left-hand side.
        lhs: LinExpr,
        /// The comparison operator.
        rel: Rel,
        /// Right-hand side.
        rhs: LinExpr,
    },
    /// A congruence `expr % modulus == residue`.
    Mod {
        /// The linear expression being reduced.
        expr: LinExpr,
        /// The modulus (must be ≥ 1).
        modulus: u64,
        /// The expected residue.
        residue: u64,
    },
}

/// A case guard: a conjunction of atoms, or `otherwise` (the complement of
/// every earlier case's domain).
#[derive(Debug, Clone, PartialEq)]
pub enum Guard {
    /// `case atom and atom and …`
    Conj(Vec<GuardAtom>),
    /// `otherwise`
    Otherwise,
}

/// One `case guard: value;` arm of a `fn` item.
#[derive(Debug, Clone, PartialEq)]
pub struct FnCase {
    /// The domain guard.
    pub guard: Guard,
    /// The affine value on that domain.
    pub value: LinExpr,
}

/// A `fn` item: a semilinear function presented as guarded affine cases.
///
/// Equality ignores the [`span`](FnItem::span).
#[derive(Debug, Clone)]
pub struct FnItem {
    /// The item name.
    pub name: String,
    /// The parameter names (input dimension order).
    pub params: Vec<String>,
    /// The cases, in source order.
    pub cases: Vec<FnCase>,
    /// The span of the whole item.
    pub span: Span,
}

impl PartialEq for FnItem {
    fn eq(&self, other: &Self) -> bool {
        self.name == other.name && self.params == other.params && self.cases == other.cases
    }
}

/// One eventual-min piece of a spec.
#[derive(Debug, Clone, PartialEq)]
pub enum Piece {
    /// An affine expression (quilt-affine with period 1).
    Affine(LinExpr),
    /// `floor(expr)`: the floored linear expression, quilt-affine with the
    /// period clearing the coefficient denominators.
    Floor(LinExpr),
    /// A general quilt-affine function given by its gradient, period and
    /// per-congruence-class offsets.
    Quilt {
        /// The gradient `∇g` (one rational per parameter).
        gradient: Vec<Rational>,
        /// The period `p`.
        period: u64,
        /// Offsets `B(a)` keyed by canonical residue tuple, sorted by key.
        offsets: Vec<(Vec<u64>, Rational)>,
    },
}

/// The body of a restriction in a `when` declaration.
#[derive(Debug, Clone, PartialEq)]
pub enum WhenBody {
    /// A constant (the restriction has dimension 0).
    Constant(u64),
    /// A nested spec body over the remaining parameters.
    Block(SpecBody),
}

/// One `when param = value: …;` restriction declaration.
#[derive(Debug, Clone, PartialEq)]
pub struct When {
    /// Index of the fixed parameter in the enclosing scope.
    pub param: usize,
    /// The fixed value `j` (must be below the threshold component).
    pub value: u64,
    /// The restriction's spec.
    pub body: WhenBody,
}

/// The body of a spec: threshold, eventual-min pieces, and restrictions.
#[derive(Debug, Clone, PartialEq)]
pub struct SpecBody {
    /// The threshold `n` (one entry per parameter; all-zero when omitted).
    pub threshold: Vec<u64>,
    /// The eventual-min pieces `g_1, …, g_m`.
    pub pieces: Vec<Piece>,
    /// The restrictions, in source order.
    pub whens: Vec<When>,
}

/// A `spec` item: an oblivious specification in the shape of Theorem 5.2.
///
/// Equality ignores the [`span`](SpecItem::span).
#[derive(Debug, Clone)]
pub struct SpecItem {
    /// The item name.
    pub name: String,
    /// The parameter names (input dimension order).
    pub params: Vec<String>,
    /// The body.
    pub body: SpecBody,
    /// The span of the whole item.
    pub span: Span,
}

impl PartialEq for SpecItem {
    fn eq(&self, other: &Self) -> bool {
        self.name == other.name && self.params == other.params && self.body == other.body
    }
}
