//! Loading a `.crn` file into lowered semantic objects.
//!
//! [`Workspace::load`] reads a file, parses it with `crn-lang` and lowers
//! every item; any failure is returned as a rendered, span-annotated
//! diagnostic (the caller maps it to exit code 2).  Commands then pick their
//! targets out of the workspace by item kind and name.  `pipeline` items are
//! composed during loading and listed in [`Workspace::crns`] alongside the
//! raw `crn` items (they share one namespace), so `check`, `verify` and
//! `sim` accept pipeline targets with no extra wiring; their composition
//! metadata lives in [`Workspace::pipelines`].

use crn_core::ObliviousSpec;
use crn_lang::ast::Document;
use crn_lang::lower::{lower_document, LoweredCrn};
use crn_model::analysis::CrnAnalysis;
use crn_numeric::NVec;
use crn_semilinear::SemilinearFunction;

/// Composition metadata of a lowered `pipeline` item (the composed CRN
/// itself is in [`Workspace::crns`] under the pipeline's name).
#[derive(Debug)]
pub struct PipelineInfo {
    /// Number of composed stages.
    pub stage_count: usize,
    /// Stages that feed a downstream module although they are not
    /// output-oblivious (see `crn compose`'s enforcement).
    pub non_oblivious_feeders: Vec<String>,
}

/// A loaded and fully lowered `.crn` file.
#[derive(Debug)]
pub struct Workspace {
    /// The path the file was loaded from (used in diagnostics).
    pub path: String,
    /// The raw source text (for rendering span-anchored lint warnings).
    pub source: String,
    /// The parsed document (for canonical re-printing).
    pub doc: Document,
    /// Lowered `crn` items in source order, followed by the composed
    /// `pipeline` items in source order.
    pub crns: Vec<(String, LoweredCrn)>,
    /// Lowered `fn` items, in source order.
    pub fns: Vec<(String, SemilinearFunction)>,
    /// Lowered `spec` items, in source order.
    pub specs: Vec<(String, ObliviousSpec)>,
    /// Composition metadata for each `pipeline` item, in source order.
    pub pipelines: Vec<(String, PipelineInfo)>,
}

/// A resolvable evaluation target: the meaning of a `fn` or `spec` item.
#[derive(Debug)]
pub enum Target<'a> {
    /// A semilinear function presentation.
    SemilinearFn(&'a SemilinearFunction),
    /// An oblivious specification.
    Spec(&'a ObliviousSpec),
}

impl Target<'_> {
    /// The input dimension.
    #[must_use]
    pub fn dim(&self) -> usize {
        match self {
            Target::SemilinearFn(f) => f.dim(),
            Target::Spec(s) => s.dim(),
        }
    }

    /// Evaluates the target at `x` (0 on evaluation failure; callers validate
    /// the presentation on the box of interest first — see
    /// [`Target::validate_on_box`]).
    #[must_use]
    pub fn eval(&self, x: &NVec) -> u64 {
        match self {
            Target::SemilinearFn(f) => f.eval(x).unwrap_or(0),
            Target::Spec(s) => s.eval(x).unwrap_or(0),
        }
    }

    /// Evaluates the target at `x`, surfacing evaluation failures (a partial
    /// presentation or a spec with negative values) instead of coercing them
    /// to 0.
    ///
    /// # Errors
    ///
    /// Returns the evaluation failure as text.
    pub fn try_eval(&self, x: &NVec) -> Result<u64, String> {
        match self {
            Target::SemilinearFn(f) => f.eval(x).map_err(|e| e.to_string()),
            Target::Spec(s) => s.eval(x).map_err(|e| e.to_string()),
        }
    }

    /// Checks that the target evaluates successfully on every point of
    /// `[0, bound]^d`, so a later [`Target::eval`] sweep over that box cannot
    /// silently coerce failures to 0.
    ///
    /// # Errors
    ///
    /// Returns the first failure as text.
    pub fn validate_on_box(&self, bound: u64) -> Result<(), String> {
        match self {
            Target::SemilinearFn(f) => f
                .validate_on_box(bound)
                .map_err(|e| format!("not a valid presentation on [0, {bound}]^{}: {e}", f.dim())),
            Target::Spec(s) => {
                let mut x = NVec::zeros(s.dim());
                loop {
                    s.eval(&x)
                        .map_err(|e| format!("cannot be evaluated at {x}: {e}"))?;
                    if !x.step_in_box(bound) {
                        return Ok(());
                    }
                }
            }
        }
    }
}

impl Workspace {
    /// Loads and lowers `path`.
    ///
    /// # Errors
    ///
    /// Returns a rendered diagnostic (IO, parse or lowering failure); the
    /// caller maps it to exit code 2.
    pub fn load(path: &str) -> Result<Workspace, String> {
        let source = std::fs::read_to_string(path)
            .map_err(|e| format!("error: cannot read `{path}`: {e}"))?;
        Self::from_source(path, &source)
    }

    /// Parses and lowers in-memory source (the file at `path` for messages).
    ///
    /// # Errors
    ///
    /// Returns a rendered diagnostic on parse or lowering failure.
    pub fn from_source(path: &str, source: &str) -> Result<Workspace, String> {
        let doc = crn_lang::parse(source).map_err(|d| d.render(source, path))?;
        let lowered = lower_document(&doc).map_err(|d| d.render(source, path))?;
        let mut crns = lowered.crns;
        let mut pipelines = Vec::with_capacity(lowered.pipelines.len());
        for (name, pipeline) in lowered.pipelines {
            pipelines.push((
                name.clone(),
                PipelineInfo {
                    stage_count: pipeline.stage_count,
                    non_oblivious_feeders: pipeline.non_oblivious_feeders,
                },
            ));
            crns.push((
                name,
                LoweredCrn {
                    crn: pipeline.crn,
                    init: None,
                    computes: pipeline.computes,
                },
            ));
        }
        Ok(Workspace {
            path: path.to_owned(),
            source: source.to_owned(),
            doc,
            crns,
            fns: lowered.fns,
            specs: lowered.specs,
            pipelines,
        })
    }

    /// Resolves a `fn` or `spec` item by name.
    #[must_use]
    pub fn target(&self, name: &str) -> Option<Target<'_>> {
        if let Some((_, f)) = self.fns.iter().find(|(n, _)| n == name) {
            return Some(Target::SemilinearFn(f));
        }
        self.specs
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, s)| Target::Spec(s))
    }

    /// The `crn` or composed `pipeline` item named `name`.
    #[must_use]
    pub fn crn(&self, name: &str) -> Option<&LoweredCrn> {
        self.crns.iter().find(|(n, _)| n == name).map(|(_, c)| c)
    }

    /// A fresh [`CrnAnalysis`] of every crn item, in [`Workspace::crns`]
    /// order: a command lints and verifies an item through the same one.
    pub(crate) fn analyses(&self) -> Vec<CrnAnalysis<'_>> {
        self.crns
            .iter()
            .map(|(_, lowered)| CrnAnalysis::of(&lowered.crn))
            .collect()
    }

    /// The composition metadata of the `pipeline` item named `name`.
    #[must_use]
    pub fn pipeline(&self, name: &str) -> Option<&PipelineInfo> {
        self.pipelines
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, p)| p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn loads_and_resolves_targets() {
        let ws = Workspace::from_source(
            "mem.crn",
            "fn min2(x1, x2) { case x1 <= x2: x1; otherwise: x2; }\n\
             crn min {\n  inputs X1 X2;\n  output Y;\n  computes min2;\n  X1 + X2 -> Y;\n}\n",
        )
        .unwrap();
        assert_eq!(ws.crns.len(), 1);
        assert_eq!(ws.fns.len(), 1);
        let target = ws.target("min2").unwrap();
        assert_eq!(target.dim(), 2);
        assert_eq!(target.eval(&NVec::from(vec![4, 9])), 4);
        assert!(ws.crn("min").is_some());
        assert!(ws.crn("nope").is_none());
        assert!(ws.target("nope").is_none());
    }

    #[test]
    fn parse_errors_are_rendered_with_location() {
        let err = Workspace::from_source("bad.crn", "crn x {").unwrap_err();
        assert!(err.contains("bad.crn:1:8"), "{err}");
        assert!(err.starts_with("error:"));
    }

    #[test]
    fn pipelines_are_composed_and_targetable_like_crns() {
        let ws = Workspace::from_source(
            "mem.crn",
            "crn min_stage { inputs X1 X2; output Y; X1 + X2 -> Y; }\n\
             crn double_stage { inputs X; output Y; X -> 2Y; }\n\
             pipeline two_min { inputs a b; stage m = min_stage(a, b); \
             stage d = double_stage(m); output d; }\n",
        )
        .unwrap();
        assert_eq!(ws.crns.len(), 3);
        assert_eq!(ws.pipelines.len(), 1);
        let info = ws.pipeline("two_min").unwrap();
        assert_eq!(info.stage_count, 2);
        assert!(info.non_oblivious_feeders.is_empty());
        let composed = ws.crn("two_min").unwrap();
        assert_eq!(composed.crn.dim(), 2);
        assert!(composed.init.is_none());
    }

    #[test]
    fn pipeline_lowering_failures_render_like_parse_errors() {
        let err = Workspace::from_source(
            "mem.crn",
            "pipeline p {\n  inputs a;\n  stage s = nothing(a);\n  output s;\n}\n",
        )
        .unwrap_err();
        assert!(err.contains("mem.crn:3"), "{err}");
        assert!(err.contains("no crn or pipeline item"), "{err}");
    }
}
