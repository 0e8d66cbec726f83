//! The Section 7 characterization pipeline, made executable.
//!
//! Given a fixed semilinear presentation of `f : N^d → N`, the pipeline
//! follows the structure of the proof of Theorem 7.1:
//!
//! 1. check that `f` is nondecreasing (Observation 2.1);
//! 2. build the hyperplane arrangement and global period of the presentation
//!    (Lemma 7.3) and enumerate its eventual regions;
//! 3. fit the unique quilt-affine extension of each determined region
//!    (Lemmas 7.7/7.9) by exact affine fitting per congruence class;
//! 4. for each under-determined eventual region, construct the averaged strip
//!    extension of Lemma 7.16 (with an enlarged period) when it exists;
//! 5. verify that `f = min_k g_k` above a threshold and recurse into the
//!    fixed-input restrictions (condition (iii) of Theorem 5.2);
//! 6. if verification fails, search for a Lemma 4.1 witness (Theorem 5.4).
//!
//! The outcome is a [`Characterization`]: either a complete [`ObliviousSpec`]
//! that the Lemma 6.2 synthesizer can compile to a CRN, a proof of
//! impossibility, or (if the search bounds were too small) an inconclusive
//! report.

use std::collections::BTreeMap;

use crn_geometry::{Arrangement, Region};
use crn_numeric::{lcm_u64, NVec, QVec, Rational, WideInt};
use crn_semilinear::SemilinearFunction;

use crate::error::CoreError;
use crate::impossibility::{find_lemma41_witness, Lemma41Witness};
use crate::one_dim::{analyze_semilinear_1d, Structure1D};
use crate::quilt::QuiltAffine;
use crate::spec::{EventuallyMin, ObliviousSpec};

/// The outcome of the characterization pipeline.
#[derive(Debug, Clone)]
pub enum Characterization {
    /// The function satisfies Theorem 5.2; the attached spec can be compiled
    /// to an output-oblivious CRN by [`crate::synthesis::synthesize`].
    ObliviouslyComputable {
        /// The recursive specification (eventual-min pieces + restrictions).
        spec: ObliviousSpec,
    },
    /// The function is provably not obliviously-computable.
    NotObliviouslyComputable {
        /// Human-readable reason (monotonicity violation or Lemma 4.1).
        reason: String,
        /// A Lemma 4.1 witness, when the obstruction is of that form.
        witness: Option<Lemma41Witness>,
    },
    /// The pipeline could not decide within its search bounds.
    Inconclusive {
        /// What failed or ran out of budget.
        reason: String,
    },
}

impl Characterization {
    /// Whether the verdict is "obliviously computable".
    #[must_use]
    pub fn is_computable(&self) -> bool {
        matches!(self, Characterization::ObliviouslyComputable { .. })
    }

    /// Whether the verdict is a proof of impossibility.
    #[must_use]
    pub fn is_impossible(&self) -> bool {
        matches!(self, Characterization::NotObliviouslyComputable { .. })
    }
}

/// Runs the characterization pipeline on a semilinear presentation, examining
/// the box `[0, bound]^d`.  A spec is returned only once it reproduces `f`
/// on the whole box.
///
/// # Errors
///
/// Returns errors only for malformed presentations (evaluation failures);
/// bounded-search shortfalls are reported as
/// [`Characterization::Inconclusive`].
pub fn characterize(f: &SemilinearFunction, bound: u64) -> Result<Characterization, CoreError> {
    // Condition (i): nondecreasing.
    if let Some((x, y)) = f.is_nondecreasing_on_box(bound) {
        return Ok(Characterization::NotObliviouslyComputable {
            reason: format!("not nondecreasing: f({x}) > f({y}) although {x} ≤ {y}"),
            witness: None,
        });
    }
    let verdict = match f.dim() {
        0 => {
            let value = f.eval(&NVec::zeros(0)).map_err(|e| {
                CoreError::AnalysisInconclusive(format!("cannot evaluate constant: {e}"))
            })?;
            Characterization::ObliviouslyComputable {
                spec: ObliviousSpec::Constant(value),
            }
        }
        1 => characterize_1d(f, bound)?,
        _ => characterize_multi(f, bound)?,
    };
    let Characterization::ObliviouslyComputable { spec } = &verdict else {
        return Ok(verdict);
    };
    // Final sanity check: the spec reproduces f on the whole box.
    for x in NVec::box_iter(f.dim(), bound) {
        let reason = match f.eval(&x) {
            Ok(value) if spec.eval(&x)? == value => continue,
            Ok(_) => format!("assembled spec disagrees with f at {x}"),
            Err(e) => format!("f{x} cannot be evaluated: {e}"),
        };
        return Ok(Characterization::Inconclusive { reason });
    }
    Ok(verdict)
}

/// `f(x)` for the affine fits, which run on `i64`: a point `f` cannot
/// evaluate, or whose value is past `i64::MAX`, is an inconclusive reason
/// that names it, never a value `f` does not have.
fn value_at(f: &SemilinearFunction, x: &NVec) -> Result<i64, CoreError> {
    let value = f
        .eval(x)
        .map_err(|e| CoreError::AnalysisInconclusive(format!("f{x} cannot be evaluated: {e}")))?;
    i64::try_from(value)
        .map_err(|_| CoreError::AnalysisInconclusive(format!("f{x} = {value} is past i64::MAX")))
}

/// 1-D case (Theorem 3.1): semilinear + nondecreasing is sufficient; extract
/// the eventual structure and package it as a spec.
fn characterize_1d(f: &SemilinearFunction, bound: u64) -> Result<Characterization, CoreError> {
    let structure = match analyze_semilinear_1d(f, bound, bound.max(1)) {
        Ok(s) => s,
        Err(CoreError::NotNondecreasing(msg)) => {
            return Ok(Characterization::NotObliviouslyComputable {
                reason: msg,
                witness: None,
            })
        }
        Err(e) => {
            return Ok(Characterization::Inconclusive {
                reason: format!("1-D structure extraction failed: {e}"),
            })
        }
    };
    Ok(match structure_to_spec(&structure) {
        Ok(spec) => Characterization::ObliviouslyComputable { spec },
        Err(e) => Characterization::Inconclusive {
            reason: e.to_string(),
        },
    })
}

/// Converts the Theorem 3.1 structure into a one-dimensional spec: a single
/// quilt-affine eventual piece plus constant restrictions below the threshold.
///
/// # Errors
///
/// [`CoreError::OutOfRange`] naming the first value the eventual piece reads
/// that is past `i64::MAX`, where its offsets are computed.
pub fn structure_to_spec(structure: &Structure1D) -> Result<ObliviousSpec, CoreError> {
    let n = structure.threshold();
    let p = structure.period;
    let slope_sum: u64 = structure.deltas.iter().sum();
    let gradient = QVec::from(vec![Rational::new(slope_sum as i128, p as i128)]);
    let mut offsets = BTreeMap::new();
    for a in 0..p {
        // A representative of class `a` at or above the threshold.
        let rep = if n == 0 {
            a
        } else {
            let offset = (a + p - (n % p)) % p;
            n + offset
        };
        let value = structure.eval(rep);
        let value = i64::try_from(value)
            .map_err(|_| CoreError::OutOfRange(format!("f({rep}) = {value} is past i64::MAX")))?;
        offsets.insert(
            vec![a],
            Rational::from(value) - gradient.dot_n(&NVec::from(vec![rep])),
        );
    }
    let piece = QuiltAffine::new(&gradient, p, &offsets)?;
    let eventual =
        EventuallyMin::new(NVec::from(vec![n]), vec![piece]).expect("one piece, same dimension");
    let mut restrictions = BTreeMap::new();
    for j in 0..n {
        restrictions.insert(
            (0usize, j),
            ObliviousSpec::Constant(structure.initial_values[j as usize]),
        );
    }
    Ok(ObliviousSpec::compound(eventual, restrictions).expect("restrictions cover the threshold"))
}

/// Multi-dimensional case: the Section 7 pipeline proper.
fn characterize_multi(f: &SemilinearFunction, bound: u64) -> Result<Characterization, CoreError> {
    let dim = f.dim();
    let arrangement = Arrangement::from_function(f);
    let period = arrangement.period();
    let regions = arrangement.regions_in_box(bound);
    let eventual_regions: Vec<&Region> = regions.iter().filter(|r| r.is_eventual()).collect();

    // Step 1: unique extensions from determined eventual regions.
    let mut pieces: Vec<QuiltAffine> = Vec::new();
    let mut determined_info: Vec<(usize, QuiltAffine)> = Vec::new();
    for (idx, region) in eventual_regions.iter().enumerate() {
        if !region.is_determined() {
            continue;
        }
        match fit_region_extension(f, region, period, bound) {
            Ok(extension) => {
                determined_info.push((idx, extension.clone()));
                if !pieces.contains(&extension) {
                    pieces.push(extension);
                }
            }
            Err(e) => {
                return Ok(Characterization::Inconclusive {
                    reason: format!("could not fit a determined-region extension: {e}"),
                });
            }
        }
    }
    if pieces.is_empty() {
        return Ok(Characterization::Inconclusive {
            reason: "no determined eventual region found within the search box".into(),
        });
    }

    // Step 2: strip extensions for under-determined eventual regions.
    for region in eventual_regions.iter().filter(|r| !r.is_determined()) {
        let neighbors: Vec<&QuiltAffine> = determined_info
            .iter()
            .filter(|(idx, _)| eventual_regions[*idx].is_neighbor_of(region))
            .map(|(_, ext)| ext)
            .collect();
        if neighbors.is_empty() {
            continue;
        }
        match fit_strip_extension(f, region, &neighbors, period, bound) {
            Ok(Some(extension)) => {
                if !pieces.contains(&extension) {
                    pieces.push(extension);
                }
            }
            Ok(None) => {}
            Err(_) => {
                // A failed strip fit is not itself a proof of impossibility;
                // the verification step below will sort it out.
            }
        }
    }

    // Step 3: find a threshold above which f = min of the pieces.
    let threshold = match find_valid_threshold(f, &pieces, bound) {
        Ok(threshold) => threshold,
        Err(e) => {
            return Ok(Characterization::Inconclusive {
                reason: format!("could not check the eventual-min representation: {e}"),
            })
        }
    };
    let Some(t) = threshold else {
        // Verification failed: look for a Lemma 4.1 obstruction.  The
        // search reads a point `f` cannot evaluate as 0, so whatever it
        // finds is only a candidate until `f` confirms it.
        let oracle = |x: &NVec| f.eval(x).unwrap_or(0);
        if let Some(witness) = find_lemma41_witness(&oracle, dim, bound.min(6), 6) {
            if let Err(e) = confirm_lemma41_witness(f, &witness) {
                return Ok(Characterization::Inconclusive {
                    reason: format!("a Lemma 4.1 witness candidate is not confirmed by f: {e}"),
                });
            }
            return Ok(Characterization::NotObliviouslyComputable {
                reason:
                    "f is not eventually a min of quilt-affine functions (Lemma 4.1 witness found)"
                        .into(),
                witness: Some(witness),
            });
        }
        return Ok(Characterization::Inconclusive {
            reason: "no threshold found for the eventual-min representation, and no Lemma 4.1 witness within the search box"
                .into(),
        });
    };

    // Step 4: recurse into the fixed-input restrictions (condition (iii)).
    let mut restrictions = BTreeMap::new();
    for i in 0..dim {
        for j in 0..t {
            let Some(restricted) = f.restrict(i, j) else {
                return Ok(Characterization::Inconclusive {
                    reason: format!(
                        "restriction x({i}) = {j} folds an offset past i128 into a piece"
                    ),
                });
            };
            match characterize(&restricted, bound)? {
                Characterization::ObliviouslyComputable { spec } => {
                    restrictions.insert((i, j), spec);
                }
                Characterization::NotObliviouslyComputable { reason, witness } => {
                    return Ok(Characterization::NotObliviouslyComputable {
                        reason: format!(
                            "restriction x({i}) = {j} is not obliviously computable: {reason}"
                        ),
                        witness,
                    });
                }
                Characterization::Inconclusive { reason } => {
                    return Ok(Characterization::Inconclusive {
                        reason: format!("restriction x({i}) = {j} inconclusive: {reason}"),
                    });
                }
            }
        }
    }

    let eventual = EventuallyMin::new(NVec::constant(dim, t), pieces)?;
    let spec = ObliviousSpec::compound(eventual, restrictions)?;
    Ok(Characterization::ObliviouslyComputable { spec })
}

/// Fits the unique quilt-affine extension of `f` from a determined region
/// (Lemma 7.7): one exact affine fit per congruence class, all sharing a
/// gradient.
fn fit_region_extension(
    f: &SemilinearFunction,
    region: &Region,
    period: u64,
    bound: u64,
) -> Result<QuiltAffine, CoreError> {
    let dim = region.dim();
    let members = region.members_in_box(bound);
    let mut gradient: Option<QVec> = None;
    let mut offsets: BTreeMap<Vec<u64>, Rational> = BTreeMap::new();
    for class in crn_numeric::CongruenceClass::enumerate_all(dim, period) {
        let points: Vec<NVec> = members
            .iter()
            .filter(|x| class.contains(x))
            .cloned()
            .collect();
        if points.is_empty() {
            continue;
        }
        let values = points
            .iter()
            .map(|x| value_at(f, x))
            .collect::<Result<Vec<i64>, _>>()?;
        let Some((grad, offset, unique)) = crn_geometry::matrix::fit_affine(&points, &values)
        else {
            return Err(CoreError::AnalysisInconclusive(format!(
                "values on region ∩ {class} are not affine"
            )));
        };
        if !unique && points.len() < dim + 1 {
            return Err(CoreError::AnalysisInconclusive(format!(
                "not enough points in region ∩ {class} to pin down the extension"
            )));
        }
        match &gradient {
            None => gradient = Some(grad.clone()),
            Some(g) if *g != grad => {
                return Err(CoreError::AnalysisInconclusive(
                    "per-class gradients disagree on a determined region".into(),
                ))
            }
            Some(_) => {}
        }
        offsets.insert(class.representative().as_slice().to_vec(), offset);
    }
    let gradient = gradient.ok_or_else(|| {
        CoreError::AnalysisInconclusive("region has no points in the search box".into())
    })?;
    // Classes with no region points: extend with the nondecreasing-maximal
    // rule relative to the classes we did fit (rarely needed for determined
    // regions, which meet every class once the box is large enough).
    for class in crn_numeric::CongruenceClass::enumerate_all(dim, period) {
        let key = class.representative().as_slice().to_vec();
        offsets.entry(key).or_insert(Rational::ZERO);
    }
    QuiltAffine::new(&gradient, period, &offsets)
}

/// Builds the averaged strip extension of Lemma 7.16 for an under-determined
/// eventual region, or `None` when the determined extensions already cover it.
fn fit_strip_extension(
    f: &SemilinearFunction,
    region: &Region,
    neighbors: &[&QuiltAffine],
    period: u64,
    bound: u64,
) -> Result<Option<QuiltAffine>, CoreError> {
    let dim = region.dim();
    let members = region.members_in_box(bound);
    if members.is_empty() {
        return Ok(None);
    }
    // If the neighbor extensions already agree with f on the region, no extra
    // piece is needed.
    let mut covered = true;
    for x in &members {
        let min_neighbor = neighbors.iter().map(|g| g.exact(x)).min();
        if min_neighbor != Some(WideInt::from(value_at(f, x)?)) {
            covered = false;
            break;
        }
    }
    if covered {
        return Ok(None);
    }
    // Average gradient of the neighbors (Lemma 7.16), with the period enlarged
    // so that the average is integral per class.
    let gradients: Vec<QVec> = neighbors.iter().map(|g| g.gradient().clone()).collect();
    let avg = QVec::average(&gradients);
    let denom = avg.denominator_lcm().unsigned_abs() as u64;
    let p_star = lcm_u64(period.max(1), denom.max(1));
    // Offsets: exact on classes that meet the region (the extension agrees
    // with f there), maximal-nondecreasing on the rest.
    let mut offsets: BTreeMap<Vec<u64>, Rational> = BTreeMap::new();
    let mut strip_classes: Vec<crn_numeric::CongruenceClass> = Vec::new();
    for class in crn_numeric::CongruenceClass::enumerate_all(dim, p_star) {
        let points: Vec<&NVec> = members.iter().filter(|x| class.contains(x)).collect();
        if points.is_empty() {
            continue;
        }
        let candidates = points
            .iter()
            .map(|x| Ok(Rational::from(value_at(f, x)?) - avg.dot_n(x)))
            .collect::<Result<Vec<Rational>, CoreError>>()?;
        if candidates.windows(2).any(|w| w[0] != w[1]) {
            return Err(CoreError::AnalysisInconclusive(
                "strip values are not quilt-affine with the averaged gradient".into(),
            ));
        }
        offsets.insert(class.representative().as_slice().to_vec(), candidates[0]);
        strip_classes.push(class);
    }
    // Remaining classes: B(a) = min over strip-class points y ≥ rep(a) of
    // g(y) − ∇avg·rep(a)  (the "as large as possible while nondecreasing"
    // rule from the proof of Lemma 7.16, evaluated on the representative).
    for class in crn_numeric::CongruenceClass::enumerate_all(dim, p_star) {
        let key = class.representative().as_slice().to_vec();
        if offsets.contains_key(&key) {
            continue;
        }
        let rep = class.representative();
        let mut best: Option<Rational> = None;
        for strip_class in &strip_classes {
            for y in NVec::box_iter(dim, bound) {
                if !strip_class.contains(&y) || !y.ge(&rep) {
                    continue;
                }
                let g_y =
                    avg.dot_n(&y) + offsets[&strip_class.representative().as_slice().to_vec()];
                let candidate = g_y - avg.dot_n(&rep);
                best = Some(best.map_or(candidate, |b: Rational| b.min(candidate)));
            }
        }
        let Some(value) = best else {
            return Err(CoreError::AnalysisInconclusive(
                "could not complete the strip extension's offsets".into(),
            ));
        };
        offsets.insert(key, value);
    }
    QuiltAffine::new(&avg, p_star, &offsets).map(Some)
}

/// Finds the smallest `t ≤ bound/2` such that `f(x) = min_k g_k(x)` for every
/// box point `x ≥ (t, …, t)`.
///
/// # Errors
///
/// The first point compared whose value [`value_at`] cannot give.
fn find_valid_threshold(
    f: &SemilinearFunction,
    pieces: &[QuiltAffine],
    bound: u64,
) -> Result<Option<u64>, CoreError> {
    let dim = f.dim();
    'outer: for t in 0..=bound / 2 {
        let corner = NVec::constant(dim, t);
        for x in NVec::box_iter(dim, bound) {
            if !x.ge(&corner) {
                continue;
            }
            let Some(min_piece) = pieces.iter().map(|g| g.exact(&x)).min() else {
                return Ok(None);
            };
            if min_piece != WideInt::from(value_at(f, &x)?) {
                continue 'outer;
            }
        }
        return Ok(Some(t));
    }
    Ok(None)
}

/// Re-evaluates every value the Lemma 4.1 inequality of `witness` compares
/// through `f.eval` alone: `f(a_i + j·δ) − f(a_i) > f(a_j + j·δ) − f(a_j)`
/// for every pair `i < j` of its verified elements.
///
/// # Errors
///
/// The first point `f` cannot evaluate, or the first pair the inequality
/// fails on.
fn confirm_lemma41_witness(f: &SemilinearFunction, witness: &Lemma41Witness) -> Result<(), String> {
    let value = |x: &NVec| {
        f.eval(x)
            .map(i128::from)
            .map_err(|e| format!("f{x} cannot be evaluated: {e}"))
    };
    let gain = |a: &NVec, shift: &NVec| Ok::<_, String>(value(&(a + shift))? - value(a)?);
    let mut shift = NVec::zeros(witness.delta.dim());
    for j in 1..witness.verified_elements {
        shift = &shift + &witness.delta;
        let a_j = witness.element(j);
        let later = gain(&a_j, &shift)?;
        for i in 0..j {
            let a_i = witness.element(i);
            if gain(&a_i, &shift)? <= later {
                return Err(format!(
                    "the gain of {shift} at {a_i} does not exceed its gain at {a_j}"
                ));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crn_semilinear::examples as sl;

    #[test]
    fn min2_is_obliviously_computable() {
        let verdict = characterize(&sl::min2(), 8).unwrap();
        let Characterization::ObliviouslyComputable { spec } = verdict else {
            panic!("min must be obliviously computable: {verdict:?}");
        };
        for x1 in 0..8u64 {
            for x2 in 0..8u64 {
                assert_eq!(spec.eval(&NVec::from(vec![x1, x2])).unwrap(), x1.min(x2));
            }
        }
    }

    #[test]
    fn figure7_example_is_obliviously_computable_with_three_pieces() {
        let f = sl::figure7_example();
        let verdict = characterize(&f, 8).unwrap();
        let Characterization::ObliviouslyComputable { spec } = verdict else {
            panic!("Figure 7 example must be obliviously computable: {verdict:?}");
        };
        let ObliviousSpec::Compound { eventual, .. } = &spec else {
            panic!("expected a compound spec");
        };
        // Two determined extensions (x1+1, x2+1) plus the strip extension
        // ⌈(x1+x2)/2⌉ from the diagonal.
        assert_eq!(eventual.pieces().len(), 3);
        for x1 in 0..8u64 {
            for x2 in 0..8u64 {
                assert_eq!(
                    spec.eval(&NVec::from(vec![x1, x2])).unwrap(),
                    f.eval(&NVec::from(vec![x1, x2])).unwrap()
                );
            }
        }
    }

    #[test]
    fn max_is_not_obliviously_computable() {
        let verdict = characterize(&sl::max2(), 8).unwrap();
        assert!(verdict.is_impossible(), "{verdict:?}");
        let Characterization::NotObliviouslyComputable { witness, .. } = verdict else {
            unreachable!()
        };
        assert!(witness.is_some());
    }

    #[test]
    fn equation2_counterexample_is_not_obliviously_computable() {
        let verdict = characterize(&sl::equation2_counterexample(), 8).unwrap();
        assert!(verdict.is_impossible(), "{verdict:?}");
    }

    #[test]
    fn decreasing_function_rejected_by_monotonicity() {
        let verdict = characterize(&sl::truncated_subtraction_from(3), 8).unwrap();
        let Characterization::NotObliviouslyComputable { reason, witness } = verdict else {
            panic!("decreasing function must be rejected");
        };
        assert!(reason.contains("nondecreasing"));
        assert!(witness.is_none());
    }

    #[test]
    fn one_dimensional_examples() {
        for (name, f, oracle) in [
            (
                "floor_three_halves",
                sl::floor_three_halves(),
                Box::new(|x: u64| 3 * x / 2) as Box<dyn Fn(u64) -> u64>,
            ),
            ("min_one", sl::min_one(), Box::new(|x: u64| x.min(1))),
            (
                "staircase",
                sl::staircase_1d(),
                Box::new(|x: u64| if x < 3 { 0 } else { 2 * x + x % 2 }),
            ),
        ] {
            let verdict = characterize(&f, 10).unwrap();
            let Characterization::ObliviouslyComputable { spec } = verdict else {
                panic!("{name} must be obliviously computable");
            };
            for x in 0..12u64 {
                assert_eq!(
                    spec.eval(&NVec::from(vec![x])).unwrap(),
                    oracle(x),
                    "{name}({x})"
                );
            }
        }
    }

    #[test]
    fn add2_is_obliviously_computable() {
        let verdict = characterize(&sl::add2(), 6).unwrap();
        assert!(verdict.is_computable(), "{verdict:?}");
    }

    #[test]
    fn a_lemma41_witness_is_confirmed_only_by_values_f_has() {
        // Figure 6: a_i = (i, 0), Δ = (0, 1).  max gains j on Δ_ij at a_0
        // and nothing at a_j; min gains nothing anywhere along the sequence.
        let figure6 = Lemma41Witness {
            base: NVec::from(vec![0, 0]),
            step: NVec::from(vec![1, 0]),
            delta: NVec::from(vec![0, 1]),
            verified_elements: 7,
        };
        assert_eq!(confirm_lemma41_witness(&sl::max2(), &figure6), Ok(()));
        let refuted = confirm_lemma41_witness(&sl::min2(), &figure6).unwrap_err();
        assert!(refuted.contains("does not exceed"), "{refuted}");
        // (2^63 - 1)·max(x1, x2) passes u64::MAX at a_3 + 3Δ = (3, 3), after
        // the pairs up to j = 2 hold: the point is named, and no witness is
        // confirmed.
        use crn_semilinear::{AffinePiece, SemilinearFunction, SemilinearSet, ThresholdSet};
        let side = |normal: Vec<i64>, offset| {
            SemilinearSet::threshold(ThresholdSet::new(crn_numeric::ZVec::from(normal), offset))
        };
        let big = SemilinearFunction::new(
            2,
            vec![
                (
                    side(vec![-1, 1], 0),
                    AffinePiece::integer(vec![0, i64::MAX], 0),
                ),
                (
                    side(vec![1, -1], 1),
                    AffinePiece::integer(vec![i64::MAX, 0], 0),
                ),
            ],
        )
        .unwrap();
        let unevaluable = confirm_lemma41_witness(&big, &figure6).unwrap_err();
        assert!(
            unevaluable.starts_with("f(3, 3) cannot be evaluated"),
            "{unevaluable}"
        );
    }

    #[test]
    fn structure_to_spec_round_trips() {
        let s = Structure1D {
            initial_values: vec![0, 0, 1],
            period: 2,
            deltas: vec![2, 1],
        };
        let spec = structure_to_spec(&s).unwrap();
        for x in 0..12u64 {
            assert_eq!(spec.eval(&NVec::from(vec![x])).unwrap(), s.eval(x));
        }
    }
}
