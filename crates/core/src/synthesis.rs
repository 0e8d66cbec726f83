//! CRN synthesis: Lemma 6.1 (quilt-affine functions) and Lemma 6.2 (the
//! general construction for any function satisfying Theorem 5.2).

use crn_model::compose::compose_feed_forward;
use crn_model::{examples, Crn, FunctionCrn, Reaction, Roles};
use crn_numeric::{CongruenceClass, NVec};

use crate::error::CoreError;
use crate::quilt::QuiltAffine;
use crate::spec::ObliviousSpec;

/// Lemma 6.1: an output-oblivious CRN (with one leader) stably computing a
/// nonnegative quilt-affine function `g : N^d → N`.
///
/// The construction keeps one "leader state" species `L_a` per congruence
/// class `a ∈ Z^d/pZ^d`; the leader absorbs inputs one at a time and emits
/// the periodic finite differences:
///
/// ```text
/// L → g(0)·Y + L_0
/// L_a + X_i → δ^i_a·Y + L_{a+e_i}     for every a and every i
/// ```
///
/// # Errors
///
/// Returns [`CoreError::NotNondecreasing`] or [`CoreError::NegativeQuiltValue`]
/// if `g` is not nondecreasing or takes a negative value (the construction
/// requires `g : N^d → N`), and [`CoreError::OutOfRange`] if `g(0)` or a
/// finite difference, the count of `Y` one reaction emits, is past
/// `i64::MAX`.
pub fn quilt_crn(g: &QuiltAffine) -> Result<FunctionCrn, CoreError> {
    if !g.is_nondecreasing() {
        return Err(CoreError::NotNondecreasing(format!(
            "gradient {} with the given offsets has a negative finite difference",
            g.gradient()
        )));
    }
    if !g.is_nonnegative() {
        return Err(CoreError::NegativeQuiltValue(format!(
            "g takes a negative value near the origin (gradient {})",
            g.gradient()
        )));
    }
    let d = g.dim();
    let p = g.period();
    let mut crn = Crn::new();
    let inputs: Vec<_> = (0..d)
        .map(|i| crn.add_species(&format!("X{}", i + 1)))
        .collect();
    let y = crn.add_species("Y");
    let leader = crn.add_species("L");
    let classes = CongruenceClass::enumerate_all(d, p);
    let state_species: Vec<_> = classes
        .iter()
        .map(|class| {
            let label: Vec<String> = class.residues().iter().map(u64::to_string).collect();
            crn.add_species(&format!("L_{}", label.join("_")))
        })
        .collect();
    // The leader states sit in the order of the classes, which is the
    // order of `g`'s pieces: the zero class first.
    let zero = NVec::zeros(d);
    let g0 = emitted(format_args!("g({zero})"), g.eval(&zero)?)?;
    crn.add_reaction(Reaction::new(
        vec![(leader, 1)],
        vec![(y, g0), (state_species[0], 1)],
    ));
    for (ci, class) in classes.iter().enumerate() {
        for (i, &xi) in inputs.iter().enumerate() {
            let delta = emitted(
                format_args!("δ^{i} on {class}"),
                g.finite_difference(i, class)?,
            )?;
            let next = g.class_index(class.add_basis(i).residues());
            crn.add_reaction(Reaction::new(
                vec![(state_species[ci], 1), (xi, 1)],
                vec![(y, delta), (state_species[next], 1)],
            ));
        }
    }
    FunctionCrn::new(
        crn,
        Roles {
            inputs,
            output: y,
            leader: Some(leader),
        },
    )
    .map_err(CoreError::from)
}

/// A count of `Y` that one Lemma 6.1 reaction emits, `g(0)` or a finite
/// difference: nonnegative once `g` is checked, and at most `i64::MAX`.
fn emitted(what: std::fmt::Arguments<'_>, count: i128) -> Result<u64, CoreError> {
    debug_assert!(count >= 0, "g is checked nonnegative and nondecreasing");
    i64::try_from(count)
        .map(i64::unsigned_abs)
        .map_err(|_| CoreError::OutOfRange(format!("{what} = {count} is past i64::MAX")))
}

/// A `d`-input CRN whose output equals input `i` and ignores the others
/// (the "projection" module used to route a raw input into the indicator
/// combiner of Lemma 6.2).
#[must_use]
pub fn projection_crn(d: usize, i: usize) -> FunctionCrn {
    assert!(i < d, "projection index out of range");
    let mut crn = Crn::new();
    let inputs: Vec<_> = (0..d)
        .map(|k| crn.add_species(&format!("X{}", k + 1)))
        .collect();
    let y = crn.add_species("Y");
    crn.add_reaction(Reaction::new(vec![(inputs[i], 1)], vec![(y, 1)]));
    FunctionCrn::new(
        crn,
        Roles {
            inputs,
            output: y,
            leader: None,
        },
    )
    .expect("valid roles")
}

/// The single-input CRN computing `(x − n)+ = max(x − n, 0)` via the reaction
/// `(n+1)·X → n·X + Y` (from the proof of Lemma 6.2); for `n = 0` this is the
/// identity.
#[must_use]
pub fn clamp_below_crn(n: u64) -> FunctionCrn {
    let mut crn = Crn::new();
    let x = crn.add_species("X");
    let y = crn.add_species("Y");
    crn.add_reaction(Reaction::new(vec![(x, n + 1)], vec![(x, n), (y, 1)]));
    FunctionCrn::new(
        crn,
        Roles {
            inputs: vec![x],
            output: y,
            leader: None,
        },
    )
    .expect("valid roles")
}

/// The three-input combiner `c(a, b, v) = a + 1{v > j}·b` from the proof of
/// Lemma 6.2, with reactions `A → Y` and `(j+1)·V + B → (j+1)·V + Y`.
#[must_use]
pub fn indicator_combiner_crn(j: u64) -> FunctionCrn {
    let mut crn = Crn::new();
    let a = crn.add_species("A");
    let b = crn.add_species("B");
    let v = crn.add_species("V");
    let y = crn.add_species("Y");
    crn.add_reaction(Reaction::new(vec![(a, 1)], vec![(y, 1)]));
    crn.add_reaction(Reaction::new(
        vec![(v, j + 1), (b, 1)],
        vec![(v, j + 1), (y, 1)],
    ));
    FunctionCrn::new(
        crn,
        Roles {
            inputs: vec![a, b, v],
            output: y,
            leader: None,
        },
    )
    .expect("valid roles")
}

/// Pads a `d`-input CRN into a `(d+1)`-input CRN that ignores the new input at
/// position `position` (needed to wire a fixed-input restriction, which has
/// arity `d − 1`, against the full `d`-ary input of Lemma 6.2's equation (1)).
#[must_use]
pub fn pad_input(crn: &FunctionCrn, position: usize) -> FunctionCrn {
    assert!(position <= crn.dim(), "pad position out of range");
    let mut base = crn.crn().clone();
    let ignored = base.add_species("X_ignored");
    let mut inputs = crn.roles().inputs.clone();
    inputs.insert(position, ignored);
    FunctionCrn::new(
        base,
        Roles {
            inputs,
            output: crn.output(),
            leader: crn.leader(),
        },
    )
    .expect("padding preserves valid roles")
}

/// The module computing `min_k g_k(x ∨ n)` for `x ∈ N^d` — the "main term" of
/// equation (1) in the proof of Lemma 6.2.
///
/// Built compositionally, exactly as in the paper: per-component clamp CRNs
/// compute `(x_i − n_i)+`, each translated piece `g_k(x + n)` is a nonnegative
/// quilt-affine function compiled by Lemma 6.1, and a `k`-ary min combines the
/// pieces.
///
/// # Errors
///
/// Propagates quilt-CRN construction errors (e.g. a piece that is negative
/// even after translation by `n`, which Theorem 5.2 rules out for valid specs).
pub fn eventual_min_crn(
    pieces: &[QuiltAffine],
    threshold: &NVec,
) -> Result<FunctionCrn, CoreError> {
    let d = threshold.dim();
    let mut piece_modules = Vec::with_capacity(pieces.len());
    for g in pieces {
        let translated = g.translate(threshold)?;
        let quilt = quilt_crn(&translated)?;
        let module = if d == 0 {
            quilt
        } else {
            // (x_i − n_i)+ feeding g(· + n).
            let clamps: Vec<FunctionCrn> = (0..d).map(|i| clamp_below_crn(threshold[i])).collect();
            compose_feed_forward(&clamps, &quilt, false)?
        };
        piece_modules.push(module);
    }
    if piece_modules.len() == 1 {
        return Ok(piece_modules.into_iter().next().expect("one piece"));
    }
    let min = examples::min_k_crn(piece_modules.len());
    compose_feed_forward(&piece_modules, &min, true).map_err(CoreError::from)
}

/// Lemma 6.2: compiles any specification satisfying Theorem 5.2 into an
/// output-oblivious CRN with a single leader, by composing output-oblivious
/// modules according to equation (1):
///
/// ```text
/// f(x) = min[ f(x ∨ n),  f[x(i)→j](x) + 1{x(i)>j}(x)·f(x ∨ n) ]   (i < d, j < n(i))
/// ```
///
/// # Errors
///
/// Propagates construction errors from the constituent modules.
pub fn synthesize(spec: &ObliviousSpec) -> Result<FunctionCrn, CoreError> {
    match spec {
        ObliviousSpec::Constant(c) => Ok(examples::constant_crn(*c)),
        ObliviousSpec::Compound {
            eventual,
            restrictions,
        } => {
            let d = eventual.dim();
            let n = eventual.threshold();
            let main = eventual_min_crn(eventual.pieces(), n)?;
            // Collect the terms of the outer min, all as d-ary modules on the
            // shared global input.
            let mut terms: Vec<FunctionCrn> = vec![main.clone()];
            for i in 0..d {
                for j in 0..n[i] {
                    let restriction = restrictions.get(&(i, j)).ok_or_else(|| {
                        CoreError::InvalidSpec(format!(
                            "missing restriction for input {i} fixed to {j}"
                        ))
                    })?;
                    let restricted_crn = synthesize(restriction)?;
                    let padded = pad_input(&restricted_crn, i);
                    let term = compose_feed_forward(
                        &[padded, main.clone(), projection_crn(d, i)],
                        &indicator_combiner_crn(j),
                        true,
                    )?;
                    terms.push(term);
                }
            }
            if terms.len() == 1 {
                return Ok(terms.into_iter().next().expect("one term"));
            }
            let min = examples::min_k_crn(terms.len());
            compose_feed_forward(&terms, &min, true).map_err(CoreError::from)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crn_model::check_stable_computation;
    use crn_numeric::{QVec, Rational};
    use crn_sim::runner::spot_check_on_box;
    use std::collections::BTreeMap;

    #[test]
    fn quilt_crn_for_floor_three_halves() {
        let g = QuiltAffine::floor_linear(&QVec::from(vec![Rational::new(3, 2)]), 2);
        let crn = quilt_crn(&g).unwrap();
        assert!(crn.is_output_oblivious());
        assert!(crn.has_leader());
        // Species: X, Y, L plus p^d = 2 leader states.
        assert_eq!(crn.species_count(), 5);
        assert_eq!(crn.reaction_count(), 3);
        for x in 0..10u64 {
            let v =
                check_stable_computation(&crn, &NVec::from(vec![x]), 3 * x / 2, 100_000).unwrap();
            assert!(v.is_correct(), "⌊3·{x}/2⌋ failed");
        }
    }

    #[test]
    fn quilt_crn_for_two_dimensional_function() {
        // g(x) = x1 + 2 x2 + 1 (affine, period 1).
        let g = QuiltAffine::affine(&QVec::from(vec![1, 2]), Rational::ONE).unwrap();
        let crn = quilt_crn(&g).unwrap();
        for x1 in 0..4u64 {
            for x2 in 0..4u64 {
                let expected = x1 + 2 * x2 + 1;
                let v =
                    check_stable_computation(&crn, &NVec::from(vec![x1, x2]), expected, 100_000)
                        .unwrap();
                assert!(v.is_correct(), "failed at ({x1},{x2})");
            }
        }
    }

    #[test]
    fn quilt_crn_for_floor_half_sum() {
        // g(x1, x2) = floor((x1 + x2)/2): period 2, gradient (1/2, 1/2).
        let g = QuiltAffine::floor_linear(
            &QVec::from(vec![Rational::new(1, 2), Rational::new(1, 2)]),
            2,
        );
        let crn = quilt_crn(&g).unwrap();
        assert_eq!(crn.species_count(), 3 + 1 + 4); // X1, X2, Y, L, 4 states
        for x1 in 0..4u64 {
            for x2 in 0..4u64 {
                let v = check_stable_computation(
                    &crn,
                    &NVec::from(vec![x1, x2]),
                    (x1 + x2) / 2,
                    100_000,
                )
                .unwrap();
                assert!(v.is_correct(), "⌊({x1}+{x2})/2⌋ failed");
            }
        }
    }

    #[test]
    fn quilt_crn_rejects_negative_functions() {
        let g = QuiltAffine::affine(&QVec::from(vec![1]), Rational::from(-2)).unwrap();
        assert!(matches!(
            quilt_crn(&g),
            Err(CoreError::NegativeQuiltValue(_))
        ));
    }

    #[test]
    fn clamp_and_projection_primitives() {
        let clamp = clamp_below_crn(2);
        for x in 0..7u64 {
            let v =
                check_stable_computation(&clamp, &NVec::from(vec![x]), x.saturating_sub(2), 10_000)
                    .unwrap();
            assert!(v.is_correct());
        }
        let proj = projection_crn(3, 1);
        let v = check_stable_computation(&proj, &NVec::from(vec![5, 3, 9]), 3, 10_000).unwrap();
        assert!(v.is_correct());
    }

    #[test]
    fn indicator_combiner_computes_conditional_sum() {
        // c(a, b, v) = a + 1{v > 1} b.
        let c = indicator_combiner_crn(1);
        assert!(c.is_output_oblivious());
        for a in 0..3u64 {
            for b in 0..3u64 {
                for v in 0..4u64 {
                    let expected = a + if v > 1 { b } else { 0 };
                    let verdict =
                        check_stable_computation(&c, &NVec::from(vec![a, b, v]), expected, 50_000)
                            .unwrap();
                    assert!(verdict.is_correct(), "c({a},{b},{v}) failed");
                }
            }
        }
    }

    #[test]
    fn eventual_min_crn_computes_min_of_affine_pieces() {
        // min(x1 + 1, x2 + 1) with threshold 0.
        let g1 = QuiltAffine::affine(&QVec::from(vec![1, 0]), Rational::ONE).unwrap();
        let g2 = QuiltAffine::affine(&QVec::from(vec![0, 1]), Rational::ONE).unwrap();
        let crn = eventual_min_crn(&[g1, g2], &NVec::zeros(2)).unwrap();
        assert!(crn.is_output_oblivious());
        for x1 in 0..3u64 {
            for x2 in 0..3u64 {
                let expected = x1.min(x2) + 1;
                let v =
                    check_stable_computation(&crn, &NVec::from(vec![x1, x2]), expected, 500_000)
                        .unwrap();
                assert!(v.is_correct(), "min(x1,x2)+1 failed at ({x1},{x2})");
            }
        }
    }

    #[test]
    fn synthesize_min_one_spec() {
        // The Figure 2 function min(1, x) via the full Lemma 6.2 pipeline.
        let eventual =
            crate::spec::EventuallyMin::new(NVec::from(vec![1]), vec![QuiltAffine::constant(1, 1)])
                .unwrap();
        let mut restrictions = BTreeMap::new();
        restrictions.insert((0usize, 0u64), ObliviousSpec::Constant(0));
        let spec = ObliviousSpec::compound(eventual, restrictions).unwrap();
        let crn = synthesize(&spec).unwrap();
        assert!(crn.is_output_oblivious());
        assert!(crn.has_leader());
        for x in 0..5u64 {
            let v =
                check_stable_computation(&crn, &NVec::from(vec![x]), x.min(1), 500_000).unwrap();
            assert!(v.is_correct(), "min(1,{x}) failed");
        }
    }

    #[test]
    fn synthesize_two_dimensional_min_spec() {
        // f(x1, x2) = min(x1, x2): eventual-min of the two coordinate
        // projections with threshold 0 (no finite region).
        let g1 = QuiltAffine::affine(&QVec::from(vec![1, 0]), Rational::ZERO).unwrap();
        let g2 = QuiltAffine::affine(&QVec::from(vec![0, 1]), Rational::ZERO).unwrap();
        let spec = ObliviousSpec::compound(
            crate::spec::EventuallyMin::new(NVec::zeros(2), vec![g1, g2]).unwrap(),
            BTreeMap::new(),
        )
        .unwrap();
        let crn = synthesize(&spec).unwrap();
        assert!(crn.is_output_oblivious());
        // Exhaustive verification on a small box; larger inputs by stochastic
        // spot checks (the composed CRN's reachable space grows quickly).
        for x1 in 0..3u64 {
            for x2 in 0..3u64 {
                let v =
                    check_stable_computation(&crn, &NVec::from(vec![x1, x2]), x1.min(x2), 500_000)
                        .unwrap();
                assert!(v.is_correct(), "min failed at ({x1},{x2})");
            }
        }
        let spot = spot_check_on_box(&crn, |x| x[0].min(x[1]), 5, 1_000_000, 9).unwrap();
        assert_eq!((spot.wrong, spot.cut), (None, 0));
    }

    #[test]
    fn synthesize_spec_with_finite_region_and_quilt_pieces() {
        // f(x) = 0 for x < 2, floor(3x/2) - 2 for x >= 2  (1-D, threshold 2,
        // genuine quilt piece with period 2, nontrivial finite region).
        let piece = {
            // floor(3x/2) - 2 as a quilt-affine function: gradient 3/2,
            // offsets B(0) = -2, B(1) = -5/2.
            let mut offsets = std::collections::BTreeMap::new();
            offsets.insert(vec![0u64], Rational::from(-2));
            offsets.insert(vec![1u64], Rational::new(-5, 2));
            QuiltAffine::new(&QVec::from(vec![Rational::new(3, 2)]), 2, &offsets).unwrap()
        };
        let expected = |x: u64| if x < 2 { 0 } else { 3 * x / 2 - 2 };
        let eventual = crate::spec::EventuallyMin::new(NVec::from(vec![2]), vec![piece]).unwrap();
        let mut restrictions = BTreeMap::new();
        restrictions.insert((0usize, 0u64), ObliviousSpec::Constant(0));
        restrictions.insert((0usize, 1u64), ObliviousSpec::Constant(0));
        let spec = ObliviousSpec::compound(eventual, restrictions).unwrap();
        // The spec itself evaluates correctly.
        for x in 0..8u64 {
            assert_eq!(spec.eval(&NVec::from(vec![x])).unwrap(), expected(x));
        }
        let crn = synthesize(&spec).unwrap();
        assert!(crn.is_output_oblivious());
        // Exhaustive verification on small inputs; the composed CRN's
        // reachable space grows too fast for exhaustive search beyond that,
        // so larger inputs are covered by stochastic spot checks.
        for x in 0..3u64 {
            let v =
                check_stable_computation(&crn, &NVec::from(vec![x]), expected(x), 500_000).unwrap();
            assert!(v.is_correct(), "finite-region spec failed at {x}");
        }
        let spot = spot_check_on_box(&crn, |x| expected(x[0]), 6, 1_000_000, 17).unwrap();
        assert_eq!((spot.wrong, spot.cut), (None, 0));
    }

    #[test]
    fn pad_input_ignores_new_coordinate() {
        let double = examples::multiply_crn(2);
        let padded = pad_input(&double, 0);
        assert_eq!(padded.dim(), 2);
        let v = check_stable_computation(&padded, &NVec::from(vec![9, 3]), 6, 50_000).unwrap();
        assert!(v.is_correct());
    }
}
