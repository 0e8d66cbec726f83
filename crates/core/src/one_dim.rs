//! The one-dimensional characterizations: Theorem 3.1 (with a leader) and
//! Theorem 9.2 (leaderless), with their explicit CRN constructions.

use crn_model::{Crn, FunctionCrn, Reaction, Roles};
use crn_numeric::NVec;
use crn_semilinear::SemilinearFunction;

use crate::error::CoreError;

/// The eventually quilt-affine structure of a semilinear nondecreasing
/// function `f : N → N` (Figure 5): initial values `f(0), …, f(n)` and, for
/// `x ≥ n`, periodic finite differences `δ̄_0, …, δ̄_{p−1}` with
/// `f(x+1) − f(x) = δ̄_{x mod p}`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Structure1D {
    /// The values `f(0), …, f(n)` (length `n + 1`).
    pub initial_values: Vec<u64>,
    /// The eventual period `p ≥ 1`.
    pub period: u64,
    /// The periodic finite differences `δ̄_a = f(x+1) − f(x)` for `x ≥ n` with
    /// `x ≡ a (mod p)`.
    pub deltas: Vec<u64>,
}

impl Structure1D {
    /// The threshold `n` (the number of initial values minus one).
    #[must_use]
    pub fn threshold(&self) -> u64 {
        (self.initial_values.len() - 1) as u64
    }

    /// Evaluates the function described by this structure.
    #[must_use]
    pub fn eval(&self, x: u64) -> u64 {
        let n = self.threshold();
        if x <= n {
            return self.initial_values[x as usize];
        }
        let mut value = self.initial_values[n as usize];
        for step in n..x {
            value += self.deltas[(step % self.period) as usize];
        }
        value
    }
}

/// Extracts the eventually quilt-affine structure of a nondecreasing function
/// `f : N → N` given as an oracle, searching thresholds up to `max_threshold`
/// and periods up to `max_period`, and verifying the found structure on a
/// window of length `verify_window` beyond the threshold.
///
/// For a semilinear nondecreasing `f` such a structure exists (proof of
/// Theorem 3.1); the search is exact whenever the true `(n, p)` lie within
/// the bounds.
///
/// # Errors
///
/// Returns [`CoreError::AnalysisInconclusive`] if no `(n, p)` within the
/// bounds matches, and [`CoreError::NotNondecreasing`] if a decreasing step is
/// found in the examined window.
pub fn analyze_1d(
    f: impl Fn(u64) -> u64,
    max_threshold: u64,
    max_period: u64,
    verify_window: u64,
) -> Result<Structure1D, CoreError> {
    let horizon = horizon(max_threshold, max_period, verify_window);
    let values: Vec<u64> = (0..=horizon).map(&f).collect();
    if let Some(x) = (0..horizon as usize).find(|&x| values[x + 1] < values[x]) {
        return Err(CoreError::NotNondecreasing(format!(
            "f({}) = {} > f({}) = {}",
            x,
            values[x],
            x + 1,
            values[x + 1]
        )));
    }
    for n in 0..=max_threshold {
        'period: for p in 1..=max_period {
            // Candidate deltas from the window [n, n + p).
            let deltas: Vec<u64> = (0..p)
                .map(|a| {
                    let x = n + a;
                    values[(x + 1) as usize] - values[x as usize]
                })
                .collect();
            // Verify on the remaining window.
            for x in n..(n + p * 2 + verify_window) {
                let expected = deltas[((x - n) % p) as usize];
                if values[(x + 1) as usize] - values[x as usize] != expected {
                    continue 'period;
                }
            }
            // Reindex deltas so that deltas[a] applies to x ≡ a (mod p).
            let mut by_class = vec![0u64; p as usize];
            for a in 0..p {
                let x = n + a;
                by_class[(x % p) as usize] = deltas[a as usize];
            }
            return Ok(Structure1D {
                initial_values: values[..=(n as usize)].to_vec(),
                period: p,
                deltas: by_class,
            });
        }
    }
    Err(CoreError::AnalysisInconclusive(format!(
        "no eventually periodic structure with n ≤ {max_threshold}, p ≤ {max_period}"
    )))
}

/// The last point [`analyze_1d`] evaluates.
fn horizon(max_threshold: u64, max_period: u64, verify_window: u64) -> u64 {
    max_threshold + max_period * 2 + verify_window + 2
}

/// Convenience wrapper of [`analyze_1d`] for a semilinear presentation.
///
/// # Errors
///
/// Propagates [`analyze_1d`] errors.  The presentation is evaluated on the
/// whole horizon first, so the first point it cannot be evaluated at
/// surfaces as [`CoreError::AnalysisInconclusive`] naming that point, never
/// as a value.
pub fn analyze_semilinear_1d(
    f: &SemilinearFunction,
    max_threshold: u64,
    max_period: u64,
) -> Result<Structure1D, CoreError> {
    if f.dim() != 1 {
        return Err(CoreError::InvalidSpec(format!(
            "expected a 1-D function, got dimension {}",
            f.dim()
        )));
    }
    let verify_window = 2 * max_period + 4;
    let values = (0..=horizon(max_threshold, max_period, verify_window))
        .map(|x| {
            f.eval(&NVec::from(vec![x])).map_err(|e| {
                CoreError::AnalysisInconclusive(format!("f({x}) cannot be evaluated: {e}"))
            })
        })
        .collect::<Result<Vec<u64>, CoreError>>()?;
    analyze_1d(
        |x| values[x as usize],
        max_threshold,
        max_period,
        verify_window,
    )
}

/// The Theorem 3.1 construction: an output-oblivious CRN with a single leader
/// stably computing the function described by `structure`.
///
/// Reactions (writing `n` for the threshold and `p` for the period):
///
/// ```text
/// L → f(0)·Y + L_0
/// L_i + X → [f(i+1) − f(i)]·Y + L_{i+1}        for i = 0, …, n−2
/// L_{n−1} + X → [f(n) − f(n−1)]·Y + P_{n mod p}
/// P_a + X → δ̄_a·Y + P_{(a+1) mod p}            for a = 0, …, p−1
/// ```
#[must_use]
pub fn synthesize_1d_leader(structure: &Structure1D) -> FunctionCrn {
    let n = structure.threshold();
    let p = structure.period;
    let mut crn = Crn::new();
    let x = crn.add_species("X");
    let y = crn.add_species("Y");
    let leader = crn.add_species("L");
    let l_states: Vec<_> = (0..n).map(|i| crn.add_species(&format!("L{i}"))).collect();
    let p_states: Vec<_> = (0..p).map(|a| crn.add_species(&format!("P{a}"))).collect();

    let f0 = structure.initial_values[0];
    let first_state = if n == 0 { p_states[0] } else { l_states[0] };
    crn.add_reaction(Reaction::new(
        vec![(leader, 1)],
        vec![(y, f0), (first_state, 1)],
    ));
    for i in 0..n {
        let diff =
            structure.initial_values[(i + 1) as usize] - structure.initial_values[i as usize];
        let next = if i + 1 == n {
            p_states[((i + 1) % p) as usize]
        } else {
            l_states[(i + 1) as usize]
        };
        crn.add_reaction(Reaction::new(
            vec![(l_states[i as usize], 1), (x, 1)],
            vec![(y, diff), (next, 1)],
        ));
    }
    for a in 0..p {
        crn.add_reaction(Reaction::new(
            vec![(p_states[a as usize], 1), (x, 1)],
            vec![
                (y, structure.deltas[a as usize]),
                (p_states[((a + 1) % p) as usize], 1),
            ],
        ));
    }
    FunctionCrn::new(
        crn,
        Roles {
            inputs: vec![x],
            output: y,
            leader: Some(leader),
        },
    )
    .expect("roles are valid by construction")
}

/// The Theorem 9.2 construction: a **leaderless** output-oblivious CRN stably
/// computing a semilinear *superadditive* function `f : N → N`.
///
/// Every input molecule starts its own auxiliary leader via
/// `X → f(1)·Y + L_1`; pairwise "merge" reactions between auxiliary leaders
/// release the corrective differences `D_{i,j} = f(i+j) − f(i) − f(j) ≥ 0`
/// guaranteed nonnegative by superadditivity.
///
/// # Errors
///
/// Returns [`CoreError::InvalidSpec`] if `f(0) ≠ 0` or a corrective difference
/// is negative (i.e. the function is not superadditive), in which case no
/// leaderless output-oblivious CRN exists (Observation 9.1).
pub fn synthesize_1d_leaderless(
    structure: &Structure1D,
    f: impl Fn(u64) -> u64,
) -> Result<FunctionCrn, CoreError> {
    if structure.initial_values[0] != 0 {
        return Err(CoreError::InvalidSpec(
            "a superadditive function must have f(0) = 0".into(),
        ));
    }
    let n = structure.threshold().max(1);
    let p = structure.period;
    // Corrective difference helper; errors if superadditivity fails.
    let correction = |a: u64, b: u64| -> Result<u64, CoreError> {
        let (fa, fb, fab) = (f(a), f(b), f(a + b));
        if fa + fb > fab {
            return Err(CoreError::InvalidSpec(format!(
                "not superadditive: f({a}) + f({b}) = {} > f({}) = {fab}",
                fa + fb,
                a + b
            )));
        }
        Ok(fab - fa - fb)
    };

    let mut crn = Crn::new();
    let x = crn.add_species("X");
    let y = crn.add_species("Y");
    let l_states: Vec<_> = (1..n).map(|i| crn.add_species(&format!("L{i}"))).collect();
    let p_states: Vec<_> = (0..p).map(|a| crn.add_species(&format!("P{a}"))).collect();
    // Species for the "amount of input consumed" tracked by an auxiliary
    // leader: L_i for 1 <= i < n, P_a for inputs >= n with count ≡ n + a mod p.
    let state_for = |count: u64| -> crn_model::Species {
        if count < n {
            l_states[(count - 1) as usize]
        } else {
            p_states[((count - n) % p) as usize]
        }
    };

    // X → f(1) Y + state(1)
    crn.add_reaction(Reaction::new(
        vec![(x, 1)],
        vec![(y, f(1)), (state_for(1), 1)],
    ));
    // state(i) + X → δ Y + state(i+1): absorb further input one at a time.
    // For i < n the delta is f(i+1) − f(i); for i ≥ n it is δ̄_{(i−n) mod p}
    // ... which is exactly structure.eval(i+1) − structure.eval(i).
    for i in 1..(n + p) {
        let delta = structure.eval(i + 1) - structure.eval(i);
        crn.add_reaction(Reaction::new(
            vec![(state_for(i), 1), (x, 1)],
            vec![(y, delta), (state_for(i + 1), 1)],
        ));
    }
    // Pairwise merges of auxiliary leaders with corrective output.
    // L_i + L_j (i, j < n): consumed inputs add.
    for i in 1..n {
        for j in i..n {
            crn.add_reaction(Reaction::new(
                vec![(state_for(i), 1), (state_for(j), 1)],
                vec![(y, correction(i, j)?), (state_for(i + j), 1)],
            ));
        }
    }
    // L_i + P_a: the P leader consumed n + a (+ kp) inputs; the correction is
    // independent of k because the periodic differences cancel.
    for i in 1..n {
        for a in 0..p {
            crn.add_reaction(Reaction::new(
                vec![(state_for(i), 1), (p_states[a as usize], 1)],
                vec![(y, correction(i, n + a)?), (state_for(i + n + a), 1)],
            ));
        }
    }
    // P_a + P_b.
    for a in 0..p {
        for b in a..p {
            crn.add_reaction(Reaction::new(
                vec![(p_states[a as usize], 1), (p_states[b as usize], 1)],
                vec![
                    (y, correction(n + a, n + b)?),
                    (state_for(2 * n + a + b), 1),
                ],
            ));
        }
    }
    FunctionCrn::new(
        crn,
        Roles {
            inputs: vec![x],
            output: y,
            leader: None,
        },
    )
    .map_err(CoreError::from)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crn_model::check_stable_computation;
    use crn_semilinear::examples;

    #[test]
    fn analyze_floor_three_halves() {
        let s = analyze_1d(|x| 3 * x / 2, 5, 4, 10).unwrap();
        assert_eq!(s.period, 2);
        assert_eq!(s.deltas.iter().sum::<u64>(), 3);
        for x in 0..20 {
            assert_eq!(s.eval(x), 3 * x / 2);
        }
    }

    #[test]
    fn analyze_staircase_finds_threshold_and_period() {
        let f = examples::staircase_1d();
        let s = analyze_semilinear_1d(&f, 8, 4).unwrap();
        for x in 0..25u64 {
            assert_eq!(s.eval(x), f.eval(&NVec::from(vec![x])).unwrap());
        }
    }

    #[test]
    fn analyze_rejects_decreasing() {
        let err = analyze_1d(|x| 10u64.saturating_sub(x), 3, 3, 5).unwrap_err();
        assert!(matches!(err, CoreError::NotNondecreasing(_)));
    }

    #[test]
    fn a_value_past_u64_is_inconclusive_at_its_point_never_zero() {
        // f(x) = 0 up to 2, then (2^63 - 1) x - (2^63 - 2): f(3) = u64::MAX
        // and f(4) does not fit.  Read as 0, f(4) made f look decreasing.
        use crn_semilinear::{AffinePiece, SemilinearSet, ThresholdSet};
        let below = SemilinearSet::threshold(ThresholdSet::component_at_most(1, 0, 2));
        let above = SemilinearSet::threshold(ThresholdSet::component_at_least(1, 0, 3));
        let big = SemilinearFunction::new(
            1,
            vec![
                (below, AffinePiece::constant(1, 0)),
                (above, AffinePiece::integer(vec![i64::MAX], 1 - i64::MAX)),
            ],
        )
        .unwrap();
        assert_eq!(big.eval(&NVec::from(vec![3])), Ok(u64::MAX));
        match analyze_semilinear_1d(&big, 8, 8) {
            Err(CoreError::AnalysisInconclusive(reason)) => {
                assert!(reason.starts_with("f(4) cannot be evaluated: "), "{reason}");
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn analyze_inconclusive_when_bounds_too_small() {
        // Period 5 cannot be found with max_period 2.
        let err = analyze_1d(|x| x + (x % 5) / 4, 2, 2, 5).unwrap_err();
        assert!(matches!(err, CoreError::AnalysisInconclusive(_)));
    }

    #[test]
    fn theorem31_construction_for_min_one() {
        let f = examples::min_one();
        let s = analyze_semilinear_1d(&f, 4, 2).unwrap();
        let crn = synthesize_1d_leader(&s);
        assert!(crn.is_output_oblivious());
        assert!(crn.has_leader());
        for x in 0..6u64 {
            let v = check_stable_computation(&crn, &NVec::from(vec![x]), x.min(1), 50_000).unwrap();
            assert!(v.is_correct(), "min(1,{x}) failed");
        }
    }

    #[test]
    fn theorem31_construction_for_floor_three_halves() {
        let s = analyze_1d(|x| 3 * x / 2, 3, 3, 8).unwrap();
        let crn = synthesize_1d_leader(&s);
        assert!(crn.is_output_oblivious());
        for x in 0..9u64 {
            let v =
                check_stable_computation(&crn, &NVec::from(vec![x]), 3 * x / 2, 100_000).unwrap();
            assert!(v.is_correct(), "⌊3·{x}/2⌋ failed");
        }
    }

    #[test]
    fn theorem31_construction_for_staircase() {
        let f = examples::staircase_1d();
        let s = analyze_semilinear_1d(&f, 8, 4).unwrap();
        let crn = synthesize_1d_leader(&s);
        assert!(crn.is_output_oblivious());
        for x in 0..10u64 {
            let expected = f.eval(&NVec::from(vec![x])).unwrap();
            let v =
                check_stable_computation(&crn, &NVec::from(vec![x]), expected, 200_000).unwrap();
            assert!(v.is_correct(), "staircase({x}) failed");
        }
    }

    #[test]
    fn theorem92_construction_for_doubling() {
        // f(x) = 2x is superadditive (it is additive); the leaderless CRN works.
        let s = analyze_1d(|x| 2 * x, 2, 2, 6).unwrap();
        let crn = synthesize_1d_leaderless(&s, |x| 2 * x).unwrap();
        assert!(crn.is_output_oblivious());
        assert!(!crn.has_leader());
        for x in 0..7u64 {
            let v = check_stable_computation(&crn, &NVec::from(vec![x]), 2 * x, 200_000).unwrap();
            assert!(v.is_correct(), "2·{x} failed");
        }
    }

    #[test]
    fn theorem92_construction_for_floor_half() {
        // f(x) = floor(x/2) is superadditive and genuinely periodic (p = 2).
        let f = |x: u64| x / 2;
        let s = analyze_1d(f, 2, 2, 8).unwrap();
        let crn = synthesize_1d_leaderless(&s, f).unwrap();
        assert!(crn.is_output_oblivious());
        for x in 0..9u64 {
            let v = check_stable_computation(&crn, &NVec::from(vec![x]), x / 2, 500_000).unwrap();
            assert!(v.is_correct(), "⌊{x}/2⌋ failed");
        }
    }

    #[test]
    fn theorem92_rejects_non_superadditive_min_one() {
        // min(1, x) is not superadditive, so the leaderless construction must
        // refuse (Observation 9.1 says no leaderless oblivious CRN exists).
        let f = examples::min_one();
        let s = analyze_semilinear_1d(&f, 4, 2).unwrap();
        let err =
            synthesize_1d_leaderless(&s, |x| f.eval(&NVec::from(vec![x])).unwrap()).unwrap_err();
        assert!(matches!(err, CoreError::InvalidSpec(_)));
    }

    #[test]
    fn theorem92_rejects_nonzero_at_origin() {
        let s = analyze_1d(|x| x + 1, 2, 1, 5).unwrap();
        assert!(synthesize_1d_leaderless(&s, |x| x + 1).is_err());
    }
}
