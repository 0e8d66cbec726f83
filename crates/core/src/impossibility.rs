//! Lemma 4.1 impossibility witnesses and the negative characterization
//! (Theorem 5.4).

use crn_model::{check_stable_computation, FunctionCrn};
use crn_numeric::NVec;

use crate::error::CoreError;

/// A finite witness of the Lemma 4.1 obstruction: points `a_i ≤ a_j` (with
/// `a_j = a_i + k·step` for every `k ≤ repeats`, so the pattern extends to the
/// increasing sequence required by the lemma) and a shift `Δ` with
///
/// ```text
/// f(a_i + Δ) − f(a_i)  >  f(a_j + Δ) − f(a_j).
/// ```
///
/// By Theorem 5.4, a semilinear nondecreasing `f` admitting such a sequence is
/// **not** obliviously-computable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Lemma41Witness {
    /// The base point `a_1` of the sequence.
    pub base: NVec,
    /// The step between consecutive sequence elements (`a_{k+1} = a_k + step`).
    pub step: NVec,
    /// The shift `Δ` whose marginal value decreases along the sequence.
    pub delta: NVec,
    /// How many consecutive sequence elements were verified.
    pub verified_elements: usize,
}

impl Lemma41Witness {
    /// The `k`-th element `a_k = base + k·step` of the witness sequence
    /// (0-indexed).
    #[must_use]
    pub fn element(&self, k: usize) -> NVec {
        let mut out = self.base.clone();
        for _ in 0..k {
            out = &out + &self.step;
        }
        out
    }
}

/// Searches for a Lemma 4.1 witness for `f` within the box `[0, bound]^d`.
///
/// The search looks for a base point `a`, a nonzero step `s` and a nonzero
/// unit shift `δ` such that, writing `a_k = a + k·s` and `Δ_{ij} = j·δ`
/// (exactly the pattern used for `max` in Figure 6, where `a_i = (i, 0)` and
/// `Δ_{ij} = (0, j)`), the Lemma 4.1 inequality
///
/// ```text
/// f(a_i + Δ_{ij}) − f(a_i) > f(a_j + Δ_{ij}) − f(a_j)
/// ```
///
/// holds for **every** pair `0 ≤ i < j ≤ repeats`.
///
/// Returns `None` if no witness exists within the bound (which does **not**
/// prove oblivious computability — that is what the positive characterization
/// in [`mod@crate::characterize`] is for).
#[must_use]
pub fn find_lemma41_witness(
    f: &dyn Fn(&NVec) -> u64,
    dim: usize,
    bound: u64,
    repeats: usize,
) -> Option<Lemma41Witness> {
    let scale = |v: &NVec, k: usize| -> NVec {
        let mut out = NVec::zeros(dim);
        for _ in 0..k {
            out = &out + v;
        }
        out
    };
    let small = || NVec::box_iter(dim, bound.min(3)).filter(|v| !v.is_zero());
    for base in NVec::box_iter(dim, bound) {
        for step in small() {
            'delta: for delta in small() {
                for j in 1..=repeats {
                    let a_j = &base + &scale(&step, j);
                    let shift = scale(&delta, j);
                    let rhs = i128::from(f(&(&a_j + &shift))) - i128::from(f(&a_j));
                    for i in 0..j {
                        let a_i = &base + &scale(&step, i);
                        let lhs = i128::from(f(&(&a_i + &shift))) - i128::from(f(&a_i));
                        if lhs <= rhs {
                            continue 'delta;
                        }
                    }
                }
                return Some(Lemma41Witness {
                    base,
                    step,
                    delta,
                    verified_elements: repeats + 1,
                });
            }
        }
    }
    None
}

/// Replays the Figure 6 overproduction argument executably: strips the
/// output-consuming reactions from a non-output-oblivious CRN (as in
/// Lemma 2.3) and reports the maximum output reachable on `x`, which for the
/// `max` CRN exceeds `max(x1, x2)` — demonstrating *why* the consumption of
/// output is unavoidable.  The maximum is the `max_output_reachable` field
/// of the stripped CRN's full verdict, which does not depend on the
/// expected value the verdict is checked against.
///
/// # Errors
///
/// Propagates reachability errors: the exploration stops with
/// `SearchLimitExceeded` past `max_configurations`.
pub fn overproduction_after_stripping(
    crn: &FunctionCrn,
    x: &NVec,
    max_configurations: usize,
) -> Result<u64, CoreError> {
    let output = crn.output();
    let mut stripped = crn_model::Crn::new();
    for (_, name) in crn.crn().species().iter_named() {
        stripped.add_species(name);
    }
    for reaction in crn.crn().reactions() {
        if reaction.consumes(output) {
            continue;
        }
        stripped.add_reaction(reaction.clone());
    }
    let roles = crn.roles().clone();
    let stripped_crn = FunctionCrn::new(stripped, roles)?;
    Ok(check_stable_computation(&stripped_crn, x, 0, max_configurations)?.max_output_reachable)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crn_model::{examples, CrnError};
    use crn_semilinear::examples as sl;

    #[test]
    fn max_has_a_lemma41_witness() {
        // Figure 6: a_i = (i, 0), Δ_ij = (0, j).
        let f = |x: &NVec| x[0].max(x[1]);
        let witness = find_lemma41_witness(&f, 2, 4, 6).expect("max must have a witness");
        // Verify the defining inequality on the first two elements.
        let a1 = witness.element(0);
        let a2 = witness.element(1);
        assert!(a1.le(&a2) && a1 != a2);
        let gain = |a: &NVec| f(&(a + &witness.delta)) as i128 - f(a) as i128;
        assert!(gain(&a1) > gain(&a2));
    }

    #[test]
    fn equation2_counterexample_has_a_witness() {
        let sem = sl::equation2_counterexample();
        let f = |x: &NVec| sem.eval(x).unwrap();
        assert!(find_lemma41_witness(&f, 2, 4, 6).is_some());
    }

    #[test]
    fn obliviously_computable_examples_have_no_witness() {
        for (name, sem) in [
            ("min2", sl::min2()),
            ("figure7", sl::figure7_example()),
            ("add2", sl::add2()),
        ] {
            let f = |x: &NVec| sem.eval(x).unwrap();
            assert!(
                find_lemma41_witness(&f, 2, 4, 6).is_none(),
                "{name} must not have a Lemma 4.1 witness"
            );
        }
    }

    #[test]
    fn one_dimensional_nondecreasing_functions_have_no_witness() {
        let sem = sl::floor_three_halves();
        let f = |x: &NVec| sem.eval(x).unwrap();
        assert!(find_lemma41_witness(&f, 1, 8, 6).is_none());
    }

    #[test]
    fn stripping_the_max_crn_overproduces() {
        // Removing K + Y -> ∅ from the Figure 1 max CRN lets the output reach
        // x1 + x2 and stay there: the CRN cannot be made output-oblivious.
        let max = examples::max_crn();
        let peak = overproduction_after_stripping(&max, &NVec::from(vec![2, 3]), 100_000).unwrap();
        assert_eq!(peak, 5);
        assert!(peak > 3);
        for x in NVec::box_iter(2, 4) {
            let peak = overproduction_after_stripping(&max, &x, 100_000).unwrap();
            assert_eq!(peak, x[0] + x[1], "at {x}");
        }
        // The replay explores under the caller's limit and reports it.
        assert_eq!(
            overproduction_after_stripping(&max, &NVec::from(vec![4, 4]), 5),
            Err(CoreError::Model(CrnError::SearchLimitExceeded {
                limit: "5 reachable configurations".into()
            }))
        );
    }

    #[test]
    fn stripping_an_oblivious_crn_changes_nothing() {
        let min = examples::min_crn();
        let peak = overproduction_after_stripping(&min, &NVec::from(vec![2, 3]), 100_000).unwrap();
        assert_eq!(peak, 2);
        for x in NVec::box_iter(2, 4) {
            let peak = overproduction_after_stripping(&min, &x, 100_000).unwrap();
            assert_eq!(peak, x[0].min(x[1]), "at {x}");
        }
    }
}
