//! The naive fixpoint engine, compiled for tests only.
//!
//! This is the seed implementation of stable-computation checking, kept
//! verbatim in spirit: sparse `Configuration` keys in a `HashMap`, per-node
//! `Vec` successor lists with linear dedup scans, and iterate-until-stable
//! fixpoint loops for the three reachability queries.  The property tests
//! differentially check the SCC engine against it on random CRNs, so it
//! must produce verdicts *identical* to [`super::check_stable_computation`].

use std::collections::{HashMap, VecDeque};

use crn_numeric::NVec;

use crate::config::Configuration;
use crate::crn::Crn;
use crate::error::CrnError;
use crate::function::FunctionCrn;

use super::{ReachabilityLimits, StableComputationVerdict};

/// The seed reachability graph: sparse configurations, `Vec<Vec<_>>` edges.
struct NaiveGraph {
    configurations: Vec<Configuration>,
    successors: Vec<Vec<usize>>,
}

impl NaiveGraph {
    fn explore(
        crn: &Crn,
        start: &Configuration,
        limits: ReachabilityLimits,
    ) -> Result<Self, CrnError> {
        let mut index: HashMap<Configuration, usize> = HashMap::new();
        let mut configurations = Vec::new();
        let mut successors: Vec<Vec<usize>> = Vec::new();
        let mut queue = VecDeque::new();

        index.insert(start.clone(), 0);
        configurations.push(start.clone());
        successors.push(Vec::new());
        queue.push_back(0usize);

        while let Some(current) = queue.pop_front() {
            let config = configurations[current].clone();
            for reaction in crn.reactions() {
                if !config.can_apply(reaction) {
                    continue;
                }
                let next = config.apply(reaction);
                let next_index = match index.get(&next) {
                    Some(&i) => i,
                    None => {
                        if configurations.len() >= limits.max_configurations {
                            return Err(CrnError::SearchLimitExceeded {
                                limit: format!(
                                    "{} reachable configurations",
                                    limits.max_configurations
                                ),
                            });
                        }
                        let i = configurations.len();
                        index.insert(next.clone(), i);
                        configurations.push(next);
                        successors.push(Vec::new());
                        queue.push_back(i);
                        i
                    }
                };
                if !successors[current].contains(&next_index) {
                    successors[current].push(next_index);
                }
            }
        }
        Ok(NaiveGraph {
            configurations,
            successors,
        })
    }

    /// For every configuration, the `pick` (max or min) of `metric` over
    /// everything reachable from it.
    fn reachable_metric(
        &self,
        metric: impl Fn(&Configuration) -> u64,
        pick: fn(u64, u64) -> u64,
    ) -> Vec<u64> {
        let mut value: Vec<u64> = self.configurations.iter().map(&metric).collect();
        let mut changed = true;
        while changed {
            changed = false;
            for i in 0..self.configurations.len() {
                for &j in &self.successors[i] {
                    if pick(value[i], value[j]) != value[i] {
                        value[i] = value[j];
                        changed = true;
                    }
                }
            }
        }
        value
    }

    fn can_reach(&self, good: &[bool]) -> Vec<bool> {
        let mut ok = good.to_vec();
        let mut changed = true;
        while changed {
            changed = false;
            for i in 0..self.configurations.len() {
                if ok[i] {
                    continue;
                }
                if self.successors[i].iter().any(|&j| ok[j]) {
                    ok[i] = true;
                    changed = true;
                }
            }
        }
        ok
    }
}

/// Checks stable computation with the fixpoint reference engine.  Produces a
/// verdict identical to [`super::check_stable_computation`], only slower.
///
/// # Errors
///
/// Returns [`CrnError::DimensionMismatch`] for an input of the wrong arity and
/// [`CrnError::SearchLimitExceeded`] if the reachable space exceeds
/// `max_configurations`.
pub fn check_stable_computation_naive(
    crn: &FunctionCrn,
    x: &NVec,
    expected_output: u64,
    max_configurations: usize,
) -> Result<StableComputationVerdict, CrnError> {
    let start = crn.initial_configuration(x)?;
    let graph = NaiveGraph::explore(crn.crn(), &start, ReachabilityLimits { max_configurations })?;
    let output = crn.output();
    let out_of = |c: &Configuration| c.count(output);

    let max_out = graph.reachable_metric(out_of, u64::max);
    let min_out = graph.reachable_metric(out_of, u64::min);

    let len = graph.configurations.len();
    let stable: Vec<bool> = (0..len).map(|i| max_out[i] == min_out[i]).collect();
    let correct_stable: Vec<bool> = (0..len)
        .map(|i| stable[i] && graph.configurations[i].count(output) == expected_output)
        .collect();
    let can_recover = graph.can_reach(&correct_stable);

    let mut stable_outputs: Vec<u64> = (0..len)
        .filter(|&i| stable[i])
        .map(|i| graph.configurations[i].count(output))
        .collect();
    stable_outputs.sort_unstable();
    stable_outputs.dedup();

    let all_recover = can_recover.iter().all(|&b| b);
    let failure = if all_recover {
        None
    } else {
        let bad = (0..len).find(|&i| !can_recover[i]).expect("some bad index");
        Some(format!(
            "configuration {} cannot reach a stable configuration with output {}",
            graph.configurations[bad].display(crn.crn().species()),
            expected_output
        ))
    };

    Ok(StableComputationVerdict {
        input: x.clone(),
        expected_output,
        correct: all_recover,
        reachable_configurations: len,
        max_output_reachable: max_out[0],
        stable_outputs,
        failure,
    })
}
