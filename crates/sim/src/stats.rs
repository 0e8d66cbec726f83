//! Summary statistics for batches of measurements.

/// Summary statistics of a batch of nonnegative measurements (step counts,
/// interaction counts, simulated times).
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub count: usize,
    /// Arithmetic mean.
    pub mean: f64,
    /// Population standard deviation.
    pub std_dev: f64,
    /// Minimum sample.
    pub min: f64,
    /// Maximum sample.
    pub max: f64,
    /// Median (50th percentile).
    pub median: f64,
    /// 95th percentile.
    pub p95: f64,
}

impl Summary {
    /// Summarizes a batch of samples.
    ///
    /// # Panics
    ///
    /// Panics if `samples` is empty.
    #[must_use]
    pub fn of(samples: &[f64]) -> Self {
        assert!(!samples.is_empty(), "cannot summarize an empty batch");
        let count = samples.len();
        let mean = samples.iter().sum::<f64>() / count as f64;
        let variance = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / count as f64;
        let mut sorted = samples.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite samples"));
        Summary {
            count,
            mean,
            std_dev: variance.sqrt(),
            min: sorted[0],
            max: sorted[count - 1],
            median: percentile(&sorted, 0.5),
            p95: percentile(&sorted, 0.95),
        }
    }

    /// Summarizes integer samples (convenience for step counts).
    ///
    /// # Panics
    ///
    /// Panics if `samples` is empty.
    #[must_use]
    pub fn of_counts(samples: &[u64]) -> Self {
        let as_f64: Vec<f64> = samples.iter().map(|&s| s as f64).collect();
        Summary::of(&as_f64)
    }
}

/// A mergeable, streaming accumulator of samples feeding a [`Summary`].
///
/// Ensemble workers each fill one accumulator and the driver merges them in
/// trial order, so the final [`Summary`] is **bit-identical** to a sequential
/// run regardless of the worker count.  Samples are retained (the summary's
/// median and p95 are exact nearest-rank percentiles, which no constant-space
/// sketch reproduces); pushes and merges are amortized O(1) per sample.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SummaryAccumulator {
    samples: Vec<f64>,
}

impl SummaryAccumulator {
    /// An empty accumulator.
    #[must_use]
    pub fn new() -> Self {
        SummaryAccumulator::default()
    }

    /// An empty accumulator with room for `capacity` samples.
    #[must_use]
    pub fn with_capacity(capacity: usize) -> Self {
        SummaryAccumulator {
            samples: Vec::with_capacity(capacity),
        }
    }

    /// Records one sample.
    pub fn push(&mut self, sample: f64) {
        self.samples.push(sample);
    }

    /// Appends `later`'s samples after this accumulator's own.  Merging is
    /// ordered: the caller merges worker accumulators in trial order so the
    /// combined sample sequence equals the sequential one.
    pub fn merge(&mut self, later: SummaryAccumulator) {
        self.samples.extend(later.samples);
    }

    /// The number of samples recorded.
    #[must_use]
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Whether no sample has been recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Summarizes the accumulated samples.
    ///
    /// # Panics
    ///
    /// Panics if no sample has been recorded.
    #[must_use]
    pub fn finish(&self) -> Summary {
        Summary::of(&self.samples)
    }
}

/// Nearest-rank percentile of an already-sorted sample.
fn percentile(sorted: &[f64], q: f64) -> f64 {
    let rank = ((sorted.len() as f64) * q).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn summary_of_constant_batch() {
        let s = Summary::of(&[4.0, 4.0, 4.0]);
        assert_eq!(s.count, 3);
        assert_eq!(s.mean, 4.0);
        assert_eq!(s.std_dev, 0.0);
        assert_eq!(s.min, 4.0);
        assert_eq!(s.max, 4.0);
        assert_eq!(s.median, 4.0);
        assert_eq!(s.p95, 4.0);
    }

    #[test]
    fn summary_of_known_batch() {
        let s = Summary::of(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(s.mean, 2.5);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 4.0);
        assert_eq!(s.median, 2.0);
        assert!((s.std_dev - (1.25f64).sqrt()).abs() < 1e-12);
    }

    #[test]
    fn counts_are_converted() {
        let s = Summary::of_counts(&[10, 20, 30]);
        assert_eq!(s.mean, 20.0);
        assert_eq!(s.max, 30.0);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn empty_batch_panics() {
        let _ = Summary::of(&[]);
    }

    #[test]
    fn accumulator_merge_matches_sequential_summary() {
        let samples = [3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0];
        let mut left = SummaryAccumulator::new();
        let mut right = SummaryAccumulator::with_capacity(4);
        for (i, &s) in samples.iter().enumerate() {
            if i < 3 {
                left.push(s);
            } else {
                right.push(s);
            }
        }
        left.merge(right);
        assert_eq!(left.len(), samples.len());
        assert!(!left.is_empty());
        assert_eq!(left.finish(), Summary::of(&samples));
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn empty_accumulator_panics_on_finish() {
        let _ = SummaryAccumulator::new().finish();
    }

    #[test]
    fn percentile_is_monotone_in_q() {
        let sorted: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&sorted, 0.5), 50.0);
        assert_eq!(percentile(&sorted, 0.95), 95.0);
        assert_eq!(percentile(&sorted, 1.0), 100.0);
    }

    /// Sorts an arbitrary integer batch into the form `percentile` expects.
    fn sorted_batch(raw: &[u64]) -> Vec<f64> {
        let mut sorted: Vec<f64> = raw.iter().map(|&s| s as f64).collect();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite samples"));
        sorted
    }

    proptest! {
        /// Nearest-rank percentile is monotone in `q` on any sorted batch.
        #[test]
        fn percentile_monotone_on_arbitrary_batches(
            raw in proptest::collection::vec(0u64..1_000, 1..32),
            qa in 0u64..101,
            qb in 0u64..101,
        ) {
            let sorted = sorted_batch(&raw);
            let (lo, hi) = (qa.min(qb), qa.max(qb));
            prop_assert!(
                percentile(&sorted, lo as f64 / 100.0) <= percentile(&sorted, hi as f64 / 100.0)
            );
        }

        /// The summary statistics respect the order min ≤ median ≤ p95 ≤ max,
        /// and the mean lies within the sample range.
        #[test]
        fn summary_order_invariants(
            raw in proptest::collection::vec(0u64..1_000_000, 1..48),
        ) {
            let s = Summary::of_counts(&raw);
            prop_assert!(s.min <= s.median);
            prop_assert!(s.median <= s.p95);
            prop_assert!(s.p95 <= s.max);
            prop_assert!(s.min <= s.mean && s.mean <= s.max);
            prop_assert_eq!(s.count, raw.len());
        }

        /// The `q = 0` edge case clamps to the smallest sample, and every
        /// percentile of a single-sample batch is that sample.
        #[test]
        fn percentile_edge_cases(
            raw in proptest::collection::vec(0u64..1_000, 1..16),
            x in 0u64..1_000,
            q in 0u64..101,
        ) {
            let sorted = sorted_batch(&raw);
            prop_assert_eq!(percentile(&sorted, 0.0), sorted[0]);
            let single = Summary::of(&[x as f64]);
            prop_assert_eq!(percentile(&[x as f64], q as f64 / 100.0), x as f64);
            prop_assert_eq!(single.min, x as f64);
            prop_assert_eq!(single.median, x as f64);
            prop_assert_eq!(single.p95, x as f64);
            prop_assert_eq!(single.max, x as f64);
        }
    }
}
