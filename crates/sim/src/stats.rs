//! Measurement collection.
//!
//! The experiment harness reports means, extremes and percentiles of
//! simulated measurements (freeze times, dirty-page counts, response
//! times). [`Samples`] stores them for means and percentiles;
//! [`Histogram`] buckets durations for distribution tables.

use crate::time::SimDuration;

/// Stored samples supporting percentiles.
#[derive(Debug, Clone, Default)]
pub struct Samples {
    values: Vec<f64>,
}

impl Samples {
    /// Creates an empty sample set.
    pub fn new() -> Self {
        Samples { values: Vec::new() }
    }

    /// Adds one sample.
    pub fn add(&mut self, x: f64) {
        self.values.push(x);
    }

    /// Adds a duration sample, in seconds.
    pub fn add_duration(&mut self, d: SimDuration) {
        self.add(d.as_secs_f64());
    }

    /// Number of samples.
    pub fn count(&self) -> usize {
        self.values.len()
    }

    /// True when no samples were added.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Sample mean, or 0 if empty.
    pub fn mean(&self) -> f64 {
        if self.values.is_empty() {
            0.0
        } else {
            self.values.iter().sum::<f64>() / self.values.len() as f64
        }
    }

    /// The `p`-th percentile (nearest-rank), `p` in `[0, 100]`.
    ///
    /// Nearest-rank is exact: the result is always one of the stored
    /// samples, the `ceil(p·n/100)`-th smallest (1-indexed). At tiny
    /// counts the high percentiles legitimately coincide with the max
    /// (p95 of three samples *is* the third), but every rank boundary is
    /// honoured precisely — see the note on evaluation order below.
    ///
    /// Returns `None` if empty.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 100]` or not finite.
    // `rank` is at most `len` because `p <= 100`.
    #[allow(clippy::cast_possible_truncation)]
    pub fn percentile(&self, p: f64) -> Option<f64> {
        assert!((0.0..=100.0).contains(&p), "percentile {p} out of range");
        if self.values.is_empty() {
            return None;
        }
        let mut sorted = self.values.clone();
        sorted.sort_by(f64::total_cmp);
        // Multiply before dividing: `p / 100.0` rounds upward for many p
        // (7.0, 14.0, 55.0, …), and that overshoot survived the multiply
        // and pushed `ceil` one rank high — `p·n/100` with integer p and
        // small n divides exactly, so rank boundaries land where
        // nearest-rank says they must.
        let rank = ((p * sorted.len() as f64) / 100.0).ceil() as usize;
        Some(sorted[rank.clamp(1, sorted.len()) - 1])
    }

    /// Median (50th percentile).
    pub fn median(&self) -> Option<f64> {
        self.percentile(50.0)
    }

    /// Minimum sample.
    pub fn min(&self) -> Option<f64> {
        self.values.iter().copied().min_by(|a, b| a.total_cmp(b))
    }

    /// Maximum sample.
    pub fn max(&self) -> Option<f64> {
        self.values.iter().copied().max_by(|a, b| a.total_cmp(b))
    }

    /// Read-only view of the raw samples, in insertion order.
    pub fn values(&self) -> &[f64] {
        &self.values
    }
}

/// Fixed-bucket histogram of durations, for distribution tables.
#[derive(Debug, Clone)]
pub struct Histogram {
    /// Upper bounds (exclusive) of each bucket, ascending; one overflow
    /// bucket is appended implicitly.
    bounds: Vec<SimDuration>,
    counts: Vec<u64>,
}

impl Histogram {
    /// Creates a histogram with the given ascending bucket upper bounds.
    ///
    /// # Panics
    ///
    /// Panics if `bounds` is empty or not strictly ascending.
    pub fn new(bounds: Vec<SimDuration>) -> Self {
        assert!(!bounds.is_empty(), "histogram needs at least one bound");
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram bounds must be strictly ascending"
        );
        let counts = vec![0; bounds.len() + 1];
        Histogram { bounds, counts }
    }

    /// Adds one duration observation.
    pub fn add(&mut self, d: SimDuration) {
        let idx = self
            .bounds
            .iter()
            .position(|&b| d < b)
            .unwrap_or(self.bounds.len());
        self.counts[idx] += 1;
    }

    /// Total observations.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Iterates `(label, count)` rows, including the overflow bucket.
    pub fn rows(&self) -> Vec<(String, u64)> {
        let mut rows = Vec::with_capacity(self.counts.len());
        let mut lower = SimDuration::ZERO;
        for (i, &b) in self.bounds.iter().enumerate() {
            rows.push((format!("[{lower}, {b})"), self.counts[i]));
            lower = b;
        }
        rows.push((format!(">= {lower}"), self.counts[self.bounds.len()]));
        rows
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_nearest_rank() {
        let mut s = Samples::new();
        for x in 1..=100 {
            s.add(x as f64);
        }
        assert_eq!(s.median(), Some(50.0));
        assert_eq!(s.percentile(0.0), Some(1.0));
        assert_eq!(s.percentile(100.0), Some(100.0));
        assert_eq!(s.percentile(90.0), Some(90.0));
        assert_eq!(s.min(), Some(1.0));
        assert_eq!(s.max(), Some(100.0));
    }

    #[test]
    fn nearest_rank_is_exact_at_rank_boundaries() {
        // Regression: the old `(p / 100.0) * n` form rounded `p / 100`
        // upward for p = 7, 14, 55, … and the overshoot pushed `ceil`
        // one rank too high (percentile(7) over 1..=100 returned 8).
        let mut s = Samples::new();
        for x in 1..=100 {
            s.add(x as f64);
        }
        for p in 1..=100 {
            assert_eq!(s.percentile(p as f64), Some(p as f64), "p{p} of 100");
        }
        let mut s = Samples::new();
        for x in 1..=50 {
            s.add(x as f64);
        }
        for p in 1..=50 {
            // Every even percentile is an exact rank boundary at n = 50.
            assert_eq!(s.percentile(2.0 * p as f64), Some(p as f64), "p{p} of 50");
        }
    }

    #[test]
    fn tiny_sample_counts_use_nearest_rank() {
        // n < 4: the nearest-rank definition pins every value exactly.
        // p95/p99 coincide with the max (rank ceil(2.85) = 3 of 3) — that
        // is correct, not a collapse — while p50 and below must resolve
        // to the interior ranks, never the max.
        let mut s = Samples::new();
        for x in [30.0, 10.0, 20.0] {
            s.add(x);
        }
        assert_eq!(s.percentile(0.0), Some(10.0));
        assert_eq!(s.percentile(33.0), Some(10.0)); // ceil(0.99) = 1
        assert_eq!(s.percentile(50.0), Some(20.0)); // ceil(1.50) = 2
        assert_eq!(s.percentile(66.0), Some(20.0)); // ceil(1.98) = 2
        assert_eq!(s.percentile(67.0), Some(30.0)); // ceil(2.01) = 3
        assert_eq!(s.percentile(95.0), Some(30.0));
        assert_eq!(s.percentile(99.0), Some(30.0));

        let mut two = Samples::new();
        two.add(4.0);
        two.add(8.0);
        assert_eq!(two.percentile(50.0), Some(4.0)); // ceil(1.0) = 1
        assert_eq!(two.percentile(51.0), Some(8.0)); // ceil(1.02) = 2

        let mut one = Samples::new();
        one.add(42.0);
        for p in [0.0, 50.0, 95.0, 99.0, 100.0] {
            assert_eq!(one.percentile(p), Some(42.0));
        }
    }

    #[test]
    fn percentile_of_empty_is_none() {
        assert_eq!(Samples::new().percentile(50.0), None);
        assert_eq!(Samples::new().mean(), 0.0);
    }

    #[test]
    fn duration_samples() {
        let mut s = Samples::new();
        s.add_duration(SimDuration::from_millis(5));
        s.add_duration(SimDuration::from_millis(210));
        assert!((s.mean() - 0.1075).abs() < 1e-12);
    }

    #[test]
    fn histogram_buckets() {
        let mut h = Histogram::new(vec![
            SimDuration::from_millis(10),
            SimDuration::from_millis(100),
            SimDuration::from_secs(1),
        ]);
        h.add(SimDuration::from_millis(5)); // bucket 0
        h.add(SimDuration::from_millis(10)); // bucket 1 (bounds exclusive)
        h.add(SimDuration::from_millis(99)); // bucket 1
        h.add(SimDuration::from_millis(500)); // bucket 2
        h.add(SimDuration::from_secs(30)); // overflow
        assert_eq!(h.total(), 5);
        let counts: Vec<u64> = h.rows().into_iter().map(|(_, c)| c).collect();
        assert_eq!(counts, vec![1, 2, 1, 1]);
    }

    #[test]
    #[should_panic(expected = "ascending")]
    fn histogram_rejects_unsorted_bounds() {
        Histogram::new(vec![SimDuration::from_secs(1), SimDuration::from_millis(1)]);
    }

    #[test]
    fn percentiles_are_monotone_on_random_samples() {
        let mut rng = crate::DetRng::seed(0x5eed);
        for case in 0..100 {
            let mut s = Samples::new();
            for _ in 0..(1 + rng.index(400)) {
                s.add(rng.range_f64(-5e3, 5e3));
            }
            let p50 = s.percentile(50.0).expect("non-empty");
            let p95 = s.percentile(95.0).expect("non-empty");
            let p99 = s.percentile(99.0).expect("non-empty");
            assert!(
                p50 <= p95 && p95 <= p99,
                "case {case}: p50 {p50} p95 {p95} p99 {p99}"
            );
            assert!(s.min().expect("non-empty") <= p50);
            assert!(p99 <= s.max().expect("non-empty"));
        }
    }

    #[test]
    fn percentiles_bounded_by_extremes_with_duplicates() {
        let mut rng = crate::DetRng::seed(7);
        for _ in 0..50 {
            let mut s = Samples::new();
            let v = rng.range_f64(0.0, 10.0);
            for _ in 0..(1 + rng.index(20)) {
                s.add(v); // all-equal sample: every percentile collapses to v
            }
            for p in [0.0, 50.0, 95.0, 99.0, 100.0] {
                assert_eq!(s.percentile(p), Some(v));
            }
        }
    }
}
