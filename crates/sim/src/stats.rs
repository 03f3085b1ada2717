//! Measurement collection.
//!
//! The experiment harness reports means, extremes and percentiles of
//! simulated measurements (freeze times, dirty-page counts, response
//! times). [`Samples`] stores them for means and percentiles;
//! [`Tally`] counts integer samples by value, so its memory grows with
//! the distinct values rather than the samples; [`Histogram`] buckets
//! durations for distribution tables. Both sample stores summarise into
//! one [`Summary`].

use std::collections::BTreeMap;

use crate::time::SimDuration;

/// Count, mean, nearest-rank p50/p95/p99 and extremes of a sample set.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub count: usize,
    /// Sample mean (0 when empty).
    pub mean: f64,
    /// 50th percentile (nearest-rank), `None` when empty.
    pub p50: Option<f64>,
    /// 95th percentile.
    pub p95: Option<f64>,
    /// 99th percentile.
    pub p99: Option<f64>,
    /// Minimum sample.
    pub min: Option<f64>,
    /// Maximum sample.
    pub max: Option<f64>,
}

/// The 1-indexed nearest rank of the `p`-th percentile among `n > 0`
/// sorted samples: `ceil(p·n/100)`, clamped to `1..=n`.
///
/// # Panics
///
/// Panics if `p` is outside `[0, 100]` or not finite.
// `rank` is at most `n` because `p <= 100`.
#[allow(clippy::cast_possible_truncation)]
fn nearest_rank(p: f64, n: usize) -> usize {
    assert!((0.0..=100.0).contains(&p), "percentile {p} out of range");
    // Multiply before dividing: `p / 100.0` rounds upward for many p
    // (7.0, 14.0, 55.0, …), and that overshoot survived the multiply
    // and pushed `ceil` one rank high — `p·n/100` with integer p and
    // small n divides exactly, so rank boundaries land where
    // nearest-rank says they must.
    let rank = ((p * n as f64) / 100.0).ceil() as usize;
    rank.clamp(1, n)
}

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
    /// honoured precisely.
    ///
    /// Returns `None` if empty.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 100]` or not finite.
    pub fn percentile(&self, p: f64) -> Option<f64> {
        let sorted = self.sorted();
        at_rank(&sorted, p)
    }

    /// Count, mean, p50/p95/p99 and extremes, from one sorted copy.
    pub fn summary(&self) -> Summary {
        let sorted = self.sorted();
        Summary {
            count: sorted.len(),
            mean: self.mean(),
            p50: at_rank(&sorted, 50.0),
            p95: at_rank(&sorted, 95.0),
            p99: at_rank(&sorted, 99.0),
            min: sorted.first().copied(),
            max: sorted.last().copied(),
        }
    }

    fn sorted(&self) -> Vec<f64> {
        let mut sorted = self.values.clone();
        sorted.sort_by(f64::total_cmp);
        sorted
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

/// The nearest-rank `p`-th percentile of ascending `sorted`, `None` if
/// empty.
fn at_rank(sorted: &[f64], p: f64) -> Option<f64> {
    sorted
        .get(nearest_rank(p, sorted.len().max(1)) - 1)
        .copied()
}

/// Integer samples kept as an exact value → count multiset: memory grows
/// with the distinct values, not with the samples, and the summary is
/// the one [`Samples`] would give for the same values.
///
/// `count`, `min`, `max` and the nearest-rank percentiles are exact. So
/// is the mean while the sum of all samples stays below 2^53: every
/// partial sum of such integers is exact in `f64`, so the order in which
/// [`Samples`] adds them does not matter.
///
/// # Examples
///
/// ```
/// use vsim::{Samples, Tally};
///
/// let (mut t, mut s) = (Tally::new(), Samples::new());
/// for x in [64, 1024, 64, 64, 32] {
///     t.add(x);
///     s.add(x as f64);
/// }
/// assert_eq!(t.summary(), s.summary());
/// assert_eq!(t.percentile(50.0), Some(64.0));
/// ```
#[derive(Debug, Clone, Default)]
pub struct Tally {
    counts: BTreeMap<u64, usize>,
    n: usize,
    sum: u128,
}

impl Tally {
    /// Creates an empty tally.
    pub fn new() -> Self {
        Tally::default()
    }

    /// Adds one sample.
    pub fn add(&mut self, x: u64) {
        *self.counts.entry(x).or_insert(0) += 1;
        self.n += 1;
        self.sum += u128::from(x);
    }

    /// Number of samples.
    pub fn count(&self) -> usize {
        self.n
    }

    /// The `p`-th percentile (nearest-rank), `p` in `[0, 100]`, read from
    /// the cumulative counts; `None` if empty.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 100]` or not finite.
    pub fn percentile(&self, p: f64) -> Option<f64> {
        let rank = nearest_rank(p, self.n.max(1));
        let mut seen = 0;
        self.counts.iter().find_map(|(&x, &k)| {
            seen += k;
            (seen >= rank).then_some(x as f64)
        })
    }

    /// Count, mean, p50/p95/p99 and extremes.
    pub fn summary(&self) -> Summary {
        Summary {
            count: self.n,
            mean: if self.n == 0 {
                0.0
            } else {
                self.sum as f64 / self.n as f64
            },
            p50: self.percentile(50.0),
            p95: self.percentile(95.0),
            p99: self.percentile(99.0),
            min: self.counts.keys().next().map(|&x| x as f64),
            max: self.counts.keys().next_back().map(|&x| x as f64),
        }
    }
}

impl From<&Samples> for Summary {
    fn from(s: &Samples) -> Summary {
        s.summary()
    }
}

impl From<&Tally> for Summary {
    fn from(t: &Tally) -> Summary {
        t.summary()
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
    fn summary_reads_one_sorted_copy_like_the_single_queries() {
        let mut rng = crate::DetRng::seed(0x50f7);
        let mut s = Samples::new();
        for _ in 0..257 {
            s.add(rng.range_f64(-1e3, 1e3));
        }
        let sum = s.summary();
        assert_eq!(sum.count, 257);
        assert_eq!(sum.mean, s.mean());
        assert_eq!(
            [sum.p50, sum.p95, sum.p99],
            [50.0, 95.0, 99.0].map(|p| s.percentile(p))
        );
        assert_eq!((sum.min, sum.max), (s.min(), s.max()));
    }

    #[test]
    fn tally_summary_equals_samples_summary_on_random_multisets() {
        let mut rng = crate::DetRng::seed(0x7a11);
        // Every rank boundary the `Samples` tests above pin.
        let mut ps: Vec<f64> = (0..=100).map(f64::from).collect();
        ps.extend([33.0, 51.0, 66.0, 67.0, 2.5, 99.9]);
        for case in 0..200 {
            let n = [1, 2, 3, 20, 100][case % 5];
            // Few distinct values for heavy repeats, many for none.
            let distinct = [1, 2, 3, 7, 1_000_000][(case / 5) % 5];
            let (mut t, mut s) = (Tally::new(), Samples::new());
            for _ in 0..n {
                let x = 32 + rng.range_u64(0, distinct) * 17;
                t.add(x);
                s.add(x as f64);
            }
            assert_eq!(t.summary(), s.summary(), "case {case}: n {n}");
            for &p in &ps {
                assert_eq!(t.percentile(p), s.percentile(p), "case {case}: p{p}");
            }
        }
    }

    #[test]
    fn empty_tally_summarises_like_empty_samples() {
        assert_eq!(Tally::new().summary(), Samples::new().summary());
        assert_eq!(Tally::new().percentile(99.0), None);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn tally_rejects_percentile_out_of_range() {
        Tally::new().percentile(101.0);
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
