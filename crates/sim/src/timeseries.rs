//! Deterministic sim-time time series, recorded on change.
//!
//! End-of-run [`crate::metrics`] snapshots say *what* happened; a
//! [`SeriesStore`] says *when*. The owner registers each series once and
//! reports the current values with [`SeriesStore::update`] whenever its
//! state may have moved (the cluster does so after every dispatch). A
//! series is a step function: it records a point only when its value
//! changes, and at most one point per simulated instant, holding the
//! value after that instant's last update. Nothing is scheduled on the
//! event queue and no value is polled on a cadence, so telemetry costs in
//! proportion to activity and never changes what the simulation does.
//! Values are read from simulated state only, so two same-seed runs
//! produce bit-identical series, byte for byte, through [`crate::json`].
//!
//! Memory is bounded: each series keeps at most `capacity` points in a
//! ring that *decimates on overflow* — when full, every other retained
//! point is dropped and the keep-stride doubles, halving resolution
//! instead of growing memory or silently truncating history. The first
//! recorded point is always retained and the most recent one is always
//! re-attached on read, so a decimated series still spans the full run.
//!
//! # Examples
//!
//! ```
//! use vsim::{SamplingSpec, SeriesStore, SimTime, Subsystem};
//!
//! let mut store = SeriesStore::new(SamplingSpec::default());
//! let depth = store.manual(Subsystem::Engine, "queue_depth", "events");
//! let at = SimTime::from_micros;
//! store.update(at(1_000), &[(depth, 17.0)]);
//! store.update(at(1_000), &[(depth, 18.0)]); // same instant: last wins
//! store.update(at(2_000), &[(depth, 18.0)]); // unchanged: no point
//! store.update(at(3_000), &[(depth, 4.0)]);
//! assert_eq!(
//!     store.report().series[0].points,
//!     vec![(1_000, 18.0), (3_000, 4.0)]
//! );
//! ```

use crate::json::{Json, ToJson};
use crate::time::SimTime;
use crate::trace::Subsystem;

/// Per-series retention for a [`SeriesStore`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SamplingSpec {
    /// Maximum retained points per series before decimation halves the
    /// resolution (values below 2 are treated as 2).
    pub capacity: usize,
}

impl Default for SamplingSpec {
    fn default() -> Self {
        SamplingSpec { capacity: 1024 }
    }
}

/// Handle to a registered series.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SeriesId(u32);

#[derive(Debug, Clone)]
struct Series {
    subsystem: Subsystem,
    name: &'static str,
    unit: &'static str,
    /// Retained `(t_micros, value)` points, oldest first.
    points: Vec<(u64, f64)>,
    /// Keep every `stride`-th offered sample (doubles on decimation).
    stride: u64,
    /// Samples offered since registration.
    seen: u64,
    /// Most recent offered sample, retained or not.
    last: Option<(u64, f64)>,
    /// The latest [`SeriesStore::update`], not yet offered: its instant
    /// may still see more updates.
    pending: Option<(u64, f64)>,
}

impl Series {
    fn offer(&mut self, capacity: usize, at: u64, value: f64) {
        let idx = self.seen;
        self.seen += 1;
        self.last = Some((at, value));
        if !idx.is_multiple_of(self.stride) {
            return;
        }
        if self.points.len() >= capacity {
            // Decimate: drop every other retained point and double the
            // stride. Retained point k sits at offer k·stride, so keeping
            // the even k keeps exactly the offers divisible by the new
            // stride — including offer 0, the series' first point.
            let mut keep = 0;
            self.points.retain(|_| {
                let k = keep;
                keep += 1;
                k % 2 == 0
            });
            self.stride *= 2;
            if !idx.is_multiple_of(self.stride) {
                return;
            }
        }
        self.points.push((at, value));
    }

    /// A value as of `at`. A new instant first settles the previous one.
    /// The pending value unchanged is a no-op: settling it now or at the
    /// next change offers the same point.
    fn update(&mut self, capacity: usize, at: u64, value: f64) {
        if self
            .pending
            .is_some_and(|(_, v)| v.to_bits() == value.to_bits())
        {
            return;
        }
        if self.pending.is_some_and(|(t, _)| t != at) {
            self.settle(capacity);
        }
        self.pending = Some((at, value));
    }

    /// Offers the pending value if it differs from the value in force.
    fn settle(&mut self, capacity: usize) {
        if let Some((at, value)) = self.pending.take() {
            if self.last.map(|(_, v)| v.to_bits()) != Some(value.to_bits()) {
                self.offer(capacity, at, value);
            }
        }
    }

    /// Retained points plus the most recent sample when decimation (or
    /// striding) dropped it — the series always ends at the last value.
    fn points_with_endpoint(&self) -> Vec<(u64, f64)> {
        let mut out = self.points.clone();
        if let Some(last) = self.last {
            if out.last() != Some(&last) {
                out.push(last);
            }
        }
        out
    }
}

/// A set of registered series, each a step function of sim time.
#[derive(Debug, Clone)]
pub struct SeriesStore {
    spec: SamplingSpec,
    series: Vec<Series>,
    sweeps: u64,
}

impl SeriesStore {
    /// Creates an empty store with the given retention.
    pub fn new(spec: SamplingSpec) -> Self {
        SeriesStore {
            spec: SamplingSpec {
                capacity: spec.capacity.max(2),
            },
            series: Vec::new(),
            sweeps: 0,
        }
    }

    /// Number of updates taken so far.
    pub fn sweeps(&self) -> u64 {
        self.sweeps
    }

    /// Registers a series whose values the owner reports via
    /// [`SeriesStore::update`]. Idempotent by `(subsystem, name)`.
    // Series ids index the registered series, far below `u32::MAX`.
    #[allow(clippy::cast_possible_truncation)]
    pub fn manual(
        &mut self,
        subsystem: Subsystem,
        name: &'static str,
        unit: &'static str,
    ) -> SeriesId {
        if let Some(i) = self
            .series
            .iter()
            .position(|s| s.subsystem == subsystem && s.name == name)
        {
            return SeriesId(i as u32);
        }
        self.series.push(Series {
            subsystem,
            name,
            unit,
            points: Vec::new(),
            stride: 1,
            seen: 0,
            last: None,
            pending: None,
        });
        SeriesId(self.series.len() as u32 - 1)
    }

    /// One update: each `(series, value)` pair is the series' value as of
    /// `at`. A series records a point only when its value changes, and at
    /// most one per instant: a later update at the same `at` replaces an
    /// earlier one, and the instant is settled when a later one arrives
    /// (or at [`SeriesStore::report`]). Counts as one sweep.
    pub fn update(&mut self, at: SimTime, values: &[(SeriesId, f64)]) {
        self.sweeps += 1;
        let (capacity, at) = (self.spec.capacity, at.as_micros());
        for &(id, value) in values {
            self.series[id.0 as usize].update(capacity, at, value);
        }
    }

    /// Snapshots every series for artifact emission, the latest instant's
    /// pending updates included.
    pub fn report(&self) -> SeriesReport {
        SeriesReport {
            capacity: self.spec.capacity,
            sweeps: self.sweeps,
            series: self
                .series
                .iter()
                .map(|s| {
                    let mut s = s.clone();
                    s.settle(self.spec.capacity);
                    SeriesSnapshot {
                        subsystem: s.subsystem,
                        name: s.name,
                        unit: s.unit,
                        stride: s.stride,
                        seen: s.seen,
                        points: s.points_with_endpoint(),
                    }
                })
                .collect(),
        }
    }
}

/// One frozen series: identity, decimation state, and the retained points.
#[derive(Debug, Clone, PartialEq)]
pub struct SeriesSnapshot {
    /// Owning subsystem.
    pub subsystem: Subsystem,
    /// Series name.
    pub name: &'static str,
    /// Unit label for display (`"events"`, `"programs"`, …).
    pub unit: &'static str,
    /// Final keep-stride (1 = never decimated; doubles per decimation).
    pub stride: u64,
    /// Points offered over the run (retained ≤ capacity + 1 of these).
    pub seen: u64,
    /// Retained `(t_micros, value)` points, oldest first, ending at the
    /// most recent one. Each value holds until the next point's instant.
    pub points: Vec<(u64, f64)>,
}

/// A frozen [`SeriesStore`]: the `series` section of bench artifacts.
#[derive(Debug, Clone, PartialEq)]
pub struct SeriesReport {
    /// Per-series retention limit.
    pub capacity: usize,
    /// Updates taken.
    pub sweeps: u64,
    /// One snapshot per registered series, in registration order.
    pub series: Vec<SeriesSnapshot>,
}

impl SeriesReport {
    /// Finds a series by name (any subsystem).
    pub fn series(&self, name: &str) -> Option<&SeriesSnapshot> {
        self.series.iter().find(|s| s.name == name)
    }
}

impl ToJson for SeriesSnapshot {
    fn to_json(&self) -> Json {
        Json::obj([
            ("subsystem", self.subsystem.to_string().to_json()),
            ("name", self.name.to_json()),
            ("unit", self.unit.to_json()),
            ("stride", self.stride.to_json()),
            ("seen", self.seen.to_json()),
            (
                "points",
                Json::arr(
                    self.points
                        .iter()
                        .map(|(t, v)| Json::arr([t.to_json(), v.to_json()])),
                ),
            ),
        ])
    }
}

impl ToJson for SeriesReport {
    fn to_json(&self) -> Json {
        Json::obj([
            ("capacity", self.capacity.to_json()),
            ("sweeps", self.sweeps.to_json()),
            ("series", self.series.to_json()),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn store(capacity: usize) -> SeriesStore {
        SeriesStore::new(SamplingSpec { capacity })
    }

    #[test]
    fn registration_is_idempotent() {
        let mut st = store(8);
        let a = st.manual(Subsystem::Engine, "queue_depth", "events");
        let b = st.manual(Subsystem::Engine, "queue_depth", "events");
        let c = st.manual(Subsystem::Cluster, "ready", "programs");
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(st.report().series.len(), 2);
    }

    #[test]
    fn update_records_changes_only_one_per_instant() {
        let mut st = store(8);
        let id = st.manual(Subsystem::Engine, "depth", "events");
        let frames = st.manual(Subsystem::Net, "frames", "frames");
        let at = SimTime::from_micros;
        for (t, v) in [(5, 1.0), (5, 2.0), (7, 2.0), (9, 3.0), (9, 2.0), (12, 4.0)] {
            st.update(at(t), &[(id, v), (frames, 5.0)]);
        }
        // 9 ends where 7 left it (2 → 3 → 2): no point. The pending 12
        // is settled by the report without being consumed.
        let r = st.report();
        assert_eq!(r.series("depth").unwrap().points, vec![(5, 2.0), (12, 4.0)]);
        assert_eq!(r.series("depth").unwrap().seen, 2);
        // A value that never changes keeps its first point only, yet
        // every call still counts.
        assert_eq!(r.series("frames").unwrap().points, vec![(5, 5.0)]);
        assert_eq!(r.series("frames").unwrap().seen, 1);
        assert_eq!(r.sweeps, 6);
        assert_eq!(st.report(), r);
        st.update(at(12), &[(id, 2.0)]);
        assert_eq!(st.report().series("depth").unwrap().points, vec![(5, 2.0)]);
    }

    #[test]
    fn decimation_halves_points_and_doubles_stride() {
        let mut st = store(4);
        let id = st.manual(Subsystem::Cluster, "x", "u");
        for i in 0..4u64 {
            st.update(SimTime::from_micros(i), &[(id, i as f64)]);
        }
        // Full at 4 points, stride 1. The 5th change, settled by the
        // report, decimates to offers {0, 2} then retains offer 4.
        st.update(SimTime::from_micros(4), &[(id, 4.0)]);
        let snap = st.report();
        let s = snap.series("x").unwrap();
        assert_eq!(s.stride, 2);
        assert_eq!(s.points, vec![(0, 0.0), (2, 2.0), (4, 4.0)]);
    }

    #[test]
    fn memory_stays_bounded_under_long_runs() {
        let mut st = store(16);
        let id = st.manual(Subsystem::Cluster, "x", "u");
        for i in 0..100_000u64 {
            st.update(SimTime::from_micros(i), &[(id, i as f64)]);
        }
        let s = st.report();
        let s = s.series("x").unwrap();
        assert!(s.points.len() <= 17, "retained {}", s.points.len());
        assert_eq!(s.seen, 100_000);
        assert!(s.stride >= 100_000 / 16);
    }

    #[test]
    fn decimation_preserves_endpoints() {
        // Property (seeded): for arbitrary sample-count and capacity, the
        // reported points always start at the first recorded sample and
        // end at the last one, and time stays strictly increasing.
        let mut rng = crate::DetRng::seed(0x7153);
        for case in 0..200 {
            let capacity = 2 + rng.index(63);
            let n = 1 + rng.index(5_000) as u64;
            let mut st = store(capacity);
            let id = st.manual(Subsystem::Cluster, "p", "u");
            let mut t = 0u64;
            let mut first = None;
            let mut last = None;
            for i in 0..n {
                t += 1 + rng.range_u64(0, 1_000);
                let v = rng.range_f64(-1e6, 1e6);
                st.update(SimTime::from_micros(t), &[(id, v)]);
                if i == 0 {
                    first = Some((t, v));
                }
                last = Some((t, v));
            }
            let snap = st.report();
            let s = snap.series("p").unwrap();
            assert_eq!(s.points.first().copied(), first, "case {case}: lost head");
            assert_eq!(s.points.last().copied(), last, "case {case}: lost tail");
            assert!(s.points.len() <= capacity + 1, "case {case}: unbounded");
            assert!(
                s.points.windows(2).all(|w| w[0].0 < w[1].0),
                "case {case}: time not increasing"
            );
        }
    }

    #[test]
    fn repeating_a_series_last_value_changes_nothing() {
        // Property (seeded): store `a` gets every update of a random
        // sequence, store `b` only the values that differ from the same
        // series' previous update. Only the update count tells them apart.
        let mut rng = crate::DetRng::seed(0x5EED);
        for case in 0..200 {
            let capacity = 2 + rng.index(15);
            let (mut a, mut b) = (store(capacity), store(capacity));
            let ids: Vec<SeriesId> = ["x", "y", "z"]
                .into_iter()
                .map(|name| {
                    b.manual(Subsystem::Cluster, name, "u");
                    a.manual(Subsystem::Cluster, name, "u")
                })
                .collect();
            let mut previous = [None; 3];
            let mut t = 0;
            for _ in 0..1 + rng.index(500) {
                // Frequent same-instant updates; values from a small set,
                // so most of them repeat.
                t += rng.range_u64(0, 3);
                let values: Vec<(SeriesId, f64)> =
                    ids.iter().map(|&id| (id, rng.index(3) as f64)).collect();
                let mut changed = Vec::new();
                for (&(id, v), prev) in values.iter().zip(&mut previous) {
                    if prev.replace(v) != Some(v) {
                        changed.push((id, v));
                    }
                }
                a.update(SimTime::from_micros(t), &values);
                if !changed.is_empty() {
                    b.update(SimTime::from_micros(t), &changed);
                }
            }
            let (ra, mut rb) = (a.report(), b.report());
            assert!(ra.sweeps >= rb.sweeps);
            rb.sweeps = ra.sweeps;
            assert_eq!(ra, rb, "case {case}");
        }
    }

    #[test]
    fn same_samples_produce_identical_json() {
        let run = || {
            let mut st = store(8);
            let id = st.manual(Subsystem::Cluster, "x", "u");
            for i in 0..50u64 {
                st.update(SimTime::from_micros(i * 7), &[(id, (i * 3) as f64 * 0.5)]);
            }
            st.report().to_json().pretty()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn capacity_below_two_is_clamped() {
        let st = store(0);
        assert_eq!(st.report().capacity, 2);
    }
}
