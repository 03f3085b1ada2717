//! Structured metrics registry.
//!
//! Every layer of the simulation records counters, gauges, and sample
//! histograms into a [`Metrics`] registry instead of ad-hoc struct fields.
//! Handles ([`CounterId`], [`GaugeId`], [`HistogramId`]) are interned once
//! at registration; recording through a handle is a plain vector index —
//! no hashing, no string formatting, and no allocation on the hot path.
//!
//! A [`MetricsReport`] is an immutable snapshot suitable for JSON output:
//! the cluster runtime merges the per-component registries (engine, wire,
//! per-station kernels, migrators) into one report with scope labels, and
//! every bench binary writes that report beside its printed table.
//!
//! # Examples
//!
//! ```
//! use vsim::metrics::Metrics;
//! use vsim::Subsystem;
//!
//! let mut m = Metrics::new();
//! let sends = m.counter(Subsystem::Kernel, "ipc_sends");
//! let freeze = m.histogram(Subsystem::Migration, "freeze_ms", "ms");
//! m.inc(sends);
//! m.observe(freeze, 5.25);
//! let snap = m.snapshot("ws1");
//! assert_eq!(snap.counters[0].value, 1);
//! assert_eq!(snap.histograms[0].count, 1);
//! ```

use crate::json::{Json, ToJson};
use crate::stats::Samples;
use crate::time::SimDuration;
use crate::trace::Subsystem;

/// Handle to a registered counter.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CounterId(u32);

/// Handle to a registered gauge.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct GaugeId(u32);

/// Handle to a registered histogram.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct HistogramId(u32);

#[derive(Debug, Clone)]
struct Counter {
    subsystem: Subsystem,
    name: &'static str,
    value: u64,
}

#[derive(Debug, Clone)]
struct Gauge {
    subsystem: Subsystem,
    name: &'static str,
    value: f64,
}

#[derive(Debug, Clone)]
struct HistogramEntry {
    subsystem: Subsystem,
    name: &'static str,
    unit: &'static str,
    samples: Samples,
}

/// A per-component metrics registry.
#[derive(Debug, Clone, Default)]
pub struct Metrics {
    counters: Vec<Counter>,
    gauges: Vec<Gauge>,
    histograms: Vec<HistogramEntry>,
}

impl Metrics {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Metrics::default()
    }

    /// Registers (or re-resolves) a counter named `name` under `subsystem`.
    ///
    /// Registration is idempotent: the same `(subsystem, name)` pair always
    /// returns the same handle, so components can intern freely at startup.
    // Ids index a registry of a few dozen names, far below `u32::MAX`.
    #[allow(clippy::cast_possible_truncation)]
    pub fn counter(&mut self, subsystem: Subsystem, name: &'static str) -> CounterId {
        if let Some(i) = self
            .counters
            .iter()
            .position(|c| c.subsystem == subsystem && c.name == name)
        {
            return CounterId(i as u32);
        }
        self.counters.push(Counter {
            subsystem,
            name,
            value: 0,
        });
        CounterId(self.counters.len() as u32 - 1)
    }

    /// Registers (or re-resolves) a gauge.
    // Ids index a registry of a few dozen names, far below `u32::MAX`.
    #[allow(clippy::cast_possible_truncation)]
    pub fn gauge(&mut self, subsystem: Subsystem, name: &'static str) -> GaugeId {
        if let Some(i) = self
            .gauges
            .iter()
            .position(|g| g.subsystem == subsystem && g.name == name)
        {
            return GaugeId(i as u32);
        }
        self.gauges.push(Gauge {
            subsystem,
            name,
            value: 0.0,
        });
        GaugeId(self.gauges.len() as u32 - 1)
    }

    /// Registers (or re-resolves) a histogram; `unit` labels the sample
    /// unit in reports (`"ms"`, `"kb"`, `"frames"`, …).
    // Ids index a registry of a few dozen names, far below `u32::MAX`.
    #[allow(clippy::cast_possible_truncation)]
    pub fn histogram(
        &mut self,
        subsystem: Subsystem,
        name: &'static str,
        unit: &'static str,
    ) -> HistogramId {
        if let Some(i) = self
            .histograms
            .iter()
            .position(|h| h.subsystem == subsystem && h.name == name)
        {
            return HistogramId(i as u32);
        }
        self.histograms.push(HistogramEntry {
            subsystem,
            name,
            unit,
            samples: Samples::new(),
        });
        HistogramId(self.histograms.len() as u32 - 1)
    }

    /// Increments a counter by one.
    #[inline]
    pub fn inc(&mut self, id: CounterId) {
        self.counters[id.0 as usize].value += 1;
    }

    /// Adds `n` to a counter.
    #[inline]
    pub fn add(&mut self, id: CounterId, n: u64) {
        self.counters[id.0 as usize].value += n;
    }

    /// Current value of a counter.
    #[inline]
    pub fn counter_value(&self, id: CounterId) -> u64 {
        self.counters[id.0 as usize].value
    }

    /// Sets a gauge to `v`.
    #[inline]
    pub fn set_gauge(&mut self, id: GaugeId, v: f64) {
        self.gauges[id.0 as usize].value = v;
    }

    /// Current value of a gauge.
    #[inline]
    pub fn gauge_value(&self, id: GaugeId) -> f64 {
        self.gauges[id.0 as usize].value
    }

    /// Records one histogram sample.
    #[inline]
    pub fn observe(&mut self, id: HistogramId, v: f64) {
        self.histograms[id.0 as usize].samples.add(v);
    }

    /// Records a duration sample in milliseconds.
    #[inline]
    pub fn observe_ms(&mut self, id: HistogramId, d: SimDuration) {
        self.observe(id, d.as_secs_f64() * 1e3);
    }

    /// Number of samples recorded into a histogram.
    pub fn histogram_count(&self, id: HistogramId) -> usize {
        self.histograms[id.0 as usize].samples.count()
    }

    /// Snapshots this registry under the scope label `scope`
    /// (e.g. `"ws2"`, `"net"`).
    pub fn snapshot(&self, scope: &str) -> ScopeMetrics {
        ScopeMetrics {
            scope: scope.to_string(),
            counters: self
                .counters
                .iter()
                .map(|c| CounterSnapshot {
                    subsystem: c.subsystem,
                    name: c.name,
                    value: c.value,
                })
                .collect(),
            gauges: self
                .gauges
                .iter()
                .map(|g| GaugeSnapshot {
                    subsystem: g.subsystem,
                    name: g.name,
                    value: g.value,
                })
                .collect(),
            histograms: self
                .histograms
                .iter()
                .map(|h| HistogramSummary::of(h.subsystem, h.name, h.unit, &h.samples))
                .collect(),
        }
    }
}

/// A frozen counter value.
#[derive(Debug, Clone)]
pub struct CounterSnapshot {
    /// Owning subsystem.
    pub subsystem: Subsystem,
    /// Metric name.
    pub name: &'static str,
    /// Value at snapshot time.
    pub value: u64,
}

/// A frozen gauge value.
#[derive(Debug, Clone)]
pub struct GaugeSnapshot {
    /// Owning subsystem.
    pub subsystem: Subsystem,
    /// Metric name.
    pub name: &'static str,
    /// Value at snapshot time.
    pub value: f64,
}

/// Summary statistics of one histogram at snapshot time.
#[derive(Debug, Clone)]
pub struct HistogramSummary {
    /// Owning subsystem.
    pub subsystem: Subsystem,
    /// Metric name.
    pub name: &'static str,
    /// Unit of the samples (`"ms"`, `"kb"`, …).
    pub unit: &'static str,
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

impl HistogramSummary {
    fn of(subsystem: Subsystem, name: &'static str, unit: &'static str, s: &Samples) -> Self {
        HistogramSummary {
            subsystem,
            name,
            unit,
            count: s.count(),
            mean: s.mean(),
            p50: s.percentile(50.0),
            p95: s.percentile(95.0),
            p99: s.percentile(99.0),
            min: s.min(),
            max: s.max(),
        }
    }
}

/// All metrics of one component, under a scope label.
#[derive(Debug, Clone)]
pub struct ScopeMetrics {
    /// Scope label (e.g. `"ws2"`, `"net"`, `"engine"`).
    pub scope: String,
    /// Counters, in registration order.
    pub counters: Vec<CounterSnapshot>,
    /// Gauges, in registration order.
    pub gauges: Vec<GaugeSnapshot>,
    /// Histogram summaries, in registration order.
    pub histograms: Vec<HistogramSummary>,
}

impl ScopeMetrics {
    /// Value of a counter by `subsystem/name`, if registered.
    pub fn counter(&self, subsystem: Subsystem, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|c| c.subsystem == subsystem && c.name == name)
            .map(|c| c.value)
    }

    /// Value of a gauge by `subsystem/name`, if registered.
    pub fn gauge(&self, subsystem: Subsystem, name: &str) -> Option<f64> {
        self.gauges
            .iter()
            .find(|g| g.subsystem == subsystem && g.name == name)
            .map(|g| g.value)
    }

    /// A histogram summary by `subsystem/name`, if registered.
    pub fn histogram(&self, subsystem: Subsystem, name: &str) -> Option<&HistogramSummary> {
        self.histograms
            .iter()
            .find(|h| h.subsystem == subsystem && h.name == name)
    }
}

/// A machine-readable snapshot of every registry in a run.
///
/// Serializes to JSON via [`ToJson`]; bench binaries write one of these
/// next to each printed table.
#[derive(Debug, Clone, Default)]
pub struct MetricsReport {
    /// One entry per component scope.
    pub scopes: Vec<ScopeMetrics>,
}

impl MetricsReport {
    /// Creates an empty report.
    pub fn new() -> Self {
        MetricsReport::default()
    }

    /// Appends one component's snapshot.
    pub fn push(&mut self, scope: ScopeMetrics) {
        self.scopes.push(scope);
    }

    /// Merges another report's scopes into this one.
    pub fn absorb(&mut self, other: MetricsReport) {
        self.scopes.extend(other.scopes);
    }

    /// Returns the report with every scope label prefixed by
    /// `prefix` + `/` — used when one binary runs several clusters.
    pub fn prefixed(mut self, prefix: &str) -> MetricsReport {
        for s in &mut self.scopes {
            s.scope = format!("{prefix}/{}", s.scope);
        }
        self
    }

    /// Finds a scope by label.
    pub fn scope(&self, label: &str) -> Option<&ScopeMetrics> {
        self.scopes.iter().find(|s| s.scope == label)
    }

    /// Sums a counter by `subsystem/name` across all scopes.
    pub fn counter_total(&self, subsystem: Subsystem, name: &str) -> u64 {
        self.scopes
            .iter()
            .filter_map(|s| s.counter(subsystem, name))
            .sum()
    }
}

impl ToJson for CounterSnapshot {
    fn to_json(&self) -> Json {
        Json::obj([
            ("subsystem", self.subsystem.to_string().to_json()),
            ("name", self.name.to_json()),
            ("value", self.value.to_json()),
        ])
    }
}

impl ToJson for GaugeSnapshot {
    fn to_json(&self) -> Json {
        Json::obj([
            ("subsystem", self.subsystem.to_string().to_json()),
            ("name", self.name.to_json()),
            ("value", self.value.to_json()),
        ])
    }
}

impl ToJson for HistogramSummary {
    fn to_json(&self) -> Json {
        Json::obj([
            ("subsystem", self.subsystem.to_string().to_json()),
            ("name", self.name.to_json()),
            ("unit", self.unit.to_json()),
            ("count", self.count.to_json()),
            ("mean", self.mean.to_json()),
            ("p50", self.p50.to_json()),
            ("p95", self.p95.to_json()),
            ("p99", self.p99.to_json()),
            ("min", self.min.to_json()),
            ("max", self.max.to_json()),
        ])
    }
}

impl ToJson for ScopeMetrics {
    fn to_json(&self) -> Json {
        Json::obj([
            ("scope", self.scope.to_json()),
            ("counters", self.counters.to_json()),
            ("gauges", self.gauges.to_json()),
            ("histograms", self.histograms.to_json()),
        ])
    }
}

impl ToJson for MetricsReport {
    fn to_json(&self) -> Json {
        Json::obj([("scopes", self.scopes.to_json())])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_idempotent() {
        let mut m = Metrics::new();
        let a = m.counter(Subsystem::Net, "frames_sent");
        let b = m.counter(Subsystem::Net, "frames_sent");
        let c = m.counter(Subsystem::Kernel, "frames_sent");
        assert_eq!(a, b);
        assert_ne!(a, c);
        m.add(a, 3);
        m.inc(b);
        assert_eq!(m.counter_value(a), 4);
        assert_eq!(m.counter_value(c), 0);
    }

    #[test]
    fn gauges_hold_last_value() {
        let mut m = Metrics::new();
        let g = m.gauge(Subsystem::Cluster, "cpu_utilization");
        m.set_gauge(g, 0.25);
        m.set_gauge(g, 0.75);
        assert_eq!(m.gauge_value(g), 0.75);
    }

    #[test]
    fn histogram_summary_has_ordered_percentiles() {
        let mut m = Metrics::new();
        let h = m.histogram(Subsystem::Migration, "freeze_ms", "ms");
        for i in 1..=200 {
            m.observe(h, i as f64);
        }
        let snap = m.snapshot("test");
        let hs = snap.histogram(Subsystem::Migration, "freeze_ms").unwrap();
        assert_eq!(hs.count, 200);
        let (p50, p95, p99) = (hs.p50.unwrap(), hs.p95.unwrap(), hs.p99.unwrap());
        assert!(p50 <= p95 && p95 <= p99, "{p50} {p95} {p99}");
        assert_eq!(hs.min, Some(1.0));
        assert_eq!(hs.max, Some(200.0));
    }

    #[test]
    fn report_merges_and_queries() {
        let mut a = Metrics::new();
        let c = a.counter(Subsystem::Kernel, "ipc_sends");
        a.add(c, 5);
        let mut b = Metrics::new();
        let c2 = b.counter(Subsystem::Kernel, "ipc_sends");
        b.add(c2, 7);
        let mut report = MetricsReport::new();
        report.push(a.snapshot("ws1"));
        report.push(b.snapshot("ws2"));
        assert_eq!(report.counter_total(Subsystem::Kernel, "ipc_sends"), 12);
        assert_eq!(
            report
                .scope("ws1")
                .unwrap()
                .counter(Subsystem::Kernel, "ipc_sends"),
            Some(5)
        );
        let pre = report.clone().prefixed("run1");
        assert!(pre.scope("run1/ws1").is_some());
    }

    #[test]
    fn report_serializes_to_json() {
        let mut m = Metrics::new();
        let c = m.counter(Subsystem::Net, "frames_sent");
        m.add(c, 9);
        let h = m.histogram(Subsystem::Net, "wire_ms", "ms");
        m.observe(h, 1.5);
        let mut report = MetricsReport::new();
        report.push(m.snapshot("net"));
        let s = report.to_json().pretty();
        assert!(s.contains("\"scope\": \"net\""), "{s}");
        assert!(s.contains("\"frames_sent\""), "{s}");
        assert!(s.contains("\"p95\""), "{s}");
    }
}
