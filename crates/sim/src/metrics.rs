//! Metrics report types.
//!
//! Counters, gauges and sample histograms live where they change: plain
//! fields on the component that records them ([`crate::Engine`]'s event
//! counts, the wire's and kernel's `*Stats` structs, the migrator's
//! [`Samples`], the wire's frame-size [`Tally`]). Each component exports
//! them through one snapshot function that lists the exported names, in
//! a fixed order, as a [`ScopeMetrics`]; nothing is stored twice.
//!
//! [`Samples`]: crate::Samples
//! [`Tally`]: crate::Tally
//!
//! A [`MetricsReport`] is an immutable set of scopes suitable for JSON
//! output: the cluster runtime merges the per-component snapshots
//! (engine, wire, per-station kernels, migrators) into one report with
//! scope labels, and every bench binary writes that report beside its
//! `table` in its artifact.
//!
//! # Examples
//!
//! ```
//! use vsim::{Samples, ScopeMetrics, Subsystem};
//!
//! let sends = 1;
//! let mut freeze_ms = Samples::new();
//! freeze_ms.add(5.25);
//! let snap = ScopeMetrics::new("ws1")
//!     .with_counter(Subsystem::Kernel, "ipc_sends", sends)
//!     .with_histogram(Subsystem::Migration, "freeze_ms", "ms", &freeze_ms);
//! assert_eq!(snap.counter(Subsystem::Kernel, "ipc_sends"), Some(1));
//! assert_eq!(snap.histograms[0].count, 1);
//! ```

use crate::json::{Json, ToJson};
use crate::stats::Summary;
use crate::trace::Subsystem;

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
    fn of(subsystem: Subsystem, name: &'static str, unit: &'static str, s: Summary) -> Self {
        HistogramSummary {
            subsystem,
            name,
            unit,
            count: s.count,
            mean: s.mean,
            p50: s.p50,
            p95: s.p95,
            p99: s.p99,
            min: s.min,
            max: s.max,
        }
    }
}

/// All metrics of one component, under a scope label.
#[derive(Debug, Clone)]
pub struct ScopeMetrics {
    /// Scope label (e.g. `"ws2"`, `"net"`, `"engine"`).
    pub scope: String,
    /// Counters, in export order.
    pub counters: Vec<CounterSnapshot>,
    /// Gauges, in export order.
    pub gauges: Vec<GaugeSnapshot>,
    /// Histogram summaries, in export order.
    pub histograms: Vec<HistogramSummary>,
}

impl ScopeMetrics {
    /// An empty scope labelled `scope` (e.g. `"ws2"`, `"net"`).
    pub fn new(scope: &str) -> Self {
        ScopeMetrics {
            scope: scope.to_string(),
            counters: Vec::new(),
            gauges: Vec::new(),
            histograms: Vec::new(),
        }
    }

    /// Appends a counter's value.
    pub fn with_counter(mut self, subsystem: Subsystem, name: &'static str, value: u64) -> Self {
        self.counters.push(CounterSnapshot {
            subsystem,
            name,
            value,
        });
        self
    }

    /// Appends a gauge's value.
    pub fn with_gauge(mut self, subsystem: Subsystem, name: &'static str, value: f64) -> Self {
        self.gauges.push(GaugeSnapshot {
            subsystem,
            name,
            value,
        });
        self
    }

    /// Appends the summary of a sample histogram (a `&`[`Samples`] or a
    /// `&`[`Tally`]); `unit` labels the samples in reports (`"ms"`,
    /// `"KB"`, `"bytes"`, …).
    ///
    /// [`Samples`]: crate::Samples
    /// [`Tally`]: crate::Tally
    pub fn with_histogram(
        mut self,
        subsystem: Subsystem,
        name: &'static str,
        unit: &'static str,
        samples: impl Into<Summary>,
    ) -> Self {
        let summary = samples.into();
        self.histograms
            .push(HistogramSummary::of(subsystem, name, unit, summary));
        self
    }

    /// Appends another component's metrics to this scope (a station's
    /// kernel and migrator share one scope).
    pub fn merge(mut self, other: ScopeMetrics) -> Self {
        self.counters.extend(other.counters);
        self.gauges.extend(other.gauges);
        self.histograms.extend(other.histograms);
        self
    }

    /// Value of a counter by `subsystem/name`, if exported.
    pub fn counter(&self, subsystem: Subsystem, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|c| c.subsystem == subsystem && c.name == name)
            .map(|c| c.value)
    }

    /// Value of a gauge by `subsystem/name`, if exported.
    pub fn gauge(&self, subsystem: Subsystem, name: &str) -> Option<f64> {
        self.gauges
            .iter()
            .find(|g| g.subsystem == subsystem && g.name == name)
            .map(|g| g.value)
    }

    /// A histogram summary by `subsystem/name`, if exported.
    pub fn histogram(&self, subsystem: Subsystem, name: &str) -> Option<&HistogramSummary> {
        self.histograms
            .iter()
            .find(|h| h.subsystem == subsystem && h.name == name)
    }
}

/// A machine-readable snapshot of every component's metrics in a run.
///
/// Serializes to JSON via [`ToJson`]; bench binaries write one of these
/// next to each artifact `table`.
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
    use crate::Samples;

    #[test]
    fn scope_keeps_export_order_and_answers_queries() {
        let snap = ScopeMetrics::new("net")
            .with_counter(Subsystem::Net, "frames_sent", 4)
            .with_counter(Subsystem::Kernel, "frames_sent", 0)
            .with_gauge(Subsystem::Cluster, "cpu_utilization", 0.75);
        let names: Vec<_> = snap.counters.iter().map(|c| c.name).collect();
        assert_eq!(names, ["frames_sent", "frames_sent"]);
        assert_eq!(snap.counter(Subsystem::Net, "frames_sent"), Some(4));
        assert_eq!(snap.counter(Subsystem::Kernel, "frames_sent"), Some(0));
        assert_eq!(
            snap.gauge(Subsystem::Cluster, "cpu_utilization"),
            Some(0.75)
        );
        assert_eq!(snap.counter(Subsystem::Net, "absent"), None);
    }

    #[test]
    fn histogram_summary_has_ordered_percentiles() {
        let mut s = Samples::new();
        for i in 1..=200 {
            s.add(i as f64);
        }
        let snap =
            ScopeMetrics::new("test").with_histogram(Subsystem::Migration, "freeze_ms", "ms", &s);
        let hs = snap.histogram(Subsystem::Migration, "freeze_ms").unwrap();
        assert_eq!(hs.count, 200);
        let (p50, p95, p99) = (hs.p50.unwrap(), hs.p95.unwrap(), hs.p99.unwrap());
        assert!(p50 <= p95 && p95 <= p99, "{p50} {p95} {p99}");
        assert_eq!(hs.min, Some(1.0));
        assert_eq!(hs.max, Some(200.0));
    }

    #[test]
    fn merge_appends_each_kind_in_order() {
        let mut s = Samples::new();
        s.add(1.0);
        let merged = ScopeMetrics::new("ws1")
            .with_counter(Subsystem::Kernel, "sends", 2)
            .merge(
                ScopeMetrics::new("ws1")
                    .with_counter(Subsystem::Migration, "started", 1)
                    .with_histogram(Subsystem::Migration, "total_ms", "ms", &s),
            )
            .with_gauge(Subsystem::Cluster, "cpu_local_ms", 3.0);
        let names: Vec<_> = merged.counters.iter().map(|c| c.name).collect();
        assert_eq!(names, ["sends", "started"]);
        assert_eq!(merged.histograms.len(), 1);
        assert_eq!(merged.gauges[0].name, "cpu_local_ms");
    }

    #[test]
    fn report_merges_and_queries() {
        let mut report = MetricsReport::new();
        report.push(ScopeMetrics::new("ws1").with_counter(Subsystem::Kernel, "ipc_sends", 5));
        report.push(ScopeMetrics::new("ws2").with_counter(Subsystem::Kernel, "ipc_sends", 7));
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
        let mut s = Samples::new();
        s.add(1.5);
        let mut report = MetricsReport::new();
        report.push(
            ScopeMetrics::new("net")
                .with_counter(Subsystem::Net, "frames_sent", 9)
                .with_histogram(Subsystem::Net, "wire_ms", "ms", &s),
        );
        let s = report.to_json().pretty();
        assert!(s.contains("\"scope\": \"net\""), "{s}");
        assert!(s.contains("\"frames_sent\""), "{s}");
        assert!(s.contains("\"p95\""), "{s}");
    }
}
