//! The telemetry schema: every `(subsystem, kind, name, unit)` a cluster
//! exports, read off a live one.
//!
//! Builds a one-workstation cluster without running it and lists the
//! names carried by its `metrics_report()` and `series_report()`.
//! Counters and gauges have unit `-`; histograms and series carry their
//! own. Every station exports the same names, so rows are deduplicated,
//! then grouped by subsystem (in `Subsystem` order), keeping export
//! order within a group. EXPERIMENTS.md renders this artifact's `table`
//! as the documented schema, so `vrun docs --check` fails when a name is
//! added, renamed or dropped without the documentation following.

use vbench::emit;
use vcluster::{Cluster, ClusterConfig};
use vsim::Subsystem;

struct Row {
    subsystem: &'static str,
    kind: &'static str,
    name: &'static str,
    unit: &'static str,
}
vsim::impl_to_json!(Row {
    subsystem,
    kind,
    name,
    unit
});

fn main() {
    vbench::args(); // start the wall clock; this experiment has no knobs
    let c = Cluster::new(ClusterConfig {
        workstations: 1,
        ..ClusterConfig::default()
    });
    let metrics = c.metrics_report();
    let series = c.series_report();
    let mut exported: Vec<(Subsystem, &'static str, &'static str, &'static str)> = Vec::new();
    for scope in &metrics.scopes {
        for m in &scope.counters {
            exported.push((m.subsystem, "counter", m.name, "-"));
        }
        for m in &scope.gauges {
            exported.push((m.subsystem, "gauge", m.name, "-"));
        }
        for m in &scope.histograms {
            exported.push((m.subsystem, "histogram", m.name, m.unit));
        }
    }
    for s in &series.series {
        exported.push((s.subsystem, "series", s.name, s.unit));
    }
    let mut unique = Vec::new();
    for row in exported {
        if !unique.contains(&row) {
            unique.push(row);
        }
    }
    unique.sort_by_key(|&(subsystem, ..)| subsystem); // stable

    let rows: Vec<Row> = unique
        .into_iter()
        .map(|(subsystem, kind, name, unit)| Row {
            subsystem: subsystem.label(),
            kind,
            name,
            unit,
        })
        .collect();
    // Nothing runs, so the metrics report is empty.
    emit("telemetry_schema", &rows, &vsim::MetricsReport::new());
}
