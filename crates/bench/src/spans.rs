//! Span-based profiling support for the bench binaries.
//!
//! The cluster components emit causal spans (see [`vsim::span`]) into
//! the cluster's one trace; this module turns its [`SpanTree`] into the two
//! artifacts the experiments publish:
//!
//! * a Chrome/Perfetto `trace.json` file (one process per station, one
//!   track per emitting component) loadable at <https://ui.perfetto.dev>,
//! * a [`SpanSummary`] of per-name duration percentiles folded into the
//!   experiment's JSON artifact by [`crate::emit_full`].
//!
//! It also hosts the migration phase-breakdown query behind
//! `exp_freeze_time`.

use std::collections::BTreeMap;

use vsim::{chrome, Json, Samples, SimDuration, SpanId, SpanTree, ToJson};

/// The component that allocated a span, recovered from the actor field of
/// its id (see the `SpanIdGen` actor conventions: 1 = cluster scheduler,
/// `0x100 + host` = kernel, `0x200 + host` = migrator).
fn actor_name(id: SpanId) -> &'static str {
    match id.raw() >> 40 {
        1 => "scheduler",
        a if a >= 0x200 => "migrator",
        _ => "kernel",
    }
}

/// Renders a span tree as a Chrome Trace Event JSON document ("X"
/// complete events, timestamps in simulated microseconds). Each station
/// is a process (`pid` = physical-host address) and each emitting
/// component a named thread, so Perfetto shows one lane per
/// kernel/migrator/scheduler per station. Unclosed spans are skipped:
/// they have no extent to draw.
pub fn perfetto_json(tree: &SpanTree) -> Json {
    let mut events = Vec::new();
    let mut tracks: BTreeMap<(u16, u64), &'static str> = BTreeMap::new();
    for n in tree.nodes() {
        let Some(close) = n.close else { continue };
        let actor = n.id.raw() >> 40;
        tracks.insert((n.host, actor), actor_name(n.id));
        let mut args = vec![("span", format!("{}", n.id).to_json())];
        if let Some(p) = n.parent.span_id() {
            args.push(("parent", format!("{p}").to_json()));
        }
        events.push(Json::obj([
            ("name", n.name.to_json()),
            ("ph", "X".to_json()),
            ("ts", n.open.as_micros().to_json()),
            ("dur", close.saturating_since(n.open).as_micros().to_json()),
            ("pid", u64::from(n.host).to_json()),
            ("tid", actor.to_json()),
            ("args", Json::obj(args)),
        ]));
    }
    let mut named_pids = std::collections::BTreeSet::new();
    for (&(host, actor), &name) in &tracks {
        if named_pids.insert(host) {
            events.push(chrome::process_name(
                u64::from(host),
                &format!("station {host}"),
            ));
        }
        events.push(chrome::thread_name(u64::from(host), actor, name));
    }
    chrome::document(events)
}

/// Writes the Perfetto rendering of `tree` beside the artifact: to
/// `<out stem>_trace.json` next to `--out` when given, else to
/// `<artifact_dir>/<name>_trace.json`. Exits with code 1 when it cannot.
pub fn export_trace(name: &str, tree: &SpanTree) {
    let path = match &crate::args().out {
        Some(out) => {
            let stem = out.file_stem().unwrap_or_default().to_string_lossy();
            out.with_file_name(format!("{stem}_trace.json"))
        }
        None => crate::artifact_dir().join(format!("{name}_trace.json")),
    };
    crate::write_or_exit(&path, &perfetto_json(tree).pretty());
    println!(
        "[trace: {} — load at https://ui.perfetto.dev]",
        path.display()
    );
}

/// Per-span-name duration statistics accumulated over one or more runs,
/// reported as count plus p50/p95/p99 milliseconds.
#[derive(Default)]
pub struct SpanSummary {
    by_name: BTreeMap<&'static str, Samples>,
}

impl SpanSummary {
    /// An empty summary.
    pub fn new() -> Self {
        SpanSummary::default()
    }

    /// Folds every closed span of `tree` into the summary.
    pub fn absorb_tree(&mut self, tree: &SpanTree) {
        for n in tree.nodes() {
            if let Some(d) = n.duration() {
                self.by_name.entry(n.name).or_default().add_duration(d);
            }
        }
    }

    /// True when no closed span has been absorbed.
    pub fn is_empty(&self) -> bool {
        self.by_name.is_empty()
    }

    /// Rows of `(name, count, p50 ms, p95 ms, p99 ms)`.
    pub fn rows(&self) -> Vec<(&'static str, usize, f64, f64, f64)> {
        let ms = |s: f64| s * 1e3;
        self.by_name
            .iter()
            .map(|(name, s)| {
                (
                    *name,
                    s.count(),
                    ms(s.percentile(50.0).unwrap_or(0.0)),
                    ms(s.percentile(95.0).unwrap_or(0.0)),
                    ms(s.percentile(99.0).unwrap_or(0.0)),
                )
            })
            .collect()
    }

    /// Serializes as an array of `{span, count, p50_ms, p95_ms, p99_ms}`.
    pub fn to_json(&self) -> Json {
        Json::arr(self.rows().into_iter().map(|(name, count, p50, p95, p99)| {
            Json::obj([
                ("span", name.to_json()),
                ("count", (count as u64).to_json()),
                ("p50_ms", p50.to_json()),
                ("p95_ms", p95.to_json()),
                ("p99_ms", p99.to_json()),
            ])
        }))
    }
}

/// The phase breakdown of one migration, read off its span tree.
///
/// The migrator opens each top-level phase the instant the previous one
/// closes, so `selection + initialization + precopy + freeze` tiles the
/// root `migration` span exactly; likewise `residual_copy + commit +
/// rebind` tiles `freeze`.
#[derive(Debug, Clone, Copy, Default)]
pub struct MigrationPhases {
    /// Physical host the migrator ran on.
    pub host: u16,
    /// Host-selection phase (multicast query to decision).
    pub selection: SimDuration,
    /// Remote environment initialization.
    pub initialization: SimDuration,
    /// All unfrozen pre-copy rounds combined.
    pub precopy: SimDuration,
    /// The frozen window (residual copy + commit + rebind).
    pub freeze: SimDuration,
    /// Residual dirty-page copy while frozen.
    pub residual_copy: SimDuration,
    /// Kernel-state transfer and installation.
    pub commit: SimDuration,
    /// Binding-cache rebind and unfreeze on the target.
    pub rebind: SimDuration,
    /// Duration of the root `migration` span.
    pub total: SimDuration,
}

impl MigrationPhases {
    /// Sum of the top-level phases; equals [`MigrationPhases::total`]
    /// when the phase spans tile the root (the invariant the migrator
    /// maintains).
    pub fn phase_sum(&self) -> SimDuration {
        self.selection + self.initialization + self.precopy + self.freeze
    }
}

/// Extracts one [`MigrationPhases`] per closed root `migration` span in
/// `tree`, in span-id order (i.e. start order per migrator).
pub fn migration_phases(tree: &SpanTree) -> Vec<MigrationPhases> {
    let mut out = Vec::new();
    for root in tree.spans_named("migration") {
        let Some(total) = tree.duration_of(root.id) else {
            continue;
        };
        let mut p = MigrationPhases {
            host: root.host,
            total,
            ..MigrationPhases::default()
        };
        for (name, d) in tree.breakdown(root.id) {
            match name {
                "selection" => p.selection = d,
                "initialization" => p.initialization = d,
                "precopy_round" => p.precopy = d,
                "freeze" => p.freeze = d,
                _ => {}
            }
        }
        for freeze in tree.children(root.id).filter(|c| c.name == "freeze") {
            for (name, d) in tree.breakdown(freeze.id) {
                match name {
                    "residual_copy" => p.residual_copy += d,
                    "commit" => p.commit += d,
                    "rebind" => p.rebind += d,
                    _ => {}
                }
            }
        }
        out.push(p);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use vsim::{SimTime, SpanContext, SpanIdGen, Subsystem, Trace, TraceLevel};

    fn sample_tree() -> SpanTree {
        let mut trace = Trace::new(TraceLevel::Detail);
        let mut gen = SpanIdGen::new(0x200 + 3);
        let t = SimTime::from_micros;
        let root = gen.next();
        root.open(
            &mut trace,
            TraceLevel::Info,
            t(100),
            Subsystem::Migration,
            SpanContext::NONE,
            "migration",
            3,
        );
        let child = gen.next();
        child.open(
            &mut trace,
            TraceLevel::Info,
            t(100),
            Subsystem::Migration,
            root.ctx(),
            "selection",
            3,
        );
        child.close(&mut trace, TraceLevel::Info, t(150), Subsystem::Migration);
        root.close(&mut trace, TraceLevel::Info, t(150), Subsystem::Migration);
        SpanTree::build(&trace)
    }

    #[test]
    fn perfetto_round_trips_through_the_parser() {
        let tree = sample_tree();
        let doc = perfetto_json(&tree);
        let parsed = Json::parse(&doc.pretty()).expect("valid JSON");
        let events = parsed
            .get("traceEvents")
            .and_then(|e| e.as_arr())
            .expect("traceEvents array");
        // Two "X" spans plus process/thread metadata.
        let spans: Vec<&Json> = events
            .iter()
            .filter(|e| e.get("ph").and_then(|p| p.as_str()) == Some("X"))
            .collect();
        assert_eq!(spans.len(), 2);
        let root = spans
            .iter()
            .find(|e| e.get("name").and_then(|n| n.as_str()) == Some("migration"))
            .expect("migration event");
        assert_eq!(root.get("ts").and_then(|v| v.as_f64()), Some(100.0));
        assert_eq!(root.get("dur").and_then(|v| v.as_f64()), Some(50.0));
        assert_eq!(root.get("pid").and_then(|v| v.as_f64()), Some(3.0));
        assert!(events.iter().any(|e| {
            e.get("ph").and_then(|p| p.as_str()) == Some("M")
                && e.get("name").and_then(|n| n.as_str()) == Some("thread_name")
        }));
    }

    #[test]
    fn summary_percentiles() {
        let tree = sample_tree();
        let mut s = SpanSummary::new();
        s.absorb_tree(&tree);
        let rows = s.rows();
        assert_eq!(rows.len(), 2);
        let (name, count, p50, ..) = rows[0];
        assert_eq!(name, "migration");
        assert_eq!(count, 1);
        assert!((p50 - 0.05).abs() < 1e-9, "50us = 0.05ms, got {p50}");
    }
}
