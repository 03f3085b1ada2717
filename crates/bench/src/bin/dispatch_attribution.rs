//! P3 — where the event loop spends its time: per-subsystem /
//! per-event-kind dispatch attribution from the engine self-profiler.
//!
//! Drives a small but busy cluster (local + remote programs, a live
//! migration, telemetry on) and reports each event kind's
//! dispatch count and share of all dispatches. The *counts* are a pure
//! function of the seed, so the table is deterministic and renderable by
//! `vrun docs`; wall-clock attribution (from the injected [`WallClock`])
//! lives in the artifact's `profile` section, which is the
//! flame-graph-shaped input `vtrace top` consumes. The `series` section
//! carries the default cluster telemetry for `vtrace aggregate`/`export`.

use vbench::{emit_full, launch, trace_level, Extras, Table, WallClock};
use vcluster::{Cluster, ClusterConfig};
use vcore::ExecTarget;
use vkernel::Priority;
use vnet::LossModel;
use vsim::{SamplingSpec, SimDuration, TraceLevel};
use vworkload::profiles;

struct Row {
    kind: String,
    subsystem: String,
    dispatches: u64,
    share_pct: f64,
}
vsim::impl_to_json!(Row {
    kind,
    subsystem,
    dispatches,
    share_pct
});

fn main() {
    vbench::args();
    let seed = vbench::config_u64("seed", 1985);
    let mut c = Cluster::new(ClusterConfig {
        workstations: 4,
        seed,
        loss: LossModel::None,
        trace: trace_level(TraceLevel::Warn),
        sampling: Some(SamplingSpec::default()),
        ..ClusterConfig::default()
    });
    c.set_host_clock(Box::new(WallClock::new()));

    // A mixed workload: a local compute program, a guest executed
    // remotely, and a migration of that guest mid-run.
    let parser = profiles::row("parser").expect("table 4-1 row");
    let (_, _) = launch(
        &mut c,
        1,
        profiles::steady_profile(parser),
        ExecTarget::Local,
        Priority::LOCAL,
    );
    let (guest, _) = launch(
        &mut c,
        2,
        profiles::simulation_profile(SimDuration::from_secs(120)),
        ExecTarget::Named("ws3".into()),
        Priority::GUEST,
    );
    c.run_for(SimDuration::from_secs(10));
    c.migrateprog(2, guest, false);
    c.run_for(SimDuration::from_secs(50));

    let profile = c.profile_report();
    let series = c.series_report();
    let total = profile.total_dispatches().max(1);
    let mut t = Table::new(
        "P3: dispatch attribution by event kind",
        &["kind", "subsystem", "dispatches", "share %"],
    );
    let mut rows = Vec::new();
    // Sort by dispatches (the deterministic column), not wall time.
    let mut slots = profile.slots.clone();
    slots.sort_by(|a, b| {
        b.dispatches
            .cmp(&a.dispatches)
            .then_with(|| a.kind.cmp(b.kind))
    });
    for s in &slots {
        if s.dispatches == 0 {
            continue;
        }
        let share = s.dispatches as f64 / total as f64 * 100.0;
        t.row(&[
            s.kind.to_string(),
            s.subsystem.to_string(),
            s.dispatches.to_string(),
            format!("{share:.1}"),
        ]);
        rows.push(Row {
            kind: s.kind.to_string(),
            subsystem: s.subsystem.to_string(),
            dispatches: s.dispatches,
            share_pct: (share * 10.0).round() / 10.0,
        });
    }
    t.print();
    println!(
        "\nClock: {} — dispatch counts are seed-deterministic; the\n\
         profile section adds wall-ns attribution from this run.",
        profile.clock
    );

    let metrics = c.metrics_report();
    let extras = Extras {
        series: Some(&series),
        profile: Some(&profile),
        ..Extras::default()
    };
    emit_full("dispatch_attribution", &rows, &metrics, extras);
}
