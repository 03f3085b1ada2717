//! Same-seed replay regression: two identical cluster runs must produce
//! identical trace streams, *including* through the file-server and
//! multicast (program-manager group) paths.
//!
//! This is the behavioural twin of the `clippy.toml` ban on hash maps:
//! hash-ordered iteration anywhere in the library crates shows up here as
//! a diverged trace long before it shows up as a wrong answer. The
//! workload is chosen to force both audited paths: `ExecTarget::AnyIdle`
//! selection rides the program-manager multicast group, and the program
//! images plus an explicit `FileRead` phase stream through the network
//! file server.

use v_system::prelude::*;
use v_system::vnet::McastGroup;
use v_system::vsim::{ToJson, TraceRecord};

/// The well-known program-manager group (mirrors `PM_MCAST` in vcluster).
const PM_MCAST: McastGroup = McastGroup(1);

/// Everything one run produces that a replay must reproduce exactly.
struct Outcome {
    records: Vec<TraceRecord>,
    events_delivered: u64,
    images_loaded: u64,
    bytes_read: u64,
    mcast_members: usize,
    faults_injected: u64,
    /// The change-point time series, fully serialized: series identity
    /// is byte identity of the JSON artifact two runs would emit.
    series_json: String,
    sweeps: u64,
    /// Points offered over all series (each one a change of value).
    changes: u64,
}

/// One full cluster run at the given seed: three `@*` remote execs whose
/// programs read a shared file, run to quiescence under light packet loss
/// so retransmission randomness is in play, collecting the one trace every
/// component emits into.
fn run_once(seed: u64) -> Outcome {
    run_once_with(seed, FaultPlan::none())
}

/// [`run_once`], with a fault plan driving crashes, partitions, and
/// corruption windows through the run.
fn run_once_with(seed: u64, faults: FaultPlan) -> Outcome {
    let mut c = Cluster::new(ClusterConfig {
        workstations: 4,
        seed,
        loss: LossModel::Bernoulli(0.02),
        trace: TraceLevel::Detail,
        faults,
        sampling: Some(SamplingSpec::default()),
        ..ClusterConfig::default()
    });
    c.file_server_mut().add_file("replay.dat", 48 * 1024);
    for ws in 1..=3 {
        let row = profiles::row("cc68").expect("profile row");
        let profile = ProgramProfile {
            name: "cc68".into(),
            layout: profiles::layout_for("cc68"),
            wws: row.fit(),
            phases: vec![
                Phase::FileRead {
                    name: "replay.dat".into(),
                    bytes: 48 * 1024,
                    chunk: 8 * 1024,
                },
                Phase::Compute(SimDuration::from_secs(2)),
            ],
        };
        c.exec(ws, profile, ExecTarget::AnyIdle, Priority::GUEST);
    }
    c.run_for(SimDuration::from_secs(60));
    for _ in 0..20 {
        if c.pending() == 0 {
            break;
        }
        c.run_for(SimDuration::from_secs(30));
    }
    assert_eq!(c.pending(), 0, "seed {seed} failed to quiesce");
    let records = c.trace().records().to_vec();
    Outcome {
        records,
        events_delivered: c.events_delivered(),
        images_loaded: c.file_server().stats().images_loaded,
        bytes_read: c.file_server().stats().bytes_read,
        mcast_members: c.net.members(PM_MCAST).len(),
        faults_injected: c.stats.faults_injected,
        series_json: c.series_report().to_json().pretty(),
        sweeps: c.series().sweeps(),
        changes: c.series_report().series.iter().map(|s| s.seen).sum(),
    }
}

/// Two same-seed runs must agree event-for-event; and the comparison must
/// not be vacuous — the runs have to have actually loaded images from the
/// file server and selected hosts through the multicast group.
#[test]
fn same_seed_runs_produce_identical_traces() {
    for seed in [7u64, 1985] {
        let a = run_once(seed);
        let b = run_once(seed);

        // Non-vacuity: the file-server path carried real traffic...
        assert!(a.images_loaded >= 3, "seed {seed}: no image loads traced");
        assert!(a.bytes_read >= 3 * 48 * 1024, "seed {seed}: no file reads");
        // ...and the program-manager multicast group was populated, with
        // the selection round-trip visible as successful remote execs.
        assert!(a.mcast_members >= 2, "seed {seed}: PM group empty");
        let exec_done = a
            .records
            .iter()
            .filter(|r| matches!(r.event, TraceEvent::ExecDone { success: true, .. }))
            .count();
        assert!(exec_done >= 3, "seed {seed}: @* selections missing");
        // The loss model actually perturbed the run (the whole point of
        // replaying under randomness).
        assert!(
            a.records
                .iter()
                .any(|r| matches!(r.event, TraceEvent::FrameDropped { .. })),
            "seed {seed}: loss model never fired"
        );

        // Replay equality, the actual regression check.
        assert_eq!(
            (a.images_loaded, a.bytes_read),
            (b.images_loaded, b.bytes_read),
            "seed {seed}: file-server stats diverged"
        );
        // Every component stamps the current instant into the one shared
        // trace, so emission order is time order.
        assert!(
            a.records.windows(2).all(|w| w[0].at <= w[1].at),
            "seed {seed}: trace went backwards in sim time"
        );
        assert_same_trace(&a, &b, &format!("seed {seed}"));
    }
}

/// Asserts that two runs delivered the same number of events and
/// record-identical traces.
fn assert_same_trace(a: &Outcome, b: &Outcome, label: &str) {
    assert_eq!(
        a.events_delivered, b.events_delivered,
        "{label}: event counts diverged"
    );
    assert_eq!(
        a.records.len(),
        b.records.len(),
        "{label}: trace lengths diverged"
    );
    for (i, (ra, rb)) in a.records.iter().zip(&b.records).enumerate() {
        assert_eq!(ra, rb, "{label}: trace diverged at record {i}");
    }
}

/// Same seed: the change-point time series must serialize
/// byte-identically — the telemetry layer inherits the replay guarantee.
/// The series are updated after every dispatch, so any nondeterminism in
/// the dispatch order or in the values read diverges here.
#[test]
fn same_seed_runs_produce_identical_series() {
    let a = run_once(1985);
    let b = run_once(1985);
    // Non-vacuity: one update per delivered event, and the default
    // cluster series recorded real change (the seed-1985 run records 263
    // changes over 983 events: queue depth alone changes at 221 instants).
    assert_eq!(a.sweeps, a.events_delivered, "an update was skipped");
    assert!(a.changes > 200, "series barely changed ({})", a.changes);
    for series in ["queue_depth", "ready_programs", "active_leases"] {
        assert!(
            a.series_json.contains(series),
            "default series `{series}` missing from report"
        );
    }
    assert_eq!(
        a.series_json, b.series_json,
        "same-seed series artifacts diverged"
    );
}

/// Different seeds must *not* replay identically — otherwise the equality
/// above proves nothing about determinism, only about constancy.
#[test]
fn different_seeds_diverge() {
    let a = run_once(7);
    let b = run_once(8);
    assert_ne!(
        a.records, b.records,
        "different seeds produced identical traces"
    );
}

/// Same-seed replay must also hold with fault plans enabled: reboots,
/// partition heals, corruption-window closes, and fault-point firings all
/// ride the event queue, so anything that mis-orders them diverges here
/// even if the fault-free replay above stays identical.
#[test]
fn same_seed_fault_plan_runs_produce_identical_traces() {
    for plan in ["crash_storm", "lease_chaos"] {
        let named = || {
            FaultPlan::by_name(plan, 1985, 5, SimDuration::from_secs(30)).expect("known plan name")
        };
        let a = run_once_with(1985, named());
        let b = run_once_with(1985, named());
        assert!(a.faults_injected >= 1, "plan {plan}: injected nothing");
        assert_eq!(
            a.faults_injected, b.faults_injected,
            "plan {plan}: fault execution diverged"
        );
        assert_same_trace(&a, &b, &format!("plan {plan}"));
    }
}
