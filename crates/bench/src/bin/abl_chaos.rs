//! A5 — chaos soak: recovery machinery under seeded fault plans.
//!
//! Sweeps random-but-reproducible fault plans (crashes with reboot,
//! partitions with heal, latency spikes, corruption windows, service
//! restarts) over a 4-workstation cluster running a mixed exec+migration
//! workload, drains every run to quiescence, and audits the cluster-wide
//! invariants: conservation of programs, reclaimed temporaries, drained
//! transaction tables, sane binding caches. A correct cluster survives
//! every seed with zero violations; the cost of survival shows up as
//! retransmissions, migration retries, and dropped frames.

use vbench::{emit_full, SpanSummary};
use vcluster::{Cluster, ClusterConfig, Command};
use vcore::{ExecTarget, MigrationConfig};
use vkernel::Priority;
use vsim::{DetRng, FaultPlan, SimDuration, SimTime, TraceLevel};
use vworkload::profiles;

/// How many independent fault plans to soak (one cluster run each).
const FAULT_PLANS: u64 = 32;

struct Row {
    seed: u64,
    fault_events: usize,
    faults_injected: u64,
    violations: u64,
    retransmissions: u64,
    migration_retries: u64,
    corrupt_frames_dropped: u64,
    orphaned_transactions: u64,
    quiesced_at_secs: f64,
}
vsim::impl_to_json!(Row {
    seed,
    fault_events,
    faults_injected,
    violations,
    retransmissions,
    migration_retries,
    corrupt_frames_dropped,
    orphaned_transactions,
    quiesced_at_secs
});

fn main() {
    let seed_base = vbench::config_u64("seed", 0xC0FFEE);
    // Info keeps the migration phase spans; faults leave some spans open
    // (lost transactions), which is visible data here, not an error.
    let level = TraceLevel::Info;
    let mut rows = Vec::new();
    let mut metrics = vsim::MetricsReport::new();
    let mut summary = SpanSummary::new();
    let mut clean = 0u64;
    for seed in 0..FAULT_PLANS {
        let mut rng = DetRng::seed(seed_base ^ seed);
        let plan = FaultPlan::random(&mut rng, 5, SimDuration::from_secs(30));
        let fault_events = plan.events.len();
        let mut c = Cluster::new(ClusterConfig {
            workstations: 4,
            seed,
            trace: level,
            faults: plan,
            migration: MigrationConfig {
                retry_limit: 3,
                ..MigrationConfig::default()
            },
            ..ClusterConfig::default()
        });
        for ws in 1..=3 {
            c.exec(
                ws,
                profiles::simulation_profile(SimDuration::from_secs(8)),
                ExecTarget::AnyIdle,
                Priority::GUEST,
            );
        }
        for (i, at) in [(1usize, 6u64), (2, 9), (3, 12), (4, 15)] {
            c.at(
                SimTime::from_micros(at * 1_000_000),
                Command::Migrate {
                    ws: i,
                    lh: None,
                    destroy_if_stuck: false,
                },
            );
        }
        c.run_for(SimDuration::from_secs(45));
        while c.pending() > 0 {
            c.run_for(SimDuration::from_secs(30));
        }
        let report = c.audit(true);
        let retransmissions: u64 = c
            .stations
            .iter()
            .map(|w| w.kernel.stats().retransmissions)
            .sum();
        let orphaned: u64 = c
            .stations
            .iter()
            .map(|w| w.kernel.stats().orphaned_transactions)
            .sum();
        let mig_retries = c
            .metrics_report()
            .counter_total(vsim::Subsystem::Migration, "retried");
        let quiesced = c.now().as_secs_f64();
        if report.is_clean() {
            clean += 1;
        }
        metrics.absorb(c.metrics_report().prefixed(&format!("seed{seed}")));
        let tree = c.span_tree();
        summary.absorb_tree(&tree);
        if seed + 1 == FAULT_PLANS {
            vbench::export_trace("abl_chaos", &tree);
        }
        rows.push(Row {
            seed,
            fault_events,
            faults_injected: c.stats.faults_injected,
            violations: report.violations.len() as u64,
            retransmissions,
            migration_retries: mig_retries,
            corrupt_frames_dropped: c.stats.corrupt_frames_dropped,
            orphaned_transactions: orphaned,
            quiesced_at_secs: quiesced,
        });
    }
    println!(
        "\nShape check: {clean}/{FAULT_PLANS} seeds finish with a clean audit —\n\
         crashes reboot into broadcast re-query (no forwarding state),\n\
         half-built migrations are reclaimed by the target watchdogs, and\n\
         partitions heal into plain retransmission catch-up. The damage is\n\
         visible only in the recovery counters."
    );
    emit_full(
        "abl_chaos",
        &rows,
        &metrics,
        vbench::Extras::spans(&summary),
    );
}
