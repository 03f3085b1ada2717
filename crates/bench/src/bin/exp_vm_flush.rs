//! E8 — Figure 3-1 / §3.2: migration in a demand-paged system.
//!
//! Instead of copying address spaces host-to-host, flush modified pages to
//! the network file server and let the new host fault them in on demand.
//! "This approach ... takes two network transfers instead of just one for
//! pages that are dirty on the original host and then referenced on the
//! new host. However, we expect this technique to allow us to move
//! programs off of the original host faster."
//!
//! Compares direct pre-copy and VM-flush on the same workload: bytes moved
//! on the source path, total network bytes (including the later demand
//! fetch), and time to evacuate the source.

use vbench::{emit, launch};
use vcluster::{Cluster, ClusterConfig};
use vcore::{ExecTarget, MigrationConfig, MigrationReport, StopPolicy, Strategy};
use vkernel::Priority;
use vnet::LossModel;
use vsim::{SimDuration, TraceLevel};
use vworkload::profiles;

struct Row {
    strategy: &'static str,
    source_path_kb: u64,
    total_network_kb: u64,
    double_copied_kb: u64,
    evacuation_secs: f64,
    freeze_ms: f64,
}
vsim::impl_to_json!(Row {
    strategy,
    source_path_kb,
    total_network_kb,
    double_copied_kb,
    evacuation_secs,
    freeze_ms
});

fn migrate(strategy: Strategy, seed: u64) -> (MigrationReport, u64, vsim::MetricsReport) {
    let cfg = ClusterConfig {
        workstations: 3,
        seed,
        loss: LossModel::None,
        trace: TraceLevel::Warn,
        migration: MigrationConfig {
            strategy,
            ..MigrationConfig::default()
        },
        ..ClusterConfig::default()
    };
    let mut c = Cluster::new(cfg);
    let profile = profiles::simulation_profile(SimDuration::from_secs(3600));
    let (lh, _) = launch(
        &mut c,
        1,
        profile,
        ExecTarget::Named("ws2".into()),
        Priority::GUEST,
    );
    c.run_for(SimDuration::from_secs(20));
    c.migrateprog(2, lh, false);
    c.run_for(SimDuration::from_secs(60));
    let r = c.migration_reports[0].clone();
    assert!(r.success, "{r:?}");
    // Let any background demand-fetch finish, then read what the target
    // actually pulled back over the wire.
    c.run_for(SimDuration::from_secs(60));
    let fetched = c
        .stations
        .iter()
        .map(|w| w.pm.stats().fetched_bytes)
        .sum::<u64>();
    let m = c.metrics_report();
    (r, fetched, m)
}

fn main() {
    let seed = vbench::config_u64("seed", 11);
    let (pre, pre_fetched, pre_metrics) = migrate(Strategy::PreCopy(StopPolicy::default()), seed);
    let (vm, vm_fetched, vm_metrics) = migrate(
        Strategy::VmFlush {
            stop: StopPolicy::default(),
        },
        seed,
    );
    let fetched_of = |s: &str| {
        if s == "vm-flush" {
            vm_fetched
        } else {
            pre_fetched
        }
    };

    let mut rows = Vec::new();
    for r in [&pre, &vm] {
        let source_kb = (r.precopied_bytes() + r.residual_bytes) / 1024;
        rows.push(Row {
            strategy: r.strategy,
            source_path_kb: source_kb,
            total_network_kb: r.network_bytes / 1024,
            double_copied_kb: fetched_of(r.strategy) / 1024,
            evacuation_secs: r.total_time.as_secs_f64(),
            freeze_ms: r.freeze_time.as_secs_f64() * 1e3,
        });
    }
    println!(
        "\nShape check (§3.2): VM-flush moves far less on the source path\n\
         (only written pages; code and initialized data reload from the\n\
         image), so it evacuates the source faster — at the price of\n\
         moving every flushed page across the network twice. The\n\
         double-copied column is *measured* CopyFrom traffic: the target\n\
         demand-fetched exactly the flushed pages from the paging store."
    );
    assert!(
        rows[1].source_path_kb < rows[0].source_path_kb,
        "vm-flush must ship less from the source"
    );
    assert!(rows[1].double_copied_kb > 0);
    assert_eq!(rows[0].double_copied_kb, 0, "pre-copy fetches nothing");
    assert_eq!(
        vm_fetched, vm.double_copied_bytes,
        "measured fetch equals the planned unique flush set"
    );
    let _ = (pre_fetched, &pre);
    let mut metrics = pre_metrics.prefixed("precopy");
    metrics.absorb(vm_metrics.prefixed("vmflush"));
    emit("exp_vm_flush", &rows, &metrics);
}
