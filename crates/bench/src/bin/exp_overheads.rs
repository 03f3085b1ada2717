//! E6 — §4.1 kernel-operation overheads.
//!
//! The paper: identifying the team/kernel servers by local group ids adds
//! ~100 µs to every kernel/team-server operation; 13 µs is added to
//! several kernel operations for the frozen-process test. Neither is on
//! the packet path, so we account them: run a representative workload,
//! count the operations that incur each overhead, and report the modeled
//! totals alongside the rates.

use vbench::{emit, launch, quiet_cluster};
use vcore::ExecTarget;
use vkernel::Priority;
use vsim::SimDuration;
use vworkload::profiles;

struct Results {
    freeze_checks: u64,
    group_lookups: u64,
    ipc_operations: u64,
    overhead_ms_total: f64,
    sim_seconds: f64,
    overhead_fraction: f64,
}
vsim::impl_to_json!(Results {
    freeze_checks,
    group_lookups,
    ipc_operations,
    overhead_ms_total,
    sim_seconds,
    overhead_fraction
});

fn main() {
    // A busy little cluster: remote compile + migration + file traffic.
    let mut c = quiet_cluster(3, vbench::config_u64("seed", 99));
    let row = profiles::row("parser").expect("row");
    let profile = profiles::realistic_profile(row);
    let (lh, _) = launch(
        &mut c,
        1,
        profile,
        ExecTarget::Named("ws2".into()),
        Priority::GUEST,
    );
    c.run_for(SimDuration::from_secs(5));
    c.migrateprog(2, lh, false);
    c.run_for(SimDuration::from_secs(40));

    let mut freeze_checks = 0;
    let mut group_lookups = 0;
    let mut ops = 0;
    for w in &c.stations {
        let s = w.kernel.stats();
        freeze_checks += s.freeze_checks;
        group_lookups += s.group_lookups;
        ops += s.sends + s.replies + s.deliveries;
    }
    let overhead = vsim::calib::FREEZE_CHECK_OVERHEAD * freeze_checks
        + vsim::calib::GROUP_ID_LOOKUP_OVERHEAD * group_lookups;
    let sim_secs = c.now().as_secs_f64();

    println!(
        "\nPaper's point (§4.1): \"The execution time overhead of remote\n\
         execution and migration facilities on the rest of the system is\n\
         small\" — 100 us per server operation and 13 us per freeze check\n\
         are negligible against millisecond-scale IPC."
    );

    emit(
        "exp_overheads",
        &Results {
            freeze_checks,
            group_lookups,
            ipc_operations: ops,
            overhead_ms_total: overhead.as_secs_f64() * 1e3,
            sim_seconds: sim_secs,
            overhead_fraction: overhead.as_secs_f64() / sim_secs,
        },
        &c.metrics_report(),
    );
}
