//! A1 — ablation: pre-copy stop policies.
//!
//! §3.1.2 stops "until the number of modified pages is relatively small or
//! until no significant reduction ... is achieved", and §4.1 observes that
//! "usually 2 precopy iterations were useful". This ablation sweeps
//! fixed-N policies against the adaptive default to show why: the first
//! round moves the code, later rounds chase the hot set without shrinking
//! it, so extra rounds cost copy time while barely reducing freeze time.

use vbench::{emit, launch};
use vcluster::{Cluster, ClusterConfig};
use vcore::{ExecTarget, MigrationConfig, MigrationReport, StopPolicy, Strategy};
use vkernel::Priority;
use vnet::LossModel;
use vsim::{SimDuration, TraceLevel};
use vworkload::profiles;

struct Row {
    policy: String,
    iterations: usize,
    copied_kb: u64,
    residual_kb: u64,
    freeze_ms: f64,
    total_secs: f64,
}
vsim::impl_to_json!(Row {
    policy,
    iterations,
    copied_kb,
    residual_kb,
    freeze_ms,
    total_secs
});

fn migrate(policy: StopPolicy, name: &str, seed: u64) -> (MigrationReport, vsim::MetricsReport) {
    let cfg = ClusterConfig {
        workstations: 3,
        seed,
        loss: LossModel::None,
        trace: TraceLevel::Warn,
        migration: MigrationConfig {
            strategy: Strategy::PreCopy(policy),
            ..MigrationConfig::default()
        },
        ..ClusterConfig::default()
    };
    let mut c = Cluster::new(cfg);
    let row = profiles::row(name).expect("row");
    let profile = vworkload::ProgramProfile::steady(
        name,
        profiles::layout_for(name),
        row.fit(),
        SimDuration::from_secs(3600),
    );
    let (lh, _) = launch(
        &mut c,
        1,
        profile,
        ExecTarget::Named("ws2".into()),
        Priority::GUEST,
    );
    c.run_for(SimDuration::from_secs(10));
    c.migrateprog(2, lh, false);
    c.run_for(SimDuration::from_secs(120));
    let r = c.migration_reports[0].clone();
    assert!(r.success, "{r:?}");
    let m = c.metrics_report();
    (r, m)
}

fn main() {
    let seed = vbench::config_u64("seed", 7);
    let mut rows = Vec::new();
    let mut metrics = vsim::MetricsReport::new();
    for name in ["parser", "tex"] {
        let mut policies: Vec<(String, StopPolicy)> = (1..=6u32)
            .map(|n| (format!("fixed-{n}"), StopPolicy::fixed(n)))
            .collect();
        policies.push(("adaptive (paper)".into(), StopPolicy::default()));
        for (label, p) in policies {
            let (r, m) = migrate(p, name, seed + label.len() as u64);
            metrics.absorb(m.prefixed(&format!("{name}/{label}")));
            rows.push(Row {
                policy: format!("{name}/{label}"),
                iterations: r.iterations.len(),
                copied_kb: r.precopied_bytes() / 1024,
                residual_kb: r.residual_bytes / 1024,
                freeze_ms: r.freeze_time.as_secs_f64() * 1e3,
                total_secs: r.total_time.as_secs_f64(),
            });
        }
    }
    println!(
        "\nShape check: the freeze time collapses after the first round or\n\
         two and then flattens at the hot-set size — exactly why the paper\n\
         found ~2 iterations useful. Extra rounds only add total time."
    );
    emit("abl_stop_policy", &rows, &metrics);
}
