//! E5 — the worked example of §3.1.2.
//!
//! "Consider a logical host consisting of 1 megabyte of code, .25
//! megabytes of initialized (unmodified) data and .75 megabytes of
//! 'active' data. The first copy operation takes roughly 6 seconds. If,
//! during those 6 seconds, .1 megabytes of memory were modified, the
//! second copy operation should take roughly .3 seconds. If during those
//! .3 seconds, .01 megabytes of memory were modified, the third copy
//! operation should take about 0.03 seconds. ... the logical host is
//! frozen for about 0.03 seconds, rather than about 6 seconds."
//!
//! We build exactly that program: a 2 MB logical host whose dirty rate is
//! tuned so ~0.1 MB is modified per 6 s (≈17 KB/s), and run the pre-copy
//! engine against it.

use vbench::{emit_full, export_trace, launch, quiet_cluster, SpanSummary};
use vcore::{ExecTarget, MigrationConfig, StopPolicy, Strategy};
use vkernel::Priority;
use vmem::{SpaceLayout, WwsParams};
use vsim::{SimDuration, TraceLevel};
use vworkload::ProgramProfile;

struct Results {
    rounds: Vec<(u64, f64)>, // (bytes, secs)
    residual_bytes: u64,
    freeze_secs: f64,
    paper_rounds_secs: [f64; 3],
}
vsim::impl_to_json!(Results {
    rounds,
    residual_bytes,
    freeze_secs,
    paper_rounds_secs
});

fn main() {
    let mut cfg = quiet_cluster(3, vbench::config_u64("seed", 42))
        .config()
        .clone();
    cfg.trace = TraceLevel::Info;
    cfg.migration = MigrationConfig {
        strategy: Strategy::PreCopy(StopPolicy {
            max_iterations: 3,
            threshold_bytes: 16 * 1024,
            min_shrink: 0.95,
        }),
        ..MigrationConfig::default()
    };
    let mut c = vcluster::Cluster::new(cfg);

    // The §3.1.2 logical host, dirtying ~17 KB/s so that ~0.1 MB changes
    // during a 6 s copy.
    let profile = ProgramProfile::steady(
        "worked-example",
        SpaceLayout::section_3_1_2_example(),
        WwsParams {
            hot_kb: 0.0,
            hot_write_kb_per_sec: 0.0,
            cold_kb_per_sec: 17.0,
        },
        SimDuration::from_secs(3600),
    );
    let (lh, _) = launch(
        &mut c,
        1,
        profile,
        ExecTarget::Named("ws2".into()),
        Priority::GUEST,
    );
    c.run_for(SimDuration::from_secs(5));
    c.migrateprog(2, lh, false);
    c.run_for(SimDuration::from_secs(60));
    let r = c.migration_reports[0].clone();
    assert!(r.success, "{r:?}");

    let paper = [6.0, 0.3, 0.03];
    let rounds: Vec<(u64, f64)> = r
        .iterations
        .iter()
        .map(|it| (it.bytes, it.duration.as_secs_f64()))
        .collect();
    println!(
        "\nFreeze time {:.0} ms (+{:.0} ms kernel-state copy) instead of ~6 s.",
        r.freeze_time.as_secs_f64() * 1e3 - r.kernel_state_cost.as_secs_f64() * 1e3,
        r.kernel_state_cost.as_secs_f64() * 1e3
    );

    let tree = c.span_tree();
    let mut summary = SpanSummary::new();
    summary.absorb_tree(&tree);
    export_trace("exp_precopy_example", &tree);

    emit_full(
        "exp_precopy_example",
        &Results {
            rounds,
            residual_bytes: r.residual_bytes,
            freeze_secs: r.freeze_time.as_secs_f64(),
            paper_rounds_secs: paper,
        },
        &c.metrics_report(),
        vbench::Extras::spans(&summary),
    );
}
