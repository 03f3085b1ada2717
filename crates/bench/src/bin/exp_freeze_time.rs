//! E4 — §4.1 migration freeze times.
//!
//! The paper's headline result: with pre-copy, "usually 2 precopy
//! iterations were useful"; the residual copied while frozen was between
//! 0.5 and 70 KB, giving suspension times of 5–210 ms (plus the kernel
//! state copy) — versus ~3 s/MB of full freeze for the naive approach.
//!
//! Runs every Table 4-1 program, migrates it mid-run with both strategies,
//! and reports iterations, residual KB, and freeze time. Each migration's
//! causal span tree supplies a per-phase breakdown (selection,
//! initialization, pre-copy rounds, freeze, residual copy, commit,
//! rebind); the first run is also exported as a Perfetto `trace.json`.

use vbench::{emit_full, export_trace, launch, migration_phases, MigrationPhases, SpanSummary};
use vcluster::ClusterConfig;
use vcore::{ExecTarget, MigrationConfig, MigrationReport, StopPolicy, Strategy};
use vkernel::Priority;
use vnet::LossModel;
use vsim::{SimDuration, SpanTree, TraceLevel};
use vworkload::profiles::{self, TABLE_4_1};
use vworkload::ProgramProfile;

struct Row {
    program: String,
    iterations: usize,
    precopied_kb: u64,
    residual_kb: f64,
    selection_ms: f64,
    initialization_ms: f64,
    precopy_ms: f64,
    residual_copy_ms: f64,
    commit_ms: f64,
    rebind_ms: f64,
    freeze_ms: f64,
    kernel_state_ms: f64,
    migration_ms: f64,
    naive_freeze_ms: f64,
}
vsim::impl_to_json!(Row {
    program,
    iterations,
    precopied_kb,
    residual_kb,
    selection_ms,
    initialization_ms,
    precopy_ms,
    residual_copy_ms,
    commit_ms,
    rebind_ms,
    freeze_ms,
    kernel_state_ms,
    migration_ms,
    naive_freeze_ms
});

fn migrate_once(
    strategy: Strategy,
    name: &str,
    seed: u64,
    trace: TraceLevel,
) -> (MigrationReport, vsim::MetricsReport, SpanTree) {
    let cfg = ClusterConfig {
        workstations: 3,
        seed,
        loss: LossModel::None,
        trace,
        migration: MigrationConfig {
            strategy,
            ..MigrationConfig::default()
        },
        ..ClusterConfig::default()
    };
    let mut c = vcluster::Cluster::new(cfg);
    let row = profiles::row(name).expect("known program");
    let profile = ProgramProfile::steady(
        name,
        profiles::layout_for(name),
        row.fit(),
        SimDuration::from_secs(3600),
    );
    let (lh, _team) = launch(
        &mut c,
        1,
        profile,
        ExecTarget::Named("ws2".into()),
        Priority::GUEST,
    );
    // Let it run long enough to populate its working set.
    c.run_for(SimDuration::from_secs(10));
    c.migrateprog(2, lh, false);
    c.run_for(SimDuration::from_secs(60));
    assert_eq!(c.migration_reports.len(), 1, "{name}: migration finished");
    let r = c.migration_reports[0].clone();
    assert!(r.success, "{name}: {r:?}");
    let tree = c.span_tree();
    let m = c.metrics_report();
    (r, m, tree)
}

fn ms(d: SimDuration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn main() {
    // Phase spans are recorded at Info; `TraceLevel::Detail` would add the
    // per-transaction ipc/serve spans underneath them.
    let base = vbench::config_u64("seed", 2000);
    let level = TraceLevel::Info;
    let mut rows = Vec::new();
    let mut metrics = vsim::MetricsReport::new();
    let mut summary = SpanSummary::new();
    for (i, row) in TABLE_4_1.iter().enumerate() {
        let (pre, pre_metrics, tree) = migrate_once(
            Strategy::PreCopy(StopPolicy::default()),
            row.name,
            base + i as u64,
            level,
        );
        let (naive, naive_metrics, naive_tree) = migrate_once(
            Strategy::FreezeAndCopy,
            row.name,
            base + 1000 + i as u64,
            level,
        );
        metrics.absorb(pre_metrics.prefixed(&format!("{}/precopy", row.name)));
        metrics.absorb(naive_metrics.prefixed(&format!("{}/naive", row.name)));
        let ph: MigrationPhases = migration_phases(&tree)
            .pop()
            .expect("pre-copy run has one migration span");
        // The migrator opens each phase the instant the previous closes,
        // so the phases tile the root span; hold it to 1%.
        let sum = ph.phase_sum().as_secs_f64();
        let total = ph.total.as_secs_f64();
        assert!(
            (sum - total).abs() <= total * 0.01,
            "{}: phase sum {sum}s vs root span {total}s",
            row.name
        );
        summary.absorb_tree(&tree);
        summary.absorb_tree(&naive_tree);
        if i == 0 {
            export_trace("exp_freeze_time", &tree);
        }
        let freeze_ms = pre.freeze_time.as_secs_f64() * 1e3;
        let naive_ms = naive.freeze_time.as_secs_f64() * 1e3;
        rows.push(Row {
            program: row.name.to_string(),
            iterations: pre.iterations.len(),
            precopied_kb: pre.precopied_bytes() / 1024,
            residual_kb: pre.residual_bytes as f64 / 1024.0,
            selection_ms: ms(ph.selection),
            initialization_ms: ms(ph.initialization),
            precopy_ms: ms(ph.precopy),
            residual_copy_ms: ms(ph.residual_copy),
            commit_ms: ms(ph.commit),
            rebind_ms: ms(ph.rebind),
            freeze_ms,
            kernel_state_ms: pre.kernel_state_cost.as_secs_f64() * 1e3,
            migration_ms: ms(ph.total),
            naive_freeze_ms: naive_ms,
        });
    }
    println!(
        "\nPaper: usually 2 pre-copy iterations useful; residual 0.5-70 KB;\n\
         suspension 5-210 ms plus the kernel-state copy. Freeze-and-copy\n\
         suspends for the full ~3 s/MB copy."
    );
    emit_full(
        "exp_freeze_time",
        &rows,
        &metrics,
        vbench::Extras::spans(&summary),
    );
}
