//! A3 — ablation: packet-loss sensitivity.
//!
//! §3.1.3: during migration "significant overhead may be incurred by
//! retransmissions"; the design leans on reliable IPC so that loss slows
//! things down but never corrupts. Sweeps the Bernoulli loss rate and
//! reports migration success, freeze time, and retransmission counts.

use vbench::{emit, launch};
use vcluster::{Cluster, ClusterConfig};
use vcore::ExecTarget;
use vkernel::Priority;
use vnet::LossModel;
use vsim::{SimDuration, TraceLevel};
use vworkload::profiles;

struct Row {
    loss: f64,
    success: bool,
    freeze_ms: f64,
    total_secs: f64,
    bulk_retransmissions: u64,
    request_retransmissions: u64,
}
vsim::impl_to_json!(Row {
    loss,
    success,
    freeze_ms,
    total_secs,
    bulk_retransmissions,
    request_retransmissions
});

fn main() {
    let mut rows = Vec::new();
    let mut metrics = vsim::MetricsReport::new();
    for &loss in &[0.0, 1e-4, 1e-3, 1e-2, 5e-2] {
        let cfg = ClusterConfig {
            workstations: 3,
            seed: vbench::config_u64("seed", 77),
            loss: if loss == 0.0 {
                LossModel::None
            } else {
                LossModel::Bernoulli(loss)
            },
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
        c.run_for(SimDuration::from_secs(10));
        c.migrateprog(2, lh, false);
        c.run_for(SimDuration::from_secs(120));
        let r = c
            .migration_reports
            .first()
            .cloned()
            .expect("migration attempted");
        let bulk: u64 = c
            .stations
            .iter()
            .map(|w| w.kernel.stats().bulk_units_retransmitted)
            .sum();
        let req: u64 = c
            .stations
            .iter()
            .map(|w| w.kernel.stats().retransmissions)
            .sum();
        metrics.absorb(c.metrics_report().prefixed(&format!("loss{loss:.0e}")));
        rows.push(Row {
            loss,
            success: r.success,
            freeze_ms: r.freeze_time.as_secs_f64() * 1e3,
            total_secs: r.total_time.as_secs_f64(),
            bulk_retransmissions: bulk,
            request_retransmissions: req,
        });
    }
    println!(
        "\nShape check: migrations keep succeeding as loss rises; the cost\n\
         shows up as retransmissions and longer copies (each lost 32 KB\n\
         unit waits out an ack timeout), exactly the overhead §3.1.3\n\
         warns about."
    );
    emit("abl_packet_loss", &rows, &metrics);
}
