//! E10 — §2: "Because of priority scheduling for locally invoked
//! programs, a text-editing user need not notice the presence of
//! background jobs providing they are not contending for memory."
//!
//! Measures the editor's keystroke→echo response time on a workstation
//! with 0, 1, and 2 guest compute jobs.

use vbench::{emit, quiet_cluster};
use vcore::ExecTarget;
use vkernel::Priority;
use vsim::SimDuration;
use vworkload::profiles;

struct Row {
    guest_jobs: usize,
    mean_response_ms: f64,
    p95_response_ms: f64,
    keystrokes: usize,
}
vsim::impl_to_json!(Row {
    guest_jobs,
    mean_response_ms,
    p95_response_ms,
    keystrokes
});

fn run_with_guests(guests: usize, seed: u64) -> (Row, vsim::MetricsReport) {
    let mut c = quiet_cluster(2, seed);
    for g in 0..guests {
        let sim = profiles::simulation_profile(SimDuration::from_secs(3600));
        // Force the guests onto ws1, where the editor lives; issue the
        // request from ws2 so ws1 hosts them as remote-origin guests.
        let _ = g;
        c.exec(2, sim, ExecTarget::Named("ws1".into()), Priority::GUEST);
        c.run_for(SimDuration::from_secs(5));
    }
    // More keystrokes than the measurement window can drain, so the
    // editor is still alive (and its samples inspectable) when we stop.
    c.exec(
        1,
        profiles::editor_profile(5_000),
        ExecTarget::Local,
        Priority::LOCAL,
    );
    c.run_for(SimDuration::from_secs(120));

    // Find the editor's behaviour (it may have finished; search reports).
    let lh = c
        .exec_reports
        .iter()
        .find(|r| r.image == "edit")
        .and_then(|r| r.lh)
        .expect("editor created");
    let samples = c
        .stations
        .iter()
        .find_map(|w| w.programs.get(&lh))
        .map(|p| p.behavior.response_times.clone())
        .expect("editor still running (5000 keystrokes outlast the window)");
    let row = Row {
        guest_jobs: guests,
        mean_response_ms: samples.mean() * 1e3,
        p95_response_ms: samples.percentile(95.0).unwrap_or(0.0) * 1e3,
        keystrokes: samples.count(),
    };
    (row, c.metrics_report())
}

fn main() {
    let seed = vbench::config_u64("seed", 50);
    let mut rows = Vec::new();
    let mut metrics = vsim::MetricsReport::new();
    for guests in 0..=2 {
        let (r, m) = run_with_guests(guests, seed + guests as u64);
        metrics.absorb(m.prefixed(&format!("guests{guests}")));
        rows.push(r);
    }
    println!(
        "\nShape check (§2): response times barely move as guest jobs are\n\
         added — local programs outrank guests, so the editor's burst\n\
         waits at most one quantum."
    );
    let degradation = rows[2].mean_response_ms / rows[0].mean_response_ms;
    println!("Mean degradation with 2 guests: {degradation:.2}x");
    emit("exp_local_priority", &rows, &metrics);
}
