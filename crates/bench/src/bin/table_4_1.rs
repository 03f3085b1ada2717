//! E1 — Table 4-1: dirty-page generation rates.
//!
//! For each of the paper's eight programs, runs the fitted workload on a
//! workstation and measures the unique KB dirtied in windows of 0.2 s, 1 s
//! and 3 s by clearing and re-reading the MMU dirty bits — the same
//! measurement the paper made. Reports paper-vs-measured per cell.

use vbench::{emit, launch, measure_dirty_windows, quiet_cluster};
use vcore::ExecTarget;
use vkernel::Priority;
use vsim::{Json, SimDuration, ToJson};
use vworkload::profiles::{self, TABLE_4_1};
use vworkload::ProgramProfile;

fn main() {
    let seed = vbench::config_u64("seed", 1985);
    let windows = [0.2f64, 1.0, 3.0];
    // Enough windows that sub-page programs (make) average sensibly.
    let reps = [60usize, 30, 15];

    let mut rows = Vec::new();
    let mut metrics = vsim::MetricsReport::new();

    for (pi, r) in TABLE_4_1.iter().enumerate() {
        let paper = [r.at_0_2s, r.at_1s, r.at_3s];
        let mut measured = [0.0f64; 3];
        for (wi, (&w, &n)) in windows.iter().zip(reps.iter()).enumerate() {
            // A fresh deterministic cluster per cell keeps cells
            // independent; the program computes throughout.
            let mut c = quiet_cluster(1, seed + pi as u64 * 17 + wi as u64);
            let profile = ProgramProfile::steady(
                r.name,
                profiles::layout_for(r.name),
                r.fit(),
                SimDuration::from_secs(3600),
            );
            let (lh, team) = launch(&mut c, 1, profile, ExecTarget::Local, Priority::LOCAL);
            c.run_for(SimDuration::from_secs(2)); // Reach hot-set steady state.
            let s = measure_dirty_windows(&mut c, lh, team, SimDuration::from_secs_f64(w), n);
            measured[wi] = s.mean();
            metrics.absorb(c.metrics_report().prefixed(&format!("{}/{w}s", r.name)));
        }
        // Flat row — one column pair per window — so the doc generator
        // renders the artifact table directly.
        rows.push(Json::obj(vec![
            ("program", r.name.to_json()),
            ("paper 0.2s", paper[0].to_json()),
            ("meas 0.2s", measured[0].to_json()),
            ("paper 1s", paper[1].to_json()),
            ("meas 1s", measured[1].to_json()),
            ("paper 3s", paper[2].to_json()),
            ("meas 3s", measured[2].to_json()),
        ]));
    }
    println!(
        "\nNote: the 'linking loader' row is non-monotone in the paper\n\
         (39.2 KB @1s vs 37.8 KB @3s — measurement noise); the fitted\n\
         model is necessarily monotone and smooths it."
    );
    emit("table_4_1", &rows, &metrics);
}
