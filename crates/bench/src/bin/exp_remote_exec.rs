//! E2 — §4.1 remote-execution cost breakdown.
//!
//! The paper: selecting a host costs 23 ms (time to the first response to
//! the multicast candidate query); setting up and later destroying the
//! execution environment costs 40 ms; loading the program is 330 ms per
//! 100 KB, independent of where the program runs (diskless workstations).
//!
//! This binary measures all three on the simulated cluster and sweeps the
//! image size to show the 330 ms / 100 KB slope.

use vbench::{emit, quiet_cluster};
use vcore::ExecTarget;
use vkernel::Priority;
use vmem::{SpaceLayout, WwsParams};
use vsim::{Samples, SimDuration};
use vworkload::ProgramProfile;

/// Host-selection trials, one fresh cluster each.
const TRIALS: u64 = 20;

struct Results {
    selection_ms_paper: f64,
    selection_ms_measured: f64,
    setup_destroy_ms_paper: f64,
    setup_destroy_ms_measured: f64,
    load_ms_per_100kb_paper: f64,
    load_ms_per_100kb_measured: f64,
    load_points: Vec<(u64, f64)>,
}
vsim::impl_to_json!(Results {
    selection_ms_paper,
    selection_ms_measured,
    setup_destroy_ms_paper,
    setup_destroy_ms_measured,
    load_ms_per_100kb_paper,
    load_ms_per_100kb_measured,
    load_points
});

fn image_profile(kb: u64, secs: u64) -> ProgramProfile {
    ProgramProfile::steady(
        format!("img{kb}k"),
        SpaceLayout {
            code_bytes: kb * 1024 * 3 / 4,
            init_data_bytes: kb * 1024 / 4,
            heap_bytes: 64 * 1024,
            stack_bytes: 16 * 1024,
        },
        WwsParams {
            hot_kb: 4.0,
            hot_write_kb_per_sec: 20.0,
            cold_kb_per_sec: 1.0,
        },
        SimDuration::from_secs(secs),
    )
}

fn main() {
    // --- Selection time: first response to "@ *" over many trials. ---
    let base = vbench::config_u64("seed", 100);
    let mut selection = Samples::new();
    let mut metrics = vsim::MetricsReport::new();
    for seed in 0..TRIALS {
        let mut c = quiet_cluster(6, base + seed);
        c.exec(
            1,
            image_profile(100, 1),
            ExecTarget::AnyIdle,
            Priority::GUEST,
        );
        c.run_for(SimDuration::from_secs(20));
        let r = &c.exec_reports[0];
        assert!(r.success, "{r:?}");
        selection.add(r.selection_time.as_secs_f64() * 1e3);
        if seed + 1 == TRIALS {
            metrics.absorb(c.metrics_report().prefixed("selection"));
        }
    }

    // --- Load cost slope: creation time vs image size. ---
    // creation = environment setup + image load; the slope over image
    // size isolates the load, the intercept is the setup part.
    let sizes_kb = [50u64, 100, 200, 400];
    let mut load_points = Vec::new();
    let mut creation_ms = Vec::new();
    for &kb in &sizes_kb {
        let mut c = quiet_cluster(3, 7 + kb);
        c.exec(
            1,
            image_profile(kb, 1),
            ExecTarget::Named("ws2".into()),
            Priority::GUEST,
        );
        c.run_for(SimDuration::from_secs(60));
        let r = &c.exec_reports[0];
        assert!(r.success, "{r:?}");
        let cms = r.creation_time.as_secs_f64() * 1e3;
        creation_ms.push(cms);
        load_points.push((kb, cms));
        metrics.absorb(c.metrics_report().prefixed(&format!("load{kb}kb")));
    }
    // Least-squares slope (ms per KB) and intercept (ms).
    let n = sizes_kb.len() as f64;
    let sx: f64 = sizes_kb.iter().map(|&x| x as f64).sum();
    let sy: f64 = creation_ms.iter().sum();
    let sxx: f64 = sizes_kb.iter().map(|&x| (x * x) as f64).sum();
    let sxy: f64 = sizes_kb
        .iter()
        .zip(&creation_ms)
        .map(|(&x, &y)| x as f64 * y)
        .sum();
    let slope = (n * sxy - sx * sy) / (n * sxx - sx * sx);
    let intercept = (sy - slope * sx) / n;
    let load_per_100kb = slope * 100.0;

    // --- Setup + destroy: the creation intercept plus the teardown. ---
    // Destruction cost is measured as the time from a finished program's
    // Exit to its logical host disappearing; we take the modeled teardown
    // (the paper lumps setup+destroy as one 40 ms figure).
    let destroy_ms = vsim::calib::PM_DESTROY_ENVIRONMENT.as_secs_f64() * 1e3;
    let setup_destroy = intercept + destroy_ms;

    println!("\n(creation = env setup intercept {intercept:.1} ms + load slope {slope:.3} ms/KB)");

    emit(
        "exp_remote_exec",
        &Results {
            selection_ms_paper: 23.0,
            selection_ms_measured: selection.mean(),
            setup_destroy_ms_paper: 40.0,
            setup_destroy_ms_measured: setup_destroy,
            load_ms_per_100kb_paper: 330.0,
            load_ms_per_100kb_measured: load_per_100kb,
            load_points: load_points.iter().map(|&(kb, ms)| (kb, ms)).collect(),
        },
        &metrics,
    );
}
