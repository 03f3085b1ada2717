//! The bench regression gate (see [`vbench::regress`]).
//!
//! Reads `results/BASELINE.json` (or the path given as the first
//! argument), re-reads each tracked experiment's emitted artifact from
//! the artifact directory, and exits non-zero when any tracked metric
//! drifted past the tolerance. Run the experiment binaries first so the
//! artifacts are fresh. The checks print as a markdown table, so CI can
//! append them to its job summary.

use vbench::regress::run_gate;
use vsim::{Json, ToJson};

fn main() {
    let baseline_path = std::env::args()
        .skip(1)
        .find(|a| !a.starts_with('-'))
        .unwrap_or_else(|| "results/BASELINE.json".to_string());
    let text = match std::fs::read_to_string(&baseline_path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("bench_regress: cannot read {baseline_path}: {e}");
            std::process::exit(2);
        }
    };
    let baseline = match Json::parse(&text) {
        Ok(j) => j,
        Err(e) => {
            eprintln!("bench_regress: {baseline_path}: {e}");
            std::process::exit(2);
        }
    };

    let checks = run_gate(&baseline, |name| {
        let path = vbench::artifact_dir().join(format!("{name}.json"));
        let text = std::fs::read_to_string(&path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
    })
    .unwrap_or_else(|e| {
        eprintln!("bench_regress: {e}");
        std::process::exit(2);
    });

    let rows = checks.iter().map(|c| {
        Json::obj([
            ("experiment", c.experiment.to_json()),
            ("metric", c.key().to_json()),
            ("baseline", c.baseline.to_json()),
            (
                "measured",
                c.measured.map_or("missing".to_json(), |m| m.to_json()),
            ),
            (
                "drift_pct",
                c.drift().map_or(Json::Null, |d| (d * 100.0).to_json()),
            ),
            ("ok", c.pass.to_json()),
        ])
    });
    vbench::print_table(
        &format!("Bench regression gate vs {baseline_path}"),
        &Json::arr(rows),
        3,
    );
    let failed = checks.iter().filter(|c| !c.pass).count();
    if failed > 0 {
        eprintln!(
            "\nbench_regress: {failed}/{} tracked metrics drifted",
            checks.len()
        );
        std::process::exit(1);
    }
    println!("\nAll {} tracked metrics within tolerance.", checks.len());
}
