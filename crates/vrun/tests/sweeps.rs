//! The committed sweep specs against the code they drive: every spec
//! under `sweeps/` loads, names only existing bench binaries and fault
//! plans, and `paper.json` runs every experiment binary.
//!
//! That each binary leaves an artifact needs no check here: a cell that
//! exits 0 without one already fails its sweep (see
//! `failures_are_reported_not_cached` in `e2e.rs`).

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

use vrun::spec::Sweep;
use vsim::FaultPlan;

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// The files in `dir` with extension `ext`, as sorted file stems.
fn stems(dir: &Path, ext: &str) -> BTreeSet<String> {
    std::fs::read_dir(dir)
        .unwrap_or_else(|e| panic!("cannot list {}: {e}", dir.display()))
        .map(|entry| entry.expect("dir entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == ext))
        .map(|p| p.file_stem().expect("stem").to_string_lossy().into_owned())
        .collect()
}

/// Every experiment binary: the bench bins except the regression gate,
/// which reads artifacts rather than writing one.
fn experiment_bins() -> BTreeSet<String> {
    let mut bins = stems(&workspace_root().join("crates/bench/src/bin"), "rs");
    assert!(
        bins.remove("bench_regress"),
        "bench_regress moved: {bins:?}"
    );
    bins
}

fn load(name: &str) -> Sweep {
    let path = workspace_root().join("sweeps").join(format!("{name}.json"));
    Sweep::load(&path).unwrap_or_else(|e| panic!("{e}"))
}

#[test]
fn every_spec_loads_with_known_bins_and_fault_plans() {
    let specs = stems(&workspace_root().join("sweeps"), "json");
    assert!(specs.contains("paper"), "{specs:?}");
    let bins = experiment_bins();
    for spec in &specs {
        for exp in &load(spec).experiments {
            let at = format!("{spec}.json: experiment `{}`", exp.name);
            assert!(bins.contains(&exp.bin), "{at}: no bench bin `{}`", exp.bin);
            let plans = exp.grid.iter().filter(|(key, _)| key == "plan");
            for value in plans.flat_map(|(_, values)| values) {
                assert!(
                    value
                        .as_str()
                        .is_some_and(|p| FaultPlan::names().contains(&p)),
                    "{at}: plan {value:?} is not one of {:?}",
                    FaultPlan::names()
                );
            }
        }
    }
}

#[test]
fn paper_sweep_runs_every_experiment_bin() {
    let paper: BTreeSet<String> = load("paper")
        .experiments
        .into_iter()
        .map(|e| e.bin)
        .collect();
    assert_eq!(
        paper,
        experiment_bins(),
        "paper.json vs crates/bench/src/bin"
    );
}
