//! Fixture-based tests: each vlint fixture under `tests/fixtures/` is a
//! miniature workspace with a known defect (or none), and the expected
//! rule ids must — and only they may — fire. The fixtures of the rules
//! clippy now makes are exercised by `clippy_fixtures.rs`.

use std::path::PathBuf;
use std::process::Command;

fn fixture(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

/// Runs the lint library over a fixture and returns the sorted rule ids.
fn rules_for(name: &str) -> Vec<String> {
    let report = vlint::run(&fixture(name)).expect("fixture lints");
    let mut rules: Vec<String> = report
        .violations
        .iter()
        .map(|v| v.rule.to_string())
        .collect();
    rules.sort();
    rules.dedup();
    rules
}

#[test]
fn layering_violation_fires_layering_dep() {
    assert_eq!(rules_for("layering_violation"), ["layering-dep"]);
    let report = vlint::run(&fixture("layering_violation")).unwrap();
    assert_eq!(report.violations.len(), 1);
    assert_eq!(report.violations[0].file, "crates/beta/Cargo.toml");
    assert_eq!(report.violations[0].line, 6);
}

#[test]
fn bench_without_emit_fires_bench_emit_only() {
    assert_eq!(rules_for("bench_no_emit"), ["bench-emit"]);
    let report = vlint::run(&fixture("bench_no_emit")).unwrap();
    // Only the printing binary: good_exp calls emit, bench_regress is
    // exempt via [bench] emit_exempt.
    assert_eq!(report.violations.len(), 1);
    assert_eq!(report.violations[0].file, "crates/bench/src/bin/bad_exp.rs");
}

#[test]
fn schema_drift_reports_both_directions() {
    assert_eq!(
        rules_for("schema_drift"),
        ["schema-stale-doc", "schema-undocumented"]
    );
    let report = vlint::run(&fixture("schema_drift")).unwrap();
    let undoc = report
        .violations
        .iter()
        .find(|v| v.rule == "schema-undocumented")
        .unwrap();
    // At the emission site of the undocumented gauge.
    assert_eq!(undoc.file, "crates/sig/src/lib.rs");
    assert!(
        undoc.message.contains("net/queue_depth"),
        "got: {}",
        undoc.message
    );
    let stale = report
        .violations
        .iter()
        .find(|v| v.rule == "schema-stale-doc")
        .unwrap();
    // At the doc row nothing emits.
    assert_eq!(stale.file, "SCHEMA.md");
    assert!(
        stale.message.contains("frames_lost"),
        "got: {}",
        stale.message
    );
}

#[test]
fn clean_fixture_passes() {
    let report = vlint::run(&fixture("clean")).expect("clean fixture lints");
    assert!(
        report.is_clean(),
        "expected clean, got:\n{}",
        report.render_text()
    );
}

// ---- binary behaviour: exit codes and the JSON artifact --------------

fn run_bin(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_vlint"))
        .args(args)
        .output()
        .expect("spawn vlint")
}

#[test]
fn bin_exits_nonzero_on_each_bad_fixture() {
    for name in ["layering_violation", "bench_no_emit", "schema_drift"] {
        let out = run_bin(&["--root", fixture(name).to_str().unwrap()]);
        assert_eq!(
            out.status.code(),
            Some(1),
            "fixture {name} should fail:\n{}",
            String::from_utf8_lossy(&out.stdout)
        );
    }
}

#[test]
fn bin_exits_zero_on_clean_fixture() {
    let out = run_bin(&["--root", fixture("clean").to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(0));
}

#[test]
fn bin_exits_two_on_missing_config() {
    let dir = std::env::temp_dir().join("vlint-no-config");
    std::fs::create_dir_all(&dir).unwrap();
    let out = run_bin(&["--root", dir.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn bin_writes_json_artifact() {
    let path = std::env::temp_dir().join("vlint-fixture-artifact.json");
    let _ = std::fs::remove_file(&path);
    let out = run_bin(&[
        "--root",
        fixture("layering_violation").to_str().unwrap(),
        "--json-path",
        path.to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(1), "still fails while writing JSON");
    let json = std::fs::read_to_string(&path).expect("artifact written");
    assert!(json.contains("\"tool\": \"vlint\""));
    assert!(json.contains("\"clean\": false"));
    assert!(json.contains("\"layering-dep\": 1"));
    assert!(json.contains("\"rule\": \"layering-dep\""));
}
