//! The bench binaries' command-line contract: stdout carries the table
//! the artifact holds, a run whose output or input is lost exits 1, and
//! a malformed `--config` exits 2.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

use vsim::Json;

/// A fresh scratch directory for one test.
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("vbench-bins-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

fn run(bin: &str, out: &Path) -> Output {
    Command::new(bin)
        .arg("--out")
        .arg(out)
        .output()
        .expect("spawn bench binary")
}

/// Runs `bin` and checks that its stdout contains the artifact's
/// `table`, rendered by the one table writer at the printed precision.
fn assert_prints_its_table(bin: &str, tag: &str) {
    let path = scratch(tag).join("artifact.json");
    let out = run(bin, &path);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let text = std::fs::read_to_string(&path).expect("artifact written");
    let artifact = Json::parse(&text).expect("artifact is JSON");
    let table = artifact.get("table").expect("`table` section");
    let table = vsim::table::render(table, None, 6).expect("renderable table");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 stdout");
    assert!(
        stdout.contains(&table),
        "stdout:\n{stdout}\ntable:\n{table}"
    );
}

#[test]
fn stdout_is_the_artifacts_table() {
    assert_prints_its_table(env!("CARGO_BIN_EXE_telemetry_schema"), "schema");
    // This one's table holds floats, so the precision shows.
    assert_prints_its_table(env!("CARGO_BIN_EXE_exp_space_cost"), "space");
}

#[test]
fn the_trace_is_written_beside_out() {
    let dir = scratch("trace");
    let cwd = scratch("trace-cwd");
    let out = Command::new(env!("CARGO_BIN_EXE_exp_precopy_example"))
        .arg("--out")
        .arg(dir.join("x.json"))
        .current_dir(&cwd)
        .env_remove("VBENCH_JSON")
        .output()
        .expect("spawn bench binary");
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let trace = std::fs::read_to_string(dir.join("x_trace.json")).expect("trace beside --out");
    assert!(Json::parse(&trace).is_ok());
    assert!(!cwd.join("results").exists(), "nothing under ./results/");
}

#[test]
fn an_unwritable_artifact_exits_1_naming_it() {
    let dir = scratch("unwritable");
    let file = dir.join("file");
    std::fs::write(&file, "").unwrap();
    let out = run(env!("CARGO_BIN_EXE_telemetry_schema"), &file.join("x.json"));
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains(&*file.to_string_lossy()), "{stderr}");
}

#[test]
fn an_unreadable_source_file_exits_1_naming_it() {
    // The binary counts lines under `$CARGO_MANIFEST_DIR/../..`.
    let dir = scratch("no-sources");
    let manifest = dir.join("a").join("b");
    std::fs::create_dir_all(&manifest).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_exp_space_cost"))
        .arg("--out")
        .arg(dir.join("artifact.json"))
        .env("CARGO_MANIFEST_DIR", &manifest)
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("migration.rs"), "{stderr}");
    assert!(!dir.join("artifact.json").exists());
}

#[test]
fn a_config_with_a_repeated_key_exits_2_naming_it() {
    let dir = scratch("dup-config");
    let config = dir.join("dup.json");
    std::fs::write(&config, r#"{"seed": 1, "seed": 2}"#).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_telemetry_schema"))
        .arg("--config")
        .arg(&config)
        .arg("--out")
        .arg(dir.join("artifact.json"))
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("duplicate key \"seed\""), "{stderr}");
    assert!(!dir.join("artifact.json").exists());
}
