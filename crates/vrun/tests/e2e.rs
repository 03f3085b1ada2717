//! End-to-end sweep runs against fake bench binaries (shell scripts
//! speaking the `--config`/`--out` contract): cache cold → warm →
//! invalidated, consolidation shapes, and failure reporting.
#![cfg(unix)]

use std::path::{Path, PathBuf};

use vrun::spec::Sweep;
use vrun::{run_sweep, CellOutcome, RunOptions};

/// A scratch workspace with a bin dir and a results dir.
struct Rig {
    root: PathBuf,
}

impl Rig {
    fn new(tag: &str) -> Rig {
        let root = std::env::temp_dir().join(format!("vrun-e2e-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        std::fs::create_dir_all(root.join("bin")).expect("bin dir");
        std::fs::create_dir_all(root.join("results")).expect("results dir");
        Rig { root }
    }

    /// Installs a fake bench binary: parses `--config`/`--out`, writes a
    /// `{experiment, table, run}` artifact echoing its config.
    fn fake_bin(&self, name: &str) {
        let body = format!(
            r#"#!/bin/sh
out=""; cfg=""
while [ "$#" -gt 0 ]; do
  case "$1" in
    --config) cfg="$2"; shift 2;;
    --out) out="$2"; shift 2;;
    *) shift;;
  esac
done
printf '{{"experiment": "{name}", "table": [{{"cfg": %s}}], "run": {{"sim_events_total": 7}}}}' "$(tr -d '\n ' < "$cfg")" > "$out"
"#
        );
        self.install(name, &body);
    }

    fn install(&self, name: &str, body: &str) {
        use std::os::unix::fs::PermissionsExt;
        let path = self.root.join("bin").join(name);
        std::fs::write(&path, body).expect("write fake bin");
        std::fs::set_permissions(&path, std::fs::Permissions::from_mode(0o755)).expect("chmod");
    }

    fn opts(&self) -> RunOptions {
        RunOptions {
            bin_dir: self.root.join("bin"),
            results_dir: self.root.join("results"),
            ..RunOptions::default()
        }
    }

    fn results(&self) -> PathBuf {
        self.root.join("results")
    }
}

impl Drop for Rig {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.root);
    }
}

fn sweep(text: &str) -> Sweep {
    Sweep::parse(text, "e2e.json").expect("spec parses")
}

fn read_json(path: &Path) -> vsim::Json {
    vsim::Json::parse(&std::fs::read_to_string(path).expect("artifact read"))
        .expect("artifact parses")
}

#[test]
fn traces_written_beside_out_land_in_results_and_come_back_from_the_cache() {
    let rig = Rig::new("trace");
    rig.install(
        "exp_traced",
        "#!/bin/sh\nwhile [ \"$#\" -gt 0 ]; do case \"$1\" in --out) out=\"$2\"; shift 2;; *) shift;; esac; done\nprintf '{\"experiment\": \"exp_traced\", \"table\": []}' > \"$out\"\nprintf '{\"traceEvents\": []}' > \"${out%.json}_trace.json\"\n",
    );
    let spec = r#"{"name": "t", "experiments": [{"bin": "exp_traced"}]}"#;
    let trace = rig.results().join("exp_traced_trace.json");

    let cold = run_sweep(&sweep(spec), &rig.opts()).unwrap();
    assert_eq!(cold.ran(), 1, "{}", cold.line());
    let written = std::fs::read_to_string(&trace).expect("cold run consolidates the trace");
    assert_eq!(written, r#"{"traceEvents": []}"#);

    std::fs::remove_file(&trace).unwrap();
    let warm = run_sweep(&sweep(spec), &rig.opts()).unwrap();
    assert_eq!(warm.hits(), 1, "{}", warm.line());
    assert_eq!(
        std::fs::read_to_string(&trace).unwrap(),
        written,
        "a cache hit restores it"
    );
}

#[test]
fn second_run_is_all_cache_hits_until_inputs_change() {
    let rig = Rig::new("cache");
    rig.fake_bin("exp_fake");
    let spec = r#"{"name": "t", "experiments": [{"bin": "exp_fake", "seeds": [1, 2]}]}"#;

    let cold = run_sweep(&sweep(spec), &rig.opts()).unwrap();
    assert_eq!(cold.ran(), 2, "{}", cold.line());
    assert_eq!(cold.hits(), 0);

    let warm = run_sweep(&sweep(spec), &rig.opts()).unwrap();
    assert_eq!(warm.hits(), 2, "{}", warm.line());
    assert_eq!(warm.ran(), 0);

    // A new seed re-runs only the new cell.
    let grown = r#"{"name": "t", "experiments": [{"bin": "exp_fake", "seeds": [1, 2, 3]}]}"#;
    let s = run_sweep(&sweep(grown), &rig.opts()).unwrap();
    assert_eq!(s.hits(), 2);
    assert_eq!(s.ran(), 1);

    // A changed binary invalidates everything.
    rig.fake_bin("exp_fake"); // same behaviour...
    rig.install(
        "exp_fake",
        "#!/bin/sh\nwhile [ \"$#\" -gt 0 ]; do case \"$1\" in --out) out=\"$2\"; shift 2;; *) shift;; esac; done\nprintf '{\"experiment\": \"exp_fake\", \"table\": [{\"v\": 2}]}' > \"$out\"\n",
    );
    let rebuilt = run_sweep(&sweep(spec), &rig.opts()).unwrap();
    assert_eq!(rebuilt.ran(), 2, "{}", rebuilt.line());

    // --force re-runs despite hits.
    let forced = run_sweep(
        &sweep(spec),
        &RunOptions {
            force: true,
            ..rig.opts()
        },
    )
    .unwrap();
    assert_eq!(forced.ran(), 2);
}

#[test]
fn consolidation_copies_single_cells_and_merges_grids() {
    let rig = Rig::new("consolidate");
    rig.fake_bin("exp_solo");
    rig.fake_bin("exp_grid");
    let spec = r#"{
  "name": "t",
  "experiments": [
    {"bin": "exp_solo"},
    {"bin": "exp_grid", "name": "grid_scale", "seeds": [5], "grid": {"hours": [1.0, 2.0]}}
  ]
}"#;
    let s = run_sweep(&sweep(spec), &rig.opts()).unwrap();
    assert_eq!(s.failed(), 0, "{}", s.line());

    // Single cell: verbatim bench schema (experiment/table/run).
    let solo = read_json(&rig.results().join("exp_solo.json"));
    assert_eq!(
        solo.get("experiment").and_then(vsim::Json::as_str),
        Some("exp_solo")
    );
    assert!(solo.get("table").is_some());

    // Multi cell: consolidated under the experiment's `name`.
    let grid = read_json(&rig.results().join("grid_scale.json"));
    assert_eq!(
        grid.get("bin").and_then(vsim::Json::as_str),
        Some("exp_grid")
    );
    let cells = match grid.get("cells") {
        Some(vsim::Json::Arr(c)) => c,
        other => panic!("cells: {other:?}"),
    };
    assert_eq!(cells.len(), 2);
    let cfg = cells[1].get("config").unwrap();
    assert_eq!(cfg.get("seed").and_then(vsim::Json::as_f64), Some(5.0));
    assert_eq!(cfg.get("hours").and_then(vsim::Json::as_f64), Some(2.0));
    assert!(cells[0].get("table").is_some());
    assert!(cells[0].get("hash").is_some());
}

#[test]
fn failures_are_reported_not_cached() {
    let rig = Rig::new("fail");
    rig.install("exp_bad", "#!/bin/sh\nexit 4\n");
    rig.install(
        "exp_liar",
        "#!/bin/sh\nexit 0\n", // exits 0 but writes no artifact
    );
    let spec = r#"{"name": "t", "experiments": [{"bin": "exp_bad"}, {"bin": "exp_liar"}]}"#;
    let s = run_sweep(&sweep(spec), &rig.opts()).unwrap();
    assert_eq!(s.failed(), 2, "{}", s.line());
    let bad = &s.cells[0].1;
    assert!(
        matches!(bad, CellOutcome::Failed(e) if e.contains("exit status 4")),
        "{bad:?}"
    );
    let liar = &s.cells[1].1;
    assert!(
        matches!(liar, CellOutcome::Failed(e) if e.contains("no valid artifact")),
        "{liar:?}"
    );
    // No consolidated artifacts for failed experiments...
    assert!(!rig.results().join("exp_bad.json").exists());
    // ...and a re-run tries again (failures are never cache hits).
    let again = run_sweep(&sweep(spec), &rig.opts()).unwrap();
    assert_eq!(again.hits(), 0);

    // A missing binary is an environment error, not a cell failure.
    let missing = r#"{"name": "t", "experiments": [{"bin": "exp_ghost"}]}"#;
    let err = run_sweep(&sweep(missing), &rig.opts()).unwrap_err();
    assert!(err.contains("cargo build --release"), "{err}");
}

#[test]
fn timeouts_kill_the_cell() {
    let rig = Rig::new("timeout");
    rig.install("exp_hang", "#!/bin/sh\nsleep 30\n");
    let spec = r#"{"name": "t", "timeout_secs": 1, "experiments": [{"bin": "exp_hang"}]}"#;
    let s = run_sweep(&sweep(spec), &rig.opts()).unwrap();
    assert_eq!(s.cells[0].1, CellOutcome::TimedOut, "{}", s.line());
}

#[test]
fn subcommands_reject_flags_they_do_not_read() {
    let rig = Rig::new("flags");
    rig.fake_bin("exp_fake");
    let root = rig.root.to_str().expect("utf-8 temp dir");
    let spec = format!("{root}/s.json");
    std::fs::write(
        &spec,
        r#"{"name": "t", "experiments": [{"bin": "exp_fake"}]}"#,
    )
    .expect("write spec");
    let doc = format!("{root}/doc.md");
    std::fs::write(&doc, "no managed tables\n").expect("write doc");
    let (bin, results) = (format!("{root}/bin"), format!("{root}/results"));
    let vrun = |args: &[&str]| {
        std::process::Command::new(env!("CARGO_BIN_EXE_vrun"))
            .args(args)
            .output()
            .expect("spawn vrun")
    };

    // Each subcommand succeeds with the flags it reads...
    let run = ["run", &spec, "--bin-dir", &bin, "--results", &results];
    let plan = ["plan", &spec, "--bin-dir", &bin, "--results", &results];
    let docs = ["docs", "--check", "--doc", &doc, "--results", &results];
    for base in [&run[..], &plan[..], &docs[..]] {
        let out = vrun(base);
        assert_eq!(out.status.code(), Some(0), "{base:?}: {out:?}");
    }
    // ...and exits 2, naming the flag, on any flag it would ignore.
    for (base, extra) in [
        (&run[..], &["--check"][..]),
        (&run[..], &["--doc", "x.md"]),
        (&plan[..], &["--force"]),
        (&plan[..], &["--check"]),
        (&plan[..], &["--doc", "x.md"]),
        (&plan[..], &["--pool", "3"]),
        (&plan[..], &["--quiet"]),
        (&docs[..], &["--pool", "3"]),
        (&docs[..], &["--force"]),
        (&docs[..], &["--quiet"]),
        (&docs[..], &["--bin-dir", "bin"]),
    ] {
        let args: Vec<&str> = base.iter().chain(extra).copied().collect();
        let out = vrun(&args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(
            stderr.contains(&format!("unknown flag {}", extra[0])),
            "{args:?}: {stderr}"
        );
    }
}
