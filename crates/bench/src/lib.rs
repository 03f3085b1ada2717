//! `vbench` — the experiment harness.
//!
//! One binary per table/figure of the paper (see DESIGN.md §4 for the
//! index); this library holds what they share: standard cluster setups,
//! dirty-window measurement, and JSON result emission — each binary
//! prints the `table` it writes, so EXPERIMENTS.md can be regenerated
//! and diffed.

pub mod hostclock;
pub mod regress;
pub mod spans;

use std::path::{Path, PathBuf};
use std::sync::OnceLock;
use std::time::Instant;

use vcluster::{Cluster, ClusterConfig};
use vcore::ExecTarget;
use vkernel::{LogicalHostId, Priority};
use vmem::SpaceId;
use vnet::LossModel;
use vsim::{
    Json, MetricsReport, ProfileReport, Samples, SeriesReport, SimDuration, Subsystem, ToJson,
    TraceLevel,
};
use vworkload::ProgramProfile;

pub use hostclock::WallClock;
pub use spans::{export_trace, migration_phases, perfetto_json, MigrationPhases, SpanSummary};

/// The uniform command-line contract every bench binary supports —
/// `--config <path.json>` (cell parameters, e.g. a seed override) and
/// `--out <path.json>` (artifact destination) — plus the wall-clock epoch
/// behind the `run` section of every artifact. `vrun` drives the bins
/// through exactly this interface; run by hand, both default off and the
/// binary behaves as before (artifact to `results/<name>.json`).
pub struct BenchArgs {
    /// Parsed `--config` JSON object, when given.
    pub config: Option<Json>,
    /// `--out` artifact path override, when given.
    pub out: Option<PathBuf>,
    /// Wall-clock instant of the first [`args`] call (≈ process start;
    /// every binary calls it first thing in `main`).
    pub started: Instant,
}

static ARGS: OnceLock<BenchArgs> = OnceLock::new();

/// Parses (once) and returns the shared bench arguments. Call it at the
/// top of `main` so the wall-clock epoch covers the whole run; unknown
/// arguments are ignored.
///
/// # Panics
///
/// Exits with code 2 when `--config` names a missing or malformed JSON
/// file, or when `--config`/`--out` lacks its value — a misconfigured
/// sweep cell must fail loudly, not run with default parameters.
pub fn args() -> &'static BenchArgs {
    ARGS.get_or_init(|| {
        let started = Instant::now();
        let mut config_path: Option<String> = None;
        let mut out: Option<PathBuf> = None;
        let mut argv = std::env::args().skip(1);
        while let Some(a) = argv.next() {
            if let Some(v) = a.strip_prefix("--config=") {
                config_path = Some(v.to_string());
            } else if a == "--config" {
                match argv.next() {
                    Some(v) => config_path = Some(v),
                    None => bad_usage("--config needs a path"),
                }
            } else if let Some(v) = a.strip_prefix("--out=") {
                out = Some(PathBuf::from(v));
            } else if a == "--out" {
                match argv.next() {
                    Some(v) => out = Some(PathBuf::from(v)),
                    None => bad_usage("--out needs a path"),
                }
            }
        }
        let config = config_path.map(|p| {
            let text = std::fs::read_to_string(&p).unwrap_or_else(|e| {
                bad_usage(&format!("cannot read --config {p}: {e}"));
            });
            Json::parse(&text).unwrap_or_else(|e| {
                bad_usage(&format!("--config {p}: {e}"));
            })
        });
        BenchArgs {
            config,
            out,
            started,
        }
    })
}

fn bad_usage(msg: &str) -> ! {
    eprintln!("vbench: {msg}");
    std::process::exit(2)
}

/// Types the `--config` value of `key`: `Ok(None)` when the key is
/// absent, `Ok(Some(_))` when `conv` accepts its value, and an error
/// naming the key and the expected type (`want`) otherwise — a mistyped
/// key must not silently run with the default.
fn config_value<T>(
    config: Option<&Json>,
    key: &str,
    want: &str,
    conv: impl Fn(&Json) -> Option<T>,
) -> Result<Option<T>, String> {
    match config.and_then(|c| c.get(key)) {
        None => Ok(None),
        Some(v) => conv(v).map(Some).ok_or_else(|| {
            format!(
                "--config key \"{key}\" must be {want}, got {}",
                v.pretty().trim_end()
            )
        }),
    }
}

/// [`config_value`] over the parsed `--config`, exiting with code 2 on a
/// mistyped value.
fn config_or_exit<T>(key: &str, want: &str, conv: impl Fn(&Json) -> Option<T>) -> Option<T> {
    config_value(args().config.as_ref(), key, want, conv).unwrap_or_else(|e| bad_usage(&e))
}

fn as_u64(v: &Json) -> Option<u64> {
    match v {
        Json::UInt(u) => Some(*u),
        _ => None,
    }
}

/// A `u64` cell parameter from `--config` (e.g. `"seed"`), or `default`.
pub fn config_u64(key: &str, default: u64) -> u64 {
    config_or_exit(key, "a non-negative integer", as_u64).unwrap_or(default)
}

/// A `usize` cell parameter from `--config`, or `default`.
pub fn config_usize(key: &str, default: usize) -> usize {
    config_or_exit(key, "a non-negative integer", |v| {
        as_u64(v).and_then(|u| usize::try_from(u).ok())
    })
    .unwrap_or(default)
}

/// An `f64` cell parameter from `--config`, or `default`.
pub fn config_f64(key: &str, default: f64) -> f64 {
    config_or_exit(key, "a number", Json::as_f64).unwrap_or(default)
}

/// A string cell parameter from `--config`, when present.
pub fn config_str(key: &str) -> Option<String> {
    config_or_exit(key, "a string", |v| v.as_str().map(str::to_string))
}

/// A lossless default cluster for timing experiments, traced at the
/// quiet [`TraceLevel::Warn`].
pub fn quiet_cluster(workstations: usize, seed: u64) -> Cluster {
    Cluster::new(ClusterConfig {
        workstations,
        seed,
        loss: LossModel::None,
        trace: TraceLevel::Warn,
        ..ClusterConfig::default()
    })
}

/// Starts `profile` on workstation `ws` (targeting `target`) and runs the
/// cluster until the program is created; returns `(lh, team)`.
///
/// # Panics
///
/// Panics if the execution fails to set up within 30 simulated seconds.
pub fn launch(
    c: &mut Cluster,
    ws: usize,
    profile: ProgramProfile,
    target: ExecTarget,
    priority: Priority,
) -> (LogicalHostId, SpaceId) {
    let already = c.exec_reports.len();
    c.exec(ws, profile, target, priority);
    let deadline = c.now() + SimDuration::from_secs(30);
    while c.exec_reports.len() <= already && c.now() < deadline {
        c.run_for(SimDuration::from_millis(100));
    }
    let r = c
        .exec_reports
        .get(already)
        .unwrap_or_else(|| panic!("execution did not complete"));
    assert!(r.success, "execution failed: {r:?}");
    let lh = r.lh.expect("created");
    let i = c.index_of(c.locate(lh).expect("program resident somewhere"));
    let team = c.stations[i].programs[&lh].team;
    (lh, team)
}

/// Measures unique dirty KB generated by program `lh` over `n` windows of
/// length `window`, by clearing and re-reading the MMU dirty bits — the
/// measurement behind Table 4-1.
///
/// # Panics
///
/// Panics if program `lh` exits or loses its `team` space while it is
/// measured.
pub fn measure_dirty_windows(
    c: &mut Cluster,
    lh: LogicalHostId,
    team: SpaceId,
    window: SimDuration,
    n: usize,
) -> Samples {
    let mut samples = Samples::new();
    for _ in 0..n {
        let i = c.index_of(c.locate(lh).expect("program alive"));
        c.stations[i]
            .kernel
            .logical_host_mut(lh)
            .and_then(|l| l.space_mut(team))
            .expect("team space")
            .clear_dirty();
        c.run_for(window);
        let i = c.index_of(c.locate(lh).expect("program alive"));
        let dirty = c.stations[i]
            .kernel
            .logical_host(lh)
            .and_then(|l| l.space(team))
            .expect("team space")
            .dirty_bytes();
        samples.add(dirty as f64 / 1024.0);
    }
    samples
}

/// Directory experiment artifacts are written to: `$VBENCH_JSON` when set,
/// `results/` otherwise.
pub fn artifact_dir() -> std::path::PathBuf {
    std::env::var("VBENCH_JSON")
        .unwrap_or_else(|_| "results".to_string())
        .into()
}

/// Writes one experiment's machine-readable artifact,
/// `<dir>/<name>.json`, holding the table rows and a [`MetricsReport`]
/// snapshot of every instrumented component, and prints its `table`.
pub fn emit(name: &str, rows: &impl ToJson, metrics: &MetricsReport) {
    emit_full(name, rows, metrics, Extras::default());
}

/// Optional artifact sections beyond the table and metrics: causal span
/// percentiles, time series, dispatch-profiler attribution, and
/// extra `run`-section fields (nondeterministic wall-clock derivatives a
/// gate may want, e.g. an overhead ratio).
#[derive(Default)]
pub struct Extras<'a> {
    /// Per-phase duration percentiles (the `spans` section).
    pub spans: Option<&'a SpanSummary>,
    /// Sampled telemetry (the `series` section).
    pub series: Option<&'a SeriesReport>,
    /// Dispatch attribution (the `profile` section).
    pub profile: Option<&'a ProfileReport>,
    /// Extra fields merged into the nondeterministic `run` section.
    pub run_extra: Vec<(&'static str, Json)>,
}

impl<'a> Extras<'a> {
    /// Extras carrying only a `spans` section.
    pub fn spans(spans: &'a SpanSummary) -> Self {
        Extras {
            spans: Some(spans),
            ..Extras::default()
        }
    }
}

/// Like [`emit`], plus the optional [`Extras`] sections; a `spans`
/// section is printed after the `table`.
///
/// Besides the deterministic `experiment` / `table` / `metrics` sections
/// (and the equally deterministic `series` / `profile` extras when the
/// null clock is in use), every artifact carries a `run` section with
/// `sim_events_total` (the engine's delivered-event counter summed across
/// scopes), the wall-clock duration since [`args`] was first called, and
/// the resulting simulated events per wall second. `run` is the only
/// always-nondeterministic section: the doc generator reads `table`
/// alone, and the regression gate reads `table` plus its pinned `run`
/// bands.
pub fn emit_full(name: &str, rows: &impl ToJson, metrics: &MetricsReport, extras: Extras<'_>) {
    let events = metrics.counter_total(Subsystem::Engine, "events_delivered");
    let wall = args().started.elapsed().as_secs_f64();
    let rate = if wall > 0.0 {
        events as f64 / wall
    } else {
        0.0
    };
    let mut run_fields = vec![
        ("sim_events_total", events.to_json()),
        ("wall_secs", wall.to_json()),
        ("events_per_sec", rate.to_json()),
    ];
    run_fields.extend(extras.run_extra);
    let run = Json::obj(run_fields);
    let table = rows.to_json();
    print_table(name, &table, PRINT_PREC);
    let mut fields = vec![
        ("experiment", name.to_json()),
        ("table", table),
        ("metrics", metrics.to_json()),
        ("run", run),
    ];
    if let Some(s) = extras.spans {
        let spans = s.to_json();
        print_table(&format!("{name} spans"), &spans, PRINT_PREC);
        fields.push(("spans", spans));
    }
    if let Some(s) = extras.series {
        fields.push(("series", s.to_json()));
    }
    if let Some(p) = extras.profile {
        fields.push(("profile", p.to_json()));
    }
    let artifact = Json::obj(fields);
    let path = match &args().out {
        Some(p) => p.clone(),
        None => artifact_dir().join(format!("{name}.json")),
    };
    write_or_exit(&path, &artifact.pretty());
    println!("[metrics: {}]", path.display());
}

/// Decimals of the printed tables: enough that small fractions stay
/// visible (trailing zeros are trimmed).
const PRINT_PREC: usize = 6;

/// Prints `table` under a `== title ==` heading through the one table
/// writer, [`vsim::table::render`], with floats at `prec` decimals. A
/// table the writer rejects is reported on stderr instead.
pub fn print_table(title: &str, table: &Json, prec: usize) {
    match vsim::table::render(table, None, prec) {
        Ok(text) => print!("\n== {title} ==\n\n{text}"),
        Err(e) => eprintln!("vbench: cannot print {title}: {e}"),
    }
}

/// Writes `text` to `path`, creating its directory; exits with code 1,
/// naming the path, when either fails — a bench run whose output is lost
/// must not pass.
pub(crate) fn write_or_exit(path: &Path, text: &str) {
    let fail = |what: &Path, e: std::io::Error| -> ! {
        eprintln!("vbench: could not write {}: {e}", what.display());
        std::process::exit(1)
    };
    if let Some(parent) = path.parent() {
        if let Err(e) = std::fs::create_dir_all(parent) {
            fail(parent, e);
        }
    }
    if let Err(e) = std::fs::write(path, text) {
        fail(path, e);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_values_are_typed() {
        let cfg = Json::parse(
            r#"{"seed": 42, "neg": -3, "frac": 2.5, "word": "x", "hours": 1.5, "whole": 3}"#,
        )
        .expect("valid JSON");
        let u = |key: &str| config_value(Some(&cfg), key, "a non-negative integer", as_u64);
        assert_eq!(u("seed"), Ok(Some(42)));
        assert_eq!(u("absent"), Ok(None));
        assert_eq!(config_value(None, "seed", "an integer", as_u64), Ok(None));
        for bad in ["neg", "frac", "word"] {
            let e = u(bad).expect_err(bad);
            assert!(e.contains(&format!("\"{bad}\"")), "{e}");
        }
        let f = |key: &str| config_value(Some(&cfg), key, "a number", Json::as_f64);
        assert_eq!(f("hours"), Ok(Some(1.5)));
        assert_eq!(f("whole"), Ok(Some(3.0)));
        assert!(f("word").is_err());
        let s = |key: &str| {
            config_value(Some(&cfg), key, "a string", |v| {
                v.as_str().map(str::to_string)
            })
        };
        assert_eq!(s("word"), Ok(Some("x".to_string())));
        assert_eq!(
            s("seed"),
            Err("--config key \"seed\" must be a string, got 42".to_string())
        );
    }

    #[test]
    fn launch_and_measure_dirty() {
        use vworkload::profiles;
        let mut c = quiet_cluster(2, 7);
        let row = profiles::row("parser").expect("row");
        let profile = profiles::steady_profile(row);
        let (lh, team) = launch(&mut c, 1, profile, ExecTarget::Local, Priority::LOCAL);
        c.run_for(SimDuration::from_secs(2)); // Warm-up.
        let s = measure_dirty_windows(&mut c, lh, team, SimDuration::from_secs(1), 5);
        assert_eq!(s.count(), 5);
        // The parser dirties ~77 KB/s per Table 4-1.
        let mean = s.mean();
        assert!((mean - 76.8).abs() / 76.8 < 0.25, "mean {mean:.1} KB");
    }
}
