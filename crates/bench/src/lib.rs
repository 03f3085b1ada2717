//! `vbench` — the experiment harness.
//!
//! One binary per table/figure of the paper (see DESIGN.md §4 for the
//! index); this library holds what they share: table rendering, standard
//! cluster setups, dirty-window measurement, and JSON result emission so
//! EXPERIMENTS.md can be regenerated and diffed.

pub mod hostclock;
pub mod regress;
pub mod spans;

use std::fmt::Display;
use std::path::PathBuf;
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

/// A plain-text table, printed in the style of the paper's tables.
pub struct Table {
    title: String,
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with a title and column headers.
    pub fn new(title: impl Into<String>, header: &[&str]) -> Self {
        Table {
            title: title.into(),
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (stringifying each cell).
    ///
    /// # Panics
    ///
    /// Panics if `cells` does not have one entry per header column.
    pub fn row<D: Display>(&mut self, cells: &[D]) {
        assert_eq!(cells.len(), self.header.len(), "column count mismatch");
        self.rows
            .push(cells.iter().map(|c| c.to_string()).collect());
    }

    /// Renders the table.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for r in &self.rows {
            for (i, c) in r.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = String::new();
        out.push_str(&format!("\n== {} ==\n", self.title));
        let fmt_row = |cells: &[String]| -> String {
            let mut line = String::new();
            for (i, c) in cells.iter().enumerate() {
                if i == 0 {
                    line.push_str(&format!("{:<w$}", c, w = widths[i]));
                } else {
                    line.push_str(&format!("  {:>w$}", c, w = widths[i]));
                }
            }
            line.push('\n');
            line
        };
        out.push_str(&fmt_row(&self.header));
        let total: usize = widths.iter().sum::<usize>() + 2 * (widths.len() - 1);
        out.push_str(&format!("{}\n", "-".repeat(total)));
        for r in &self.rows {
            out.push_str(&fmt_row(r));
        }
        out
    }

    /// Prints the table to stdout.
    pub fn print(&self) {
        print!("{}", self.render());
    }
}

/// Formats a fractional value with one decimal.
pub fn f1(x: f64) -> String {
    format!("{x:.1}")
}

/// Formats a duration in milliseconds with one decimal.
pub fn ms(d: SimDuration) -> String {
    format!("{:.1}", d.as_secs_f64() * 1e3)
}

/// Formats a relative error as a percentage.
pub fn pct(measured: f64, reference: f64) -> String {
    if reference == 0.0 {
        "-".to_string()
    } else {
        format!("{:+.1}%", (measured - reference) / reference * 100.0)
    }
}

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

/// A `u64` cell parameter from `--config` (e.g. `"seed"`), or `default`.
pub fn config_u64(key: &str, default: u64) -> u64 {
    match args().config.as_ref().and_then(|c| c.get(key)) {
        Some(Json::UInt(u)) => *u,
        Some(v) => v.as_f64().map_or(default, |x| x.max(0.0) as u64),
        None => default,
    }
}

/// A `usize` cell parameter from `--config`, or `default`.
pub fn config_usize(key: &str, default: usize) -> usize {
    usize::try_from(config_u64(key, default as u64)).unwrap_or(default)
}

/// An `f64` cell parameter from `--config`, or `default`.
pub fn config_f64(key: &str, default: f64) -> f64 {
    args()
        .config
        .as_ref()
        .and_then(|c| c.get(key))
        .and_then(Json::as_f64)
        .unwrap_or(default)
}

/// A string cell parameter from `--config`, when present.
pub fn config_str(key: &str) -> Option<String> {
    args()
        .config
        .as_ref()
        .and_then(|c| c.get(key))
        .and_then(Json::as_str)
        .map(str::to_string)
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

/// Writes one experiment's machine-readable artifact beside its printed
/// table: `<dir>/<name>.json` holding the table rows and a
/// [`MetricsReport`] snapshot of every instrumented component.
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

/// Like [`emit`], plus the optional [`Extras`] sections.
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
    let mut fields = vec![
        ("experiment", name.to_json()),
        ("table", rows.to_json()),
        ("metrics", metrics.to_json()),
        ("run", run),
    ];
    if let Some(s) = extras.spans {
        fields.push(("spans", s.to_json()));
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
    if let Some(parent) = path.parent() {
        let _ = std::fs::create_dir_all(parent);
    }
    if let Err(e) = std::fs::write(&path, artifact.pretty()) {
        eprintln!("vbench: could not write {}: {e}", path.display());
    } else {
        println!("[metrics: {}]", path.display());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new("Demo", &["name", "value"]);
        t.row(&["alpha", "1"]);
        t.row(&["b", "22"]);
        let s = t.render();
        assert!(s.contains("== Demo =="));
        assert!(s.contains("alpha"));
        let lines: Vec<&str> = s.lines().filter(|l| !l.is_empty()).collect();
        // Title, header, separator, two rows.
        assert_eq!(lines.len(), 5);
    }

    #[test]
    #[should_panic(expected = "column count mismatch")]
    fn table_rejects_ragged_rows() {
        let mut t = Table::new("x", &["a", "b"]);
        t.row(&["only-one"]);
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(f1(1.25), "1.2");
        assert_eq!(ms(SimDuration::from_micros(23_000)), "23.0");
        assert_eq!(pct(110.0, 100.0), "+10.0%");
        assert_eq!(pct(1.0, 0.0), "-");
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
