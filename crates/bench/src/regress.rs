//! Bench regression gate.
//!
//! The simulation is deterministic, so an experiment re-run from the same
//! seed reproduces its numbers exactly; any drift comes from a code
//! change. `results/BASELINE.json` pins the tracked metrics:
//!
//! ```json
//! {
//!   "tolerance": 0.10,
//!   "experiments": [
//!     {
//!       "experiment": "exp_freeze_time",
//!       "tracked": [
//!         { "row": "parser", "column": "freeze_ms", "value": 42.0 }
//!       ]
//!     }
//!   ]
//! }
//! ```
//!
//! Each tracked entry names a column of the experiment's emitted `table`.
//! When the table is an array of row objects, `row` selects the row whose
//! *first* field equals it (the row key — e.g. the program name); when
//! the table is a single object, `row` is omitted and `column` is looked
//! up directly. The `bench_regress` binary re-reads the artifacts and
//! fails when any value drifts past the tolerance.
//!
//! An experiment entry may additionally pin wall-clock speed:
//!
//! ```json
//! { "experiment": "telemetry_overhead",
//!   "throughput": { "value": 5.0e6, "min_ratio": 0.3 } }
//! ```
//!
//! This checks the artifact's nondeterministic `run.events_per_sec`
//! against the pinned baseline with a *drop-only* band: the gate fails
//! only when the measured rate falls below `value * min_ratio`
//! (`min_ratio` defaults to 0.5). Speedups never fail, and the wide band
//! absorbs machine noise without flaking, while a real order-of-magnitude
//! slowdown — the kind an accidentally quadratic queue would cause —
//! still trips the gate.
//!
//! A third band shape gates a *ratio* computed by the bench itself:
//!
//! ```json
//! { "experiment": "telemetry_overhead",
//!   "overhead": { "column": "sampling_overhead_ratio", "max": 0.10 } }
//! ```
//!
//! This reads `run.<column>` and fails when it exceeds `max` (a list of
//! such bands is also accepted). Unlike the throughput band it needs no
//! pinned absolute rate: the bench measures its variants back-to-back in
//! one process, so the ratio cancels machine speed and the band can be
//! tight (the ≤10% sampling-overhead promise) without flaking.

use vsim::Json;

/// The outcome of checking one tracked metric.
#[derive(Debug, Clone)]
pub struct Check {
    /// Experiment name (artifact stem).
    pub experiment: String,
    /// Row key within the experiment table, if the table is an array.
    pub row: Option<String>,
    /// Column (field) name.
    pub column: String,
    /// The pinned baseline value.
    pub baseline: f64,
    /// The re-measured value (`None` when missing from the artifact).
    pub measured: Option<f64>,
    /// Whether the check passed.
    pub pass: bool,
}

impl Check {
    /// `row.column` or just `column` for object tables.
    pub fn key(&self) -> String {
        match &self.row {
            Some(r) => format!("{r}.{}", self.column),
            None => self.column.clone(),
        }
    }

    /// Relative drift from the baseline, when measured.
    pub fn drift(&self) -> Option<f64> {
        let m = self.measured?;
        if self.baseline == 0.0 {
            None
        } else {
            Some((m - self.baseline) / self.baseline)
        }
    }
}

/// True when `measured` is within `tolerance` (relative) of `baseline`.
/// A zero baseline degenerates to an absolute comparison against the
/// tolerance itself.
pub fn within_tolerance(baseline: f64, measured: f64, tolerance: f64) -> bool {
    if baseline == 0.0 {
        measured.abs() <= tolerance
    } else {
        ((measured - baseline) / baseline).abs() <= tolerance
    }
}

/// The key of a table row: the value of its first field, stringified.
fn row_key(row: &Json) -> Option<String> {
    let Json::Obj(pairs) = row else { return None };
    let (_, v) = pairs.first()?;
    match v {
        Json::Str(s) => Some(s.clone()),
        other => other.as_f64().map(|x| {
            if x.fract() == 0.0 {
                format!("{x:.0}")
            } else {
                format!("{x}")
            }
        }),
    }
}

/// Looks up a tracked value in an emitted experiment `table`.
fn lookup(table: &Json, row: Option<&str>, column: &str) -> Option<f64> {
    match row {
        None => table.get(column)?.as_f64(),
        Some(key) => table
            .as_arr()?
            .iter()
            .find(|r| row_key(r).as_deref() == Some(key))?
            .get(column)?
            .as_f64(),
    }
}

/// Checks every tracked metric of one baseline experiment entry against
/// the experiment's emitted artifact.
pub fn check_experiment(entry: &Json, artifact: &Json, tolerance: f64) -> Vec<Check> {
    let experiment = entry
        .get("experiment")
        .and_then(|e| e.as_str())
        .unwrap_or("?")
        .to_string();
    let table = artifact.get("table");
    let mut out = Vec::new();
    for tracked in entry.get("tracked").and_then(|t| t.as_arr()).unwrap_or(&[]) {
        let row = tracked
            .get("row")
            .and_then(|r| r.as_str())
            .map(str::to_string);
        let column = tracked
            .get("column")
            .and_then(|c| c.as_str())
            .unwrap_or("?")
            .to_string();
        let baseline = tracked
            .get("value")
            .and_then(|v| v.as_f64())
            .unwrap_or(f64::NAN);
        let measured = table.and_then(|t| lookup(t, row.as_deref(), &column));
        let pass = match measured {
            Some(m) => baseline.is_finite() && within_tolerance(baseline, m, tolerance),
            None => false,
        };
        out.push(Check {
            experiment: experiment.clone(),
            row,
            column,
            baseline,
            measured,
            pass,
        });
    }
    if let Some(band) = entry.get("throughput") {
        out.push(check_throughput(&experiment, band, artifact));
    }
    for band in entry
        .get("overhead")
        .map(|b| match b.as_arr() {
            Some(list) => list.to_vec(),
            None => vec![b.clone()],
        })
        .unwrap_or_default()
    {
        out.push(check_overhead(&experiment, &band, artifact));
    }
    out
}

/// Checks an experiment's drop-only throughput band against the
/// artifact's `run.events_per_sec`. Improvements always pass; the check
/// fails only below `value * min_ratio` (default `min_ratio` 0.5).
fn check_throughput(experiment: &str, band: &Json, artifact: &Json) -> Check {
    let baseline = band
        .get("value")
        .and_then(|v| v.as_f64())
        .unwrap_or(f64::NAN);
    let min_ratio = band
        .get("min_ratio")
        .and_then(|r| r.as_f64())
        .unwrap_or(0.5);
    let measured = artifact
        .get("run")
        .and_then(|r| r.get("events_per_sec"))
        .and_then(Json::as_f64);
    let pass = match measured {
        Some(m) => baseline.is_finite() && baseline > 0.0 && m >= baseline * min_ratio,
        None => false,
    };
    Check {
        experiment: experiment.to_string(),
        row: None,
        column: "run.events_per_sec".to_string(),
        baseline,
        measured,
        pass,
    }
}

/// Checks a ceiling band on a bench-computed ratio in the artifact's
/// `run` section: fails when `run.<column>` is missing or exceeds `max`.
fn check_overhead(experiment: &str, band: &Json, artifact: &Json) -> Check {
    let column = band
        .get("column")
        .and_then(|c| c.as_str())
        .unwrap_or("?")
        .to_string();
    let max = band.get("max").and_then(|v| v.as_f64()).unwrap_or(f64::NAN);
    let measured = artifact
        .get("run")
        .and_then(|r| r.get(&column))
        .and_then(Json::as_f64);
    let pass = match measured {
        Some(m) => max.is_finite() && m <= max,
        None => false,
    };
    Check {
        experiment: experiment.to_string(),
        row: None,
        column: format!("run.{column}"),
        baseline: max,
        measured,
        pass,
    }
}

/// Runs the whole gate: for every experiment in `baseline`, loads its
/// artifact via `load` (name → parsed artifact JSON) and checks the
/// tracked metrics. The baseline's top-level `tolerance` (default 0.10)
/// applies to every check.
///
/// # Errors
///
/// Returns an error when the baseline document is malformed; a missing
/// or unreadable artifact is reported as failing checks, not an error,
/// so one broken experiment doesn't mask the rest of the report.
pub fn run_gate(
    baseline: &Json,
    mut load: impl FnMut(&str) -> Result<Json, String>,
) -> Result<Vec<Check>, String> {
    let tolerance = baseline
        .get("tolerance")
        .and_then(|t| t.as_f64())
        .unwrap_or(0.10);
    let experiments = baseline
        .get("experiments")
        .and_then(|e| e.as_arr())
        .ok_or("baseline: missing \"experiments\" array")?;
    let mut checks = Vec::new();
    for entry in experiments {
        let name = entry
            .get("experiment")
            .and_then(|e| e.as_str())
            .ok_or("baseline: experiment entry without \"experiment\" name")?;
        match load(name) {
            Ok(artifact) => checks.extend(check_experiment(entry, &artifact, tolerance)),
            Err(e) => {
                eprintln!("bench_regress: {name}: {e}");
                // Every tracked metric of the missing artifact fails.
                let empty = Json::obj::<&str>([]);
                checks.extend(check_experiment(entry, &empty, tolerance).into_iter().map(
                    |mut c| {
                        c.pass = false;
                        c
                    },
                ));
            }
        }
    }
    Ok(checks)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn baseline() -> Json {
        Json::parse(
            r#"{
                "tolerance": 0.10,
                "experiments": [
                    {
                        "experiment": "exp_freeze_time",
                        "tracked": [
                            { "row": "parser", "column": "freeze_ms", "value": 40.0 }
                        ]
                    },
                    {
                        "experiment": "exp_remote_exec",
                        "tracked": [
                            { "column": "selection_ms_measured", "value": 23.0 }
                        ]
                    }
                ]
            }"#,
        )
        .expect("baseline parses")
    }

    fn artifact(freeze_ms: f64) -> Json {
        Json::parse(&format!(
            r#"{{
                "experiment": "exp_freeze_time",
                "table": [
                    {{ "program": "parser", "freeze_ms": {freeze_ms} }},
                    {{ "program": "make", "freeze_ms": 210.0 }}
                ]
            }}"#
        ))
        .expect("artifact parses")
    }

    fn remote_exec_artifact() -> Json {
        Json::parse(
            r#"{
                "experiment": "exp_remote_exec",
                "table": { "selection_ms_measured": 24.1 }
            }"#,
        )
        .expect("artifact parses")
    }

    #[test]
    fn tolerance_window() {
        assert!(within_tolerance(100.0, 109.9, 0.10));
        assert!(within_tolerance(100.0, 90.1, 0.10));
        assert!(!within_tolerance(100.0, 111.0, 0.10));
        assert!(within_tolerance(0.0, 0.05, 0.10));
        assert!(!within_tolerance(0.0, 0.2, 0.10));
    }

    #[test]
    fn matching_run_passes() {
        let checks = run_gate(&baseline(), |name| {
            Ok(match name {
                "exp_freeze_time" => artifact(41.5),
                _ => remote_exec_artifact(),
            })
        })
        .expect("gate runs");
        assert_eq!(checks.len(), 2);
        assert!(checks.iter().all(|c| c.pass), "{checks:?}");
    }

    #[test]
    fn doubled_freeze_time_fails_the_gate() {
        // The injected regression: freeze time 2x the pinned baseline.
        let checks = run_gate(&baseline(), |name| {
            Ok(match name {
                "exp_freeze_time" => artifact(80.0),
                _ => remote_exec_artifact(),
            })
        })
        .expect("gate runs");
        let freeze = checks
            .iter()
            .find(|c| c.column == "freeze_ms")
            .expect("tracked");
        assert!(!freeze.pass, "2x regression must fail");
        assert!((freeze.drift().expect("measured") - 1.0).abs() < 1e-9);
        // The unrelated experiment still passes.
        assert!(checks.iter().any(|c| c.pass));
    }

    #[test]
    fn missing_artifact_fails_its_checks() {
        let checks = run_gate(&baseline(), |name| match name {
            "exp_freeze_time" => Err("no such file".into()),
            _ => Ok(remote_exec_artifact()),
        })
        .expect("gate runs");
        let freeze = checks.iter().find(|c| c.column == "freeze_ms").expect("t");
        assert!(!freeze.pass);
        assert!(freeze.measured.is_none());
    }

    fn throughput_baseline() -> Json {
        Json::parse(
            r#"{
                "experiments": [
                    {
                        "experiment": "telemetry_overhead",
                        "throughput": { "value": 1000000.0, "min_ratio": 0.3 }
                    }
                ]
            }"#,
        )
        .expect("baseline parses")
    }

    fn throughput_artifact(events_per_sec: f64) -> Json {
        Json::parse(&format!(
            r#"{{
                "experiment": "telemetry_overhead",
                "table": [],
                "run": {{ "events_per_sec": {events_per_sec} }}
            }}"#
        ))
        .expect("artifact parses")
    }

    #[test]
    fn throughput_band_is_drop_only() {
        // Noise-level slowdown and any speedup pass; a collapse fails.
        for (eps, expect) in [(900_000.0, true), (10_000_000.0, true), (200_000.0, false)] {
            let checks = run_gate(&throughput_baseline(), |_| Ok(throughput_artifact(eps)))
                .expect("gate runs");
            assert_eq!(checks.len(), 1);
            assert_eq!(checks[0].pass, expect, "eps {eps}: {checks:?}");
            assert_eq!(checks[0].column, "run.events_per_sec");
        }
    }

    #[test]
    fn throughput_check_requires_a_run_section() {
        let artifact = Json::parse(r#"{ "experiment": "telemetry_overhead", "table": [] }"#)
            .expect("artifact parses");
        let checks = run_gate(&throughput_baseline(), |_| Ok(artifact.clone())).expect("gate runs");
        assert!(!checks[0].pass);
        assert!(checks[0].measured.is_none());
    }

    fn overhead_baseline() -> Json {
        Json::parse(
            r#"{
                "experiments": [
                    {
                        "experiment": "telemetry_overhead",
                        "overhead": [
                            { "column": "sampling_overhead_ratio", "max": 0.10 },
                            { "column": "trace_overhead_ratio", "max": 0.25 }
                        ]
                    }
                ]
            }"#,
        )
        .expect("baseline parses")
    }

    fn overhead_artifact(sampling: f64, trace: f64) -> Json {
        Json::parse(&format!(
            r#"{{
                "experiment": "telemetry_overhead",
                "table": [],
                "run": {{
                    "events_per_sec": 1.0e6,
                    "sampling_overhead_ratio": {sampling},
                    "trace_overhead_ratio": {trace}
                }}
            }}"#
        ))
        .expect("artifact parses")
    }

    #[test]
    fn overhead_band_is_a_ceiling() {
        for (sampling, expect) in [(0.03, true), (0.10, true), (0.17, false), (-0.05, true)] {
            let checks = run_gate(&overhead_baseline(), |_| {
                Ok(overhead_artifact(sampling, 0.0))
            })
            .expect("gate runs");
            assert_eq!(checks.len(), 2);
            let c = checks
                .iter()
                .find(|c| c.column == "run.sampling_overhead_ratio")
                .expect("band checked");
            assert_eq!(c.pass, expect, "ratio {sampling}: {c:?}");
        }
    }

    #[test]
    fn overhead_band_fails_when_column_missing() {
        let artifact = Json::parse(r#"{ "experiment": "telemetry_overhead", "run": {} }"#)
            .expect("artifact parses");
        let checks = run_gate(&overhead_baseline(), |_| Ok(artifact.clone())).expect("gate runs");
        assert!(checks.iter().all(|c| !c.pass));
        assert!(checks.iter().all(|c| c.measured.is_none()));
    }

    #[test]
    fn row_lookup_uses_first_field_as_key() {
        let a = artifact(40.0);
        let table = a.get("table").expect("table");
        assert_eq!(lookup(table, Some("make"), "freeze_ms"), Some(210.0));
        assert_eq!(lookup(table, Some("nonesuch"), "freeze_ms"), None);
    }
}
