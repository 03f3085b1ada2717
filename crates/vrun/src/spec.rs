//! Sweep-spec parsing: `sweeps/*.json` → a validated [`Sweep`].
//!
//! A spec names a set of experiments (bench binaries), each with an
//! optional seed list and an optional parameter grid; `vrun` expands
//! the cross product into cells (see [`crate::plan`]). The file is JSON,
//! read by the same [`vsim::Json`] parser as every artifact:
//!
//! ```json
//! {
//!   "name": "usage_scale",
//!   "pool": 4,
//!   "timeout_secs": 300,
//!   "experiments": [
//!     {
//!       "bin": "exp_cluster_usage",
//!       "name": "usage_scale",
//!       "seeds": [1985, 2025],
//!       "grid": {"workstations": [8, 16, 24], "hours": [1.0, 3.0]}
//!     }
//!   ]
//! }
//! ```
//!
//! `name` and each experiment's `bin` are required; `pool` (default 4)
//! and `timeout_secs` (default 120, per cell) are positive integers; an
//! experiment's `name` (default: `bin`) names `results/<name>.json`.
//! The grid's key order is the axis order. Every key is checked:
//! unknown keys, wrong value types and duplicate experiment names are
//! errors naming the file and the key path, e.g.
//! `recovery.json: experiments[0].grid.seed: …`.

use vsim::Json;

/// Default per-cell timeout when the sweep sets none.
pub const DEFAULT_TIMEOUT_SECS: u64 = 120;

/// Default bound on concurrently running cells.
pub const DEFAULT_POOL: usize = 4;

/// A parsed, validated sweep specification.
#[derive(Debug)]
pub struct Sweep {
    /// Sweep name (used in progress output only).
    pub name: String,
    /// Maximum number of cells running at once.
    pub pool: usize,
    /// Wall-clock limit of every cell.
    pub timeout_secs: u64,
    /// The experiments, in spec order.
    pub experiments: Vec<Experiment>,
}

/// One entry of `experiments`: a bench binary plus the axes swept over.
#[derive(Debug)]
pub struct Experiment {
    /// Binary name under `crates/bench/src/bin/`.
    pub bin: String,
    /// Consolidated artifact name: `results/<name>.json`. Defaults to
    /// `bin`; must be unique across the sweep.
    pub name: String,
    /// Seed axis — one cell per seed. Empty = the binary's built-in
    /// default seed (no `seed` key in the cell config).
    pub seeds: Vec<u64>,
    /// Grid axes in spec order: `(key, values)`; the cells cover the
    /// cartesian product of all axes. Values are scalars.
    pub grid: Vec<(String, Vec<Json>)>,
}

impl Sweep {
    /// Loads and validates a sweep spec from `path`.
    pub fn load(path: &std::path::Path) -> Result<Sweep, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        let origin = path
            .file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_else(|| path.display().to_string());
        Sweep::parse(&text, &origin)
    }

    /// Parses a sweep spec from text; errors start with `origin: `.
    pub fn parse(text: &str, origin: &str) -> Result<Sweep, String> {
        Json::parse(text)
            .and_then(|doc| Sweep::from_json(&doc))
            .map_err(|e| format!("{origin}: {e}"))
    }

    fn from_json(doc: &Json) -> Result<Sweep, String> {
        let mut name = None;
        let mut pool = DEFAULT_POOL;
        let mut timeout_secs = DEFAULT_TIMEOUT_SECS;
        let mut experiments: Vec<Experiment> = Vec::new();
        for (key, value) in fields(doc, "the spec")? {
            match key.as_str() {
                "name" => name = Some(string(value, key)?),
                "pool" => pool = count(value, key)? as usize,
                "timeout_secs" => timeout_secs = count(value, key)?,
                "experiments" => {
                    let list = value
                        .as_arr()
                        .ok_or(format!("{key}: must be an array, got {}", kind(value)))?;
                    for (i, exp) in list.iter().enumerate() {
                        let exp = experiment(exp, &format!("{key}[{i}]"))?;
                        if experiments.iter().any(|e| e.name == exp.name) {
                            return Err(format!(
                                "{key}[{i}]: duplicate experiment name `{}` (set a distinct `name`)",
                                exp.name
                            ));
                        }
                        experiments.push(exp);
                    }
                }
                _ => return Err(unknown(key, "name, pool, timeout_secs, experiments")),
            }
        }
        let name = name.ok_or("missing `name`")?;
        if experiments.is_empty() {
            return Err("no experiments".to_string());
        }
        Ok(Sweep {
            name,
            pool,
            timeout_secs,
            experiments,
        })
    }
}

fn experiment(value: &Json, path: &str) -> Result<Experiment, String> {
    let mut bin = None;
    let mut name = None;
    let mut seeds = Vec::new();
    let mut grid = Vec::new();
    for (key, value) in fields(value, path)? {
        let at = format!("{path}.{key}");
        match key.as_str() {
            "bin" => bin = Some(string(value, &at)?),
            "name" => name = Some(string(value, &at)?),
            "seeds" => {
                let list = value
                    .as_arr()
                    .ok_or(format!("{at}: must be an array, got {}", kind(value)))?;
                for (i, seed) in list.iter().enumerate() {
                    match seed {
                        Json::UInt(s) => seeds.push(*s),
                        other => {
                            return Err(format!(
                                "{at}[{i}]: a seed must be a non-negative integer, got {}",
                                kind(other)
                            ))
                        }
                    }
                }
            }
            "grid" => {
                for (axis, values) in fields(value, &at)? {
                    let at = format!("{at}.{axis}");
                    if axis == "seed" {
                        return Err(format!("{at}: put the seed axis in `seeds`, not the grid"));
                    }
                    grid.push((axis.clone(), grid_axis(values, &at)?));
                }
            }
            _ => return Err(unknown(&at, "bin, name, seeds, grid")),
        }
    }
    let bin = bin.ok_or(format!("{path}: missing `bin`"))?;
    Ok(Experiment {
        name: name.unwrap_or_else(|| bin.clone()),
        bin,
        seeds,
        grid,
    })
}

/// One grid axis: a non-empty array of scalars.
fn grid_axis(value: &Json, path: &str) -> Result<Vec<Json>, String> {
    let list = value.as_arr().ok_or(format!(
        "{path}: a grid axis must be an array, got {}",
        kind(value)
    ))?;
    if list.is_empty() {
        return Err(format!("{path}: the grid axis is empty"));
    }
    for v in list {
        if matches!(v, Json::Null | Json::Arr(_) | Json::Obj(_)) {
            return Err(format!(
                "{path}: axis values are numbers, booleans or strings, got {}",
                kind(v)
            ));
        }
    }
    Ok(list.to_vec())
}

/// The pairs of the object `value` (at key path `path`).
fn fields<'a>(value: &'a Json, path: &str) -> Result<&'a [(String, Json)], String> {
    match value {
        Json::Obj(pairs) => Ok(pairs),
        other => Err(format!("{path}: must be an object, got {}", kind(other))),
    }
}

fn unknown(path: &str, known: &str) -> String {
    format!("{path}: unknown key (expected one of: {known})")
}

fn string(value: &Json, path: &str) -> Result<String, String> {
    value
        .as_str()
        .map(str::to_string)
        .ok_or(format!("{path}: must be a string, got {}", kind(value)))
}

/// A positive integer.
fn count(value: &Json, path: &str) -> Result<u64, String> {
    match value {
        Json::UInt(n) if *n > 0 => Ok(*n),
        other => Err(format!(
            "{path}: must be a positive integer, got {}",
            kind(other)
        )),
    }
}

/// A value's type, or a scalar's text, for error messages.
fn kind(value: &Json) -> String {
    match value {
        Json::Arr(_) => "an array".to_string(),
        Json::Obj(_) => "an object".to_string(),
        scalar => scalar.pretty().trim_end().to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const OK: &str = r#"{
  "name": "demo",
  "pool": 2,
  "experiments": [
    {"bin": "exp_a"},
    {"bin": "exp_b", "seeds": [1, 2], "grid": {"hours": [1.0, 3.0], "mode": ["fast", "slow"]}}
  ]
}"#;

    #[test]
    fn parses_a_full_spec() {
        let s = Sweep::parse(OK, "demo.json").unwrap();
        assert_eq!(s.name, "demo");
        assert_eq!(s.pool, 2);
        assert_eq!(s.timeout_secs, DEFAULT_TIMEOUT_SECS);
        assert_eq!(s.experiments.len(), 2);
        assert_eq!(s.experiments[0].bin, "exp_a");
        assert_eq!(s.experiments[0].name, "exp_a");
        let b = &s.experiments[1];
        assert_eq!(b.seeds, [1, 2]);
        assert_eq!(b.grid.len(), 2);
        assert_eq!(b.grid[0].0, "hours");
        assert_eq!(
            b.grid[1].1,
            [Json::Str("fast".into()), Json::Str("slow".into())]
        );
    }

    #[test]
    fn rejects_bad_specs_naming_the_key_path() {
        let exp =
            |body: &str| format!(r#"{{"name": "x", "experiments": [{{"bin": "b"}}, {body}]}}"#);
        for (text, needle) in [
            (r#"{"name": "x"}"#.to_string(), "s.json: no experiments"),
            (r#"{"name": "x", "experiments": []}"#.into(), "s.json: no experiments"),
            (r#"{"experiments": [{"bin": "b"}]}"#.into(), "s.json: missing `name`"),
            (r#"{"name": 3}"#.into(), "s.json: name: must be a string, got 3"),
            (r#"[1]"#.into(), "s.json: the spec: must be an object, got an array"),
            (r#"{"name": "x", "sweep": {}}"#.into(), "s.json: sweep: unknown key"),
            (r#"{"name": "x", "pool": 0}"#.into(), "s.json: pool: must be a positive integer, got 0"),
            (r#"{"name": "x", "pool": 2.5}"#.into(), "s.json: pool: must be a positive integer, got 2.5"),
            (
                r#"{"name": "x", "timeout_secs": "9"}"#.into(),
                r#"s.json: timeout_secs: must be a positive integer, got "9""#,
            ),
            (r#"{"name": "x", "experiments": {}}"#.into(), "s.json: experiments: must be an array"),
            (exp(r#"{"bean": "b"}"#), "s.json: experiments[1].bean: unknown key"),
            (exp(r#"{"name": "n"}"#), "s.json: experiments[1]: missing `bin`"),
            (exp(r#""b""#), "s.json: experiments[1]: must be an object"),
            (exp(r#"{"bin": "c", "timeout_secs": 9}"#), "s.json: experiments[1].timeout_secs: unknown key"),
            (exp(r#"{"bin": "c", "seeds": 7}"#), "s.json: experiments[1].seeds: must be an array, got 7"),
            (
                exp(r#"{"bin": "c", "seeds": [1, -1]}"#),
                "s.json: experiments[1].seeds[1]: a seed must be a non-negative integer, got -1",
            ),
            (
                exp(r#"{"bin": "c", "seeds": [1.5]}"#),
                "s.json: experiments[1].seeds[0]: a seed must be a non-negative integer, got 1.5",
            ),
            (exp(r#"{"bin": "c", "grid": [1]}"#), "s.json: experiments[1].grid: must be an object"),
            (
                exp(r#"{"bin": "c", "grid": {"a": 1}}"#),
                "s.json: experiments[1].grid.a: a grid axis must be an array, got 1",
            ),
            (exp(r#"{"bin": "c", "grid": {"a": []}}"#), "s.json: experiments[1].grid.a: the grid axis is empty"),
            (
                exp(r#"{"bin": "c", "grid": {"a": [[1]]}}"#),
                "s.json: experiments[1].grid.a: axis values are numbers, booleans or strings, got an array",
            ),
            (
                exp(r#"{"bin": "c", "grid": {"a": [{}]}}"#),
                "s.json: experiments[1].grid.a: axis values are numbers, booleans or strings, got an object",
            ),
            (
                exp(r#"{"bin": "c", "grid": {"seed": [1]}}"#),
                "s.json: experiments[1].grid.seed: put the seed axis in `seeds`",
            ),
            (exp(r#"{"bin": "b"}"#), "s.json: experiments[1]: duplicate experiment name `b`"),
            (exp(r#"{"bin": "c", "name": "b"}"#), "s.json: experiments[1]: duplicate experiment name `b`"),
        ] {
            let err = Sweep::parse(&text, "s.json").unwrap_err();
            assert!(err.contains(needle), "spec {text}: expected {needle:?} in {err:?}");
        }
    }

    #[test]
    fn repeated_keys_are_errors_naming_the_key() {
        for (text, key) in [
            (r#"{"name": "x", "name": "y"}"#, "name"),
            (
                r#"{"name": "x", "experiments": [{"bin": "b", "grid": {"a": [1], "a": [2]}}]}"#,
                "a",
            ),
        ] {
            let err = Sweep::parse(text, "s.json").unwrap_err();
            assert!(err.starts_with("s.json: json parse error at byte"), "{err}");
            assert!(err.contains(&format!("duplicate key \"{key}\"")), "{err}");
        }
    }

    #[test]
    fn load_reports_a_missing_file() {
        let err = Sweep::load(std::path::Path::new("/nonexistent/spec.json")).unwrap_err();
        assert!(err.contains("cannot read /nonexistent/spec.json"), "{err}");
    }
}
