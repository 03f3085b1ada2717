//! Sweep-spec parsing: `sweeps/*.toml` → a validated [`Sweep`].
//!
//! A spec names a set of experiments (bench binaries), each with an
//! optional seed list and an optional parameter grid; `vrun` expands
//! the cross product into cells (see [`crate::plan`]). The grammar is
//! the shared TOML subset from [`crate::toml`]:
//!
//! ```toml
//! [sweep]
//! name = "paper"          # required
//! pool = 4                # optional: max concurrent cells
//! timeout_secs = 120      # optional: per-cell wall-clock limit
//!
//! [[experiment]]
//! bin = "exp_cluster_usage"   # required: crates/bench/src/bin/<bin>.rs
//! name = "usage_scale"        # optional: results/<name>.json (default: bin)
//! seeds = [1985, 1986]        # optional: one cell per seed
//! timeout_secs = 300          # optional: override the sweep default
//! [experiment.grid]           # optional: cartesian parameter grid
//! workstations = [8, 16, 24]
//! hours = [1.0, 3.0]
//! ```
//!
//! Every key is checked; unknown keys, wrong value types, and duplicate
//! experiment names are `file:line` errors, like the TOML reader's own.

use crate::toml::{TomlDoc, TomlTable, TomlValue};

/// Default per-cell timeout when neither the sweep nor the experiment
/// sets one.
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
    /// Per-cell timeout unless an experiment overrides it.
    pub timeout_secs: u64,
    /// The experiments, in spec order.
    pub experiments: Vec<Experiment>,
}

/// One `[[experiment]]` entry: a bench binary plus the axes swept over.
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
    /// cartesian product of all axes.
    pub grid: Vec<(String, Vec<TomlValue>)>,
    /// Per-cell timeout for this experiment.
    pub timeout_secs: u64,
    /// Spec line of the `[[experiment]]` header, for error messages.
    pub line: usize,
}

impl Sweep {
    /// Loads and validates a sweep spec from `path`.
    pub fn load(path: &std::path::Path) -> Result<Sweep, String> {
        Sweep::from_doc(&TomlDoc::load(path)?, &origin_of(path))
    }

    /// Parses a sweep spec from text; errors carry `origin:line`.
    pub fn parse(text: &str, origin: &str) -> Result<Sweep, String> {
        Sweep::from_doc(&TomlDoc::parse(text, origin)?, origin)
    }

    fn from_doc(doc: &TomlDoc, origin: &str) -> Result<Sweep, String> {
        let mut name = None;
        let mut pool = DEFAULT_POOL;
        let mut timeout = DEFAULT_TIMEOUT_SECS;
        let mut experiments: Vec<Experiment> = Vec::new();

        for table in &doc.tables {
            match table.name().as_str() {
                "sweep" => {
                    if table.array {
                        return Err(format!(
                            "{origin}:{}: [sweep] cannot be an array of tables",
                            table.line
                        ));
                    }
                    for (key, value, line) in &table.entries {
                        match key.as_str() {
                            "name" => name = Some(expect_str(value, origin, *line, key)?),
                            "pool" => pool = expect_count(value, origin, *line, key)? as usize,
                            "timeout_secs" => timeout = expect_count(value, origin, *line, key)?,
                            _ => {
                                return Err(format!("{origin}:{line}: unknown [sweep] key `{key}`"))
                            }
                        }
                    }
                }
                "experiment" => {
                    if !table.array {
                        return Err(format!(
                            "{origin}:{}: use [[experiment]] (array of tables), not [experiment]",
                            table.line
                        ));
                    }
                    experiments.push(parse_experiment(table, origin)?);
                }
                "experiment.grid" => {
                    let exp = experiments.last_mut().ok_or(format!(
                        "{origin}:{}: [experiment.grid] before any [[experiment]]",
                        table.line
                    ))?;
                    if !exp.grid.is_empty() {
                        return Err(format!(
                            "{origin}:{}: duplicate [experiment.grid] for `{}`",
                            table.line, exp.bin
                        ));
                    }
                    exp.grid = parse_grid(table, origin)?;
                }
                other => {
                    return Err(format!(
                        "{origin}:{}: unknown section [{other}]",
                        table.line
                    ))
                }
            }
        }

        let name = name.ok_or(format!("{origin}: missing [sweep] name"))?;
        if experiments.is_empty() {
            return Err(format!("{origin}: no [[experiment]] entries"));
        }
        for exp in &mut experiments {
            if exp.timeout_secs == 0 {
                exp.timeout_secs = timeout;
            }
        }
        let mut seen = std::collections::BTreeSet::new();
        for exp in &experiments {
            if !seen.insert(exp.name.clone()) {
                return Err(format!(
                    "{origin}:{}: duplicate experiment name `{}` (set a distinct `name`)",
                    exp.line, exp.name
                ));
            }
        }
        Ok(Sweep {
            name,
            pool: pool.max(1),
            timeout_secs: timeout,
            experiments,
        })
    }
}

fn parse_experiment(table: &TomlTable, origin: &str) -> Result<Experiment, String> {
    let mut bin = None;
    let mut name = None;
    let mut seeds = Vec::new();
    let mut timeout = 0u64; // 0 = inherit the sweep default.
    for (key, value, line) in &table.entries {
        match key.as_str() {
            "bin" => bin = Some(expect_str(value, origin, *line, key)?),
            "name" => name = Some(expect_str(value, origin, *line, key)?),
            "timeout_secs" => timeout = expect_count(value, origin, *line, key)?,
            "seeds" => {
                let list = value.as_list().ok_or(format!(
                    "{origin}:{line}: `seeds` must be a list of integers, got {}",
                    value.type_name()
                ))?;
                for v in list {
                    let i = v.as_int().ok_or(format!(
                        "{origin}:{line}: `seeds` entries must be integers, got {}",
                        v.type_name()
                    ))?;
                    seeds.push(
                        u64::try_from(i)
                            .map_err(|_| format!("{origin}:{line}: negative seed {i}"))?,
                    );
                }
            }
            _ => {
                return Err(format!(
                    "{origin}:{line}: unknown [[experiment]] key `{key}`"
                ))
            }
        }
    }
    let bin = bin.ok_or(format!(
        "{origin}:{}: [[experiment]] missing `bin`",
        table.line
    ))?;
    Ok(Experiment {
        name: name.unwrap_or_else(|| bin.clone()),
        bin,
        seeds,
        grid: Vec::new(),
        timeout_secs: timeout,
        line: table.line,
    })
}

fn parse_grid(table: &TomlTable, origin: &str) -> Result<Vec<(String, Vec<TomlValue>)>, String> {
    let mut grid = Vec::new();
    for (key, value, line) in &table.entries {
        if key == "seed" {
            return Err(format!(
                "{origin}:{line}: put the seed axis in `seeds`, not the grid"
            ));
        }
        let list = value.as_list().ok_or(format!(
            "{origin}:{line}: grid axis `{key}` must be a list, got {}",
            value.type_name()
        ))?;
        if list.is_empty() {
            return Err(format!("{origin}:{line}: grid axis `{key}` is empty"));
        }
        for v in list {
            if v.as_list().is_some() {
                return Err(format!(
                    "{origin}:{line}: grid axis `{key}` holds a nested list; axes are flat"
                ));
            }
        }
        grid.push((key.clone(), list.to_vec()));
    }
    Ok(grid)
}

fn expect_str(value: &TomlValue, origin: &str, line: usize, key: &str) -> Result<String, String> {
    value.as_str().map(str::to_string).ok_or(format!(
        "{origin}:{line}: `{key}` must be a string, got {}",
        value.type_name()
    ))
}

fn expect_count(value: &TomlValue, origin: &str, line: usize, key: &str) -> Result<u64, String> {
    match value.as_int() {
        Some(i) if i > 0 => Ok(i as u64),
        Some(i) => Err(format!(
            "{origin}:{line}: `{key}` must be positive, got {i}"
        )),
        None => Err(format!(
            "{origin}:{line}: `{key}` must be an integer, got {}",
            value.type_name()
        )),
    }
}

fn origin_of(path: &std::path::Path) -> String {
    path.file_name()
        .map(|n| n.to_string_lossy().into_owned())
        .unwrap_or_else(|| path.display().to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    const OK: &str = r#"
[sweep]
name = "demo"
pool = 2

[[experiment]]
bin = "exp_a"

[[experiment]]
bin = "exp_b"
seeds = [1, 2]
timeout_secs = 9
[experiment.grid]
hours = [1.0, 3.0]
mode = ["fast", "slow"]
"#;

    #[test]
    fn parses_a_full_spec() {
        let s = Sweep::parse(OK, "demo.toml").unwrap();
        assert_eq!(s.name, "demo");
        assert_eq!(s.pool, 2);
        assert_eq!(s.timeout_secs, DEFAULT_TIMEOUT_SECS);
        assert_eq!(s.experiments.len(), 2);
        assert_eq!(s.experiments[0].bin, "exp_a");
        assert_eq!(s.experiments[0].timeout_secs, DEFAULT_TIMEOUT_SECS);
        let b = &s.experiments[1];
        assert_eq!(b.seeds, [1, 2]);
        assert_eq!(b.timeout_secs, 9);
        assert_eq!(b.grid.len(), 2);
        assert_eq!(b.grid[0].0, "hours");
        assert_eq!(b.grid[1].1.len(), 2);
    }

    #[test]
    fn rejects_bad_specs_with_line_numbers() {
        for (text, needle) in [
            ("[sweep]\nname = \"x\"\n", "no [[experiment]]"),
            ("[[experiment]]\nbin = \"b\"\n", "missing [sweep] name"),
            ("[sweep]\nname = 3\n", "s.toml:2: `name` must be a string"),
            (
                "[sweep]\nname = \"x\"\n[experiment]\nbin = \"b\"\n",
                "s.toml:3: use [[experiment]]",
            ),
            (
                "[sweep]\nname = \"x\"\n[[experiment]]\nbean = \"b\"\n",
                "s.toml:4: unknown [[experiment]] key `bean`",
            ),
            (
                "[sweep]\nname = \"x\"\n[[experiment]]\nbin = \"b\"\nseeds = [-1]\n",
                "s.toml:5: negative seed",
            ),
            (
                "[sweep]\nname = \"x\"\n[[experiment]]\nbin = \"b\"\nseeds = 7\n",
                "s.toml:5: `seeds` must be a list",
            ),
            (
                "[sweep]\nname = \"x\"\n[experiment.grid]\na = [1]\n",
                "s.toml:3: [experiment.grid] before any [[experiment]]",
            ),
            (
                "[sweep]\nname = \"x\"\n[[experiment]]\nbin = \"b\"\n[experiment.grid]\na = 1\n",
                "s.toml:6: grid axis `a` must be a list",
            ),
            (
                "[sweep]\nname = \"x\"\n[[experiment]]\nbin = \"b\"\n[experiment.grid]\nseed = [1]\n",
                "s.toml:6: put the seed axis in `seeds`",
            ),
            (
                "[sweep]\nname = \"x\"\npool = 0\n",
                "s.toml:3: `pool` must be positive",
            ),
            (
                "[sweep]\nname = \"x\"\n[[experiment]]\nbin = \"b\"\n[[experiment]]\nbin = \"b\"\n",
                "duplicate experiment name `b`",
            ),
            (
                "[sweep]\nname = \"x\"\n[unknown]\n",
                "s.toml:3: unknown section [unknown]",
            ),
        ] {
            let err = Sweep::parse(text, "s.toml").unwrap_err();
            assert!(
                err.contains(needle),
                "spec {text:?}: expected {needle:?} in {err:?}"
            );
        }
    }
}
