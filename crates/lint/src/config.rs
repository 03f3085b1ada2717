//! `lint.toml` loading, on top of the shared [`crate::toml`] reader.
//!
//! The auditor is dependency-free, so the workspace hand-rolls its own
//! small TOML-subset parser (the same spirit as `vsim::json`). That
//! parser started here and now lives in [`crate::toml`], where `vrun`'s
//! sweep specs share it; this module keeps the `lint.toml`-specific
//! schema: which sections exist, which value types they take, and the
//! validation that makes a bad config a loud CI failure instead of a
//! silently skipped rule.

use std::collections::BTreeMap;
use std::path::Path;

use crate::toml::{TomlDoc, TomlTable, TomlValue};

/// The `[schema]` section: where emitted names are collected from and
/// which consumers they are cross-checked against.
#[derive(Debug, Clone, Default)]
pub struct SchemaCfg {
    /// Markdown docs holding `<!-- vlint:schema -->` tables.
    pub docs: Vec<String>,
    /// Directory of sweep specs whose `plan` axes must use known names.
    pub sweeps: Option<String>,
    /// `"file#fn"` of the canonical fault-plan name list
    /// (`FaultPlan::names`).
    pub plan_names: Option<(String, String)>,
    /// The fault-matrix soak test that must iterate `fault_points()`.
    pub fault_matrix: Option<String>,
}

/// The full `lint.toml` configuration.
#[derive(Debug, Clone, Default)]
pub struct Config {
    /// Crates whose metric and series registrations form the documented
    /// telemetry schema (everything simulation-facing).
    pub library_crates: Vec<String>,
    /// Intended dependency DAG: crate name → exhaustive list of crates it
    /// may depend on. Every discovered crate must have an entry.
    pub layering: BTreeMap<String, Vec<String>>,
    /// Bench binaries (file stems under `crates/bench/src/bin/`) exempt
    /// from the `bench-emit` rule — gates and meta-tools that do not
    /// produce experiment artifacts.
    pub bench_emit_exempt: Vec<String>,
    /// `[schema]` configuration for the schema-drift audit.
    pub schema: SchemaCfg,
}

impl Config {
    /// Loads and validates `root/lint.toml`.
    ///
    /// # Errors
    ///
    /// Returns a message naming the offending line when the file is
    /// missing, unreadable, or outside the accepted TOML subset.
    pub fn load(root: &Path) -> Result<Config, String> {
        let path = root.join("lint.toml");
        let text = std::fs::read_to_string(&path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        Config::parse(&text)
    }

    /// Parses a `lint.toml` document from a string.
    ///
    /// # Errors
    ///
    /// Returns a message naming the offending line on malformed input.
    pub fn parse(text: &str) -> Result<Config, String> {
        let doc = TomlDoc::parse(text, "lint.toml")?;
        let mut cfg = Config::default();
        for table in &doc.tables {
            let name = table.name();
            if table.array {
                return Err(format!(
                    "lint.toml:{}: [[{name}]] — lint.toml has no array tables",
                    table.line
                ));
            }
            match name.as_str() {
                "workspace" => {
                    for (k, v, line) in &table.entries {
                        match k.as_str() {
                            "library_crates" => {
                                cfg.library_crates = string_list(v, line, "workspace", k)?;
                            }
                            _ => {
                                return Err(format!(
                                    "lint.toml:{line}: unknown [workspace] key `{k}`"
                                ))
                            }
                        }
                    }
                }
                "layering" => {
                    for (k, v, line) in &table.entries {
                        cfg.layering
                            .insert(k.clone(), string_list(v, line, "layering", k)?);
                    }
                }
                "bench" => {
                    for (k, v, line) in &table.entries {
                        match k.as_str() {
                            "emit_exempt" => {
                                cfg.bench_emit_exempt = string_list(v, line, "bench", k)?;
                            }
                            _ => {
                                return Err(format!("lint.toml:{line}: unknown [bench] key `{k}`"))
                            }
                        }
                    }
                }
                "schema" => parse_schema(table, &mut cfg.schema)?,
                _ => {
                    return Err(format!(
                        "lint.toml:{}: unknown section [{name}]",
                        table.line
                    ))
                }
            }
        }
        Ok(cfg)
    }
}

fn parse_schema(table: &TomlTable, out: &mut SchemaCfg) -> Result<(), String> {
    for (k, v, line) in &table.entries {
        match k.as_str() {
            "docs" => out.docs = string_list(v, line, "schema", k)?,
            "sweeps" => out.sweeps = Some(require_str(v, line, "schema", k)?),
            "plan_names" => {
                let s = require_str(v, line, "schema", k)?;
                let site = s
                    .split_once('#')
                    .filter(|(f, func)| !f.is_empty() && !func.is_empty())
                    .ok_or_else(|| {
                        format!(
                            "lint.toml:{line}: plan_names `{s}` must look like \
                             `path/to/file.rs#fn_name`"
                        )
                    })?;
                out.plan_names = Some((site.0.to_string(), site.1.to_string()));
            }
            "fault_matrix" => out.fault_matrix = Some(require_str(v, line, "schema", k)?),
            _ => return Err(format!("lint.toml:{line}: unknown [schema] key `{k}`")),
        }
    }
    Ok(())
}

/// Requires `v` to be a string.
fn require_str(v: &TomlValue, line: &usize, section: &str, key: &str) -> Result<String, String> {
    v.as_str()
        .map(str::to_string)
        .ok_or_else(|| format!("lint.toml:{line}: [{section}] `{key}` must be a string"))
}

/// Requires `v` to be an all-strings array.
fn string_list(
    v: &TomlValue,
    line: &usize,
    section: &str,
    key: &str,
) -> Result<Vec<String>, String> {
    v.string_list()
        .ok_or_else(|| format!("lint.toml:{line}: [{section}] `{key}` must be a list of strings"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_full_config() {
        let cfg = Config::parse(
            r#"
# comment
[workspace]
library_crates = [
    "vsim", # trailing comment
    "vnet",
]

[layering]
vsim = []
vnet = ["vsim"]

[bench]
emit_exempt = ["bench_regress"]

[schema]
docs = ["EXPERIMENTS.md"]
sweeps = "sweeps"
plan_names = "crates/sim/src/faults.rs#names"
fault_matrix = "tests/fault_matrix.rs"
"#,
        )
        .unwrap();
        assert_eq!(cfg.library_crates, vec!["vsim", "vnet"]);
        assert_eq!(cfg.layering["vnet"], vec!["vsim"]);
        assert_eq!(cfg.bench_emit_exempt, vec!["bench_regress"]);
        assert_eq!(cfg.schema.docs, vec!["EXPERIMENTS.md"]);
        assert_eq!(cfg.schema.sweeps.as_deref(), Some("sweeps"));
        assert_eq!(
            cfg.schema.plan_names,
            Some(("crates/sim/src/faults.rs".to_string(), "names".to_string()))
        );
        assert_eq!(
            cfg.schema.fault_matrix.as_deref(),
            Some("tests/fault_matrix.rs")
        );
    }

    #[test]
    fn rejects_unknown_and_retired_sections() {
        assert!(Config::parse("[mystery]\nx = 1\n").is_err());
        // The determinism, dispatch and ratchet rules moved to clippy.
        for src in [
            "[determinism]\nallow = []\n",
            "[taint]\nsources = []\n",
            "[allow.panic-budget]\n\"a.rs\" = 1\n",
            "[[dispatch]]\nenum = \"E\"\n",
        ] {
            assert!(Config::parse(src).is_err(), "{src}");
        }
    }

    #[test]
    fn rejects_unknown_keys_with_line_numbers() {
        for src in [
            "[workspace]\ncast_crates = []\n",
            "[bench]\nnope = []\n",
            "[schema]\nnope = \"x\"\n",
        ] {
            let err = Config::parse(src).expect_err(src);
            assert!(err.contains("lint.toml:2"), "{err}");
        }
    }

    #[test]
    fn rejects_wrong_value_types() {
        assert!(Config::parse("[workspace]\nlibrary_crates = 3\n").is_err());
        assert!(Config::parse("[layering]\nvsim = \"vnet\"\n").is_err());
        assert!(Config::parse("[layering]\nvsim = [1]\n").is_err());
        assert!(Config::parse("[bench]\nemit_exempt = [true]\n").is_err());
        assert!(Config::parse("[schema]\nsweeps = 3\n").is_err());
    }

    #[test]
    fn plan_names_must_name_a_fn() {
        let err = Config::parse("[schema]\nplan_names = \"a.rs\"\n").expect_err("no fn");
        assert!(err.contains("file.rs#fn_name"), "{err}");
    }

    #[test]
    fn rejects_key_outside_section() {
        assert!(Config::parse("x = 1\n").is_err());
    }
}
