//! Matrix expansion: a [`Sweep`] → the flat list of
//! [`Cell`]s to execute, each with its canonical `--config` JSON.
//!
//! Cell order is deterministic: experiments in spec order, then the seed
//! axis, then the grid axes with the first axis outermost. The config
//! text is canonical (seed first, grid keys in spec order, fixed number
//! formatting), so it can be hashed byte-for-byte — see [`crate::hash`].

use crate::spec::{Experiment, Sweep};
use crate::toml::TomlValue;

/// One unit of work: a bench binary run under one parameter assignment.
#[derive(Debug, Clone)]
pub struct Cell {
    /// Binary name under the bin directory.
    pub bin: String,
    /// Owning experiment's consolidated-artifact name.
    pub experiment: String,
    /// Index of this cell within its experiment (0-based, plan order).
    pub index: usize,
    /// Number of cells in the owning experiment.
    pub of: usize,
    /// Canonical `--config` JSON text ("{}" when the cell has no
    /// parameters).
    pub config: String,
    /// Short human label: `seed=1 hours=3` ("defaults" when empty).
    pub label: String,
    /// Wall-clock limit for the child process.
    pub timeout_secs: u64,
}

/// Expands every experiment of `sweep` into its cells, in plan order.
pub fn cells(sweep: &Sweep) -> Vec<Cell> {
    let mut all = Vec::new();
    for exp in &sweep.experiments {
        let combos = expand(exp);
        let of = combos.len();
        for (index, assignment) in combos.into_iter().enumerate() {
            all.push(Cell {
                bin: exp.bin.clone(),
                experiment: exp.name.clone(),
                index,
                of,
                config: config_json(&assignment),
                label: label(&assignment),
                timeout_secs: exp.timeout_secs,
            });
        }
    }
    all
}

/// One parameter assignment: `(key, value)` pairs in canonical order.
type Assignment = Vec<(String, TomlValue)>;

/// Cartesian product over the seed axis and the grid axes. An experiment
/// with no axes yields exactly one empty assignment (the binary's
/// defaults).
fn expand(exp: &Experiment) -> Vec<Assignment> {
    let mut combos: Vec<Assignment> = vec![Vec::new()];
    if !exp.seeds.is_empty() {
        combos = exp
            .seeds
            .iter()
            .map(|&s| vec![("seed".to_string(), TomlValue::Int(s as i64))])
            .collect();
    }
    for (key, values) in &exp.grid {
        let mut next = Vec::with_capacity(combos.len() * values.len());
        for base in &combos {
            for v in values {
                let mut a = base.clone();
                a.push((key.clone(), v.clone()));
                next.push(a);
            }
        }
        combos = next;
    }
    combos
}

/// Renders the canonical config JSON for one assignment. Formatting is
/// fixed (2-space indent, spec key order, minimal float form) so equal
/// assignments always hash equally.
fn config_json(assignment: &Assignment) -> String {
    if assignment.is_empty() {
        return "{}\n".to_string();
    }
    let mut out = String::from("{\n");
    for (i, (key, value)) in assignment.iter().enumerate() {
        out.push_str("  \"");
        out.push_str(key);
        out.push_str("\": ");
        out.push_str(&scalar_json(value));
        out.push_str(if i + 1 == assignment.len() {
            "\n"
        } else {
            ",\n"
        });
    }
    out.push_str("}\n");
    out
}

/// JSON literal for one grid scalar.
fn scalar_json(value: &TomlValue) -> String {
    match value {
        TomlValue::Int(i) => i.to_string(),
        TomlValue::Float(f) => {
            // Keep integral floats distinguishable from ints (`3.0`),
            // everything else in shortest `{}` form.
            if f.fract() == 0.0 && f.is_finite() {
                format!("{f:.1}")
            } else {
                format!("{f}")
            }
        }
        TomlValue::Bool(b) => b.to_string(),
        TomlValue::Str(s) => {
            let escaped: String = s
                .chars()
                .flat_map(|c| match c {
                    '"' | '\\' => vec!['\\', c],
                    _ => vec![c],
                })
                .collect();
            format!("\"{escaped}\"")
        }
        TomlValue::List(_) => "null".to_string(), // unreachable: axes are flat
    }
}

/// Short display label for progress lines.
fn label(assignment: &Assignment) -> String {
    if assignment.is_empty() {
        return "defaults".to_string();
    }
    assignment
        .iter()
        .map(|(k, v)| {
            let v = match v {
                TomlValue::Str(s) => s.clone(),
                other => scalar_json(other),
            };
            format!("{k}={v}")
        })
        .collect::<Vec<_>>()
        .join(" ")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::Sweep;

    const SPEC: &str = r#"
[sweep]
name = "demo"

[[experiment]]
bin = "solo"

[[experiment]]
bin = "grid"
seeds = [1, 2]
[experiment.grid]
hours = [1.0, 2.5]
fast = [true, false]
"#;

    #[test]
    fn expands_the_cartesian_product_in_order() {
        let sweep = Sweep::parse(SPEC, "t.toml").unwrap();
        let cells = cells(&sweep);
        assert_eq!(cells.len(), 1 + 2 * 2 * 2);
        assert_eq!(cells[0].bin, "solo");
        assert_eq!(cells[0].of, 1);
        assert_eq!(cells[0].config, "{}\n");
        assert_eq!(cells[0].label, "defaults");
        // Seed outermost, then hours, then fast (spec order).
        assert_eq!(cells[1].label, "seed=1 hours=1.0 fast=true");
        assert_eq!(cells[2].label, "seed=1 hours=1.0 fast=false");
        assert_eq!(cells[3].label, "seed=1 hours=2.5 fast=true");
        assert_eq!(cells[5].label, "seed=2 hours=1.0 fast=true");
        assert_eq!(cells[8].index, 7);
        assert_eq!(cells[8].of, 8);
    }

    #[test]
    fn config_json_is_canonical() {
        let sweep = Sweep::parse(SPEC, "t.toml").unwrap();
        let cells = cells(&sweep);
        assert_eq!(
            cells[1].config,
            "{\n  \"seed\": 1,\n  \"hours\": 1.0,\n  \"fast\": true\n}\n"
        );
        // Identical assignments render identically (hash stability).
        let again = super::cells(&sweep);
        assert_eq!(cells[1].config, again[1].config);
    }

    #[test]
    fn string_axes_are_quoted_and_escaped() {
        let a = vec![("mode".to_string(), TomlValue::Str("a\"b".into()))];
        assert_eq!(config_json(&a), "{\n  \"mode\": \"a\\\"b\"\n}\n");
    }
}
