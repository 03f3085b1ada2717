//! Matrix expansion: a [`Sweep`] → the flat list of
//! [`Cell`]s to execute, each with its canonical `--config` JSON.
//!
//! Cell order is deterministic: experiments in spec order, then the seed
//! axis, then the grid axes with the first axis outermost. The config
//! is an object with `seed` first and the grid keys in spec order, and
//! its text is always [`Json::pretty`], so it can be hashed
//! byte-for-byte — see [`crate::hash`].

use vsim::Json;

use crate::spec::{Experiment, Sweep};

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
    /// The `--config` object (empty when the cell has no parameters);
    /// its text is `config.pretty()`.
    pub config: Json,
    /// Short human label: `seed=1 hours=3.0` ("defaults" when empty).
    pub label: String,
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
                label: label(&assignment),
                config: Json::Obj(assignment),
            });
        }
    }
    all
}

/// One parameter assignment: `(key, value)` pairs in canonical order.
type Assignment = Vec<(String, Json)>;

/// Cartesian product over the seed axis and the grid axes. An experiment
/// with no axes yields exactly one empty assignment (the binary's
/// defaults).
fn expand(exp: &Experiment) -> Vec<Assignment> {
    let mut combos: Vec<Assignment> = vec![Vec::new()];
    if !exp.seeds.is_empty() {
        combos = exp
            .seeds
            .iter()
            .map(|&s| vec![("seed".to_string(), Json::UInt(s))])
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

/// Short display label for progress lines: strings bare, other scalars
/// as their JSON text.
fn label(assignment: &Assignment) -> String {
    if assignment.is_empty() {
        return "defaults".to_string();
    }
    assignment
        .iter()
        .map(|(k, v)| match v {
            Json::Str(s) => format!("{k}={s}"),
            other => format!("{k}={}", other.pretty().trim_end()),
        })
        .collect::<Vec<_>>()
        .join(" ")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::Sweep;

    const SPEC: &str = r#"{
  "name": "demo",
  "experiments": [
    {"bin": "solo"},
    {"bin": "grid", "seeds": [1, 2], "grid": {"hours": [1.0, 2.5], "fast": [true, false]}}
  ]
}"#;

    fn committed(name: &str) -> Vec<Cell> {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../../sweeps")
            .join(format!("{name}.json"));
        cells(&Sweep::load(&path).unwrap())
    }

    #[test]
    fn expands_the_cartesian_product_in_order() {
        let sweep = Sweep::parse(SPEC, "t.json").unwrap();
        let cells = cells(&sweep);
        assert_eq!(cells.len(), 1 + 2 * 2 * 2);
        assert_eq!(cells[0].bin, "solo");
        assert_eq!(cells[0].of, 1);
        assert_eq!(cells[0].config.pretty(), "{}\n");
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
    fn config_text_is_canonical() {
        let sweep = Sweep::parse(SPEC, "t.json").unwrap();
        let cells = cells(&sweep);
        assert_eq!(
            cells[1].config.pretty(),
            "{\n  \"seed\": 1,\n  \"hours\": 1.0,\n  \"fast\": true\n}\n"
        );
        // Identical assignments render identically (hash stability).
        let again = super::cells(&sweep);
        assert_eq!(cells[1].config.pretty(), again[1].config.pretty());
    }

    /// The first and last cells of two committed specs, pinned to the
    /// text the cache keys of existing results were computed from.
    #[test]
    fn committed_config_text_is_pinned() {
        let usage = committed("usage_scale");
        assert_eq!(usage.len(), 12);
        assert_eq!(
            usage[0].config.pretty(),
            "{\n  \"seed\": 1985,\n  \"workstations\": 8,\n  \"hours\": 1.0\n}\n"
        );
        assert_eq!(
            usage[11].config.pretty(),
            "{\n  \"seed\": 2025,\n  \"workstations\": 24,\n  \"hours\": 3.0\n}\n"
        );
        assert_eq!(usage[11].label, "seed=2025 workstations=24 hours=3.0");
        let recovery = committed("recovery");
        assert_eq!(recovery.len(), 5);
        assert_eq!(
            recovery[0].config.pretty(),
            "{\n  \"seed\": 6533,\n  \"plan\": \"none\"\n}\n"
        );
        assert_eq!(
            recovery[4].config.pretty(),
            "{\n  \"seed\": 6533,\n  \"plan\": \"lease_chaos\"\n}\n"
        );
        assert_eq!(recovery[4].label, "seed=6533 plan=lease_chaos");
    }

    #[test]
    fn string_axes_round_trip() {
        let spec =
            r#"{"name": "s", "experiments": [{"bin": "b", "grid": {"mode": ["a\"b\\c\td"]}}]}"#;
        let cell = &cells(&Sweep::parse(spec, "s.json").unwrap())[0];
        assert_eq!(
            cell.config,
            Json::obj([("mode", Json::Str("a\"b\\c\td".into()))])
        );
        assert_eq!(Json::parse(&cell.config.pretty()).unwrap(), cell.config);
    }
}
