//! Markdown tables: the one table writer.
//!
//! Every table the workspace prints goes through [`render`]: the bench
//! binaries print the `table` section of the artifact they write,
//! `vrun docs` fills the EXPERIMENTS.md blocks from the same sections,
//! and `bench_regress` and `vtrace` print their rows as well. The table
//! format is decided here alone.
//!
//! A table is a JSON array of objects (one row each, columns in the
//! first row's key order) or a single object (rendered as
//! `quantity | value` rows). Cells are formatted deterministically:
//! floats at a fixed number of decimals with trailing zeros trimmed,
//! booleans as yes/no, `null` as an empty cell, arrays and objects
//! inline.
//!
//! # Examples
//!
//! ```
//! use vsim::{table, Json};
//!
//! let rows = Json::parse(r#"[{"name": "a", "ms": 1.25}, {"name": "b", "ms": 10.0}]"#).unwrap();
//! assert_eq!(
//!     table::render(&rows, None, 3).unwrap(),
//!     "| name | ms |\n|---|---|\n| a | 1.25 |\n| b | 10 |\n"
//! );
//! ```

use crate::json::Json;

/// Renders `table` as a markdown table. `cols` picks and orders the
/// columns (default: every key of the first row, or of the object);
/// `prec` is the number of decimals floats are formatted at.
///
/// # Errors
///
/// Fails when `table` is an empty array, has a row that is not an
/// object, is neither an array nor an object, or lacks a column that
/// `cols` names (or, for an array, a column of its first row).
pub fn render(table: &Json, cols: Option<&[String]>, prec: usize) -> Result<String, String> {
    let keys = |pairs: &[(String, Json)]| -> Vec<String> {
        match cols {
            Some(cols) => cols.to_vec(),
            None => pairs.iter().map(|(k, _)| k.clone()).collect(),
        }
    };
    let cell = |row: &Json, c: &str| {
        row.get(c)
            .map(|v| fmt(v, prec))
            .ok_or(format!("no column `{c}` in `table`"))
    };
    match table {
        Json::Arr(rows) => {
            let first = rows
                .first()
                .ok_or("`table` is an empty array".to_string())?;
            let Json::Obj(pairs) = first else {
                return Err("`table` rows are not objects".to_string());
            };
            let cols = keys(pairs);
            let mut out = header(&cols);
            for row in rows {
                let cells = cols
                    .iter()
                    .map(|c| cell(row, c))
                    .collect::<Result<Vec<_>, _>>()?;
                out.push_str(&format!("| {} |\n", cells.join(" | ")));
            }
            Ok(out)
        }
        Json::Obj(pairs) => {
            let mut out = header(&["quantity".to_string(), "value".to_string()]);
            for c in keys(pairs) {
                out.push_str(&format!("| {c} | {} |\n", cell(table, &c)?));
            }
            Ok(out)
        }
        Json::Null | Json::Bool(_) | Json::Int(_) | Json::UInt(_) | Json::Num(_) | Json::Str(_) => {
            Err("`table` is neither an array nor an object".to_string())
        }
    }
}

fn header(cols: &[String]) -> String {
    let mut out = format!("| {} |\n", cols.join(" | "));
    out.push_str(&format!("|{}\n", "---|".repeat(cols.len())));
    out
}

/// One cell: floats at `prec` decimals with trailing zeros trimmed (and
/// a negative value that rounds to zero written `0`), booleans as
/// yes/no, arrays and objects inline.
fn fmt(v: &Json, prec: usize) -> String {
    match v {
        Json::Null => String::new(),
        Json::Bool(true) => "yes".to_string(),
        Json::Bool(false) => "no".to_string(),
        Json::Int(i) => i.to_string(),
        Json::UInt(u) => u.to_string(),
        Json::Num(x) => {
            let s = format!("{x:.prec$}");
            let s = if s.contains('.') {
                s.trim_end_matches('0').trim_end_matches('.')
            } else {
                &s
            };
            if s == "-0" { "0" } else { s }.to_string()
        }
        Json::Str(s) => s.clone(),
        Json::Arr(items) => {
            let inner: Vec<String> = items.iter().map(|i| fmt(i, prec)).collect();
            format!("[{}]", inner.join(", "))
        }
        Json::Obj(pairs) => {
            let inner: Vec<String> = pairs
                .iter()
                .map(|(k, v)| format!("{k}: {}", fmt(v, prec)))
                .collect();
            format!("{{{}}}", inner.join(", "))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn negative_values_that_round_to_zero_render_as_zero() {
        assert_eq!(fmt(&Json::Num(-0.0001), 3), "0");
        assert_eq!(fmt(&Json::Num(-0.4), 0), "0");
        assert_eq!(fmt(&Json::Num(-0.0), 2), "0");
        assert_eq!(fmt(&Json::Num(-0.0016), 3), "-0.002");
        assert_eq!(fmt(&Json::Num(-10.0), 1), "-10");
    }

    #[test]
    fn a_missing_column_is_an_error_naming_it() {
        let rows = Json::parse(r#"[{"ms": 1}, {"ms": 2, "extra": 3}]"#).unwrap();
        let cols = ["ms".to_string(), "nope".to_string()];
        let err = render(&rows, Some(&cols), 3).unwrap_err();
        assert!(err.contains("`nope`"), "{err}");
        let obj = Json::parse(r#"{"ms": 1}"#).unwrap();
        assert!(render(&obj, Some(&cols), 3).unwrap_err().contains("`nope`"));
        // A later row lacking a column of the first is an error too.
        let ragged = Json::parse(r#"[{"ms": 1, "x": 2}, {"ms": 2}]"#).unwrap();
        assert!(render(&ragged, None, 3).unwrap_err().contains("`x`"));
    }
}
