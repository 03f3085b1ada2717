//! Doc regeneration: rewrites the marked table blocks of EXPERIMENTS.md
//! from the consolidated `results/*.json` artifacts.
//!
//! A managed block looks like:
//!
//! ```markdown
//! <!-- vrun:table exp_freeze_time prec=0 cols=program,iterations,freeze_ms -->
//! | program | iterations | freeze_ms |
//! |---|---|---|
//! | make | 1 | 43 |
//! <!-- vrun:end -->
//! ```
//!
//! Everything between the two markers is replaced by the named
//! artifact's `table` section as rendered by [`vsim::table::render`]; all
//! other text is left byte-for-byte untouched. Marker options: `prec=N`
//! — decimal places for floats (trailing zeros trimmed; default 3);
//! `cols=a,b,c` — column subset and order (default: every key, artifact
//! order; a column the table lacks is an error). The
//! `table` section is deterministic (wall-clock data lives in the
//! separate `run` section), so regeneration is byte-stable: CI can
//! assert `vrun docs --check` cleanly. A line that starts like a marker
//! but does not parse, and an end marker with no opening marker, are
//! errors naming their line: a block the generator skipped would
//! silently drop out of the `--check` gate.

use std::path::Path;
use vsim::Json;

/// One rewritten (or drifted) block, for reporting.
#[derive(Debug)]
pub struct BlockReport {
    /// Experiment name from the marker.
    pub experiment: String,
    /// 1-based line of the opening marker.
    pub line: usize,
    /// Whether regeneration changed the block's content.
    pub changed: bool,
}

/// Regenerates every managed block of `text`, reading artifacts from
/// `results_dir`. Returns the new document and a per-block report.
pub fn regenerate(text: &str, results_dir: &Path) -> Result<(String, Vec<BlockReport>), String> {
    let mut out = String::with_capacity(text.len());
    let mut reports = Vec::new();
    let mut lines = text.lines().enumerate().peekable();
    let had_trailing_newline = text.ends_with('\n');

    while let Some((i, line)) = lines.next() {
        let Some(marker) = parse_marker(line).map_err(|e| format!("line {}: {e}", i + 1))? else {
            if line.trim().starts_with(MARKER_PREFIX) {
                return Err(format!(
                    "line {}: `{}` outside a `vrun:table` block",
                    i + 1,
                    line.trim()
                ));
            }
            out.push_str(line);
            out.push('\n');
            continue;
        };
        // Collect the old block content up to the end marker.
        let mut old = String::new();
        let mut closed = false;
        for (j, inner) in lines.by_ref() {
            if inner.trim() == END {
                closed = true;
                break;
            }
            if inner.trim().starts_with(MARKER_PREFIX) {
                return Err(format!(
                    "line {}: `{}` inside the `vrun:table {}` block opened on line {}",
                    j + 1,
                    inner.trim(),
                    marker.experiment,
                    i + 1
                ));
            }
            old.push_str(inner);
            old.push('\n');
        }
        if !closed {
            return Err(format!(
                "line {}: `vrun:table {}` has no `{END}`",
                i + 1,
                marker.experiment
            ));
        }
        let artifact_path = results_dir.join(format!("{}.json", marker.experiment));
        let artifact = std::fs::read_to_string(&artifact_path).map_err(|e| {
            format!(
                "line {}: cannot read {} (run the sweep first): {e}",
                i + 1,
                artifact_path.display()
            )
        })?;
        let json = Json::parse(&artifact)
            .map_err(|e| format!("line {}: {}: {e}", i + 1, artifact_path.display()))?;
        let table = json.get("table").ok_or(format!(
            "line {}: {} has no `table` section",
            i + 1,
            artifact_path.display()
        ))?;
        let new = vsim::table::render(table, marker.cols.as_deref(), marker.prec)
            .map_err(|e| format!("line {}: {}: {e}", i + 1, artifact_path.display()))?;
        reports.push(BlockReport {
            experiment: marker.experiment.clone(),
            line: i + 1,
            changed: new != old,
        });
        out.push_str(line);
        out.push('\n');
        out.push_str(&new);
        out.push_str(END);
        out.push('\n');
    }

    if !had_trailing_newline {
        out.pop();
    }
    Ok((out, reports))
}

/// Every marker line starts with this; any other line that does is an
/// error, so a typo cannot take a block out of the `--check` gate.
const MARKER_PREFIX: &str = "<!-- vrun:";
const TABLE_PREFIX: &str = "<!-- vrun:table";
const END: &str = "<!-- vrun:end -->";

/// Options parsed from one `<!-- vrun:table ... -->` marker.
#[derive(Debug)]
struct Marker {
    experiment: String,
    prec: usize,
    cols: Option<Vec<String>>,
}

/// Parses a marker line: `Ok(None)` if the line is not a table marker,
/// an error if it starts like one but does not parse.
fn parse_marker(line: &str) -> Result<Option<Marker>, String> {
    let line = line.trim();
    let Some(body) = line.strip_prefix(TABLE_PREFIX) else {
        return Ok(None);
    };
    let bad = |why: &str| Err(format!("malformed marker `{line}`: {why}"));
    let Some(body) = body.strip_suffix("-->") else {
        return bad("it does not end with `-->`");
    };
    if !body.starts_with(char::is_whitespace) {
        return bad("expected `<!-- vrun:table <experiment> [prec=N] [cols=a,b] -->`");
    }
    let body = body.trim();
    let (experiment, mut rest) = match body.split_once(char::is_whitespace) {
        Some((e, r)) => (e.to_string(), r.trim()),
        None => (body.to_string(), ""),
    };
    if experiment.is_empty() || experiment.contains('=') {
        return bad("the experiment name comes first");
    }
    let mut marker = Marker {
        experiment,
        prec: 3,
        cols: None,
    };
    if let Some(r) = rest.strip_prefix("prec=") {
        let (num, tail) = match r.split_once(char::is_whitespace) {
            Some((n, t)) => (n, t.trim()),
            None => (r, ""),
        };
        let Ok(prec) = num.parse() else {
            return bad(&format!("`prec={num}` is not a number of decimal places"));
        };
        marker.prec = prec;
        rest = tail;
    }
    if let Some(r) = rest.strip_prefix("cols=") {
        // `cols=` consumes the rest of the marker, so column names may
        // contain spaces; entries are comma-separated.
        let cols: Vec<String> = r.split(',').map(|c| c.trim().to_string()).collect();
        if let Some(c) = cols.iter().find(|c| c.is_empty() || c.contains('=')) {
            return bad(&format!(
                "bad column `{c}` (options go in the order prec=, cols=)"
            ));
        }
        marker.cols = Some(cols);
    } else if !rest.is_empty() {
        return bad(&format!(
            "unknown option `{rest}` (options go in the order prec=, cols=)"
        ));
    }
    Ok(Some(marker))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn temp_results(tag: &str, artifacts: &[(&str, &str)]) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("vrun-docgen-test-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        for (name, text) in artifacts {
            std::fs::write(dir.join(format!("{name}.json")), text).unwrap();
        }
        dir
    }

    const ROWS: &str = r#"{"experiment": "e", "table": [
        {"name": "a", "ms": 1.25, "ok": true},
        {"name": "b", "ms": 10.0, "ok": false}
    ]}"#;

    #[test]
    fn rewrites_a_row_table_block() {
        let dir = temp_results("rows", &[("e", ROWS)]);
        let doc = "before\n<!-- vrun:table e -->\nstale\n<!-- vrun:end -->\nafter\n";
        let (out, reports) = regenerate(doc, &dir).unwrap();
        assert_eq!(
            out,
            "before\n<!-- vrun:table e -->\n\
             | name | ms | ok |\n|---|---|---|\n\
             | a | 1.25 | yes |\n| b | 10 | no |\n\
             <!-- vrun:end -->\nafter\n"
        );
        assert_eq!(reports.len(), 1);
        assert!(reports[0].changed);
        // Regenerating the regenerated doc is a fixed point.
        let (again, reports) = regenerate(&out, &dir).unwrap();
        assert_eq!(again, out);
        assert!(!reports[0].changed);
    }

    #[test]
    fn cols_and_prec_options_apply() {
        let dir = temp_results("opts", &[("e", ROWS)]);
        let doc = "<!-- vrun:table e prec=0 cols=ms,name -->\n<!-- vrun:end -->\n";
        let (out, _) = regenerate(doc, &dir).unwrap();
        assert_eq!(
            out,
            "<!-- vrun:table e prec=0 cols=ms,name -->\n\
             | ms | name |\n|---|---|\n| 1 | a |\n| 10 | b |\n\
             <!-- vrun:end -->\n"
        );
    }

    #[test]
    fn object_tables_render_as_quantity_value() {
        let obj = r#"{"experiment": "o", "table": {"x_ms": 23.4567, "points": [[1, 2.0]]}}"#;
        let dir = temp_results("obj", &[("o", obj)]);
        let doc = "<!-- vrun:table o cols=x_ms -->\n<!-- vrun:end -->\n";
        let (out, _) = regenerate(doc, &dir).unwrap();
        assert_eq!(
            out,
            "<!-- vrun:table o cols=x_ms -->\n\
             | quantity | value |\n|---|---|\n| x_ms | 23.457 |\n\
             <!-- vrun:end -->\n"
        );
    }

    #[test]
    fn errors_name_the_problem() {
        let dir = temp_results("err", &[("e", ROWS)]);
        let unclosed = "<!-- vrun:table e -->\nno end\n";
        assert!(regenerate(unclosed, &dir)
            .unwrap_err()
            .contains("no `<!-- vrun:end -->`"));
        let missing = "<!-- vrun:table ghost -->\n<!-- vrun:end -->\n";
        let err = regenerate(missing, &dir).unwrap_err();
        assert!(err.contains("ghost.json"), "{err}");
        assert!(err.contains("run the sweep first"), "{err}");
        let typo = "intro\n<!-- vrun:table e cols=ms,nope -->\n<!-- vrun:end -->\n";
        let err = regenerate(typo, &dir).unwrap_err();
        assert!(err.starts_with("line 2:"), "{err}");
        assert!(err.contains("`nope`"), "{err}");
    }

    #[test]
    fn malformed_markers_are_errors_naming_their_line() {
        let dir = temp_results("malformed", &[("e", ROWS)]);
        for (marker, needle) in [
            ("<!-- vrun:table e prec=1x -->", "`prec=1x`"),
            ("<!-- vrun:table e width=3 -->", "unknown option `width=3`"),
            (
                "<!-- vrun:table e cols=ms prec=1 -->",
                "bad column `ms prec=1`",
            ),
            ("<!-- vrun:table e cols=ms,,name -->", "bad column ``"),
            ("<!-- vrun:table e", "does not end with `-->`"),
            (
                "<!-- vrun:tablee -->",
                "expected `<!-- vrun:table <experiment>",
            ),
            (
                "<!-- vrun:table prec=1 -->",
                "the experiment name comes first",
            ),
        ] {
            let doc = format!("intro\n{marker}\n| TAMPERED |\n<!-- vrun:end -->\n");
            let err = regenerate(&doc, &dir).expect_err(marker);
            assert!(
                err.starts_with("line 2: malformed marker"),
                "{marker}: {err}"
            );
            assert!(err.contains(needle), "{marker}: {err}");
        }
        let stray_end = "<!-- vrun:table e -->\n<!-- vrun:end -->\n\n<!-- vrun:end -->\n";
        let err = regenerate(stray_end, &dir).unwrap_err();
        assert!(err.starts_with("line 4:"), "{err}");
        assert!(err.contains("outside a `vrun:table` block"), "{err}");
        let bad_end = "<!-- vrun:table e -->\n<!-- vrun:end-->\n<!-- vrun:end -->\n";
        let err = regenerate(bad_end, &dir).unwrap_err();
        assert!(err.starts_with("line 2:"), "{err}");
        assert!(err.contains("opened on line 1"), "{err}");
    }

    #[test]
    fn untouched_text_is_preserved_bytewise() {
        let dir = temp_results("noop", &[]);
        let doc = "# Title\n\nplain | pipes | here\nno markers at all\n";
        let (out, reports) = regenerate(doc, &dir).unwrap();
        assert_eq!(out, doc);
        assert!(reports.is_empty());
    }
}
