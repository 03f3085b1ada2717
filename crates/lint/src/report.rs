//! Diagnostics: violation records, text rendering, and the JSON artifact.
//!
//! Text output is `file:line: [rule-id] message` with a fix hint, so a
//! terminal (or CI log) jump-to-file works. `--json` additionally writes
//! `results/vlint.json` — serialized by a tiny hand-rolled emitter here,
//! since `vlint` depends on nothing, not even `vsim`.

use std::fmt::Write as _;

/// One rule violation at a source location.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Stable rule identifier, e.g. `layering-dep`.
    pub rule: &'static str,
    /// Workspace-relative file path.
    pub file: String,
    /// 1-based line number (0 for file-level findings).
    pub line: usize,
    /// What is wrong.
    pub message: String,
    /// How to fix it.
    pub hint: &'static str,
}

/// The outcome of a full lint pass.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// All violations, sorted by file then line.
    pub violations: Vec<Violation>,
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
    /// Number of crates audited.
    pub crates_audited: usize,
}

impl Report {
    /// True when the workspace is clean.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }

    /// Violation counts per rule id, sorted by rule id.
    pub fn rule_counts(&self) -> Vec<(&'static str, usize)> {
        let mut counts: Vec<(&'static str, usize)> = Vec::new();
        for v in &self.violations {
            match counts.iter_mut().find(|(r, _)| *r == v.rule) {
                Some((_, n)) => *n += 1,
                None => counts.push((v.rule, 1)),
            }
        }
        counts.sort_by_key(|&(r, _)| r);
        counts
    }

    /// Renders the human-readable diagnostic listing.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        for v in &self.violations {
            if v.line > 0 {
                let _ = writeln!(out, "{}:{}: [{}] {}", v.file, v.line, v.rule, v.message);
            } else {
                let _ = writeln!(out, "{}: [{}] {}", v.file, v.rule, v.message);
            }
            let _ = writeln!(out, "    hint: {}", v.hint);
        }
        let _ = writeln!(
            out,
            "vlint: {} violation{} ({} crates, {} files scanned)",
            self.violations.len(),
            if self.violations.len() == 1 { "" } else { "s" },
            self.crates_audited,
            self.files_scanned,
        );
        out
    }

    /// Serializes the report as a pretty-printed JSON artifact.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        let _ = writeln!(out, "  \"tool\": \"vlint\",");
        let _ = writeln!(out, "  \"schema\": 2,");
        let _ = writeln!(out, "  \"clean\": {},", self.is_clean());
        let _ = writeln!(out, "  \"crates_audited\": {},", self.crates_audited);
        let _ = writeln!(out, "  \"files_scanned\": {},", self.files_scanned);
        out.push_str("  \"rule_counts\": {");
        let counts = self.rule_counts();
        for (i, (rule, n)) in counts.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n    ");
            let _ = write!(out, "{}: {n}", json_str(rule));
        }
        if !counts.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("},\n");
        out.push_str("  \"violations\": [");
        for (i, v) in self.violations.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n    {");
            let _ = write!(out, "\"rule\": {}, ", json_str(v.rule));
            let _ = write!(out, "\"file\": {}, ", json_str(&v.file));
            let _ = write!(out, "\"line\": {}, ", v.line);
            let _ = write!(out, "\"message\": {}, ", json_str(&v.message));
            let _ = write!(out, "\"hint\": {}", json_str(v.hint));
            out.push('}');
        }
        if !self.violations.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("]\n}\n");
        out
    }
}

/// Escapes a string as a JSON string literal.
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Report {
        Report {
            violations: vec![Violation {
                rule: "layering-dep",
                file: "crates/net/Cargo.toml".to_string(),
                line: 10,
                message: "crate `vnet` must not depend on `vkernel`".to_string(),
                hint: "keep the DAG intentional",
            }],
            files_scanned: 3,
            crates_audited: 2,
        }
    }

    #[test]
    fn text_has_file_line_rule_and_hint() {
        let text = sample().render_text();
        assert!(text.contains("crates/net/Cargo.toml:10: [layering-dep]"));
        assert!(text.contains("hint: keep the DAG intentional"));
        assert!(text.contains("vlint: 1 violation"));
    }

    #[test]
    fn json_roundtrips_basic_fields() {
        let json = sample().to_json();
        assert!(json.contains("\"schema\": 2"));
        assert!(json.contains("\"clean\": false"));
        assert!(json.contains("\"rule\": \"layering-dep\""));
        assert!(json.contains("\"layering-dep\": 1"));
        assert!(json.contains("\"line\": 10"));
    }

    #[test]
    fn json_escapes_quotes() {
        assert_eq!(json_str("a\"b\\c"), "\"a\\\"b\\\\c\"");
    }
}
