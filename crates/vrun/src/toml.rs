//! A dependency-free TOML-subset reader: the parser behind the sweep
//! specs (`sweeps/*.toml`). It accepts the subset those need:
//!
//! ```toml
//! [section]            # plain table
//! [section.sub]        # nested table (dotted header)
//! [[experiment]]       # array of tables
//! bare_key = 3
//! "quoted/key.rs" = 2
//! flag = true
//! rate = 0.25
//! matrix = [1, 2, 3]   # arrays of int / float / bool / string scalars
//! names = [
//!     "a",             # arrays may span lines, trailing comma ok
//!     "b",
//! ]
//! ```
//!
//! Comments (`#`), blank lines, integer / float / bool / string scalars
//! and homogeneous-or-mixed scalar arrays. Anything else is a hard error
//! carrying `origin:line:` — sweep specs gate CI, so silent misparsing is
//! worse than failing loudly. Nested arrays, inline tables, dotted
//! *keys*, datetimes and multi-line strings are outside the subset by
//! design.

use std::path::Path;

/// One parsed value.
#[derive(Debug, Clone, PartialEq)]
pub enum TomlValue {
    /// An integer literal.
    Int(i64),
    /// A float literal (has a `.` or exponent).
    Float(f64),
    /// `true` / `false`.
    Bool(bool),
    /// A quoted string.
    Str(String),
    /// An array of scalar values (possibly mixed types).
    List(Vec<TomlValue>),
}

impl TomlValue {
    /// The integer value (`None` on other variants).
    pub fn as_int(&self) -> Option<i64> {
        match self {
            TomlValue::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// The string value (`None` on other variants).
    pub fn as_str(&self) -> Option<&str> {
        match self {
            TomlValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The array elements (`None` on other variants).
    pub fn as_list(&self) -> Option<&[TomlValue]> {
        match self {
            TomlValue::List(l) => Some(l),
            _ => None,
        }
    }

    /// The variant name, for error messages.
    pub fn type_name(&self) -> &'static str {
        match self {
            TomlValue::Int(_) => "integer",
            TomlValue::Float(_) => "float",
            TomlValue::Bool(_) => "bool",
            TomlValue::Str(_) => "string",
            TomlValue::List(_) => "array",
        }
    }
}

/// One `[header]` (or `[[header]]`) section with its key/value entries in
/// document order.
#[derive(Debug, Clone)]
pub struct TomlTable {
    /// Dotted header path (`[experiment.grid]` → `["experiment", "grid"]`).
    pub path: Vec<String>,
    /// True for `[[array-of-tables]]` headers.
    pub array: bool,
    /// 1-based line number of the header, for diagnostics.
    pub line: usize,
    /// `key = value` entries, with the line each appeared on.
    pub entries: Vec<(String, TomlValue, usize)>,
}

impl TomlTable {
    /// The dotted header path as written (`a.b.c`).
    pub fn name(&self) -> String {
        self.path.join(".")
    }

    /// Looks up the last entry named `key`.
    pub fn get(&self, key: &str) -> Option<&TomlValue> {
        self.entries
            .iter()
            .rev()
            .find(|(k, _, _)| k == key)
            .map(|(_, v, _)| v)
    }
}

/// A parsed document: its tables in document order.
#[derive(Debug, Clone, Default)]
pub struct TomlDoc {
    /// Every `[section]` / `[[section]]` in order of appearance.
    pub tables: Vec<TomlTable>,
}

impl TomlDoc {
    /// Reads and parses `path`, using its file name as the error origin.
    ///
    /// # Errors
    ///
    /// Returns a message naming the offending `file:line` when the file
    /// is missing, unreadable, or outside the accepted subset.
    pub fn load(path: &Path) -> Result<TomlDoc, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        let origin = path
            .file_name()
            .map(|n| n.to_string_lossy().to_string())
            .unwrap_or_else(|| path.display().to_string());
        TomlDoc::parse(&text, &origin)
    }

    /// Parses a document from a string; `origin` names it in errors
    /// (`origin:line: message`).
    ///
    /// # Errors
    ///
    /// Returns a `origin:line:` message on malformed input.
    pub fn parse(text: &str, origin: &str) -> Result<TomlDoc, String> {
        let mut doc = TomlDoc::default();
        let mut lines = text.lines().enumerate().peekable();
        while let Some((idx, raw)) = lines.next() {
            let lineno = idx + 1;
            let line = strip_comment(raw).trim().to_string();
            if line.is_empty() {
                continue;
            }
            if line.starts_with('[') {
                doc.tables.push(parse_header(&line, origin, lineno)?);
                continue;
            }
            let Some(eq) = find_top_level_eq(&line) else {
                return Err(format!("{origin}:{lineno}: expected `key = value`"));
            };
            let key = parse_key(line[..eq].trim())
                .ok_or_else(|| format!("{origin}:{lineno}: bad key `{}`", line[..eq].trim()))?;
            let mut value = line[eq + 1..].trim().to_string();
            if value.is_empty() {
                return Err(format!("{origin}:{lineno}: missing value after `=`"));
            }
            // Multi-line arrays: keep consuming until brackets balance.
            while value.starts_with('[') && !brackets_balance(&value) {
                let Some((_, cont)) = lines.next() else {
                    return Err(format!("{origin}:{lineno}: unterminated array"));
                };
                value.push(' ');
                value.push_str(strip_comment(cont).trim());
            }
            let value = parse_value(&value)
                .ok_or_else(|| format!("{origin}:{lineno}: bad value `{value}`"))?;
            match doc.tables.last_mut() {
                Some(t) => t.entries.push((key, value, lineno)),
                None => {
                    return Err(format!("{origin}:{lineno}: key before any [section]"));
                }
            }
        }
        Ok(doc)
    }
}

/// Parses `[a.b]` / `[[a.b]]` headers into a path.
fn parse_header(line: &str, origin: &str, lineno: usize) -> Result<TomlTable, String> {
    let (inner, array) = if let Some(rest) = line.strip_prefix("[[") {
        let Some(inner) = rest.strip_suffix("]]") else {
            return Err(format!(
                "{origin}:{lineno}: unterminated [[section]] header"
            ));
        };
        (inner, true)
    } else if let Some(rest) = line.strip_prefix('[') {
        let Some(inner) = rest.strip_suffix(']') else {
            return Err(format!("{origin}:{lineno}: unterminated section header"));
        };
        (inner, false)
    } else {
        return Err(format!("{origin}:{lineno}: expected section header"));
    };
    // `split('.')` yields at least one segment, and `parse_key` rejects
    // the empty string, so `[]` and `[a..b]` both land in the error here.
    let mut path = Vec::new();
    for seg in inner.split('.') {
        let seg = parse_key(seg.trim())
            .ok_or_else(|| format!("{origin}:{lineno}: bad section name `{inner}`"))?;
        path.push(seg);
    }
    Ok(TomlTable {
        path,
        array,
        line: lineno,
        entries: Vec::new(),
    })
}

/// Removes a `#` comment, respecting quoted strings.
fn strip_comment(line: &str) -> &str {
    let mut in_str = false;
    for (i, c) in line.char_indices() {
        match c {
            '"' => in_str = !in_str,
            '#' if !in_str => return &line[..i],
            _ => {}
        }
    }
    line
}

/// Finds the `=` separating key from value, skipping quoted keys.
fn find_top_level_eq(line: &str) -> Option<usize> {
    let mut in_str = false;
    for (i, c) in line.char_indices() {
        match c {
            '"' => in_str = !in_str,
            '=' if !in_str => return Some(i),
            _ => {}
        }
    }
    None
}

/// Accepts `bare_key` or `"quoted key"`.
fn parse_key(raw: &str) -> Option<String> {
    if let Some(q) = raw.strip_prefix('"') {
        return q.strip_suffix('"').map(str::to_string);
    }
    let ok = !raw.is_empty()
        && raw
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '-');
    ok.then(|| raw.to_string())
}

fn brackets_balance(s: &str) -> bool {
    let mut depth = 0i64;
    let mut in_str = false;
    for c in s.chars() {
        match c {
            '"' => in_str = !in_str,
            '[' if !in_str => depth += 1,
            ']' if !in_str => depth -= 1,
            _ => {}
        }
    }
    depth == 0
}

/// Parses a scalar (string / bool / int / float).
fn parse_scalar(raw: &str) -> Option<TomlValue> {
    let raw = raw.trim();
    if let Some(q) = raw.strip_prefix('"') {
        return q.strip_suffix('"').map(|s| TomlValue::Str(s.to_string()));
    }
    match raw {
        "true" => return Some(TomlValue::Bool(true)),
        "false" => return Some(TomlValue::Bool(false)),
        _ => {}
    }
    if let Ok(i) = raw.parse::<i64>() {
        return Some(TomlValue::Int(i));
    }
    // Floats must look like numbers (not TOML datetimes or bare words):
    // digits with a fraction and/or exponent.
    if raw
        .chars()
        .all(|c| c.is_ascii_digit() || matches!(c, '.' | 'e' | 'E' | '+' | '-'))
    {
        if let Ok(x) = raw.parse::<f64>() {
            return Some(TomlValue::Float(x));
        }
    }
    None
}

fn parse_value(raw: &str) -> Option<TomlValue> {
    let raw = raw.trim();
    if let Some(inner) = raw.strip_prefix('[') {
        let inner = inner.strip_suffix(']')?;
        let mut items = Vec::new();
        for part in split_array_items(inner) {
            let part = part.trim();
            if part.is_empty() {
                continue;
            }
            // Scalars only inside arrays: nested arrays are outside the
            // subset and fail here (parse_scalar rejects `[`).
            items.push(parse_scalar(part)?);
        }
        return Some(TomlValue::List(items));
    }
    parse_scalar(raw)
}

/// Splits array contents on commas outside quotes.
fn split_array_items(s: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut cur = String::new();
    let mut in_str = false;
    for c in s.chars() {
        match c {
            '"' => {
                in_str = !in_str;
                cur.push(c);
            }
            ',' if !in_str => {
                out.push(std::mem::take(&mut cur));
            }
            _ => cur.push(c),
        }
    }
    if !cur.trim().is_empty() {
        out.push(cur);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars_of_every_type() {
        let doc = TomlDoc::parse(
            r#"
[cell]
count = 3
rate = 0.25
exp = 1e3
neg = -7
flag = true
off = false
name = "parser"
"#,
            "spec.toml",
        )
        .expect("parses");
        let t = &doc.tables[0];
        assert_eq!(t.get("count"), Some(&TomlValue::Int(3)));
        assert_eq!(t.get("rate"), Some(&TomlValue::Float(0.25)));
        assert_eq!(t.get("exp"), Some(&TomlValue::Float(1000.0)));
        assert_eq!(t.get("neg"), Some(&TomlValue::Int(-7)));
        assert_eq!(t.get("flag"), Some(&TomlValue::Bool(true)));
        assert_eq!(t.get("off"), Some(&TomlValue::Bool(false)));
        assert_eq!(t.get("name"), Some(&TomlValue::Str("parser".into())));
    }

    #[test]
    fn parses_arrays_of_tables_and_nested_headers() {
        let doc = TomlDoc::parse(
            r#"
[sweep]
name = "paper"

[[experiment]]
bin = "table_4_1"

[experiment.grid]
hosts = [10, 100]

[[experiment]]
bin = "abl_chaos"
"#,
            "spec.toml",
        )
        .expect("parses");
        let names: Vec<String> = doc.tables.iter().map(|t| t.name()).collect();
        assert_eq!(
            names,
            ["sweep", "experiment", "experiment.grid", "experiment"]
        );
        let arrays: Vec<bool> = doc.tables.iter().map(|t| t.array).collect();
        assert_eq!(arrays, [false, true, false, true]);
        let grid = &doc.tables[2];
        assert_eq!(grid.path, ["experiment", "grid"]);
        assert_eq!(
            grid.get("hosts"),
            Some(&TomlValue::List(vec![
                TomlValue::Int(10),
                TomlValue::Int(100)
            ]))
        );
    }

    #[test]
    fn parses_mixed_and_multiline_matrices() {
        let doc = TomlDoc::parse(
            "[m]\nvals = [1, 2.5, true, \"x\"] # mixed\nlong = [\n  \"a\", # one\n  \"b\",\n]\n",
            "spec.toml",
        )
        .expect("parses");
        let t = &doc.tables[0];
        assert_eq!(
            t.get("vals"),
            Some(&TomlValue::List(vec![
                TomlValue::Int(1),
                TomlValue::Float(2.5),
                TomlValue::Bool(true),
                TomlValue::Str("x".into()),
            ]))
        );
        assert_eq!(
            t.get("long"),
            Some(&TomlValue::List(vec![
                TomlValue::Str("a".into()),
                TomlValue::Str("b".into()),
            ]))
        );
    }

    #[test]
    fn value_accessors() {
        assert_eq!(TomlValue::Str("s".into()).as_str(), Some("s"));
        assert_eq!(TomlValue::Int(3).as_str(), None);
        assert_eq!(TomlValue::List(vec![]).type_name(), "array");
    }

    #[test]
    fn errors_carry_origin_and_line() {
        for (src, line, needle) in [
            ("[a\nx = 1\n", 1, "unterminated section"),
            ("[[a\n", 1, "unterminated [[section]] header"),
            ("x = 1\n", 1, "key before any [section]"),
            ("[s]\nnot a kv\n", 2, "expected `key = value`"),
            ("[s]\nx =\n", 2, "missing value"),
            ("[s]\nx = nope\n", 2, "bad value"),
            ("[s]\nx = [1,\n", 2, "unterminated array"),
            ("[s]\nx = [[1]]\n", 2, "bad value"),
            ("[s]\n%bad = 1\n", 2, "bad key"),
            ("[]\n", 1, "bad section name"),
            ("[a..b]\n", 1, "bad section name"),
        ] {
            let err = TomlDoc::parse(src, "spec.toml").expect_err(src);
            assert!(
                err.starts_with(&format!("spec.toml:{line}:")),
                "{src:?} → {err}"
            );
            assert!(err.contains(needle), "{src:?} → {err}");
        }
    }

    #[test]
    fn load_reports_missing_file() {
        let err = TomlDoc::load(Path::new("/nonexistent/spec.toml")).expect_err("missing");
        assert!(err.contains("cannot read"), "{err}");
    }
}
