//! Schema-drift audit over the telemetry naming surface.
//!
//! Every metric and time-series name in this workspace is a string
//! literal at its export site — `.with_counter(Subsystem::Net,
//! "frames_sent", s.frames_sent)` in a component's snapshot function,
//! `series.manual(Subsystem::Cluster, "ready_programs", "programs")` —
//! and again in the documentation
//! table in EXPERIMENTS.md, in sweep specs, and in artifact consumers.
//! Nothing ties those copies together, so renames rot silently. This
//! pass extracts the emitted inventory from the token stream and
//! cross-checks every other copy against it.
//!
//! Rules:
//!
//! * `schema-undocumented` — a name is emitted but absent from the
//!   `<!-- vlint:schema -->` table in the configured docs;
//! * `schema-stale-doc` — a documented row is no longer emitted (or a
//!   unit drifted, or the doc block itself is missing);
//! * `schema-snake-case` — an emitted name is not `snake_case`;
//! * `schema-kind-conflict` — one `(subsystem, name)` is registered as
//!   two different metric kinds (series are a separate namespace: a
//!   gauge may also be recorded as a series under the same name);
//! * `schema-series-ref` — a `"subsystem/name"` literal in non-test
//!   code names a series that is never registered;
//! * `schema-plan-unknown` — a sweep spec references a fault-plan name
//!   that `FaultPlan::names()` does not export;
//! * `schema-fault-matrix` — the configured fault-matrix test no longer
//!   iterates `fault_points()`.

use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;

use crate::ast::ParsedFile;
use crate::config::Config;
use crate::lexer::TokKind;
use crate::report::{Report, Violation};

/// Metric namespace a name was registered in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Kind {
    /// Monotonic counter.
    Counter,
    /// Instantaneous gauge.
    Gauge,
    /// Value distribution.
    Histogram,
    /// Time series.
    Series,
}

impl Kind {
    fn label(self) -> &'static str {
        match self {
            Kind::Counter => "counter",
            Kind::Gauge => "gauge",
            Kind::Histogram => "histogram",
            Kind::Series => "series",
        }
    }

    fn from_label(s: &str) -> Option<Kind> {
        match s {
            "counter" => Some(Kind::Counter),
            "gauge" => Some(Kind::Gauge),
            "histogram" => Some(Kind::Histogram),
            "series" => Some(Kind::Series),
            _ => None,
        }
    }
}

/// One registration site found in the source.
#[derive(Debug, Clone)]
pub struct Emission {
    /// Lower-case subsystem label (`Subsystem::Net` → `net`).
    pub subsystem: String,
    /// Metric namespace.
    pub kind: Kind,
    /// The registered name literal.
    pub name: String,
    /// Unit literal when the call carries one (histogram / series).
    pub unit: Option<String>,
    /// Workspace-relative file.
    pub file: String,
    /// 1-based line of the name literal.
    pub line: usize,
}

/// One row of the documented schema table.
#[derive(Debug, Clone)]
pub struct DocRow {
    /// `(subsystem, kind, name)` key.
    pub key: (String, Kind, String),
    /// Documented unit column (may be `-`).
    pub unit: String,
    /// Line of the row in the doc file.
    pub line: usize,
}

/// Runs the schema audit. `lib_files` selects which scanned files count
/// as emitting library code; doc / sweep / test cross-checks read from
/// `root`.
pub fn check(
    files: &BTreeMap<String, ParsedFile>,
    lib_files: &BTreeSet<String>,
    root: &Path,
    cfg: &Config,
    report: &mut Report,
) {
    let inert = cfg.schema.docs.is_empty()
        && cfg.schema.sweeps.is_none()
        && cfg.schema.plan_names.is_none()
        && cfg.schema.fault_matrix.is_none();
    if inert {
        return;
    }

    let emissions = collect_emissions(files, lib_files);
    check_names(&emissions, report);

    for doc in &cfg.schema.docs {
        match std::fs::read_to_string(root.join(doc)) {
            Ok(text) => match parse_doc_table(&text, doc) {
                Ok(rows) => check_docs(&emissions, &rows, doc, report),
                Err(v) => report.violations.push(v),
            },
            Err(e) => report.violations.push(Violation {
                rule: "schema-stale-doc",
                file: doc.clone(),
                line: 0,
                message: format!("cannot read schema doc: {e}"),
                hint: "fix the [schema] docs path in lint.toml",
            }),
        }
    }

    check_series_refs(files, &emissions, report);

    if let Some((pfile, pfn)) = &cfg.schema.plan_names {
        let plans = plan_name_set(files, pfile, pfn, report);
        if let (Some(plans), Some(dir)) = (plans, cfg.schema.sweeps.as_deref()) {
            check_sweeps(root, dir, &plans, report);
        }
    }

    if let Some(fm) = &cfg.schema.fault_matrix {
        check_fault_matrix(root, fm, report);
    }
}

/// Method names that export a metric (`ScopeMetrics::with_*`) or
/// register a series.
const EMIT_FNS: &[(&str, Kind)] = &[
    ("with_counter", Kind::Counter),
    ("with_gauge", Kind::Gauge),
    ("with_histogram", Kind::Histogram),
    ("manual", Kind::Series),
];

/// Extracts every literal export site from non-test library code.
pub fn collect_emissions(
    files: &BTreeMap<String, ParsedFile>,
    lib_files: &BTreeSet<String>,
) -> Vec<Emission> {
    let mut out = Vec::new();
    for (rel, pf) in files {
        if !lib_files.contains(rel) {
            continue;
        }
        let toks = &pf.toks;
        for i in 0..toks.len() {
            if pf.in_test(i) || toks[i].kind != TokKind::Ident {
                continue;
            }
            // `.with_counter(Subsystem::X, "name", value)`,
            // `.with_histogram(Subsystem::X, "name", "unit", samples)`, …
            if let Some(&(_, kind)) = EMIT_FNS.iter().find(|(n, _)| toks[i].is_ident(n)) {
                if i > 0
                    && toks[i - 1].is_punct(".")
                    && i + 7 < toks.len()
                    && toks[i + 1].is_punct("(")
                    && toks[i + 2].is_ident("Subsystem")
                    && toks[i + 3].is_punct("::")
                    && toks[i + 4].kind == TokKind::Ident
                    && toks[i + 5].is_punct(",")
                    && toks[i + 6].kind == TokKind::Str
                {
                    let unit = (i + 8 < toks.len()
                        && toks[i + 7].is_punct(",")
                        && toks[i + 8].kind == TokKind::Str)
                        .then(|| toks[i + 8].text.clone());
                    out.push(Emission {
                        subsystem: toks[i + 4].text.to_lowercase(),
                        kind,
                        name: toks[i + 6].text.clone(),
                        unit,
                        file: rel.clone(),
                        line: toks[i + 6].line,
                    });
                }
            }
        }
    }
    out
}

/// Snake-case and kind-uniqueness checks over the emitted inventory.
fn check_names(emissions: &[Emission], report: &mut Report) {
    for em in emissions {
        let ok = em
            .name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_lowercase())
            && em
                .name
                .chars()
                .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_');
        if !ok {
            report.violations.push(Violation {
                rule: "schema-snake-case",
                file: em.file.clone(),
                line: em.line,
                message: format!(
                    "{} `{}/{}` is not snake_case",
                    em.kind.label(),
                    em.subsystem,
                    em.name
                ),
                hint: "telemetry names are stable artifact keys; use lower_snake_case",
            });
        }
    }
    // Counter / gauge / histogram share one namespace per subsystem;
    // series are registered separately and may shadow a gauge name.
    let mut kinds: BTreeMap<(String, String), BTreeSet<Kind>> = BTreeMap::new();
    for em in emissions.iter().filter(|e| e.kind != Kind::Series) {
        kinds
            .entry((em.subsystem.clone(), em.name.clone()))
            .or_default()
            .insert(em.kind);
    }
    for em in emissions.iter().filter(|e| e.kind != Kind::Series) {
        let set = &kinds[&(em.subsystem.clone(), em.name.clone())];
        if set.len() > 1 && set.iter().next() != Some(&em.kind) {
            report.violations.push(Violation {
                rule: "schema-kind-conflict",
                file: em.file.clone(),
                line: em.line,
                message: format!(
                    "`{}/{}` is registered as {}",
                    em.subsystem,
                    em.name,
                    set.iter()
                        .map(|k| k.label())
                        .collect::<Vec<_>>()
                        .join(" and ")
                ),
                hint: "one (subsystem, name) pair must map to exactly one metric kind",
            });
        }
    }
}

/// Parses the `<!-- vlint:schema -->` … `<!-- vlint:end -->` table.
///
/// # Errors
///
/// Returns a single `schema-stale-doc` violation when the markers or the
/// table are missing or malformed.
pub fn parse_doc_table(text: &str, origin: &str) -> Result<Vec<DocRow>, Violation> {
    let stale = |line: usize, message: String| Violation {
        rule: "schema-stale-doc",
        file: origin.to_string(),
        line,
        message,
        hint: "regenerate the block: a markdown table of | subsystem | kind | name | unit | \
               between <!-- vlint:schema --> and <!-- vlint:end -->",
    };
    let mut rows = Vec::new();
    let mut inside = false;
    let mut seen_block = false;
    for (idx, raw) in text.lines().enumerate() {
        let line = idx + 1;
        let t = raw.trim();
        if t.starts_with("<!-- vlint:schema") {
            inside = true;
            seen_block = true;
            continue;
        }
        if t.starts_with("<!-- vlint:end") {
            inside = false;
            continue;
        }
        if !inside || !t.starts_with('|') {
            continue;
        }
        let cells: Vec<&str> = t.trim_matches('|').split('|').map(str::trim).collect();
        if cells.len() != 4 {
            return Err(stale(
                line,
                format!("expected 4 columns, got {}", cells.len()),
            ));
        }
        if cells[0] == "subsystem" || cells[0].chars().all(|c| c == '-' || c == ':') {
            continue;
        }
        let Some(kind) = Kind::from_label(cells[1]) else {
            return Err(stale(line, format!("unknown kind `{}`", cells[1])));
        };
        rows.push(DocRow {
            key: (cells[0].to_string(), kind, cells[2].to_string()),
            unit: cells[3].to_string(),
            line,
        });
    }
    if !seen_block {
        return Err(stale(0, "no <!-- vlint:schema --> block found".to_string()));
    }
    Ok(rows)
}

/// Two-way diff between emitted inventory and documented rows.
fn check_docs(emissions: &[Emission], rows: &[DocRow], origin: &str, report: &mut Report) {
    let documented: BTreeMap<&(String, Kind, String), &DocRow> =
        rows.iter().map(|r| (&r.key, r)).collect();
    let mut reported: BTreeSet<(String, Kind, String)> = BTreeSet::new();
    for em in emissions {
        let key = (em.subsystem.clone(), em.kind, em.name.clone());
        match documented.get(&key) {
            None => {
                if reported.insert(key) {
                    report.violations.push(Violation {
                        rule: "schema-undocumented",
                        file: em.file.clone(),
                        line: em.line,
                        message: format!(
                            "{} `{}/{}` is not documented in {origin}",
                            em.kind.label(),
                            em.subsystem,
                            em.name
                        ),
                        hint: "add a row to the vlint:schema table (or remove the emission)",
                    });
                }
            }
            Some(row) => {
                if let Some(unit) = &em.unit {
                    if *unit != row.unit {
                        report.violations.push(Violation {
                            rule: "schema-stale-doc",
                            file: origin.to_string(),
                            line: row.line,
                            message: format!(
                                "`{}/{}` unit documented as `{}` but emitted as `{unit}` at {}:{}",
                                em.subsystem, em.name, row.unit, em.file, em.line
                            ),
                            hint: "update the unit column to match the registration site",
                        });
                    }
                }
            }
        }
    }
    let emitted: BTreeSet<(String, Kind, String)> = emissions
        .iter()
        .map(|e| (e.subsystem.clone(), e.kind, e.name.clone()))
        .collect();
    for row in rows {
        if !emitted.contains(&row.key) {
            report.violations.push(Violation {
                rule: "schema-stale-doc",
                file: origin.to_string(),
                line: row.line,
                message: format!(
                    "documented {} `{}/{}` is never emitted",
                    row.key.1.label(),
                    row.key.0,
                    row.key.2
                ),
                hint: "delete the row, or restore the registration it described",
            });
        }
    }
}

/// `"subsystem/name"` literals in non-test code must name a registered
/// series. Only strings whose prefix is a known subsystem label are
/// considered, so path-like strings never match.
fn check_series_refs(
    files: &BTreeMap<String, ParsedFile>,
    emissions: &[Emission],
    report: &mut Report,
) {
    let labels: BTreeSet<&str> = emissions.iter().map(|e| e.subsystem.as_str()).collect();
    if labels.is_empty() {
        return;
    }
    let series: BTreeSet<(String, String)> = emissions
        .iter()
        .filter(|e| e.kind == Kind::Series)
        .map(|e| (e.subsystem.clone(), e.name.clone()))
        .collect();
    for (rel, pf) in files {
        for (i, tok) in pf.toks.iter().enumerate() {
            if tok.kind != TokKind::Str || pf.in_test(i) {
                continue;
            }
            let Some((sub, name)) = tok.text.split_once('/') else {
                continue;
            };
            if !labels.contains(sub) || name.is_empty() || name.contains('/') {
                continue;
            }
            let snake = name
                .chars()
                .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_');
            if !snake {
                continue;
            }
            if !series.contains(&(sub.to_string(), name.to_string())) {
                report.violations.push(Violation {
                    rule: "schema-series-ref",
                    file: rel.clone(),
                    line: tok.line,
                    message: format!("`{}` does not name a registered series", tok.text),
                    hint: "series references must match a live manual() registration",
                });
            }
        }
    }
}

/// The string literals inside the configured `names()` fn body.
fn plan_name_set(
    files: &BTreeMap<String, ParsedFile>,
    pfile: &str,
    pfn: &str,
    report: &mut Report,
) -> Option<BTreeSet<String>> {
    let gone = |message: String| Violation {
        rule: "schema-plan-unknown",
        file: pfile.to_string(),
        line: 0,
        message,
        hint: "fix the [schema] plan_names site in lint.toml",
    };
    let Some(pf) = files.get(pfile) else {
        report
            .violations
            .push(gone(format!("plan_names file `{pfile}` was not scanned")));
        return None;
    };
    let Some(f) = pf.fns.iter().find(|f| f.name == pfn && !f.in_test) else {
        report.violations.push(gone(format!(
            "plan_names fn `{pfn}` not found in `{pfile}`"
        )));
        return None;
    };
    Some(
        (f.body.0..f.body.1)
            .filter(|&i| pf.toks[i].kind == TokKind::Str)
            .map(|i| pf.toks[i].text.clone())
            .collect(),
    )
}

/// Every `plan = …` value in `sweeps/*.toml` must be a known plan name.
fn check_sweeps(root: &Path, dir: &str, plans: &BTreeSet<String>, report: &mut Report) {
    let Ok(entries) = std::fs::read_dir(root.join(dir)) else {
        report.violations.push(Violation {
            rule: "schema-plan-unknown",
            file: dir.to_string(),
            line: 0,
            message: format!("sweeps directory `{dir}` is missing"),
            hint: "fix the [schema] sweeps path in lint.toml",
        });
        return;
    };
    let mut paths: Vec<_> = entries
        .flatten()
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "toml"))
        .collect();
    paths.sort();
    for path in paths {
        let rel = format!(
            "{dir}/{}",
            path.file_name()
                .map(|n| n.to_string_lossy())
                .unwrap_or_default()
        );
        let doc = match crate::toml::TomlDoc::load(&path) {
            Ok(d) => d,
            Err(e) => {
                report.violations.push(Violation {
                    rule: "schema-plan-unknown",
                    file: rel,
                    line: 0,
                    message: format!("cannot parse sweep spec: {e}"),
                    hint: "sweep specs are part of the audited schema surface",
                });
                continue;
            }
        };
        for table in &doc.tables {
            for (key, value, line) in &table.entries {
                if key != "plan" {
                    continue;
                }
                let mut named = Vec::new();
                match value {
                    crate::toml::TomlValue::Str(s) => named.push(s.clone()),
                    crate::toml::TomlValue::List(items) => {
                        named.extend(items.iter().filter_map(|v| v.as_str().map(str::to_string)));
                    }
                    _ => {}
                }
                for plan in named {
                    if !plans.contains(&plan) {
                        report.violations.push(Violation {
                            rule: "schema-plan-unknown",
                            file: rel.clone(),
                            line: *line,
                            message: format!("fault plan `{plan}` is not in FaultPlan::names()"),
                            hint: "sweep plan axes must use exported plan names",
                        });
                    }
                }
            }
        }
    }
}

/// The fault-matrix test must still iterate the `fault_points()` registry.
fn check_fault_matrix(root: &Path, rel: &str, report: &mut Report) {
    let missing = |message: String| Violation {
        rule: "schema-fault-matrix",
        file: rel.to_string(),
        line: 0,
        message,
        hint: "the matrix test is the proof that every registered fault point fires; keep it \
               iterating fault_points()",
    };
    match std::fs::read_to_string(root.join(rel)) {
        Ok(text) => {
            if !crate::lexer::lex(&text)
                .iter()
                .any(|t| t.is_ident("fault_points"))
            {
                report.violations.push(missing(
                    "file no longer references fault_points()".to_string(),
                ));
            }
        }
        Err(e) => report
            .violations
            .push(missing(format!("cannot read file: {e}"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast;

    fn emissions_of(src: &str) -> Vec<Emission> {
        let mut files = BTreeMap::new();
        files.insert("a.rs".to_string(), ast::parse(src));
        let libs: BTreeSet<String> = ["a.rs".to_string()].into();
        collect_emissions(&files, &libs)
    }

    #[test]
    fn collects_call_pattern_emissions() {
        let ems = emissions_of(
            "fn f(m: ScopeMetrics, st: &mut Store) {\n    let m = m.with_counter(Subsystem::Net, \"frames_sent\", 3);\n    let m = m.with_histogram(Subsystem::Migration, \"freeze_ms\", \"ms\", &s);\n    let s = st.manual(Subsystem::Cluster, \"ready\", \"programs\");\n}\n",
        );
        assert_eq!(ems.len(), 3);
        assert_eq!(ems[0].subsystem, "net");
        assert_eq!(ems[0].kind, Kind::Counter);
        assert_eq!(ems[0].name, "frames_sent");
        assert_eq!(ems[0].unit, None);
        assert_eq!(ems[0].line, 2);
        assert_eq!(ems[1].unit.as_deref(), Some("ms"));
        assert_eq!(ems[2].kind, Kind::Series);
        assert_eq!(ems[2].unit.as_deref(), Some("programs"));
    }

    #[test]
    fn collects_multiline_method_chain() {
        let ems = emissions_of(
            "fn f(s: &Stats) -> ScopeMetrics {\n    ScopeMetrics::new(\"ws1\")\n        .with_gauge(Subsystem::Cluster, \"cpu_utilization\", s.util)\n        .with_histogram(\n            Subsystem::Engine,\n            \"queue_depth\",\n            \"events\",\n            &s.depth,\n        )\n}\n",
        );
        assert_eq!(ems.len(), 2);
        assert_eq!(ems[0].kind, Kind::Gauge);
        assert_eq!(ems[0].subsystem, "cluster");
        assert_eq!(ems[0].unit, None);
        assert_eq!(ems[1].kind, Kind::Histogram);
        assert_eq!(ems[1].name, "queue_depth");
        assert_eq!(ems[1].unit.as_deref(), Some("events"));
        assert_eq!(ems[1].line, 6);
    }

    #[test]
    fn dynamic_and_test_emissions_are_skipped() {
        let ems = emissions_of(
            "fn f(m: ScopeMetrics, sub: Subsystem, n: &str) { m.with_counter(sub, n, 1); }\n#[cfg(test)]\nmod t {\n    fn g(m: super::ScopeMetrics) { m.with_counter(Subsystem::Net, \"only_in_tests\", 1); }\n}\n",
        );
        assert!(ems.is_empty(), "{ems:?}");
    }

    #[test]
    fn snake_case_and_kind_conflicts_are_flagged() {
        let ems = emissions_of(
            "fn f(m: ScopeMetrics) {\n    m.with_counter(Subsystem::Net, \"framesSent\", 1)\n        .with_counter(Subsystem::Net, \"x\", 1)\n        .with_gauge(Subsystem::Net, \"x\", 1.0);\n}\n",
        );
        let mut report = Report::default();
        check_names(&ems, &mut report);
        let rules: Vec<&str> = report.violations.iter().map(|v| v.rule).collect();
        assert!(rules.contains(&"schema-snake-case"), "{rules:?}");
        assert!(rules.contains(&"schema-kind-conflict"), "{rules:?}");
    }

    #[test]
    fn gauge_plus_series_is_not_a_conflict() {
        let ems = emissions_of(
            "fn f(m: ScopeMetrics, s: &mut Store) {\n    m.with_gauge(Subsystem::Engine, \"queue_depth\", 0.0);\n    s.manual(Subsystem::Engine, \"queue_depth\", \"events\");\n}\n",
        );
        let mut report = Report::default();
        check_names(&ems, &mut report);
        assert!(report.violations.is_empty(), "{:?}", report.violations);
    }

    const DOC: &str = "# Names\n\n<!-- vlint:schema -->\n| subsystem | kind | name | unit |\n| --- | --- | --- | --- |\n| net | counter | frames_sent | frames |\n| migration | histogram | freeze_ms | ms |\n<!-- vlint:end -->\n";

    #[test]
    fn doc_table_round_trips() {
        let rows = parse_doc_table(DOC, "EXPERIMENTS.md").expect("parses");
        assert_eq!(rows.len(), 2);
        assert_eq!(
            rows[0].key,
            ("net".to_string(), Kind::Counter, "frames_sent".to_string())
        );
        assert_eq!(rows[0].unit, "frames");
        assert_eq!(rows[0].line, 6);
        assert!(parse_doc_table("no markers here\n", "X.md").is_err());
        assert!(parse_doc_table(
            "<!-- vlint:schema -->\n| a | b | c |\n<!-- vlint:end -->\n",
            "X.md"
        )
        .is_err());
    }

    #[test]
    fn doc_diff_finds_both_directions_and_unit_drift() {
        let ems = emissions_of(
            "fn f(m: ScopeMetrics) {\n    m.with_counter(Subsystem::Net, \"frames_sent\", 1)\n        .with_histogram(Subsystem::Migration, \"freeze_ms\", \"us\", &s)\n        .with_counter(Subsystem::Net, \"frames_dropped\", 0);\n}\n",
        );
        let rows = parse_doc_table(DOC, "EXPERIMENTS.md").expect("parses");
        let mut report = Report::default();
        check_docs(&ems, &rows, "EXPERIMENTS.md", &mut report);
        let rules: Vec<&str> = report.violations.iter().map(|v| v.rule).collect();
        // frames_dropped undocumented; freeze_ms unit drift (doc says ms).
        assert_eq!(
            rules
                .iter()
                .filter(|r| **r == "schema-undocumented")
                .count(),
            1
        );
        assert_eq!(
            rules.iter().filter(|r| **r == "schema-stale-doc").count(),
            1
        );
        let stale = report
            .violations
            .iter()
            .find(|v| v.rule == "schema-stale-doc")
            .unwrap();
        assert!(stale.message.contains("unit"), "{}", stale.message);
    }

    #[test]
    fn stale_doc_row_is_flagged_at_its_line() {
        let ems = emissions_of(
            "fn f(m: ScopeMetrics) { m.with_counter(Subsystem::Net, \"frames_sent\", 1); }\n",
        );
        let rows = parse_doc_table(DOC, "EXPERIMENTS.md").expect("parses");
        let mut report = Report::default();
        check_docs(&ems, &rows, "EXPERIMENTS.md", &mut report);
        assert_eq!(report.violations.len(), 1);
        assert_eq!(report.violations[0].rule, "schema-stale-doc");
        assert_eq!(report.violations[0].line, 7);
    }

    #[test]
    fn series_refs_must_name_registered_series() {
        let src = "fn f(m: &mut Store) {\n    m.manual(Subsystem::Cluster, \"ready\", \"programs\");\n    query(\"cluster/ready\");\n    query(\"cluster/gone\");\n    open(\"target/release\");\n}\n";
        let mut files = BTreeMap::new();
        files.insert("a.rs".to_string(), ast::parse(src));
        let libs: BTreeSet<String> = ["a.rs".to_string()].into();
        let ems = collect_emissions(&files, &libs);
        let mut report = Report::default();
        check_series_refs(&files, &ems, &mut report);
        assert_eq!(report.violations.len(), 1, "{:?}", report.violations);
        assert_eq!(report.violations[0].rule, "schema-series-ref");
        assert!(report.violations[0].message.contains("cluster/gone"));
        assert_eq!(report.violations[0].line, 4);
    }

    #[test]
    fn plan_names_come_from_the_fn_body() {
        let src = "pub fn names() -> &'static [&'static str] {\n    &[\"none\", \"random\"]\n}\n";
        let mut files = BTreeMap::new();
        files.insert("faults.rs".to_string(), ast::parse(src));
        let mut report = Report::default();
        let plans = plan_name_set(&files, "faults.rs", "names", &mut report).unwrap();
        assert_eq!(plans, ["none".to_string(), "random".to_string()].into());
        assert!(report.violations.is_empty());
        assert!(plan_name_set(&files, "faults.rs", "gone", &mut report).is_none());
        assert_eq!(report.violations[0].rule, "schema-plan-unknown");
    }
}
