//! The rule families the toolchain cannot express: the layering DAG over
//! the manifests, bench artifacts, and schema drift.
//!
//! Each source file is read and parsed **once** into a
//! [`crate::ast::ParsedFile`] (tokens + test scopes + fns); the
//! bench-emit rule and the schema audit share that parse. Scope is
//! configured by `lint.toml`:
//!
//! * `layering-dep` checks every crate's `[dependencies]` against the
//!   `[layering]` DAG. rustc refuses a path into a crate the manifest
//!   does not declare, so the manifests are the whole dependency story;
//! * `bench-emit` runs over the bench binaries in `crates/bench/src/bin/`;
//! * the schema audit collects registrations from `library_crates` and
//!   cross-checks series references in every scanned file.

use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};

use crate::ast::ParsedFile;
use crate::config::Config;
use crate::report::{Report, Violation};
use crate::schema;

/// A discovered workspace member.
#[derive(Debug, Clone)]
pub struct CrateInfo {
    /// Package name from `[package] name`.
    pub name: String,
    /// Workspace-relative directory ("" for the root package).
    pub rel_dir: String,
    /// Absolute path to the crate directory.
    pub dir: PathBuf,
    /// `[dependencies]` entries as `(name, Cargo.toml line)`.
    pub deps: Vec<(String, usize)>,
}

impl CrateInfo {
    fn manifest_rel(&self) -> String {
        if self.rel_dir.is_empty() {
            "Cargo.toml".to_string()
        } else {
            format!("{}/Cargo.toml", self.rel_dir)
        }
    }
}

/// Discovers the root package (if any) plus every `crates/*` member.
///
/// # Errors
///
/// Returns a message when the root manifest is missing or a member
/// manifest cannot be read.
pub fn discover_crates(root: &Path) -> Result<Vec<CrateInfo>, String> {
    let mut out = Vec::new();
    let root_manifest = root.join("Cargo.toml");
    let text = std::fs::read_to_string(&root_manifest)
        .map_err(|e| format!("cannot read {}: {e}", root_manifest.display()))?;
    if let Some(info) = parse_manifest(&text, "", root) {
        out.push(info);
    }
    let crates_dir = root.join("crates");
    if crates_dir.is_dir() {
        let mut entries: Vec<PathBuf> = std::fs::read_dir(&crates_dir)
            .map_err(|e| format!("cannot read {}: {e}", crates_dir.display()))?
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| p.join("Cargo.toml").is_file())
            .collect();
        entries.sort();
        for dir in entries {
            let manifest = dir.join("Cargo.toml");
            let text = std::fs::read_to_string(&manifest)
                .map_err(|e| format!("cannot read {}: {e}", manifest.display()))?;
            let base = dir.file_name().map(|s| s.to_string_lossy().to_string());
            let rel = format!("crates/{}", base.unwrap_or_default());
            if let Some(info) = parse_manifest(&text, &rel, &dir) {
                out.push(info);
            }
        }
    }
    Ok(out)
}

/// Extracts `[package] name` and `[dependencies]` keys from a manifest.
///
/// Returns `None` for virtual manifests (no `[package]` section). This is
/// a line-level parse: good enough for the workspace's own manifests,
/// which the fmt job keeps in conventional shape.
fn parse_manifest(text: &str, rel_dir: &str, dir: &Path) -> Option<CrateInfo> {
    let mut name = None;
    let mut deps = Vec::new();
    let mut section = String::new();
    for (idx, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        if let Some(rest) = line.strip_prefix('[') {
            section = rest.trim_end_matches(']').trim().to_string();
            // `[dependencies.foo]` table headers declare a dep too.
            if let Some(dep) = section.strip_prefix("dependencies.") {
                deps.push((dep.trim_matches('"').to_string(), idx + 1));
            }
            continue;
        }
        let Some(eq) = line.find('=') else { continue };
        let key = line[..eq].trim().trim_matches('"');
        match section.as_str() {
            "package" if key == "name" => {
                let v = line[eq + 1..].trim().trim_matches('"');
                name = Some(v.to_string());
            }
            "dependencies" => {
                // `vsim.workspace = true` and `vsim = { … }` both name the
                // dep before the first `.` or `=`.
                let dep = key.split('.').next().unwrap_or(key).trim();
                if !dep.is_empty() {
                    deps.push((dep.to_string(), idx + 1));
                }
            }
            _ => {}
        }
    }
    Some(CrateInfo {
        name: name?,
        rel_dir: rel_dir.to_string(),
        dir: dir.to_path_buf(),
        deps,
    })
}

/// Recursively collects `.rs` files under `dir`, sorted for determinism.
fn rust_files(dir: &Path) -> Vec<PathBuf> {
    let mut out = Vec::new();
    let mut stack = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        let Ok(entries) = std::fs::read_dir(&d) else {
            continue;
        };
        for e in entries.flatten() {
            let p = e.path();
            if p.is_dir() {
                stack.push(p);
            } else if p.extension().is_some_and(|x| x == "rs") {
                out.push(p);
            }
        }
    }
    out.sort();
    out
}

/// Runs every rule family over the discovered crates.
///
/// # Errors
///
/// Returns a message when a source file cannot be read, or when a crate
/// on disk has no `[layering]` entry (the DAG must stay exhaustive).
pub fn check_workspace(root: &Path, cfg: &Config, crates: &[CrateInfo]) -> Result<Report, String> {
    let mut report = Report::default();
    // The parse cache: every file is lexed and item-parsed exactly once.
    let mut files: BTreeMap<String, ParsedFile> = BTreeMap::new();
    let mut lib_files: BTreeSet<String> = BTreeSet::new();

    for krate in crates {
        report.crates_audited += 1;
        let Some(allowed) = cfg.layering.get(&krate.name) else {
            return Err(format!(
                "lint.toml: crate `{}` ({}) has no [layering] entry — add one to keep the DAG exhaustive",
                krate.name,
                krate.manifest_rel(),
            ));
        };

        // ---- layering-dep: Cargo.toml dependencies vs. the intended DAG.
        for (dep, line) in &krate.deps {
            if !allowed.iter().any(|a| a == dep) {
                report.violations.push(Violation {
                    rule: "layering-dep",
                    file: krate.manifest_rel(),
                    line: *line,
                    message: format!(
                        "crate `{}` must not depend on `{dep}` (allowed: [{}])",
                        krate.name,
                        allowed.join(", "),
                    ),
                    hint: "keep the dependency DAG intentional: move shared code down a layer \
                           or update [layering] in lint.toml if the architecture truly changed",
                });
            }
        }

        for file in rust_files(&krate.dir.join("src")) {
            report.files_scanned += 1;
            let rel = rel_path(root, &file);
            let src = std::fs::read_to_string(&file)
                .map_err(|e| format!("cannot read {}: {e}", file.display()))?;
            let pf = crate::ast::parse(&src);

            // ---- bench-emit: experiment binaries must leave an artifact.
            if krate.name == "vbench" && rel.starts_with("crates/bench/src/bin/") {
                check_bench_emit(&pf, &rel, cfg, &mut report);
            }
            if cfg.library_crates.contains(&krate.name) {
                lib_files.insert(rel.clone());
            }
            files.insert(rel, pf);
        }
    }

    // ---- schema audit: emitted names vs. docs, sweeps, and tests.
    schema::check(&files, &lib_files, root, cfg, &mut report);

    report
        .violations
        .sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    Ok(report)
}

fn rel_path(root: &Path, file: &Path) -> String {
    file.strip_prefix(root)
        .unwrap_or(file)
        .to_string_lossy()
        .replace('\\', "/")
}

/// The `bench-emit` rule: every experiment binary must route results
/// through `vbench::emit` / `emit_full`, so each run leaves the
/// machine-readable artifact the `vrun` cache and the doc generator
/// consume. Gates and meta-tools opt out via `[bench] emit_exempt`.
fn check_bench_emit(pf: &ParsedFile, rel: &str, cfg: &Config, report: &mut Report) {
    let stem = rel
        .rsplit('/')
        .next()
        .and_then(|f| f.strip_suffix(".rs"))
        .unwrap_or(rel);
    if cfg.bench_emit_exempt.iter().any(|e| e == stem) {
        return;
    }
    let calls_emit = pf.toks.windows(2).enumerate().any(|(i, w)| {
        !pf.in_test(i)
            && (w[0].is_ident("emit") || w[0].is_ident("emit_full"))
            && w[1].is_punct("(")
    });
    if !calls_emit {
        report.violations.push(Violation {
            rule: "bench-emit",
            file: rel.to_string(),
            line: 1,
            message: format!(
                "experiment binary `{stem}` never calls vbench::emit/emit_full — it leaves no \
                 machine-readable artifact",
            ),
            hint: "route the final results through vbench::emit so the vrun cache and doc \
                   generator can consume them; a gate or meta-tool belongs in [bench] \
                   emit_exempt in lint.toml",
        });
    }
}
