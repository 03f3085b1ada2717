//! `vrun` CLI — run cached experiment sweeps and regenerate docs.
//!
//! ```text
//! vrun run  <spec.json> [--force] [--pool N] [--bin-dir DIR] [--results DIR] [--quiet]
//! vrun plan <spec.json> [--bin-dir DIR] [--results DIR]
//! vrun docs [--check] [--doc PATH] [--results DIR]
//! ```
//!
//! Each subcommand accepts only the flags listed for it. Exit codes:
//! 0 success; 1 a cell failed / docs drifted (`--check`); 2 usage or
//! spec error (including a flag the subcommand does not take).

use std::path::PathBuf;
use std::process::ExitCode;

use vrun::spec::Sweep;
use vrun::{docgen, hash, plan, say, RunOptions};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let strs: Vec<&str> = args.iter().map(String::as_str).collect();
    match strs.split_first() {
        Some((&"run", rest)) => cmd_run(rest),
        Some((&"plan", rest)) => cmd_plan(rest),
        Some((&"docs", rest)) => cmd_docs(rest),
        _ => {
            eprintln!(
                "usage: vrun run <spec.json> [--force] [--pool N] [--bin-dir DIR] [--results DIR] [--quiet]\n\
                 \x20      vrun plan <spec.json> [--bin-dir DIR] [--results DIR]\n\
                 \x20      vrun docs [--check] [--doc PATH] [--results DIR]"
            );
            ExitCode::from(2)
        }
    }
}

/// One subcommand's command line: the flags it accepts and its
/// positional arguments.
#[derive(Debug, Default)]
struct Args {
    positional: Vec<String>,
    /// `--force`, `--pool`, `--bin-dir`, `--results` and `--quiet`.
    opts: RunOptions,
    check: bool,
    doc: Option<PathBuf>,
}

/// Parses `rest`, accepting only the flags in `accepted`: a flag the
/// subcommand would not read is a usage error, not silently ignored.
fn parse_args(rest: &[&str], accepted: &[&str]) -> Result<Args, String> {
    let mut args = Args::default();
    args.opts.verbose = true;
    let mut it = rest.iter();
    while let Some(&a) = it.next() {
        if !a.starts_with("--") {
            args.positional.push(a.to_string());
            continue;
        }
        if !accepted.contains(&a) {
            return Err(format!(
                "unknown flag {a} (accepted: {})",
                accepted.join(" ")
            ));
        }
        let mut value = || -> Result<String, String> {
            it.next()
                .map(|s| (*s).to_string())
                .ok_or(format!("{a} needs a value"))
        };
        match a {
            "--force" => args.opts.force = true,
            "--check" => args.check = true,
            "--quiet" => args.opts.verbose = false,
            "--pool" => {
                args.opts.pool = Some(
                    value()?
                        .parse()
                        .map_err(|_| "--pool needs a number".to_string())?,
                );
            }
            "--bin-dir" => args.opts.bin_dir = PathBuf::from(value()?),
            "--results" => args.opts.results_dir = PathBuf::from(value()?),
            "--doc" => args.doc = Some(PathBuf::from(value()?)),
            _ => return Err(format!("unknown flag {a}")),
        }
    }
    Ok(args)
}

fn usage_err(e: &str) -> ExitCode {
    eprintln!("vrun: {e}");
    ExitCode::from(2)
}

fn load_spec(positional: &[String]) -> Result<Sweep, String> {
    match positional {
        [path] => Sweep::load(std::path::Path::new(path)),
        _ => Err("expected exactly one spec path".to_string()),
    }
}

fn cmd_run(rest: &[&str]) -> ExitCode {
    let args = match parse_args(
        rest,
        &["--force", "--pool", "--bin-dir", "--results", "--quiet"],
    ) {
        Ok(a) => a,
        Err(e) => return usage_err(&e),
    };
    let sweep = match load_spec(&args.positional) {
        Ok(s) => s,
        Err(e) => return usage_err(&e),
    };
    match vrun::run_sweep(&sweep, &args.opts) {
        Ok(summary) => {
            say(&format!("sweep `{}`: {}", sweep.name, summary.line()));
            for (cell, outcome) in &summary.cells {
                if let vrun::CellOutcome::Failed(e) = outcome {
                    eprintln!("  {}[{}]: {e}", cell.bin, cell.label);
                }
            }
            if summary.failed() == 0 {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            }
        }
        Err(e) => usage_err(&e),
    }
}

fn cmd_plan(rest: &[&str]) -> ExitCode {
    let args = match parse_args(rest, &["--bin-dir", "--results"]) {
        Ok(a) => a,
        Err(e) => return usage_err(&e),
    };
    let sweep = match load_spec(&args.positional) {
        Ok(s) => s,
        Err(e) => return usage_err(&e),
    };
    let opts = &args.opts;
    let cache = vrun::cache::Cache::new(&opts.results_dir);
    say(&format!(
        "sweep `{}`: pool {}, timeout {}s per cell",
        sweep.name, sweep.pool, sweep.timeout_secs
    ));
    for cell in plan::cells(&sweep) {
        // Hash without the binary bytes when the binary is not built yet
        // (plan is a preview; run re-hashes with the real bytes).
        let bytes = std::fs::read(opts.bin_dir.join(&cell.bin)).unwrap_or_default();
        let key = hash::cell_key(&cell.bin, &bytes, &cell.config.pretty());
        let state = if bytes.is_empty() {
            "unbuilt"
        } else if cache.lookup(&cell.bin, key).is_some() {
            "cached"
        } else {
            "due"
        };
        say(&format!(
            "  {}[{}/{}] {} {:016x} {state}",
            cell.bin,
            cell.index + 1,
            cell.of,
            cell.label,
            key
        ));
    }
    ExitCode::SUCCESS
}

fn cmd_docs(rest: &[&str]) -> ExitCode {
    let args = match parse_args(rest, &["--check", "--doc", "--results"]) {
        Ok(a) => a,
        Err(e) => return usage_err(&e),
    };
    if !args.positional.is_empty() {
        return usage_err("docs takes no positional arguments");
    }
    let doc = args.doc.unwrap_or_else(|| PathBuf::from("EXPERIMENTS.md"));
    let text = match std::fs::read_to_string(&doc) {
        Ok(t) => t,
        Err(e) => return usage_err(&format!("cannot read {}: {e}", doc.display())),
    };
    let (new, reports) = match docgen::regenerate(&text, &args.opts.results_dir) {
        Ok(r) => r,
        Err(e) => return usage_err(&e),
    };
    let drifted: Vec<_> = reports.iter().filter(|r| r.changed).collect();
    if args.check {
        if drifted.is_empty() {
            say(&format!(
                "{}: {} table(s) up to date",
                doc.display(),
                reports.len()
            ));
            return ExitCode::SUCCESS;
        }
        for r in &drifted {
            eprintln!(
                "{}:{}: table `{}` is stale (run `vrun docs`)",
                doc.display(),
                r.line,
                r.experiment
            );
        }
        return ExitCode::from(1);
    }
    if let Err(e) = std::fs::write(&doc, &new) {
        return usage_err(&format!("cannot write {}: {e}", doc.display()));
    }
    say(&format!(
        "{}: {} table(s) regenerated, {} changed",
        doc.display(),
        reports.len(),
        drifted.len()
    ));
    ExitCode::SUCCESS
}
