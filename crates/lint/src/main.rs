//! `vlint` CLI: `cargo run -p vlint [-- --json] [--root PATH]`.
//!
//! Exits 0 when the workspace is clean, 1 on violations, 2 on usage or
//! configuration errors. `--json` additionally writes the
//! `results/vlint.json` artifact CI uploads next to the bench and chaos
//! results.

use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut root: Option<PathBuf> = None;
    let mut json = false;
    let mut json_path: Option<PathBuf> = None;
    let mut quiet = false;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--root" => match args.next() {
                Some(p) => root = Some(PathBuf::from(p)),
                None => return usage("--root needs a path"),
            },
            "--json" => json = true,
            "--json-path" => match args.next() {
                Some(p) => {
                    json = true;
                    json_path = Some(PathBuf::from(p));
                }
                None => return usage("--json-path needs a path"),
            },
            "--quiet" | "-q" => quiet = true,
            "--help" | "-h" => {
                println!(
                    "vlint — workspace layering, bench-artifact & schema auditor\n\n\
                     USAGE: vlint [--root PATH] [--json] [--json-path FILE] [--quiet]\n\n\
                     Exit codes: 0 clean, 1 violations, 2 config/usage error.\n\
                     Rules live in lint.toml at the workspace root."
                );
                return ExitCode::SUCCESS;
            }
            other => return usage(&format!("unknown argument `{other}`")),
        }
    }

    let root = match root.or_else(find_root) {
        Some(r) => r,
        None => {
            eprintln!("vlint: no lint.toml found walking up from the current directory");
            return ExitCode::from(2);
        }
    };

    let report = match vlint::run(&root) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("vlint: {e}");
            return ExitCode::from(2);
        }
    };

    if !quiet || !report.is_clean() {
        print!("{}", report.render_text());
    }
    if json {
        let path = json_path.unwrap_or_else(|| root.join("results").join("vlint.json"));
        if let Some(dir) = path.parent() {
            if let Err(e) = std::fs::create_dir_all(dir) {
                eprintln!("vlint: cannot create {}: {e}", dir.display());
                return ExitCode::from(2);
            }
        }
        if let Err(e) = std::fs::write(&path, report.to_json()) {
            eprintln!("vlint: cannot write {}: {e}", path.display());
            return ExitCode::from(2);
        }
        println!("wrote {}", path.display());
    }

    if report.is_clean() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// Walks up from the current directory to the nearest `lint.toml`.
fn find_root() -> Option<PathBuf> {
    let mut dir = std::env::current_dir().ok()?;
    loop {
        if dir.join("lint.toml").is_file() {
            return Some(dir);
        }
        if !dir.pop() {
            return None;
        }
    }
}

fn usage(msg: &str) -> ExitCode {
    eprintln!("vlint: {msg} (try --help)");
    ExitCode::from(2)
}
