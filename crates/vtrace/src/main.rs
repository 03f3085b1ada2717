//! `vtrace` CLI — query telemetry artifacts and export Perfetto traces.
//!
//! ```text
//! vtrace top       <artifact.json> [--by kind|subsystem] [--limit N]
//! vtrace aggregate <artifact.json> [--series NAME] [--window US] [--from US] [--to US]
//! vtrace filter    <file.json> [--subsystem S] [--host PID] [--span NAME]
//!                              [--from US] [--to US] [--out FILE]
//! vtrace export    <artifact.json> [--spans TRACE.json] [--from US] [--to US] [--out FILE]
//! ```
//!
//! `top` and `aggregate` print tables; `filter` and `export` print JSON
//! (or write `--out`). All times are simulated microseconds. Exit
//! codes: 0 success; 1 the document lacks the queried section; 2 usage.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use vsim::Json;
use vtrace::query::{self, FilterSpec};
use vtrace::{export, load, Table, Window};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let strs: Vec<&str> = args.iter().map(String::as_str).collect();
    let run = match strs.split_first() {
        Some((&"top", rest)) => cmd_top(rest),
        Some((&"aggregate", rest)) => cmd_aggregate(rest),
        Some((&"filter", rest)) => cmd_filter(rest),
        Some((&"export", rest)) => cmd_export(rest),
        _ => Err(UsageE(Usage(usage_text()))),
    };
    match run {
        Ok(()) => ExitCode::SUCCESS,
        Err(UsageE(Usage(e))) => {
            eprintln!("vtrace: {e}");
            ExitCode::from(2)
        }
        Err(DataE(Data(e))) => {
            eprintln!("vtrace: {e}");
            ExitCode::from(1)
        }
    }
}

fn usage_text() -> String {
    "usage: vtrace top       <artifact.json> [--by kind|subsystem] [--limit N]\n\
     \x20      vtrace aggregate <artifact.json> [--series NAME] [--window US] [--from US] [--to US]\n\
     \x20      vtrace filter    <file.json> [--subsystem S] [--host PID] [--span NAME] [--from US] [--to US] [--out FILE]\n\
     \x20      vtrace export    <artifact.json> [--spans TRACE.json] [--from US] [--to US] [--out FILE]"
        .to_string()
}

/// A usage / flag error (exit 2).
struct Usage(String);
/// A data error: file unreadable or section missing (exit 1).
struct Data(String);

enum CmdError {
    Usage(Usage),
    Data(Data),
}
use CmdError::{Data as DataE, Usage as UsageE};

impl From<Usage> for CmdError {
    fn from(u: Usage) -> Self {
        UsageE(u)
    }
}
impl From<Data> for CmdError {
    fn from(d: Data) -> Self {
        DataE(d)
    }
}

/// Parsed common flags + positionals.
#[derive(Default)]
struct Flags {
    by: Option<String>,
    limit: Option<usize>,
    series: Option<String>,
    window: Option<u64>,
    from: Option<u64>,
    to: Option<u64>,
    subsystem: Option<String>,
    host: Option<u64>,
    span: Option<String>,
    spans_path: Option<PathBuf>,
    out: Option<PathBuf>,
    positional: Vec<String>,
}

impl Flags {
    fn time_window(&self) -> Window {
        Window {
            from_us: self.from,
            to_us: self.to,
        }
    }

    fn one_path(&self) -> Result<PathBuf, Usage> {
        match self.positional.as_slice() {
            [p] => Ok(PathBuf::from(p)),
            _ => Err(Usage("expected exactly one input path".to_string())),
        }
    }
}

fn parse_flags(rest: &[&str]) -> Result<Flags, Usage> {
    let mut f = Flags::default();
    let mut it = rest.iter();
    while let Some(&a) = it.next() {
        let mut value = |name: &str| -> Result<String, Usage> {
            it.next()
                .map(|s| (*s).to_string())
                .ok_or_else(|| Usage(format!("{name} needs a value")))
        };
        let num = |name: &str, v: String| -> Result<u64, Usage> {
            v.parse()
                .map_err(|_| Usage(format!("{name} needs a number")))
        };
        match a {
            "--by" => f.by = Some(value("--by")?),
            "--limit" => {
                let v = value("--limit")?;
                f.limit = Some(
                    v.parse()
                        .map_err(|_| Usage("--limit needs a number".to_string()))?,
                );
            }
            "--series" => f.series = Some(value("--series")?),
            "--window" => f.window = Some(num("--window", value("--window")?)?),
            "--from" => f.from = Some(num("--from", value("--from")?)?),
            "--to" => f.to = Some(num("--to", value("--to")?)?),
            "--subsystem" => f.subsystem = Some(value("--subsystem")?),
            "--host" => f.host = Some(num("--host", value("--host")?)?),
            "--span" => f.span = Some(value("--span")?),
            "--spans" => f.spans_path = Some(PathBuf::from(value("--spans")?)),
            "--out" => f.out = Some(PathBuf::from(value("--out")?)),
            _ if a.starts_with("--") => return Err(Usage(format!("unknown flag {a}"))),
            _ => f.positional.push(a.to_string()),
        }
    }
    if f.window == Some(0) {
        return Err(Usage("--window must be positive".to_string()));
    }
    if let (Some(from), Some(to)) = (f.from, f.to) {
        if to <= from {
            return Err(Usage(format!("--to ({to}) must be after --from ({from})")));
        }
    }
    Ok(f)
}

fn read(path: &Path) -> Result<Json, Data> {
    load(path).map_err(Data)
}

fn cmd_top(rest: &[&str]) -> Result<(), CmdError> {
    let f = parse_flags(rest)?;
    let by_subsystem = match f.by.as_deref() {
        None | Some("kind") => false,
        Some("subsystem") => true,
        Some(other) => {
            return Err(UsageE(Usage(format!(
                "--by takes `kind` or `subsystem`, not `{other}`"
            ))))
        }
    };
    let doc = read(&f.one_path()?)?;
    let rows = query::top(&doc, by_subsystem, f.limit.unwrap_or(10)).map_err(Data)?;
    let head = if by_subsystem { "subsystem" } else { "kind" };
    let mut t = Table::new(&[head, "subsystem", "dispatches", "wall ms", "share %"]);
    for r in &rows {
        t.row(vec![
            r.name.clone(),
            r.subsystem.clone(),
            r.dispatches.to_string(),
            format!("{:.3}", r.wall_ns as f64 / 1e6),
            format!("{:.1}", r.share_pct),
        ]);
    }
    print!("{}", t.render());
    Ok(())
}

fn cmd_aggregate(rest: &[&str]) -> Result<(), CmdError> {
    let f = parse_flags(rest)?;
    let doc = read(&f.one_path()?)?;
    let rows =
        query::aggregate(&doc, f.series.as_deref(), f.window, f.time_window()).map_err(Data)?;
    let mut t = Table::new(&[
        "series", "start_us", "points", "rate /s", "p50", "p95", "p99",
    ]);
    for r in &rows {
        t.row(vec![
            r.series.clone(),
            r.start_us.to_string(),
            r.count.to_string(),
            format!("{:.1}", r.rate_per_sec),
            format!("{:.1}", r.p50),
            format!("{:.1}", r.p95),
            format!("{:.1}", r.p99),
        ]);
    }
    print!("{}", t.render());
    Ok(())
}

fn cmd_filter(rest: &[&str]) -> Result<(), CmdError> {
    let f = parse_flags(rest)?;
    let doc = read(&f.one_path()?)?;
    let spec = FilterSpec {
        subsystem: f.subsystem.clone(),
        host: f.host,
        span: f.span.clone(),
        window: f.time_window(),
    };
    write_json(&query::filter(&doc, &spec), f.out.as_deref())
}

fn cmd_export(rest: &[&str]) -> Result<(), CmdError> {
    let f = parse_flags(rest)?;
    let doc = read(&f.one_path()?)?;
    let spans = match &f.spans_path {
        Some(p) => Some(read(p)?),
        None => None,
    };
    let trace = export::counter_trace(&doc, spans.as_ref(), f.time_window()).map_err(Data)?;
    write_json(&trace, f.out.as_deref())
}

fn write_json(doc: &Json, out: Option<&Path>) -> Result<(), CmdError> {
    let text = doc.pretty();
    match out {
        None => {
            print!("{text}");
            Ok(())
        }
        Some(path) => {
            std::fs::write(path, text)
                .map_err(|e| DataE(Data(format!("{}: {e}", path.display()))))?;
            eprintln!("vtrace: wrote {}", path.display());
            Ok(())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn usage_error(args: &[&str]) -> String {
        match parse_flags(args) {
            Err(Usage(e)) => e,
            Ok(_) => panic!("{args:?} parsed"),
        }
    }

    #[test]
    fn zero_window_is_a_usage_error() {
        assert!(usage_error(&["a.json", "--window", "0"]).contains("--window"));
        assert_eq!(
            parse_flags(&["--window", "1"]).ok().and_then(|f| f.window),
            Some(1)
        );
    }

    #[test]
    fn window_must_end_after_it_starts() {
        for (from, to) in [("3000", "1000"), ("1000", "1000")] {
            let e = usage_error(&["a.json", "--from", from, "--to", to]);
            assert!(e.contains("--to"), "{e}");
        }
        let f = parse_flags(&["--from", "1000", "--to", "1001"]).ok();
        assert_eq!(f.map(|f| (f.from, f.to)), Some((Some(1000), Some(1001))));
        // One open bound is always a valid window.
        assert!(parse_flags(&["--to", "0"]).is_ok());
    }
}
