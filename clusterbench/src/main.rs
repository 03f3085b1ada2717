//! `clusterbench --workload <name> [--seed <n>] [--seconds <s>] [--trace <0|1>]`
//! runs one workload and prints, as its last line, one JSON object with
//! `correct`, `attempted`, `failed` and `metrics` (the end-to-end metrics
//! untraced, the per-layer metrics with `--trace 1`).
//!
//! `clusterbench --list` prints each metric's name, unit and direction.

use std::process::ExitCode;

use clusterbench::report::{self, Metric};
use clusterbench::{Measurement, Workload, DEFAULT_SEED};

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn usage() -> String {
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    format!(
        "usage: clusterbench --workload <{}> [--seed N] [--seconds S] [--trace 0|1]\n       clusterbench --list",
        names.join("|")
    )
}

fn parse(mut argv: impl Iterator<Item = String>) -> Result<Option<Args>, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 10.0;
    let mut trace = false;
    while let Some(flag) = argv.next() {
        if flag == "--list" {
            return Ok(None);
        }
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or_else(|| bad("unknown workload"))?);
            }
            "--seed" => seed = value.parse().map_err(|_| bad("expected an integer"))?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| bad("expected a positive number"))?;
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Some(Args {
        workload,
        seed,
        seconds,
        trace,
    }))
}

fn list() {
    for (mode, specs) in [
        ("end_to_end (--trace 0)", &report::END_TO_END[..]),
        ("per_layer (--trace 1)", &report::PER_LAYER[..]),
    ] {
        println!("# {mode}");
        for Metric { name, unit, better } in specs {
            println!("{name}\t{unit}\t{better}");
        }
    }
}

fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(Some(a)) => a,
        Ok(None) => {
            list();
            return ExitCode::SUCCESS;
        }
        Err(e) => {
            eprintln!("clusterbench: {e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    let w = args.workload;
    let span = w.span();
    let m = Measurement::take(w, args.seed, span, args.seconds, args.trace);
    let mut problems = m.check(w, args.seed, span);
    let o = &m.untraced[0].outcome;

    let (specs, values) = if args.trace {
        let rep = report::median_traced(&m);
        let path = format!(
            "{}/out/{}-seed{}.trace.json",
            env!("CARGO_MANIFEST_DIR"),
            w.name(),
            args.seed
        );
        let written = std::path::Path::new(&path)
            .parent()
            .map_or(Ok(()), std::fs::create_dir_all)
            .and_then(|()| std::fs::write(&path, report::chrome_trace(w.name(), rep)));
        match written {
            Ok(()) => println!("chrome trace: {path}"),
            Err(e) => problems.push(format!("writing {path}: {e}")),
        }
        (&report::PER_LAYER[..], report::per_layer(&m))
    } else {
        let rss = clusterbench::peak_rss_kb().unwrap_or_else(|| {
            problems.push("VmHWM is not readable".to_string());
            0
        });
        (&report::END_TO_END[..], report::end_to_end(&m, rss))
    };
    for spec in specs {
        match values.iter().find(|(n, _)| *n == spec.name) {
            Some((_, v)) if v.is_finite() => println!("{:<32} {v:>16.6} {}", spec.name, spec.unit),
            _ => problems.push(format!("metric {} has no finite value", spec.name)),
        }
    }
    println!(
        "workload {} seed {}: {} untraced + {} traced repetitions of {:.0} simulated s; \
         ops attempted {} failed {}; digest {:016x}",
        w.name(),
        args.seed,
        m.untraced.len(),
        m.traced.len(),
        m.untraced[0].sim_s,
        o.attempted,
        o.failed,
        o.digest
    );
    for p in &problems {
        println!("CHECK FAILED: {p}");
    }
    let correct = problems.is_empty();
    println!(
        "{}",
        report::result_line(correct, o.attempted, o.failed, specs, &values)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
