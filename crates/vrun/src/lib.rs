//! `vrun` — the declarative experiment runner.
//!
//! Reads a sweep spec (`sweeps/*.json`) describing experiments × seeds ×
//! parameter grids, expands the matrix into cells, content-hashes each
//! cell ({binary bytes, canonical config}), and executes only the cells
//! whose hash is not already in `results/cache/` — a re-run of an
//! unchanged sweep is 100% cache hits. Cells run across a bounded pool
//! of child processes ([`exec`]) speaking the uniform bench contract
//! (`--config <path> --out <path>`, see `vbench::args`). Per-experiment
//! results are consolidated into `results/<name>.json`, and the marked
//! tables of EXPERIMENTS.md regenerate from those artifacts ([`docgen`]).
//!
//! Module map — one stage per module:
//!
//! * [`spec`] — parse + validate sweep specs, read by [`vsim::Json`];
//! * [`plan`] — expand the matrix into [`plan::Cell`]s with canonical
//!   config JSON;
//! * [`hash`] — FNV-1a cell identity;
//! * [`cache`] — the `results/cache/` store, verified by the same
//!   [`vsim::Json`] reader the simulation uses;
//! * [`exec`] — the bounded process pool with timeouts and captured
//!   logs;
//! * [`docgen`] — EXPERIMENTS.md table regeneration.

pub mod cache;
pub mod docgen;
pub mod exec;
pub mod hash;
pub mod plan;
pub mod spec;

use std::path::{Path, PathBuf};

use cache::Cache;
use exec::{Job, JobResult};
use plan::Cell;
use spec::Sweep;
use vsim::Json;

/// Everything `vrun run` needs besides the spec itself.
#[derive(Debug)]
pub struct RunOptions {
    /// Directory holding the built bench binaries.
    pub bin_dir: PathBuf,
    /// Results directory (consolidated artifacts + `cache/`).
    pub results_dir: PathBuf,
    /// Re-run every cell even on a cache hit.
    pub force: bool,
    /// Override the spec's pool size.
    pub pool: Option<usize>,
    /// Print per-cell progress lines to stdout.
    pub verbose: bool,
}

impl Default for RunOptions {
    fn default() -> RunOptions {
        RunOptions {
            bin_dir: PathBuf::from("target/release"),
            results_dir: PathBuf::from("results"),
            force: false,
            pool: None,
            verbose: false,
        }
    }
}

/// Outcome of one cell, in plan order.
#[derive(Debug, Clone, PartialEq)]
pub enum CellOutcome {
    /// Served from `results/cache/` without running.
    CacheHit,
    /// Executed and produced a verified artifact.
    Ran {
        /// Wall-clock seconds of the child process.
        wall_secs: f64,
    },
    /// Executed but failed (spawn error, non-zero exit, bad artifact).
    Failed(String),
    /// Killed after its timeout.
    TimedOut,
}

/// Result of a whole sweep run.
#[derive(Debug)]
pub struct Summary {
    /// Per-cell `(cell, outcome)` in plan order.
    pub cells: Vec<(Cell, CellOutcome)>,
}

impl Summary {
    /// Number of cache hits.
    #[must_use]
    pub fn hits(&self) -> usize {
        self.count(|o| matches!(o, CellOutcome::CacheHit))
    }

    /// Number of cells actually executed.
    #[must_use]
    pub fn ran(&self) -> usize {
        self.count(|o| matches!(o, CellOutcome::Ran { .. }))
    }

    /// Number of failed or timed-out cells.
    #[must_use]
    pub fn failed(&self) -> usize {
        self.count(|o| matches!(o, CellOutcome::Failed(_) | CellOutcome::TimedOut))
    }

    fn count(&self, pred: impl Fn(&CellOutcome) -> bool) -> usize {
        self.cells.iter().filter(|(_, o)| pred(o)).count()
    }

    /// One-line render: `5 cells: 3 hits, 2 ran, 0 failed`.
    #[must_use]
    pub fn line(&self) -> String {
        format!(
            "{} cells: {} cache hits, {} ran, {} failed",
            self.cells.len(),
            self.hits(),
            self.ran(),
            self.failed()
        )
    }
}

/// Prints one progress line to stdout, ignoring write errors — when
/// output is piped into `head`/`grep -q` the pipe closes early, and a
/// runner mid-sweep must keep executing cells, not panic.
pub fn say(line: &str) {
    use std::io::Write;
    let mut out = std::io::stdout();
    let _ = writeln!(out, "{line}");
}

/// Runs a sweep end to end: plan, hash, cache-check, execute, verify,
/// consolidate. Fails early (`Err`) only on environment problems — a
/// missing binary, an unwritable results directory; per-cell failures
/// land in the [`Summary`].
pub fn run_sweep(sweep: &Sweep, opts: &RunOptions) -> Result<Summary, String> {
    let cells = plan::cells(sweep);
    let cache = Cache::new(&opts.results_dir);
    cache.ensure()?;

    // Hash inputs: each distinct binary is read once.
    let mut bin_bytes: std::collections::BTreeMap<String, Vec<u8>> = Default::default();
    for cell in &cells {
        if !bin_bytes.contains_key(&cell.bin) {
            let path = bin_path(&opts.bin_dir, &cell.bin);
            let bytes = std::fs::read(&path).map_err(|e| {
                format!(
                    "cannot read {} ({e}); build the bench binaries first:\n  \
                     cargo build --release --workspace --bins",
                    path.display()
                )
            })?;
            bin_bytes.insert(cell.bin.clone(), bytes);
        }
    }
    let keys: Vec<u64> = cells
        .iter()
        .map(|c| hash::cell_key(&c.bin, &bin_bytes[&c.bin], &c.config.pretty()))
        .collect();

    // Split into hits and due cells.
    let mut outcomes: Vec<Option<CellOutcome>> = cells.iter().map(|_| None).collect();
    let mut due: Vec<usize> = Vec::new();
    for (i, cell) in cells.iter().enumerate() {
        if !opts.force && cache.lookup(&cell.bin, keys[i]).is_some() {
            outcomes[i] = Some(CellOutcome::CacheHit);
            if opts.verbose {
                say(&format!("{} hit", cell_tag(cell, keys[i])));
            }
        } else {
            due.push(i);
        }
    }

    // Execute the due cells over the pool.
    let jobs: Vec<Job> = due
        .iter()
        .map(|&i| {
            let cell = &cells[i];
            let key = keys[i];
            let config_path = cache.config_path(&cell.bin, key);
            std::fs::write(&config_path, cell.config.pretty())
                .map_err(|e| format!("cannot write {}: {e}", config_path.display()))?;
            Ok(Job {
                bin_path: bin_path(&opts.bin_dir, &cell.bin),
                config_path,
                out_path: cache.artifact_path(&cell.bin, key),
                log_path: cache.log_path(&cell.bin, key),
                timeout_secs: sweep.timeout_secs,
            })
        })
        .collect::<Result<_, String>>()?;
    let pool = opts.pool.unwrap_or(sweep.pool);
    let results = exec::run_pool(&jobs, pool, |j, r| {
        if opts.verbose {
            let cell = &cells[due[j]];
            match r {
                JobResult::Ran { wall_secs } => {
                    say(&format!(
                        "{} ran {wall_secs:.2}s",
                        cell_tag(cell, keys[due[j]])
                    ));
                }
                JobResult::Failed(e) => {
                    say(&format!("{} FAILED: {e}", cell_tag(cell, keys[due[j]])));
                }
                JobResult::TimedOut => say(&format!(
                    "{} TIMED OUT after {}s",
                    cell_tag(cell, keys[due[j]]),
                    sweep.timeout_secs
                )),
            }
        }
    });

    // Verify the fresh artifacts with the simulation's JSON reader.
    for (j, result) in results.into_iter().enumerate() {
        let i = due[j];
        let cell = &cells[i];
        outcomes[i] = Some(match result {
            JobResult::Ran { wall_secs } => match cache.lookup(&cell.bin, keys[i]) {
                Some(_) => CellOutcome::Ran { wall_secs },
                None => CellOutcome::Failed(format!(
                    "exited 0 but wrote no valid artifact (see {})",
                    cache.log_path(&cell.bin, keys[i]).display()
                )),
            },
            JobResult::Failed(e) => CellOutcome::Failed(format!(
                "{e} (see {})",
                cache.log_path(&cell.bin, keys[i]).display()
            )),
            JobResult::TimedOut => CellOutcome::TimedOut,
        });
    }

    let summary = Summary {
        cells: cells
            .iter()
            .cloned()
            .zip(outcomes.into_iter().flatten())
            .collect(),
    };
    consolidate(sweep, &summary, &keys, &cache, &opts.results_dir)?;
    Ok(summary)
}

/// Writes `results/<experiment>.json` for every fully-successful
/// experiment: a verbatim copy of the artifact for single-cell
/// experiments (so downstream consumers — the regression gate, the doc
/// generator — see the plain bench schema), plus its cached trace as
/// `results/<experiment>_trace.json` when it wrote one, or a `cells`
/// array of `{config, table, run}` objects for multi-cell ones.
fn consolidate(
    sweep: &Sweep,
    summary: &Summary,
    keys: &[u64],
    cache: &Cache,
    results_dir: &Path,
) -> Result<(), String> {
    let mut offset = 0usize;
    for exp in &sweep.experiments {
        let slice: Vec<usize> = (offset..)
            .take_while(|&i| i < summary.cells.len() && summary.cells[i].0.experiment == exp.name)
            .collect();
        offset += slice.len();
        let ok = slice.iter().all(|&i| {
            matches!(
                summary.cells[i].1,
                CellOutcome::CacheHit | CellOutcome::Ran { .. }
            )
        });
        if !ok {
            continue; // leave any previous consolidated artifact alone
        }
        let out_path = results_dir.join(format!("{}.json", exp.name));
        if slice.len() == 1 {
            let i = slice[0];
            let text = cache
                .lookup(&summary.cells[i].0.bin, keys[i])
                .ok_or(format!("cache entry vanished for {}", exp.name))?;
            std::fs::write(&out_path, text)
                .map_err(|e| format!("cannot write {}: {e}", out_path.display()))?;
            // The cell's trace, if it wrote one, is restored with it.
            let trace = cache.trace_path(&summary.cells[i].0.bin, keys[i]);
            if trace.exists() {
                let to = results_dir.join(format!("{}_trace.json", exp.name));
                std::fs::copy(&trace, &to)
                    .map_err(|e| format!("cannot write {}: {e}", to.display()))?;
            }
            continue;
        }
        let mut cells_json = Vec::new();
        for &i in &slice {
            let (cell, _) = &summary.cells[i];
            let text = cache
                .lookup(&cell.bin, keys[i])
                .ok_or(format!("cache entry vanished for {}", exp.name))?;
            let artifact = cache::verify(&text, &cell.bin)?;
            let mut fields = vec![
                ("config".to_string(), cell.config.clone()),
                ("hash".to_string(), Json::Str(format!("{:016x}", keys[i]))),
            ];
            for section in ["table", "run"] {
                if let Some(v) = artifact.get(section) {
                    fields.push((section.to_string(), v.clone()));
                }
            }
            cells_json.push(Json::Obj(fields));
        }
        let consolidated = Json::obj([
            ("experiment", Json::Str(exp.name.clone())),
            ("bin", Json::Str(exp.bin.clone())),
            ("cells", Json::Arr(cells_json)),
        ]);
        std::fs::write(&out_path, consolidated.pretty())
            .map_err(|e| format!("cannot write {}: {e}", out_path.display()))?;
    }
    Ok(())
}

fn bin_path(bin_dir: &Path, bin: &str) -> PathBuf {
    bin_dir.join(bin)
}

/// Progress-line prefix: `exp_remote_exec[2/4 seed=101] a1b2c3d4`.
fn cell_tag(cell: &Cell, key: u64) -> String {
    format!(
        "{}[{}/{} {}] {:08x}",
        cell.bin,
        cell.index + 1,
        cell.of,
        cell.label,
        key >> 32
    )
}
