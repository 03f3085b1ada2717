//! The bounded process pool: runs due cells as child processes with
//! per-cell timeouts and captured output.
//!
//! Children are spawned as `<bin> --config <path> --out <path>` with
//! stdout and stderr redirected straight into the cell's log file (no
//! pipes — a chatty binary can never deadlock the runner). At most
//! `pool` children run at once; the runner polls `try_wait` and kills
//! any child that outlives its timeout.

use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::time::Instant;

/// One spawnable unit of work, fully resolved to filesystem paths.
#[derive(Debug)]
pub struct Job {
    /// Executable to run.
    pub bin_path: PathBuf,
    /// `--config` argument.
    pub config_path: PathBuf,
    /// `--out` argument.
    pub out_path: PathBuf,
    /// File receiving the child's stdout + stderr.
    pub log_path: PathBuf,
    /// Kill the child after this many wall-clock seconds.
    pub timeout_secs: u64,
}

/// Terminal state of one job.
#[derive(Debug, Clone, PartialEq)]
pub enum JobResult {
    /// Exited with status 0 in `wall_secs`.
    Ran {
        /// Wall-clock seconds from spawn to exit.
        wall_secs: f64,
    },
    /// Could not spawn, or exited non-zero; the string says which.
    Failed(String),
    /// Killed after exceeding its timeout.
    TimedOut,
}

struct Running {
    index: usize,
    child: Child,
    started: Instant,
    timeout_secs: u64,
}

/// Runs every job, at most `pool` concurrently, preserving result order.
/// `on_done(index, result)` fires as each job settles (progress output).
pub fn run_pool(
    jobs: &[Job],
    pool: usize,
    mut on_done: impl FnMut(usize, &JobResult),
) -> Vec<JobResult> {
    let pool = pool.max(1);
    let mut results: Vec<Option<JobResult>> = jobs.iter().map(|_| None).collect();
    let mut next = 0usize;
    let mut running: Vec<Running> = Vec::new();

    while next < jobs.len() || !running.is_empty() {
        // Fill free slots.
        while next < jobs.len() && running.len() < pool {
            let index = next;
            next += 1;
            match spawn(&jobs[index]) {
                Ok(child) => running.push(Running {
                    index,
                    child,
                    started: Instant::now(),
                    timeout_secs: jobs[index].timeout_secs,
                }),
                Err(e) => {
                    let r = JobResult::Failed(e);
                    on_done(index, &r);
                    results[index] = Some(r);
                }
            }
        }

        // Poll the running set.
        let mut i = 0;
        while i < running.len() {
            let slot = &mut running[i];
            match slot.child.try_wait() {
                Ok(Some(status)) => {
                    let wall_secs = slot.started.elapsed().as_secs_f64();
                    let r = if status.success() {
                        JobResult::Ran { wall_secs }
                    } else {
                        JobResult::Failed(match status.code() {
                            Some(code) => format!("exit status {code}"),
                            None => "killed by signal".to_string(),
                        })
                    };
                    let done = running.swap_remove(i);
                    on_done(done.index, &r);
                    results[done.index] = Some(r);
                }
                Ok(None) if slot.started.elapsed().as_secs() >= slot.timeout_secs => {
                    let _ = slot.child.kill();
                    let _ = slot.child.wait();
                    let done = running.swap_remove(i);
                    on_done(done.index, &JobResult::TimedOut);
                    results[done.index] = Some(JobResult::TimedOut);
                }
                Ok(None) => i += 1,
                Err(e) => {
                    let r = JobResult::Failed(format!("wait failed: {e}"));
                    let done = running.swap_remove(i);
                    on_done(done.index, &r);
                    results[done.index] = Some(r);
                }
            }
        }

        if !running.is_empty() {
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
    }

    results.into_iter().flatten().collect()
}

fn spawn(job: &Job) -> Result<Child, String> {
    let log = std::fs::File::create(&job.log_path)
        .map_err(|e| format!("cannot create {}: {e}", job.log_path.display()))?;
    let log_err = log
        .try_clone()
        .map_err(|e| format!("cannot clone log handle: {e}"))?;
    Command::new(&job.bin_path)
        .arg("--config")
        .arg(&job.config_path)
        .arg("--out")
        .arg(&job.out_path)
        .stdin(Stdio::null())
        .stdout(Stdio::from(log))
        .stderr(Stdio::from(log_err))
        .spawn()
        .map_err(|e| format!("cannot spawn {}: {e}", job.bin_path.display()))
}

#[cfg(all(test, unix))]
mod tests {
    use super::*;
    use std::os::unix::fs::PermissionsExt;

    /// Writes an executable shell script and returns its path.
    fn script(dir: &std::path::Path, name: &str, body: &str) -> PathBuf {
        let path = dir.join(name);
        std::fs::write(&path, format!("#!/bin/sh\n{body}\n")).expect("write script");
        std::fs::set_permissions(&path, std::fs::Permissions::from_mode(0o755)).expect("chmod");
        path
    }

    fn temp(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("vrun-exec-test-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("temp dir");
        dir
    }

    fn job(dir: &std::path::Path, bin: PathBuf, n: usize, timeout_secs: u64) -> Job {
        Job {
            bin_path: bin,
            config_path: dir.join(format!("{n}.config.json")),
            out_path: dir.join(format!("{n}.json")),
            log_path: dir.join(format!("{n}.log")),
            timeout_secs,
        }
    }

    #[test]
    fn runs_jobs_and_captures_logs() {
        let dir = temp("ok");
        let bin = script(&dir, "ok.sh", r#"echo "ran $4"; printf x > "$4""#);
        let jobs: Vec<Job> = (0..3).map(|n| job(&dir, bin.clone(), n, 30)).collect();
        let results = run_pool(&jobs, 2, |_, _| {});
        assert!(results.iter().all(|r| matches!(r, JobResult::Ran { .. })));
        // --out is argv[4]; the script wrote both the log and the file.
        assert_eq!(std::fs::read_to_string(&jobs[1].out_path).unwrap(), "x");
        let log = std::fs::read_to_string(&jobs[1].log_path).unwrap();
        assert!(log.contains("ran"), "log: {log}");
    }

    #[test]
    fn reports_failures_and_timeouts() {
        let dir = temp("fail");
        let fail = script(&dir, "fail.sh", "exit 3");
        let hang = script(&dir, "hang.sh", "sleep 30");
        let jobs = vec![
            job(&dir, fail, 0, 30),
            job(&dir, hang, 1, 1),
            job(&dir, dir.join("missing.sh"), 2, 30),
        ];
        let mut order = Vec::new();
        let results = run_pool(&jobs, 3, |i, _| order.push(i));
        assert_eq!(results[0], JobResult::Failed("exit status 3".into()));
        assert_eq!(results[1], JobResult::TimedOut);
        assert!(matches!(&results[2], JobResult::Failed(e) if e.contains("cannot spawn")));
        assert_eq!(order.len(), 3);
    }
}
