//! Whole-cluster benchmark for the V-system reproduction.
//!
//! Runs the real [`vcluster::Cluster`] on four paper workloads from one
//! process and thread, and reports host seconds per simulated hour (run
//! phase only), set-up time, peak memory and the operation failure ratio,
//! plus a per-crate attribution from a separate traced run. Every
//! repetition of one seed must reproduce the same simulated outcome, and
//! the default seed's outcome digests are pinned below. See `README.md`.

pub mod report;
pub mod run;
pub mod workload;

use std::time::Instant;

use vsim::SimDuration;

pub use run::{Outcome, Rep};
pub use workload::Workload;

/// The seed the pinned digests hold for.
pub const DEFAULT_SEED: u64 = 1985;

/// Outcome digest of each workload at full span for [`DEFAULT_SEED`]. A
/// change that only speeds up the simulator leaves these unchanged; a
/// change to simulated behaviour must re-pin them and say why.
pub const PINNED: [(Workload, u64); 4] = [
    (Workload::Campus64, 0x3b85_8234_d217_7b43),
    (Workload::Campus1024, 0xdc38_5733_e2df_cf21),
    (Workload::MigrateChurn8, 0xa033_7992_319e_0c9a),
    (Workload::ChaosObserved8, 0x3b84_398d_f141_4552),
];

/// The repetitions of one benchmark run.
#[derive(Debug)]
pub struct Measurement {
    /// Untraced repetitions (the end-to-end figures).
    pub untraced: Vec<Rep>,
    /// Traced repetitions (the per-layer figures); empty unless traced.
    pub traced: Vec<Rep>,
}

impl Measurement {
    /// Repeats `workload` for about `seconds` of host time: untraced
    /// only, or (with `trace`) a third untraced and the rest traced.
    /// Every repetition uses the same seed, hence the same inputs.
    pub fn take(
        workload: Workload,
        seed: u64,
        span: SimDuration,
        seconds: f64,
        trace: bool,
    ) -> Self {
        let start = Instant::now();
        let (untraced_budget, min_untraced) = if trace {
            (seconds / 3.0, 1)
        } else {
            (seconds, 3)
        };
        let untraced = repeat(
            workload,
            seed,
            span,
            false,
            start,
            untraced_budget,
            min_untraced,
        );
        let traced = if trace {
            repeat(workload, seed, span, true, start, seconds, 1)
        } else {
            Vec::new()
        };
        Measurement { untraced, traced }
    }

    /// Every repetition, untraced first.
    pub fn reps(&self) -> impl Iterator<Item = &Rep> {
        self.untraced.iter().chain(&self.traced)
    }

    /// Checks the simulated outcome: identical in every repetition
    /// (traced or not), audit-clean, quiesced where the workload drains,
    /// and equal to the pinned digest for the default seed at full span.
    /// Returns what failed, if anything.
    pub fn check(&self, workload: Workload, seed: u64, span: SimDuration) -> Vec<String> {
        let mut problems = Vec::new();
        let first = &self.untraced[0].outcome;
        if self.reps().any(|r| r.outcome != *first) {
            problems.push("repetitions of one seed produced different outcomes".to_string());
        }
        if !first.audit_violations.is_empty() {
            problems.push(format!("final audit found {:?}", first.audit_violations));
        }
        if !first.quiesced {
            problems.push("the drain did not reach quiescence".to_string());
        }
        if seed == DEFAULT_SEED && span == workload.span() {
            let pinned = PINNED.iter().find(|(w, _)| *w == workload).map(|&(_, d)| d);
            if pinned != Some(first.digest) {
                problems.push(format!(
                    "outcome digest {:016x} differs from the pinned {:016x}",
                    first.digest,
                    pinned.unwrap_or(0)
                ));
            }
        }
        problems
    }
}

fn repeat(
    workload: Workload,
    seed: u64,
    span: SimDuration,
    traced: bool,
    start: Instant,
    budget: f64,
    min: usize,
) -> Vec<Rep> {
    let mut reps = Vec::new();
    let mut last = 0.0;
    while reps.len() < min || start.elapsed().as_secs_f64() + last <= budget {
        let t = Instant::now();
        reps.push(run::run(workload, seed, span, traced));
        last = t.elapsed().as_secs_f64();
    }
    reps
}

/// Peak resident memory of this process (`VmHWM`), in kB.
pub fn peak_rss_kb() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()
}
