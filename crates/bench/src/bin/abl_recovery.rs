//! A6 — recovery latency: how fast the lease machinery notices, kills,
//! and replaces a lost program.
//!
//! Each run executes one program remotely (ws1 → ws2) and crashes the
//! holding workstation at a known instant, with a named background fault
//! plan layered on top. Three latencies are read off the cluster trace,
//! all in simulated time and therefore exactly reproducible:
//!
//! - **detect** — scripted crash → the origin's `LeaseExpired` record
//!   (silence declared after the lease duration plus grace);
//! - **re-exec** — scripted crash → `ReExecuted` (the origin's liveness
//!   probe goes unanswered and the program is started elsewhere);
//! - **exterminate** — the holder's reboot → `OrphanExterminated` (the
//!   stale copy's first renewal is refused and the orphan destroyed).
//!
//! One row per plan × latency, with p50/p99 across the seed sweep. The
//! `plan` axis is also sweepable from `sweeps/recovery.json`; run without
//! a `--config` plan, the binary covers every named plan itself.

use vcluster::{Cluster, ClusterConfig};
use vcore::{ExecTarget, MigrationConfig};
use vkernel::Priority;
use vsim::{
    FaultKind, FaultPlan, FaultTrigger, Samples, SimDuration, SimTime, TraceEvent, TraceLevel,
};
use vworkload::profiles;

/// When the scripted crash silences the holder (ws2).
const CRASH_AT_US: u64 = 8_000_000;
/// How long the holder stays down; reboot is crash + this.
const DOWN_FOR_US: u64 = 40_000_000;

struct Row {
    case: String,
    plan: String,
    metric: &'static str,
    events: u64,
    p50_ms: f64,
    p99_ms: f64,
    clean_audits: u64,
    seeds: u64,
}
vsim::impl_to_json!(Row {
    case,
    plan,
    metric,
    events,
    p50_ms,
    p99_ms,
    clean_audits,
    seeds
});

/// One seeded run: background plan + scripted holder crash, drained to
/// quiescence. Returns (detect, re-exec, exterminate) latencies in ms
/// (None when background chaos pre-empted that path) and audit health.
fn run_one(plan_name: &str, seed: u64) -> ([Option<f64>; 3], bool, Cluster) {
    let crash_at = SimTime::from_micros(CRASH_AT_US);
    let reboot_at = SimTime::from_micros(CRASH_AT_US + DOWN_FOR_US);
    let faults = FaultPlan::by_name(plan_name, seed, 5, SimDuration::from_secs(30))
        .unwrap_or_else(|| {
            eprintln!("abl_recovery: unknown fault plan {plan_name:?}");
            std::process::exit(2)
        })
        .with(
            FaultTrigger::At(crash_at),
            FaultKind::Crash {
                ws: 2,
                reboot_after: Some(SimDuration::from_micros(DOWN_FOR_US)),
            },
        );
    let mut c = Cluster::new(ClusterConfig {
        workstations: 4,
        seed,
        trace: TraceLevel::Info,
        faults,
        migration: MigrationConfig {
            retry_limit: 3,
            ..MigrationConfig::default()
        },
        ..ClusterConfig::default()
    });
    c.exec(
        1,
        profiles::simulation_profile(SimDuration::from_secs(60)),
        ExecTarget::Named("ws2".into()),
        Priority::GUEST,
    );
    c.run_for(SimDuration::from_secs(150));
    for _ in 0..40 {
        if c.pending() == 0 {
            break;
        }
        c.run_for(SimDuration::from_secs(30));
    }
    let clean = c.pending() == 0 && c.audit(true).is_clean();
    let since = |at: SimTime, from: SimTime| (at - from).as_secs_f64() * 1e3;
    let mut detect = None;
    let mut reexec = None;
    let mut exterminate = None;
    for r in c.trace().records().iter() {
        match r.event {
            TraceEvent::LeaseExpired {
                party: "origin", ..
            } if detect.is_none() && r.at >= crash_at => {
                detect = Some(since(r.at, crash_at));
            }
            TraceEvent::ReExecuted { .. } if reexec.is_none() && r.at >= crash_at => {
                reexec = Some(since(r.at, crash_at));
            }
            TraceEvent::OrphanExterminated { .. } if exterminate.is_none() && r.at >= reboot_at => {
                exterminate = Some(since(r.at, reboot_at));
            }
            _ => {}
        }
    }
    ([detect, reexec, exterminate], clean, c)
}

fn main() {
    let seeds = vbench::config_u64("seeds", 12);
    let seed_base = vbench::config_u64("seed", 0x1985);
    // One plan from a sweep cell, or every named plan by default.
    let plans: Vec<String> = match vbench::config_str("plan") {
        Some(p) => vec![p],
        None => [
            "none",
            "crash_storm",
            "partition_heavy",
            "corruption",
            "lease_chaos",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect(),
    };
    let mut rows = Vec::new();
    let mut metrics = vsim::MetricsReport::new();
    for plan in &plans {
        let mut samples = [Samples::new(), Samples::new(), Samples::new()];
        let mut clean = 0u64;
        for s in 0..seeds {
            let ([d, r, e], ok, c) = run_one(plan, seed_base ^ s);
            for (i, lat) in [d, r, e].into_iter().enumerate() {
                if let Some(ms) = lat {
                    samples[i].add(ms);
                }
            }
            if ok {
                clean += 1;
            }
            if s + 1 == seeds {
                metrics.absorb(c.metrics_report().prefixed(plan));
            }
        }
        for (i, metric) in ["detect", "reexec", "exterminate"].into_iter().enumerate() {
            let p50 = samples[i].percentile(50.0).unwrap_or(0.0);
            let p99 = samples[i].percentile(99.0).unwrap_or(0.0);
            rows.push(Row {
                case: format!("{plan}/{metric}"),
                plan: plan.clone(),
                metric,
                events: samples[i].count() as u64,
                p50_ms: p50,
                p99_ms: p99,
                clean_audits: clean,
                seeds,
            });
        }
    }
    println!(
        "\nShape check: detection waits out the lease duration plus its\n\
         grace window from the holder's last heartbeat, re-execution\n\
         follows within one probe round-trip, and extermination of the\n\
         rebooted stale copy takes about one heartbeat interval — the\n\
         first refused renewal. Background chaos widens the tails (and\n\
         occasionally pre-empts a path: `events` < seeds) but never\n\
         leaves a duplicate live copy behind."
    );
    vbench::emit("abl_recovery", &rows, &metrics);
}
