//! Fan-out frames are queued as few events as exactness allows: the
//! receivers of one broadcast or multicast that hear one frame at one
//! instant share a queue entry. This pins what a fan-out-heavy run
//! produces, so any change to how arrivals are queued must leave every
//! trace record and every cluster counter as it was.
//!
//! The run has sixteen workstations issuing `@*` execs (each one a
//! multicast query to every program manager), under light loss, a
//! corruption window (receivers with their own damaged copy), a latency
//! spike on one query link (a receiver with its own arrival instant), a
//! crash with reboot and a healing partition. The digests were taken
//! before fan-out arrivals were batched, with one queue entry per
//! receiver.

use v_system::prelude::*;
use v_system::vsim::{fnv1a, Fnv, TraceRecord};

/// FNV-1a over the `Debug` form of every trace record, in order.
const TRACE_DIGEST: &str = "d140717907d4fe02";
/// FNV-1a over the `Debug` form of the final `ClusterStats`.
const STATS_DIGEST: &str = "f330df2ad10490dd";

struct Outcome {
    records: Vec<TraceRecord>,
    stats: String,
    execs_ok: usize,
    corrupted: u64,
    faults_injected: u64,
}

fn secs(s: u64) -> SimTime {
    SimTime::ZERO + SimDuration::from_secs(s)
}

fn run() -> Outcome {
    let faults = FaultPlan::none()
        .with(
            FaultTrigger::At(secs(2)),
            FaultKind::Corrupt {
                probability: 0.25,
                duration: SimDuration::from_secs(3),
            },
        )
        .with(
            FaultTrigger::At(secs(1)),
            FaultKind::LatencySpike {
                from: 4,
                to: 7,
                extra: SimDuration::from_millis(7),
                duration: SimDuration::from_secs(14),
            },
        )
        .with(
            FaultTrigger::At(secs(6)),
            FaultKind::Crash {
                ws: 12,
                reboot_after: Some(SimDuration::from_secs(4)),
            },
        )
        .with(
            FaultTrigger::At(secs(8)),
            FaultKind::Partition {
                a: vec![3, 4, 5],
                b: vec![13, 14],
                symmetric: true,
                heal_after: Some(SimDuration::from_secs(5)),
            },
        );
    let mut c = Cluster::new(ClusterConfig {
        workstations: 16,
        seed: 29,
        loss: LossModel::Bernoulli(0.01),
        trace: TraceLevel::Detail,
        faults,
        ..ClusterConfig::default()
    });
    // Two execs a second for the first fifteen seconds, from rotating
    // workstations, each placed by an `@*` query.
    for k in 0..30u64 {
        let ws = 1 + (k as usize * 7) % 16;
        let job = profiles::simulation_profile(SimDuration::from_secs(3 + k % 5));
        c.at(
            SimTime::ZERO + SimDuration::from_millis(500 * k + 100),
            Command::Exec {
                ws,
                profile: job,
                target: ExecTarget::AnyIdle,
                priority: Priority::GUEST,
            },
        );
    }
    c.run_for(SimDuration::from_secs(60));
    for _ in 0..20 {
        if c.pending() == 0 {
            break;
        }
        c.run_for(SimDuration::from_secs(30));
    }
    assert_eq!(c.pending(), 0, "the run failed to quiesce");
    let records = c.trace().records().to_vec();
    Outcome {
        records,
        stats: format!("{:?}", c.stats),
        execs_ok: c.exec_reports.iter().filter(|r| r.success).count(),
        corrupted: c.net.stats().corrupted,
        faults_injected: c.stats.faults_injected,
    }
}

#[test]
fn fan_out_heavy_run_reproduces_its_pinned_trace_and_stats() {
    let o = run();
    // Non-vacuity: the faults fired and the queries placed programs.
    assert_eq!(o.faults_injected, 4);
    assert!(o.corrupted > 0, "the corruption window damaged nothing");
    assert!(o.execs_ok >= 20, "only {} execs succeeded", o.execs_ok);
    let mut trace = Fnv::new();
    for r in &o.records {
        trace.write_debug(r);
    }
    let (trace, stats) = (trace.finish(), fnv1a(o.stats.as_bytes()));
    assert_eq!(
        (format!("{trace:016x}"), format!("{stats:016x}")),
        (TRACE_DIGEST.to_string(), STATS_DIGEST.to_string()),
        "{} records; stats {}",
        o.records.len(),
        o.stats
    );
}
