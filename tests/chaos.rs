//! Chaos soak: deterministic fault injection + cluster invariant audits.
//!
//! Every test here drives the cluster through scheduled failures — station
//! crashes, partitions, corruption windows, service restarts — and then
//! asks the invariant auditor whether the recovery machinery (watchdogs,
//! retransmission backoff, migration retry, broadcast rebinding) actually
//! restored a coherent cluster. One test deliberately disables the reclaim
//! watchdog to prove the auditor is not vacuous.

use v_system::prelude::*;

/// Builds a chaos cluster: 4 workstations, migration retries enabled,
/// realistic packet loss, and the given fault plan.
fn chaos_cluster(seed: u64, faults: FaultPlan) -> Cluster {
    Cluster::new(ClusterConfig {
        workstations: 4,
        seed,
        faults,
        // Info keeps the migration phase spans so the soak can hold the
        // span tree to its well-formedness rules under faults too.
        trace: TraceLevel::Info,
        migration: MigrationConfig {
            retry_limit: 3,
            ..MigrationConfig::default()
        },
        // Telemetry on, so the soak also exercises the series under
        // faults; the runs span many simulated minutes, so retention is
        // capped at 512 points per series.
        sampling: Some(SamplingSpec { capacity: 512 }),
        ..ClusterConfig::default()
    })
}

/// Starts a mixed workload (remote execs plus staggered migrations) so
/// fault windows land on live protocol activity.
fn seed_workload(c: &mut Cluster) {
    for ws in 1..=3 {
        c.exec(
            ws,
            profiles::simulation_profile(SimDuration::from_secs(8)),
            ExecTarget::AnyIdle,
            Priority::GUEST,
        );
    }
    for (i, at) in [(1usize, 6u64), (2, 9), (3, 12), (4, 15)] {
        c.at(
            SimTime::from_micros(at * 1_000_000),
            Command::Migrate {
                ws: i,
                lh: None,
                destroy_if_stuck: false,
            },
        );
    }
}

/// Runs past the fault horizon, then drains the queue completely (crashed
/// stations reboot, partitions heal, backed-off retransmissions give up).
fn run_to_quiescence(c: &mut Cluster, seed: u64) {
    c.run_for(SimDuration::from_secs(45));
    for _ in 0..40 {
        if c.pending() == 0 {
            break;
        }
        c.run_for(SimDuration::from_secs(30));
    }
    assert_eq!(c.pending(), 0, "seed {seed} failed to quiesce");
}

/// The tentpole soak: 32 random-but-reproducible fault plans, each run to
/// quiescence and audited — zero invariant violations tolerated.
#[test]
fn soak_32_seeds_zero_violations() {
    for seed in 0..32u64 {
        let mut rng = DetRng::seed(0xC0FFEE ^ seed);
        let plan = FaultPlan::random(&mut rng, 5, SimDuration::from_secs(30));
        let mut c = chaos_cluster(seed, plan);
        seed_workload(&mut c);
        run_to_quiescence(&mut c, seed);
        let report = c.audit(true);
        assert!(
            report.is_clean(),
            "seed {seed}: {report}\nplan: {:?}",
            c.config().faults
        );
        assert!(
            c.stats.faults_injected > 0,
            "seed {seed}: plan injected nothing"
        );
        // Spans must stay structurally sound under faults: no close
        // without an open, no duplicate opens, no orphaned parent ids.
        // (Crashed hosts may leave spans *unclosed* — that is data, not a
        // violation.)
        let tree = c.span_tree();
        let violations = tree.validate();
        assert!(violations.is_empty(), "seed {seed}: {violations:?}");
        // The one cluster trace is in time order as emitted: nothing is
        // merged or sorted after the run.
        assert!(
            c.trace().records().windows(2).all(|w| w[0].at <= w[1].at),
            "seed {seed}: trace went backwards in sim time"
        );
        // Change-point series must stay monotone in sim time under
        // faults: crashes and partitions may flatten the values, and
        // decimation may thin the points, but time never reorders or
        // repeats.
        let telemetry = c.series_report();
        assert!(telemetry.sweeps > 0, "seed {seed}: telemetry never updated");
        for s in &telemetry.series {
            assert!(
                !s.points.is_empty(),
                "seed {seed}: series {} retained nothing",
                s.name
            );
            assert!(
                s.points.windows(2).all(|w| w[0].0 < w[1].0),
                "seed {seed}: series {} went backwards in sim time",
                s.name
            );
        }
    }
}

/// The same seed and plan must replay exactly: identical traces and
/// identical event counts.
#[test]
fn chaos_runs_are_deterministic() {
    let run = || {
        let mut rng = DetRng::seed(0xC0FFEE ^ 3);
        let plan = FaultPlan::random(&mut rng, 5, SimDuration::from_secs(30));
        let mut c = chaos_cluster(3, plan);
        seed_workload(&mut c);
        run_to_quiescence(&mut c, 3);
        let records = c.trace().records().to_vec();
        (c.events_delivered(), c.stats.faults_injected, records)
    };
    let (events_a, faults_a, trace_a) = run();
    let (events_b, faults_b, trace_b) = run();
    assert_eq!(events_a, events_b, "event counts diverged");
    assert_eq!(faults_a, faults_b, "fault execution diverged");
    assert_eq!(trace_a, trace_b, "traces diverged");
}

/// Disabling the reclaim watchdog must produce an audit violation for the
/// same scenario a healthy cluster survives — the auditor is not vacuous.
#[test]
fn auditor_catches_disabled_watchdog_leak() {
    let plan = || {
        FaultPlan::none().with(
            FaultTrigger::AtFaultPoint {
                point: FaultPoint {
                    step: ProtocolStep::Freeze,
                    party: Party::Source,
                },
                round: None,
            },
            FaultKind::Crash {
                ws: 1,
                reboot_after: None,
            },
        )
    };
    let run = |watchdog: bool| {
        let mut c = Cluster::new(ClusterConfig {
            workstations: 3,
            seed: 7,
            loss: LossModel::None,
            faults: plan(),
            ..ClusterConfig::default()
        });
        if !watchdog {
            for w in &mut c.stations {
                w.pm.set_migration_watchdog(false);
            }
        }
        c.exec(
            1,
            profiles::simulation_profile(SimDuration::from_secs(600)),
            ExecTarget::Local,
            Priority::GUEST,
        );
        c.run_for(SimDuration::from_secs(5));
        let lh = c.exec_reports[0].lh.expect("program created");
        c.migrateprog(1, lh, false);
        // The source crashes at the freeze point and never reboots; the
        // target is left holding a half-built temporary logical host.
        c.run_for(SimDuration::from_secs(180));
        c.audit(true)
    };
    let broken = run(false);
    assert!(
        broken
            .violations
            .iter()
            .any(|v| matches!(v, AuditViolation::OrphanTempLh { .. })),
        "expected an orphan-temp-lh violation, got: {broken}"
    );
    let healthy = run(true);
    assert!(
        healthy.is_clean(),
        "watchdog-enabled run must reclaim the temporary: {healthy}"
    );
}

/// A symmetric partition between source and target after pre-copy round 1:
/// the target's watchdog reclaims the half-built temporary, and the retry
/// excludes the failed target and lands the program on the remaining host.
#[test]
fn partition_mid_precopy_reclaims_and_retries_elsewhere() {
    let plan = FaultPlan::none().with(
        FaultTrigger::AtFaultPoint {
            point: FaultPoint {
                step: ProtocolStep::PrecopyRound,
                party: Party::Source,
            },
            round: Some(1),
        },
        FaultKind::Partition {
            a: vec![1],
            b: vec![2],
            symmetric: true,
            heal_after: Some(SimDuration::from_secs(120)),
        },
    );
    let mut c = Cluster::new(ClusterConfig {
        workstations: 3,
        seed: 5,
        loss: LossModel::None,
        faults: plan,
        migration: MigrationConfig {
            retry_limit: 2,
            ..MigrationConfig::default()
        },
        ..ClusterConfig::default()
    });
    c.exec(
        1,
        profiles::simulation_profile(SimDuration::from_secs(600)),
        ExecTarget::Local,
        Priority::GUEST,
    );
    c.run_for(SimDuration::from_secs(5));
    let lh = c.exec_reports[0].lh.expect("program created");
    c.migrateprog(1, lh, false);
    c.run_for(SimDuration::from_secs(240));
    // ws2 (the deterministic first responder) was cut off mid-pre-copy;
    // its reclaim watchdog expired the temporary logical host.
    assert!(
        c.stations[2].pm.stats().migrations_expired >= 1,
        "first target should have reclaimed the half-built temporary"
    );
    // The retry excluded ws2 and chose the remaining workstation.
    assert_eq!(c.locate(lh), Some(c.stations[3].host));
    assert_eq!(c.behavior_station(lh), Some(3));
    assert!(c.migration_reports.iter().any(|r| r.success));
    let report = c.audit(false);
    assert!(report.is_clean(), "{report}");
}

/// A round filter pins a pre-copy fault to one round: a partition armed
/// for round 2 (listed first, so it would win round 1 if the filter were
/// ignored) fires one round after a round-1 marker, exactly the length of
/// round 2 later; a migration that freezes after one round never crosses
/// round 2 and leaves the fault armed.
#[test]
fn round_filter_fires_after_that_round_only() {
    let round = |n: u32| FaultTrigger::AtFaultPoint {
        point: FaultPoint {
            step: ProtocolStep::PrecopyRound,
            party: Party::Source,
        },
        round: Some(n),
    };
    let plan = FaultPlan::none()
        .with(
            round(2),
            FaultKind::Partition {
                a: vec![1],
                b: vec![2],
                symmetric: true,
                heal_after: Some(SimDuration::from_secs(120)),
            },
        )
        // A marker that corrupts nothing: its hit stamps the end of
        // round 1.
        .with(
            round(1),
            FaultKind::Corrupt {
                probability: 0.0,
                duration: SimDuration::from_millis(1),
            },
        );
    let run = |strategy: Strategy| {
        let mut c = Cluster::new(ClusterConfig {
            workstations: 3,
            seed: 5,
            loss: LossModel::None,
            faults: plan.clone(),
            migration: MigrationConfig {
                strategy,
                ..MigrationConfig::default()
            },
            ..ClusterConfig::default()
        });
        c.exec(
            1,
            profiles::simulation_profile(SimDuration::from_secs(600)),
            ExecTarget::Local,
            Priority::GUEST,
        );
        c.run_for(SimDuration::from_secs(5));
        let lh = c.exec_reports[0].lh.expect("program created");
        c.migrateprog(1, lh, false);
        c.run_for(SimDuration::from_secs(240));
        c
    };

    let c = run(Strategy::PreCopy(StopPolicy::default()));
    assert_eq!(c.pending_point_faults(), 0);
    let records = c.trace().records();
    let hits: Vec<SimTime> = records
        .iter()
        .filter(|r| matches!(r.event, TraceEvent::FaultPointHit { .. }))
        .map(|r| r.at)
        .collect();
    let kinds: Vec<&str> = records
        .iter()
        .filter_map(|r| match r.event {
            TraceEvent::FaultInjected { kind } => Some(kind),
            _ => None,
        })
        .collect();
    assert_eq!(kinds, ["corrupt", "partition"]);
    let report = &c.migration_reports[0];
    assert!(report.iterations.len() >= 2, "{report:?}");
    assert_eq!(hits.len(), 2);
    assert_eq!(hits[1], hits[0] + report.iterations[1].duration);
    assert!(hits[1] > hits[0]);

    let c = run(Strategy::PreCopy(StopPolicy::fixed(1)));
    assert_eq!(c.migration_reports[0].iterations.len(), 1);
    assert_eq!(c.stats.faults_injected, 1);
    assert_eq!(c.pending_point_faults(), 1);
}

/// The old host crashes at the commit point (state installed, unfreeze
/// unsent), reboots with no forwarding state, and a third party holding a
/// stale binding still reaches the program by broadcast re-query (§3.3).
#[test]
fn crash_after_commit_rebinds_by_broadcast_not_forwarding() {
    let plan = FaultPlan::none().with(
        FaultTrigger::AtFaultPoint {
            point: FaultPoint {
                step: ProtocolStep::Unfreeze,
                party: Party::Source,
            },
            round: None,
        },
        FaultKind::Crash {
            ws: 1,
            reboot_after: Some(SimDuration::from_secs(5)),
        },
    );
    let mut c = Cluster::new(ClusterConfig {
        workstations: 3,
        seed: 13,
        loss: LossModel::None,
        faults: plan,
        ..ClusterConfig::default()
    });
    c.exec(
        1,
        profiles::simulation_profile(SimDuration::from_secs(600)),
        ExecTarget::Local,
        Priority::GUEST,
    );
    c.run_for(SimDuration::from_secs(5));
    let lh = c.exec_reports[0].lh.expect("program created");
    c.migrateprog(1, lh, false);
    c.run_for(SimDuration::from_secs(60));
    // The crash killed the step-5 unfreeze send; after the reboot the
    // re-armed retransmission completed the migration at ws2.
    assert_eq!(c.locate(lh), Some(c.stations[2].host));
    assert!(c.migration_reports.iter().any(|r| r.success));
    // The rebooted old host holds no forwarding state (§3.3: no residual
    // dependencies on the old host).
    assert_eq!(c.stations[1].kernel.forwarding_entries(), 0);

    // Plant a stale binding at ws3 and operate on the program through it:
    // delivery must recover via broadcast re-query, not forwarding.
    let old_host = c.stations[1].host;
    c.stations[3].kernel.learn_binding(lh, old_host);
    let broadcasts_before = c.stations[3].kernel.stats().broadcast_requests;
    c.suspendprog(3, lh);
    c.run_for(SimDuration::from_secs(30));
    assert!(
        c.stations[2].kernel.is_frozen(lh),
        "suspend must reach the program's new host"
    );
    assert!(
        c.stations[3].kernel.stats().broadcast_requests > broadcasts_before,
        "stale binding must be corrected by broadcast re-query"
    );
    assert!(c.stations[1].kernel.stats().not_here >= 1);
    for w in &c.stations {
        assert_eq!(w.kernel.stats().forwarded_requests, 0);
    }
    let report = c.audit(false);
    assert!(report.is_clean(), "{report}");
}

/// Periodic checkpoint audits run inside the event loop and stay clean on
/// a fault-free run.
#[test]
fn periodic_checkpoint_audits_are_clean() {
    let mut c = Cluster::new(ClusterConfig {
        workstations: 3,
        seed: 17,
        loss: LossModel::None,
        audit_every: Some(SimDuration::from_secs(5)),
        ..ClusterConfig::default()
    });
    c.exec(
        1,
        profiles::simulation_profile(SimDuration::from_secs(20)),
        ExecTarget::AnyIdle,
        Priority::GUEST,
    );
    c.run_for(SimDuration::from_secs(60));
    assert!(c.audit_reports.len() >= 4, "checkpoints ran");
    assert!(c.audit_reports.iter().all(|r| r.is_clean()));
    assert_eq!(c.stats.audit_violations, 0);
}

/// A partition heal racing the lease-expiry grace window: the holder is
/// cut off long enough that, depending on where the heal lands relative
/// to the grace boundary, either (a) the origin declares it dead and
/// re-executes while the stale copy self-exterminates, or (b) the healed
/// heartbeat arrives in time and the lease survives. Sweeping the heal
/// across the boundary must exercise BOTH branches, and every run must
/// converge to exactly one owner with a clean audit.
#[test]
fn partition_heal_racing_grace_window_converges_to_one_owner() {
    let mut exterminated_runs = 0u32;
    let mut survived_runs = 0u32;
    for heal_secs in [8u64, 12, 16, 20, 24] {
        let plan = FaultPlan::none().with(
            FaultTrigger::At(SimTime::from_micros(5_000_000)),
            FaultKind::Partition {
                a: vec![2],
                b: vec![0, 1, 3, 4],
                symmetric: true,
                heal_after: Some(SimDuration::from_secs(heal_secs)),
            },
        );
        let mut c = Cluster::new(ClusterConfig {
            workstations: 4,
            seed: 42,
            loss: LossModel::None,
            faults: plan,
            audit_every: Some(SimDuration::from_secs(2)),
            ..ClusterConfig::default()
        });
        c.exec(
            1,
            profiles::simulation_profile(SimDuration::from_secs(40)),
            ExecTarget::Named("ws2".into()),
            Priority::GUEST,
        );
        run_to_quiescence(&mut c, heal_secs);
        assert!(
            c.stats.faults_injected >= 1,
            "heal@{heal_secs}s: partition never applied"
        );
        // The lease machinery was actually engaged.
        assert!(
            c.stations[1].pm.stats().leases_granted >= 1,
            "heal@{heal_secs}s: no lease granted"
        );
        if c.stats.orphans_exterminated > 0 || c.stats.re_execs > 0 {
            exterminated_runs += 1;
        } else {
            survived_runs += 1;
        }
        // One owner, every checkpoint and the final sweep clean.
        let report = c.audit(true);
        assert!(report.is_clean(), "heal@{heal_secs}s: {report}");
        assert!(
            c.audit_reports.iter().all(|r| r.is_clean()),
            "heal@{heal_secs}s: a checkpoint audit caught a split brain"
        );
    }
    assert!(
        exterminated_runs >= 1,
        "sweep never crossed the grace boundary (no extermination branch)"
    );
    assert!(
        survived_runs >= 1,
        "sweep never healed inside the grace window (no survival branch)"
    );
}

/// Disabling orphan extermination must leak an orphan the auditor then
/// reports as lease-expired-but-alive — proving the lease checks in the
/// final audit are not vacuous (the healthy twin of this run stays
/// clean in the matrix soak).
#[test]
fn auditor_catches_disabled_lease_enforcement() {
    let plan = || {
        FaultPlan::none().with(
            FaultTrigger::At(SimTime::from_micros(4_000_000)),
            FaultKind::Crash {
                ws: 1,
                reboot_after: None,
            },
        )
    };
    let run = |enforce: bool| {
        let mut c = Cluster::new(ClusterConfig {
            workstations: 3,
            seed: 11,
            loss: LossModel::None,
            faults: plan(),
            ..ClusterConfig::default()
        });
        if !enforce {
            for w in &mut c.stations {
                w.pm.set_lease_enforcement(false);
            }
        }
        // A long-running remote execution from ws1 onto ws2; the origin
        // then crashes for good, so the lease can never be renewed.
        c.exec(
            1,
            profiles::simulation_profile(SimDuration::from_secs(600)),
            ExecTarget::Named("ws2".into()),
            Priority::GUEST,
        );
        c.run_for(SimDuration::from_secs(120));
        (c.audit(true), c.stats.orphans_exterminated)
    };
    let (broken, exterminated) = run(false);
    assert_eq!(exterminated, 0, "enforcement was supposed to be off");
    assert!(
        broken
            .violations
            .iter()
            .any(|v| matches!(v, AuditViolation::LeaseExpiredButAlive { .. })),
        "expected a lease-expired-but-alive violation, got: {broken}"
    );
    let (healthy, exterminated) = run(true);
    assert!(
        exterminated >= 1,
        "enforcement must exterminate the orphan whose origin died"
    );
    assert!(
        healthy
            .violations
            .iter()
            .all(|v| !matches!(v, AuditViolation::LeaseExpiredButAlive { .. })),
        "enforcement-on run must not leak an expired lease: {healthy}"
    );
}
