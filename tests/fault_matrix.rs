//! Exhaustive fault-point matrix soak.
//!
//! [`fault_points`] enumerates every (protocol step × party) combination
//! the runtime can resolve — the five-step migration protocol plus the
//! lease liveness subsystem. These tests drive every registered point ×
//! {crash, partition, corruption} × 16 seeds to quiescence and demand a
//! clean final audit, so coverage of the whole matrix is guaranteed by
//! construction: a new registry entry that no scenario crosses fails the
//! `pending_point_faults` assertion rather than silently shrinking the
//! matrix.

use v_system::prelude::*;

const SEEDS: u64 = 16;

/// Builds the per-cell scenario: a program executed remotely from ws1
/// onto ws2 (so source, target, and origin parties are distinct), plus
/// the precursor fault that makes lease-expiry/re-exec points reachable.
fn run_cell(point: FaultPoint, kind: FaultKind, seed: u64) {
    let mut plan = FaultPlan::none();
    // Precursor: silence one end of the lease so the expiry machinery has
    // something to do. Holder-side expiry needs a silent origin;
    // origin-side expiry and re-exec need a silent holder.
    let precursor = match (point.step, point.party) {
        (ProtocolStep::LeaseExpiry, Party::Target) => Some(1u16),
        (ProtocolStep::LeaseExpiry, Party::Origin) | (ProtocolStep::ReExec, _) => Some(2u16),
        _ => None,
    };
    if let Some(ws) = precursor {
        plan = plan.with(
            FaultTrigger::At(SimTime::from_micros(3_000_000)),
            FaultKind::Crash {
                ws,
                reboot_after: Some(SimDuration::from_secs(30)),
            },
        );
    }
    plan = plan.with(
        FaultTrigger::AtFaultPoint { point, round: None },
        kind.clone(),
    );
    let mut c = Cluster::new(ClusterConfig {
        workstations: 4,
        seed,
        faults: plan,
        migration: MigrationConfig {
            retry_limit: 3,
            ..MigrationConfig::default()
        },
        ..ClusterConfig::default()
    });
    c.exec(
        1,
        profiles::simulation_profile(SimDuration::from_secs(20)),
        ExecTarget::Named("ws2".into()),
        Priority::GUEST,
    );
    // Migration steps need a migration to cross them; lease steps fire
    // from the heartbeat machinery on their own.
    let migration_step = !matches!(
        point.step,
        ProtocolStep::LeaseRenew | ProtocolStep::LeaseExpiry | ProtocolStep::ReExec
    );
    if migration_step {
        c.at(
            SimTime::from_micros(5_000_000),
            Command::Migrate {
                ws: 2,
                lh: None,
                destroy_if_stuck: false,
            },
        );
    }
    c.run_for(SimDuration::from_secs(60));
    for _ in 0..40 {
        if c.pending() == 0 {
            break;
        }
        c.run_for(SimDuration::from_secs(30));
    }
    assert_eq!(
        c.pending(),
        0,
        "{point} seed {seed}: failed to quiesce under {kind:?}"
    );
    assert_eq!(
        c.pending_point_faults(),
        0,
        "{point} seed {seed}: fault point never crossed (vacuous cell)"
    );
    assert!(
        c.stats.faults_injected >= 1,
        "{point} seed {seed}: nothing injected"
    );
    let report = c.audit(true);
    assert!(report.is_clean(), "{point} seed {seed}: {report}");
}

/// Every registered point × 16 seeds, with the party station crashing
/// (and rebooting) at the crossing.
#[test]
fn matrix_crash_every_fault_point() {
    for &point in fault_points() {
        for seed in 0..SEEDS {
            run_cell(
                point,
                FaultKind::Crash {
                    ws: PARTY,
                    reboot_after: Some(SimDuration::from_secs(20)),
                },
                seed,
            );
        }
    }
}

/// Every registered point × 16 seeds, with the party station partitioned
/// from everyone else at the crossing (healing later).
#[test]
fn matrix_partition_every_fault_point() {
    for &point in fault_points() {
        for seed in 0..SEEDS {
            run_cell(
                point,
                FaultKind::Partition {
                    a: vec![PARTY],
                    b: vec![],
                    symmetric: true,
                    heal_after: Some(SimDuration::from_secs(30)),
                },
                seed,
            );
        }
    }
}

/// Every registered point × 16 seeds, with a network-wide corruption
/// window opening at the crossing.
#[test]
fn matrix_corruption_every_fault_point() {
    for &point in fault_points() {
        for seed in 0..SEEDS {
            run_cell(
                point,
                FaultKind::Corrupt {
                    probability: 0.5,
                    duration: SimDuration::from_secs(10),
                },
                seed,
            );
        }
    }
}
