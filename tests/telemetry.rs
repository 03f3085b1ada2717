//! Change-point telemetry: each series is a faithful step function of the
//! cluster state, and recording it changes nothing the simulation does.

use v_system::prelude::*;

/// Retention far above what the run records, so nothing is decimated.
const NO_DECIMATION: SamplingSpec = SamplingSpec { capacity: 1 << 20 };

/// Four workstations under a crash plan, with remote execs, scripted
/// migrations, leases and periodic audits.
fn faulted_cluster(sampling: Option<SamplingSpec>) -> Cluster {
    let faults = FaultPlan::by_name("crash_storm", 1985, 5, SimDuration::from_secs(20))
        .expect("known plan name");
    let mut c = Cluster::new(ClusterConfig {
        workstations: 4,
        seed: 1985,
        faults,
        audit_every: Some(SimDuration::from_secs(1)),
        migration: MigrationConfig {
            retry_limit: 3,
            ..MigrationConfig::default()
        },
        sampling,
        ..ClusterConfig::default()
    });
    for ws in 1..=3 {
        c.exec(
            ws,
            profiles::simulation_profile(SimDuration::from_secs(20)),
            ExecTarget::AnyIdle,
            Priority::GUEST,
        );
    }
    for (ws, secs) in [(1usize, 3u64), (2, 5), (3, 7), (4, 9)] {
        c.at(
            SimTime::ZERO + SimDuration::from_secs(secs),
            Command::Migrate {
                ws,
                lh: None,
                destroy_if_stuck: false,
            },
        );
    }
    c
}

/// The six gauges recomputed from public cluster state, through the
/// allocating accessors the auditor uses, in the series' registration
/// order (queue depth, ready, frozen, migrations, leases, retransmit
/// backlog).
fn gauges(c: &Cluster) -> [f64; 6] {
    let mut g = [0usize; 6];
    g[0] = c.pending();
    for w in c.stations.iter().filter(|w| !w.down) {
        g[1] += w.programs.values().filter(|p| p.scheduled).count();
        g[2] += w
            .kernel
            .resident_lhs()
            .into_iter()
            .filter(|&lh| w.kernel.logical_host(lh).is_some_and(|l| l.is_frozen()))
            .count();
        g[3] += w.migrator.active_jobs().len();
        g[4] += w.pm.granted_leases().len();
        g[5] += w.kernel.outstanding_sends().len();
    }
    g.map(|n| n as f64)
}

/// Steps `c` in 1 ms windows until it quiesces or `limit` passes,
/// calling `each` after every window.
fn step_until(c: &mut Cluster, limit: SimTime, mut each: impl FnMut(&Cluster)) {
    while c.pending() > 0 && c.now() < limit {
        c.run_for(SimDuration::from_millis(1));
        each(c);
    }
}

/// Steps `c` in 1 ms windows until it quiesces, calling `each` after
/// every window.
fn step_to_quiescence(c: &mut Cluster, each: impl FnMut(&Cluster)) {
    step_until(c, SimTime::ZERO + SimDuration::from_secs(600), each);
    assert_eq!(c.pending(), 0, "the cluster did not quiesce");
}

/// Like `clusterbench`'s `chaos_observed_8`: eight workstations under
/// the `random` fault plan, owners who come and go and evict their
/// guests, guests started from four workstations, audits every second.
/// Owners never stop coming and going, so this cluster never quiesces.
/// Seed 2's plan crashes a station while it holds leases, so a crash
/// the series missed shows in the `active_leases` check.
fn churning_cluster(span: SimDuration) -> Cluster {
    let faults = FaultPlan::by_name("random", 2, 9, span).expect("known plan name");
    let mut c = Cluster::new(ClusterConfig {
        workstations: 8,
        seed: 2,
        users: Some(UserModelParams {
            mean_active: SimDuration::from_secs(4),
            mean_idle: SimDuration::from_secs(6),
            initially_active: 0.0,
        }),
        evict_on_owner_return: true,
        faults,
        audit_every: Some(SimDuration::from_secs(1)),
        sampling: Some(NO_DECIMATION),
        ..ClusterConfig::default()
    });
    for ws in [1, 3, 5, 7] {
        c.exec(
            ws,
            profiles::simulation_profile(span / 2),
            ExecTarget::AnyIdle,
            Priority::GUEST,
        );
    }
    c
}

/// Steps `c` until it quiesces or `limit` passes and checks that at the
/// end of every 1 ms window, each series' step-function value (its last
/// point at or before now) equals the gauge recomputed from state.
fn assert_series_track_the_state(c: &mut Cluster, limit: SimTime) {
    let mut expected: Vec<(u64, [f64; 6])> = Vec::new();
    step_until(c, limit, |c| {
        expected.push((c.now().as_micros(), gauges(c)));
    });
    let report = c.series_report();
    assert_eq!(report.series.len(), 6);
    for (k, s) in report.series.iter().enumerate() {
        let name = s.name;
        assert_eq!(s.stride, 1, "{name} was decimated");
        assert!(
            s.points
                .windows(2)
                .all(|w| w[0].0 < w[1].0 && w[0].1 != w[1].1),
            "{name}: points must be strictly later and each a change"
        );
        // Non-vacuity: the gauge moved during the run.
        assert!(s.points.len() >= 3, "{name} barely moved: {:?}", s.points);
        for &(t, want) in &expected {
            let i = s.points.partition_point(|p| p.0 <= t);
            assert!(i > 0, "{name}: no value in force at {t} µs");
            assert_eq!(s.points[i - 1].1, want[k], "{name} at {t} µs");
        }
    }
}

/// Four workstations under a crash plan, stepped to quiescence.
#[test]
fn series_step_functions_match_the_cluster_state() {
    let mut c = faulted_cluster(Some(NO_DECIMATION));
    assert_series_track_the_state(&mut c, SimTime::ZERO + SimDuration::from_secs(600));
    assert_eq!(c.pending(), 0, "the cluster did not quiesce");
    assert!(c.stats.faults_injected > 0, "the plan injected nothing");
    assert!(
        c.migration_reports.iter().filter(|m| m.success).count() >= 2,
        "too few migrations completed"
    );
}

/// The same check under owner churn, evictions and random faults, where
/// stations crash, reboot and hand guests to each other mid-run.
#[test]
fn series_track_the_state_under_owner_churn_and_random_faults() {
    let span = SimDuration::from_secs(30);
    let mut c = churning_cluster(span);
    assert_series_track_the_state(&mut c, SimTime::ZERO + span + span);
    assert!(c.stats.faults_injected > 0, "the plan injected nothing");
    assert!(c.stats.owner_evictions > 0, "no owner evicted a guest");
    assert!(
        c.migration_reports.iter().any(|m| m.success),
        "no migration completed"
    );
}

/// Telemetry puts nothing on the queue: the same seed with sampling on and
/// off delivers the same events and produces the same reports and trace.
#[test]
fn sampling_on_and_off_run_identically() {
    let run = |sampling| {
        let mut c = faulted_cluster(sampling);
        step_to_quiescence(&mut c, |_| {});
        c
    };
    let (on, off) = (run(Some(NO_DECIMATION)), run(None));
    assert_eq!(on.events_delivered(), off.events_delivered());
    let reports = |c: &Cluster| format!("{:?} {:?}", c.exec_reports, c.migration_reports);
    assert_eq!(reports(&on), reports(&off));
    assert_eq!(format!("{:?}", on.stats), format!("{:?}", off.stats));
    assert!(*on.trace().records() == *off.trace().records());
    // Only the store differs: filled with sampling on, empty with it off.
    let points = |c: &Cluster| -> Vec<usize> {
        let report = c.series_report();
        report.series.iter().map(|s| s.points.len()).collect()
    };
    assert!(points(&on).iter().all(|&n| n > 0));
    assert_eq!(points(&off), vec![0; 6]);
}
