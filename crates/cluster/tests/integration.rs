//! Full-stack integration tests: remote execution and migration running
//! over the complete simulated cluster (kernels, services, programs, wire).

use vcluster::{Cluster, ClusterConfig, Command};
use vcore::{ExecTarget, MigrationConfig, StopPolicy, Strategy};
use vkernel::Priority;
use vnet::LossModel;
use vsim::{SamplingSpec, SimDuration, SimTime, Subsystem, TraceEvent, TraceLevel, TraceSinkSpec};
use vworkload::profiles;
use vworkload::{Phase, ProgramProfile};

fn quiet_config(workstations: usize) -> ClusterConfig {
    ClusterConfig {
        workstations,
        loss: LossModel::None,
        ..ClusterConfig::default()
    }
}

fn small_compute_profile(name: &str, secs: u64) -> ProgramProfile {
    let row = profiles::row("make").expect("row exists");
    ProgramProfile::steady(
        name,
        profiles::layout_for("make"),
        row.fit(),
        SimDuration::from_secs(secs),
    )
}

#[test]
fn local_execution_runs_to_completion() {
    let mut c = Cluster::new(quiet_config(2));
    c.exec(
        1,
        small_compute_profile("job", 2),
        ExecTarget::Local,
        Priority::LOCAL,
    );
    c.run_for(SimDuration::from_secs(10));
    assert_eq!(c.exec_reports.len(), 1);
    let r = &c.exec_reports[0];
    assert!(r.success, "{r:?}");
    // A local execution runs on the origin itself, so no lease goes out.
    assert_eq!(r.chosen_host, Some(c.stations[1].host));
    assert_eq!(c.stations[1].pm.stats().leases_granted, 0);
    assert!(c.stations[1].pm.granted_leases().is_empty());
    assert_eq!(r.selection_time, SimDuration::ZERO);
    assert_eq!(c.stats.programs_finished, 1);
    // The program's logical host is gone after exit.
    assert_eq!(c.locate(r.lh.expect("created")), None);
}

#[test]
fn remote_execution_at_star_selects_in_about_23ms() {
    let mut c = Cluster::new(quiet_config(3));
    c.exec(
        1,
        small_compute_profile("job", 1),
        ExecTarget::AnyIdle,
        Priority::GUEST,
    );
    c.run_for(SimDuration::from_secs(10));
    assert_eq!(c.exec_reports.len(), 1);
    let r = c.exec_reports[0].clone();
    assert!(r.success, "{r:?}");
    let sel_ms = r.selection_time.as_secs_f64() * 1e3;
    assert!(
        (sel_ms - 23.0).abs() < 3.0,
        "selection took {sel_ms:.2} ms, paper says 23 ms"
    );
    assert_eq!(c.stats.programs_finished, 1);
}

#[test]
fn remote_execution_at_named_host() {
    let mut c = Cluster::new(quiet_config(3));
    c.exec(
        1,
        small_compute_profile("job", 1),
        ExecTarget::Named("ws2".into()),
        Priority::GUEST,
    );
    c.run_for(SimDuration::from_secs(10));
    let r = c.exec_reports[0].clone();
    assert!(r.success, "{r:?}");
    assert_eq!(r.chosen_host, Some(c.stations[2].host));
}

#[test]
fn remote_program_writes_to_origin_display() {
    // Network transparency (§2, Figure 2-1): a remotely executed program's
    // terminal output appears on the display of the workstation it was
    // started from.
    let mut c = Cluster::new(quiet_config(3));
    let profile = ProgramProfile {
        name: "hello".into(),
        layout: profiles::layout_for("make"),
        wws: profiles::row("make").expect("row").fit(),
        phases: vec![
            Phase::Display { chars: 120 },
            Phase::Compute(SimDuration::from_millis(100)),
        ],
    };
    c.exec(1, profile, ExecTarget::Named("ws2".into()), Priority::GUEST);
    c.run_for(SimDuration::from_secs(10));
    assert!(c.exec_reports[0].success);
    // The chars landed on ws1's display, not ws2's.
    assert_eq!(c.stations[1].display.stats().chars, 120);
    assert_eq!(c.stations[2].display.stats().chars, 0);
}

#[test]
fn remote_program_reads_files_from_global_server() {
    let mut c = Cluster::new(quiet_config(3));
    c.file_server_mut().add_file("input.dat", 64 * 1024);
    let profile = ProgramProfile {
        name: "reader".into(),
        layout: profiles::layout_for("make"),
        wws: profiles::row("make").expect("row").fit(),
        phases: vec![Phase::FileRead {
            name: "input.dat".into(),
            bytes: 64 * 1024,
            chunk: 16 * 1024,
        }],
    };
    c.exec(1, profile, ExecTarget::Named("ws2".into()), Priority::GUEST);
    c.run_for(SimDuration::from_secs(20));
    assert!(c.exec_reports[0].success);
    assert_eq!(c.stats.programs_finished, 1);
    assert_eq!(c.file_server().stats().bytes_read, 64 * 1024);
}

#[test]
fn migration_end_to_end_with_precopy() {
    let mut c = Cluster::new(quiet_config(3));
    // A long-running simulation job on ws2 (started from ws1).
    let profile = profiles::simulation_profile(SimDuration::from_secs(120));
    c.exec(1, profile, ExecTarget::Named("ws2".into()), Priority::GUEST);
    c.run_for(SimDuration::from_secs(20));
    assert!(c.exec_reports[0].success);
    let lh = c.exec_reports[0].lh.expect("program created");
    assert_eq!(c.locate(lh), Some(c.stations[2].host));

    // Evict it from ws2.
    c.migrateprog(2, lh, false);
    c.run_for(SimDuration::from_secs(30));

    assert_eq!(c.migration_reports.len(), 1);
    let r = c.migration_reports[0].clone();
    assert!(r.success, "{r:?}");
    assert_eq!(r.strategy, "pre-copy");
    assert!(
        !r.iterations.is_empty(),
        "at least one unfrozen pre-copy round"
    );
    // The program moved somewhere else and keeps running.
    let new_home = c.locate(lh).expect("still alive");
    assert_ne!(new_home, c.stations[2].host);
    assert_eq!(r.to_host, Some(new_home));
    // No residue on the old host.
    assert!(!c.stations[2].kernel.is_resident(lh));
    assert_eq!(c.stations[2].kernel.forwarding_entries(), 0);
    assert!(c.stations[2].programs.is_empty());

    // Freeze time is in the paper's ballpark: well under a second.
    assert!(
        r.freeze_time < SimDuration::from_millis(500),
        "freeze {}",
        r.freeze_time
    );
    // And the program still finishes.
    c.run_for(SimDuration::from_secs(200));
    assert_eq!(c.stats.programs_finished, 1);
}

#[test]
fn metrics_report_lists_every_scope_and_name_in_order() {
    let mut c = Cluster::new(ClusterConfig {
        workstations: 2,
        loss: LossModel::Bernoulli(0.01),
        ..ClusterConfig::default()
    });
    let profile = profiles::simulation_profile(SimDuration::from_secs(60));
    c.exec(1, profile, ExecTarget::Named("ws2".into()), Priority::GUEST);
    c.run_for(SimDuration::from_secs(20));
    let lh = c.exec_reports[0].lh.expect("program created");
    c.migrateprog(2, lh, false);
    c.run_for(SimDuration::from_secs(30));

    let report = c.metrics_report();
    let scopes: Vec<&str> = report.scopes.iter().map(|s| s.scope.as_str()).collect();
    assert_eq!(
        scopes,
        ["engine", "net", "cluster", "fileserver", "ws1", "ws2"]
    );
    let station: (&[&str], &[&str], &[&str]) = (
        &[
            "sends",
            "replies",
            "deliveries",
            "retransmissions",
            "deferred_requests",
            "reply_pendings_sent",
            "binding_cache_hits",
            "binding_cache_misses",
            "orphaned_transactions",
            "started",
            "succeeded",
            "failed",
            "retried",
        ],
        &[
            "cpu_local_ms",
            "cpu_guest_ms",
            "cpu_idle_ms",
            "cpu_utilization",
        ],
        &[
            "freeze_window_ms",
            "precopy_round_ms",
            "residual_kb",
            "total_ms",
        ],
    );
    let expected: [(&[&str], &[&str], &[&str]); 3] = [
        (
            &["events_scheduled", "events_delivered"],
            &["queue_depth"],
            &[],
        ),
        (
            &[
                "frames_sent",
                "frames_delivered",
                "frames_dropped_loss",
                "frames_dropped_down",
                "frames_dropped_partition",
                "frames_corrupted",
                "frames_sender_down",
                "payload_bytes",
                "wire_busy_us",
            ],
            &[],
            &["frame_payload_bytes"],
        ),
        (
            &[
                "quanta_local",
                "quanta_guest",
                "unroutable_deliveries",
                "owner_evictions",
                "programs_finished",
                "corrupt_frames_dropped",
                "faults_injected",
                "audit_violations",
            ],
            &[],
            &[],
        ),
    ];
    let expected = expected.iter().chain([&station; 3]);
    for (scope, (counters, gauges, histograms)) in report.scopes.iter().zip(expected) {
        let got: Vec<_> = scope.counters.iter().map(|m| m.name).collect();
        assert_eq!(got, *counters, "{} counters", scope.scope);
        let got: Vec<_> = scope.gauges.iter().map(|m| m.name).collect();
        assert_eq!(got, *gauges, "{} gauges", scope.scope);
        let got: Vec<_> = scope.histograms.iter().map(|m| m.name).collect();
        assert_eq!(got, *histograms, "{} histograms", scope.scope);
    }
    assert!(report.counter_total(Subsystem::Kernel, "sends") > 0);
    assert!(report.counter_total(Subsystem::Net, "frames_sent") > 0);
    assert!(report.counter_total(Subsystem::Migration, "started") > 0);

    // Names are artifact keys: snake_case, and one metric kind per
    // `(subsystem, name)`. Series are a separate namespace, so a gauge
    // may also be recorded as a series of the same name.
    let snake = |name: &str| {
        name.starts_with(|c: char| c.is_ascii_lowercase())
            && !name.ends_with('_')
            && !name.contains("__")
            && name
                .chars()
                .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_')
    };
    let mut kinds = std::collections::BTreeMap::new();
    for scope in &report.scopes {
        let counters = scope
            .counters
            .iter()
            .map(|m| (m.subsystem, m.name, "counter"));
        let gauges = scope.gauges.iter().map(|m| (m.subsystem, m.name, "gauge"));
        let histograms = scope
            .histograms
            .iter()
            .map(|m| (m.subsystem, m.name, "histogram"));
        for (subsystem, name, kind) in counters.chain(gauges).chain(histograms) {
            assert!(snake(name), "{subsystem}/{name} is not snake_case");
            let first = *kinds.entry((subsystem, name)).or_insert(kind);
            assert_eq!(
                first, kind,
                "{subsystem}/{name} is both a {first} and a {kind}"
            );
        }
    }
    for s in &c.series_report().series {
        assert!(
            snake(s.name),
            "series {}/{} is not snake_case",
            s.subsystem,
            s.name
        );
    }
}

#[test]
fn freeze_and_copy_baseline_freezes_for_seconds() {
    let mut cfg = quiet_config(3);
    cfg.migration = MigrationConfig {
        strategy: Strategy::FreezeAndCopy,
        ..MigrationConfig::default()
    };
    let mut c = Cluster::new(cfg);
    let profile = profiles::simulation_profile(SimDuration::from_secs(120));
    c.exec(1, profile, ExecTarget::Named("ws2".into()), Priority::GUEST);
    c.run_for(SimDuration::from_secs(20));
    let lh = c.exec_reports[0].lh.expect("created");
    c.migrateprog(2, lh, false);
    c.run_for(SimDuration::from_secs(30));
    let r = c.migration_reports[0].clone();
    assert!(r.success, "{r:?}");
    assert_eq!(r.strategy, "freeze-and-copy");
    assert!(r.iterations.is_empty());
    // ~1 MB program: about 3 seconds frozen.
    assert!(
        r.freeze_time > SimDuration::from_secs(2),
        "freeze {}",
        r.freeze_time
    );
    c.run_for(SimDuration::from_secs(200));
    assert_eq!(c.stats.programs_finished, 1);
}

#[test]
fn precopy_beats_freeze_and_copy_by_orders_of_magnitude() {
    let freeze_time_of = |strategy: Strategy| {
        let mut cfg = quiet_config(3);
        cfg.migration = MigrationConfig {
            strategy,
            ..MigrationConfig::default()
        };
        let mut c = Cluster::new(cfg);
        let profile = profiles::simulation_profile(SimDuration::from_secs(120));
        c.exec(1, profile, ExecTarget::Named("ws2".into()), Priority::GUEST);
        c.run_for(SimDuration::from_secs(20));
        let lh = c.exec_reports[0].lh.expect("created");
        c.migrateprog(2, lh, false);
        c.run_for(SimDuration::from_secs(60));
        assert!(c.migration_reports[0].success);
        c.migration_reports[0].freeze_time
    };
    let pre = freeze_time_of(Strategy::PreCopy(StopPolicy::default()));
    let frz = freeze_time_of(Strategy::FreezeAndCopy);
    let ratio = frz.as_secs_f64() / pre.as_secs_f64();
    assert!(
        ratio > 5.0,
        "pre-copy {pre} vs freeze-and-copy {frz} (ratio {ratio:.1})"
    );
}

#[test]
fn migrateprog_dash_n_destroys_when_no_host() {
    // Only one workstation: nowhere to migrate to.
    let mut c = Cluster::new(quiet_config(1));
    let profile = profiles::simulation_profile(SimDuration::from_secs(120));
    c.exec(1, profile, ExecTarget::Local, Priority::LOCAL);
    c.run_for(SimDuration::from_secs(20));
    let lh = c.exec_reports[0].lh.expect("created");

    c.migrateprog(1, lh, true);
    c.run_for(SimDuration::from_secs(60));
    assert_eq!(c.migration_reports.len(), 1);
    let r = &c.migration_reports[0];
    assert!(!r.success);
    assert_eq!(r.failure, Some(vcore::MigFailure::Destroyed));
    assert_eq!(c.locate(lh), None, "program destroyed");
}

#[test]
fn migrateprog_without_dash_n_keeps_program_when_no_host() {
    let mut c = Cluster::new(quiet_config(1));
    let profile = profiles::simulation_profile(SimDuration::from_secs(60));
    c.exec(1, profile, ExecTarget::Local, Priority::LOCAL);
    c.run_for(SimDuration::from_secs(20));
    let lh = c.exec_reports[0].lh.expect("created");

    c.migrateprog(1, lh, false);
    c.run_for(SimDuration::from_secs(30));
    let r = &c.migration_reports[0];
    assert!(!r.success);
    assert_eq!(r.failure, Some(vcore::MigFailure::NoHostFound));
    // The program is still there and still running.
    assert_eq!(c.locate(lh), Some(c.stations[1].host));
    c.run_for(SimDuration::from_secs(120));
    assert_eq!(c.stats.programs_finished, 1);
}

#[test]
fn owner_return_evicts_guests_within_seconds() {
    let mut cfg = quiet_config(4);
    cfg.evict_on_owner_return = true;
    let mut c = Cluster::new(cfg);
    let profile = profiles::simulation_profile(SimDuration::from_secs(300));
    c.exec(1, profile, ExecTarget::Named("ws2".into()), Priority::GUEST);
    c.run_for(SimDuration::from_secs(20));
    let lh = c.exec_reports[0].lh.expect("created");
    assert_eq!(c.locate(lh), Some(c.stations[2].host));

    // The owner of ws2 sits down.
    let t = c.now();
    c.at(
        t + SimDuration::from_millis(1),
        Command::SetOwnerActive {
            ws: 2,
            active: true,
        },
    );
    c.run_for(SimDuration::from_secs(60));

    assert_eq!(c.stats.owner_evictions, 1);
    assert_eq!(c.reclaim_times.len(), 1, "reclaim recorded");
    let reclaim = c.reclaim_times[0];
    // "A user must be able to quickly reclaim his workstation ... within a
    // few seconds time" (§1).
    assert!(
        reclaim < SimDuration::from_secs(15),
        "reclaim took {reclaim}"
    );
    // The guest kept running elsewhere.
    let home = c.locate(lh).expect("guest survived eviction");
    assert_ne!(home, c.stations[2].host);
}

#[test]
fn owner_return_to_an_empty_station_times_no_reclaim() {
    let mut cfg = quiet_config(2);
    cfg.evict_on_owner_return = true;
    let mut c = Cluster::new(cfg);
    let t = c.now() + SimDuration::from_secs(1);
    c.at(
        t,
        Command::SetOwnerActive {
            ws: 1,
            active: true,
        },
    );
    c.run_for(SimDuration::from_secs(10));
    assert!(c.stations[1].pm.owner_active());
    assert_eq!(c.stats.owner_evictions, 0);
    assert!(c.reclaim_times.is_empty(), "{:?}", c.reclaim_times);
}

#[test]
fn owner_return_leaves_the_owners_local_program_alone() {
    let mut cfg = quiet_config(2);
    cfg.evict_on_owner_return = true;
    let mut c = Cluster::new(cfg);
    let profile = profiles::simulation_profile(SimDuration::from_secs(60));
    c.exec(1, profile, ExecTarget::Local, Priority::LOCAL);
    c.run_for(SimDuration::from_secs(5));
    let lh = c.exec_reports[0].lh.expect("created");
    assert_eq!(c.locate(lh), Some(c.stations[1].host));
    assert_eq!(c.stations[1].guests().count(), 0, "the owner's program");

    let t = c.now() + SimDuration::from_millis(1);
    c.at(
        t,
        Command::SetOwnerActive {
            ws: 1,
            active: true,
        },
    );
    c.run_for(SimDuration::from_secs(10));
    assert_eq!(c.stats.owner_evictions, 0);
    assert!(c.migration_reports.is_empty());
    assert!(c.reclaim_times.is_empty());
    assert_eq!(c.locate(lh), Some(c.stations[1].host));
}

#[test]
fn local_editor_unaffected_by_guest_job() {
    // §2: "a text-editing user need not notice the presence of background
    // jobs" thanks to priority scheduling.
    let response_with_guest = |guest: bool| {
        let mut c = Cluster::new(quiet_config(2));
        if guest {
            let sim = profiles::simulation_profile(SimDuration::from_secs(600));
            c.exec(1, sim, ExecTarget::Named("ws1".into()), Priority::GUEST);
            c.run_for(SimDuration::from_secs(10));
        }
        let editor = profiles::editor_profile(60);
        c.exec(1, editor, ExecTarget::Local, Priority::LOCAL);
        c.run_for(SimDuration::from_secs(120));
        let lh = c
            .exec_reports
            .iter()
            .find(|r| r.image == "edit")
            .and_then(|r| r.lh)
            .expect("editor created");
        // The editor may have finished (and been destroyed); look at its
        // recorded response times via the behaviour if still present, else
        // accept that it finished comfortably.
        c.stations
            .iter()
            .flat_map(|w| w.programs.get(&lh))
            .map(|p| p.behavior.response_times.mean())
            .next()
    };
    // Both configurations should leave the editor responsive; detailed
    // latency comparison is experiment E10's job. Here we just require the
    // editor finished despite a CPU-hungry guest.
    let _ = response_with_guest(false);
    let mut c = Cluster::new(quiet_config(2));
    let sim = profiles::simulation_profile(SimDuration::from_secs(600));
    c.exec(1, sim, ExecTarget::Named("ws1".into()), Priority::GUEST);
    c.run_for(SimDuration::from_secs(10));
    c.exec(
        1,
        profiles::editor_profile(40),
        ExecTarget::Local,
        Priority::LOCAL,
    );
    c.run_for(SimDuration::from_secs(120));
    assert!(
        c.stats.programs_finished >= 1,
        "editor finished despite the guest"
    );
}

#[test]
fn vm_flush_migration_works_and_double_copies_dirty_pages() {
    let mut cfg = quiet_config(3);
    cfg.migration = MigrationConfig {
        strategy: Strategy::VmFlush {
            stop: StopPolicy::default(),
        },
        ..MigrationConfig::default()
    };
    let mut c = Cluster::new(cfg);
    let profile = profiles::simulation_profile(SimDuration::from_secs(120));
    c.exec(1, profile, ExecTarget::Named("ws2".into()), Priority::GUEST);
    c.run_for(SimDuration::from_secs(20));
    let lh = c.exec_reports[0].lh.expect("created");
    c.migrateprog(2, lh, false);
    c.run_for(SimDuration::from_secs(60));
    let r = c.migration_reports[0].clone();
    assert!(r.success, "{r:?}");
    assert_eq!(r.strategy, "vm-flush");
    assert!(r.double_copied_bytes > 0);
    // VM-flush ships only written pages, so it moves less data
    // source-side than a full pre-copy of the ~1 MB program would.
    assert!(r.precopied_bytes() + r.residual_bytes < 1024 * 1024);
    // The program survived...
    let home = c.locate(lh).expect("program alive");
    // ...and the new host really demand-fetched the flushed pages back
    // from the paging store (CopyFrom traffic, §3.2's second transfer).
    c.run_for(SimDuration::from_secs(30));
    let target = c.index_of(home);
    assert_eq!(
        c.stations[target].pm.stats().fetched_bytes,
        r.double_copied_bytes,
        "exactly the unique flushed pages came back over the wire"
    );
    assert!(c.stations[target].pm.stats().fetched_bytes > 0);
    assert_eq!(c.stations[0].kernel.stats().pulls_served, 1);
}

#[test]
fn deterministic_given_same_seed() {
    let run = || {
        let mut c = Cluster::new(quiet_config(3));
        c.exec(
            1,
            small_compute_profile("job", 3),
            ExecTarget::AnyIdle,
            Priority::GUEST,
        );
        c.run_for(SimDuration::from_secs(30));
        (
            c.exec_reports[0].selection_time,
            c.exec_reports[0].total_time,
            c.net.stats().frames_sent,
            c.events_delivered(),
        )
    };
    assert_eq!(run(), run());
}

#[test]
fn cluster_survives_running_past_all_events() {
    let mut c = Cluster::new(quiet_config(2));
    c.run_until(SimTime::ZERO + SimDuration::from_secs(5));
    assert!(c.now() <= SimTime::ZERO + SimDuration::from_secs(5));
}

#[test]
fn scheduled_crash_and_reboot_take_a_station_down_and_back() {
    let mut c = Cluster::new(quiet_config(3));
    let t = |ms| SimTime::ZERO + SimDuration::from_millis(ms);
    c.at(t(1_000), Command::Crash { ws: 2 });
    c.at(t(1_500), Command::Reboot { ws: 2 });
    c.run_until(t(1_200));
    assert!(c.stations[2].down);
    c.run_until(t(2_000));
    assert!(!c.stations[2].down);
}

/// A reboot shorter than one CPU quantum: the quantum armed before the
/// crash still fires after the reboot has dispatched a fresh one. The
/// scheduler ignores it, so the station delivers no more CPU than time
/// passed.
#[test]
fn reboot_within_a_quantum_does_not_double_book_the_cpu() {
    let mut c = Cluster::new(quiet_config(2));
    c.exec(
        1,
        small_compute_profile("job", 60),
        ExecTarget::Local,
        Priority::LOCAL,
    );
    let crash = SimTime::ZERO + SimDuration::from_millis(2_003);
    c.at(crash, Command::Crash { ws: 1 });
    c.at(
        crash + SimDuration::from_millis(1),
        Command::Reboot { ws: 1 },
    );
    let end = crash + SimDuration::from_secs(10);
    c.run_until(end);
    let elapsed = end.saturating_since(SimTime::ZERO);
    let w = &c.stations[1];
    let cpu = w.cpu_local + w.cpu_guest;
    assert!(cpu <= elapsed, "{cpu} of CPU in {elapsed}");
    // Non-vacuity: the job kept running after the reboot.
    assert!(cpu >= SimDuration::from_secs(10), "only {cpu} of CPU");
}

/// The kernel re-arms retransmission on reboot. After a reboot shorter
/// than the retransmission interval, the timer armed before the crash is
/// still queued; the kernel ignores it, so a blocked send retransmits on
/// the same schedule whatever the downtime.
#[test]
fn reboot_within_a_retransmit_interval_keeps_one_retransmit_schedule() {
    let retransmits_after_reboot = |down: SimDuration| {
        let mut c = Cluster::new(quiet_config(2));
        let t = |ms| SimTime::ZERO + SimDuration::from_millis(ms);
        // With the file server down, ws1's image load blocks in
        // retransmission.
        c.at(t(0), Command::Crash { ws: 0 });
        let job = small_compute_profile("job", 1);
        c.exec(1, job, ExecTarget::Local, Priority::LOCAL);
        c.at(t(2_000), Command::Crash { ws: 1 });
        c.at(t(2_000) + down, Command::Reboot { ws: 1 });
        c.run_until(t(2_000) + down);
        let before = c.stations[1].kernel.stats().retransmissions;
        c.run_for(SimDuration::from_secs(3));
        c.stations[1].kernel.stats().retransmissions - before
    };
    let long = retransmits_after_reboot(SimDuration::from_secs(3));
    assert!(long > 0, "the load did not block in retransmission");
    assert_eq!(retransmits_after_reboot(SimDuration::from_millis(1)), long);
}

/// Periodic audits re-arm only while other work is pending, and telemetry
/// schedules nothing, so with both switched on the cluster still quiesces
/// once its one short program is done.
#[test]
fn audit_ticks_stop_at_quiescence() {
    let mut c = Cluster::new(ClusterConfig {
        audit_every: Some(SimDuration::from_secs(1)),
        sampling: Some(SamplingSpec::default()),
        ..quiet_config(2)
    });
    c.exec(
        1,
        small_compute_profile("job", 2),
        ExecTarget::Local,
        Priority::LOCAL,
    );
    for _ in 0..10 {
        if c.pending() == 0 {
            break;
        }
        c.run_for(SimDuration::from_secs(30));
    }
    assert_eq!(c.pending(), 0, "audit ticks kept the queue alive");
    assert!(c.exec_reports[0].success);
    assert!(!c.audit_reports.is_empty(), "no periodic audit ran");
    let series = c.series_report();
    assert!(
        series.series.iter().all(|s| !s.points.is_empty()),
        "a series recorded nothing"
    );
    // The queue drained, so its depth series ends at zero.
    let depth = series.series("queue_depth").expect("default series");
    assert_eq!(depth.points.last().map(|p| p.1), Some(0.0));
}

/// Every delivered event is charged to exactly one profiler slot, under
/// faults, audits and sampling alike: the dispatch profile is a complete
/// account of the run (clusterbench's `vsim.queue_s` relies on it). A
/// frame event counts one dispatch per receiver, so the `Frame` slot
/// equals the wire's deliveries however the receivers were queued.
#[test]
fn dispatch_profile_charges_every_delivered_event() {
    use vsim::{DetRng, FaultKind, FaultPlan, FaultTrigger};
    let partition = FaultKind::Partition {
        a: vec![1],
        b: vec![2],
        symmetric: true,
        heal_after: Some(SimDuration::from_secs(2)),
    };
    let faults = FaultPlan::random(&mut DetRng::seed(11), 5, SimDuration::from_secs(20))
        .with(FaultTrigger::At(SimTime::from_micros(2_000_000)), partition);
    let mut c = Cluster::new(ClusterConfig {
        workstations: 4,
        seed: 11,
        faults,
        audit_every: Some(SimDuration::from_secs(1)),
        sampling: Some(SamplingSpec::default()),
        ..ClusterConfig::default()
    });
    for ws in 1..=3 {
        c.exec(
            ws,
            small_compute_profile("job", 5),
            ExecTarget::AnyIdle,
            Priority::GUEST,
        );
    }
    c.at(
        SimTime::ZERO + SimDuration::from_secs(3),
        Command::Migrate {
            ws: 1,
            lh: None,
            destroy_if_stuck: false,
        },
    );
    for _ in 0..40 {
        if c.pending() == 0 {
            break;
        }
        c.run_for(SimDuration::from_secs(30));
    }
    assert_eq!(c.pending(), 0, "the cluster failed to quiesce");
    assert!(c.stats.faults_injected > 0, "the plan injected nothing");
    let profile = c.profile_report();
    let charged: u64 = profile.slots.iter().map(|s| s.dispatches).sum();
    let frames = profile.slot("Frame").expect("interned slot").dispatches;
    assert_eq!(frames, c.net.stats().deliveries, "one per receiver");
    // The other kinds count one per event, and at least one frame event
    // was queued per fan-out, at most one per receiver.
    let others = charged - frames;
    assert!(others < c.events_delivered(), "no frame event delivered");
    assert!(c.events_delivered() <= charged, "an event went uncharged");
    for kind in [
        "ApplyFault",
        "HealPartition",
        "AuditTick",
        "Command",
        "Frame",
        "QuantumEnd",
    ] {
        let slot = profile.slot(kind).expect("interned slot");
        assert!(slot.dispatches > 0, "no {kind} dispatch was charged");
    }
}

#[test]
fn cc68_pipeline_decomposes_onto_other_hosts() {
    // §2 / §4.1 footnote: cc68 runs five passes as subprograms, each
    // placed by the @* machinery and awaited via WaitProgram.
    let mut c = Cluster::new(quiet_config(4));
    c.exec(
        1,
        profiles::cc68_pipeline(),
        ExecTarget::Named("ws1".into()),
        Priority::LOCAL,
    );
    c.run_for(SimDuration::from_secs(400));
    // Control program + 5 passes all finished.
    assert_eq!(c.stats.programs_finished, 6, "control + five passes");
    let pass_reports: Vec<_> = c
        .exec_reports
        .iter()
        .filter(|r| r.image != "cc68")
        .collect();
    assert!(
        pass_reports.is_empty(),
        "passes are spawned by the program, not the shell"
    );
    // Each PM that hosted a pass created a program.
    let created: u64 = c
        .stations
        .iter()
        .map(|w| w.pm.stats().programs_created)
        .sum();
    assert_eq!(created, 6);
}

#[test]
fn suspend_and_resume_work_remotely() {
    // §2: suspension works "independent of whether the program is
    // executing locally or remotely". Suspend = freeze in place.
    let mut c = Cluster::new(quiet_config(3));
    let profile = profiles::simulation_profile(SimDuration::from_secs(30));
    c.exec(1, profile, ExecTarget::Named("ws2".into()), Priority::GUEST);
    c.run_for(SimDuration::from_secs(10));
    let lh = c.exec_reports[0].lh.expect("created");

    // Suspend from ws1, across the network.
    c.suspendprog(1, lh);
    c.run_for(SimDuration::from_secs(30));
    assert!(
        c.stations[2]
            .kernel
            .logical_host(lh)
            .expect("resident")
            .is_frozen(),
        "suspended"
    );
    let cpu_at_suspend = cpu_of(&c, lh);
    c.run_for(SimDuration::from_secs(10));
    assert_eq!(cpu_of(&c, lh), cpu_at_suspend, "no CPU while suspended");

    // Resume, also remotely.
    c.resumeprog(1, lh);
    c.run_for(SimDuration::from_secs(60));
    assert_eq!(c.stats.programs_finished, 1, "finished after resume");
}

#[test]
fn suspended_program_survives_migration() {
    // Migrating a *suspended* program: the freeze flag is part of the
    // kernel state; after eviction it resumes only when asked.
    let mut c = Cluster::new(quiet_config(3));
    let profile = profiles::simulation_profile(SimDuration::from_secs(60));
    c.exec(1, profile, ExecTarget::Named("ws2".into()), Priority::GUEST);
    c.run_for(SimDuration::from_secs(10));
    let lh = c.exec_reports[0].lh.expect("created");
    c.suspendprog(1, lh);
    c.run_for(SimDuration::from_secs(5));

    c.migrateprog(2, lh, false);
    c.run_for(SimDuration::from_secs(60));
    let r = &c.migration_reports[0];
    assert!(r.success, "{r:?}");
    // After migration the program is unfrozen (unfreeze_migrated) on its
    // new host and eventually finishes.
    c.run_for(SimDuration::from_secs(120));
    assert_eq!(c.stats.programs_finished, 1);
}

fn cpu_of(c: &Cluster, lh: vkernel::LogicalHostId) -> u64 {
    c.stations
        .iter()
        .find_map(|w| w.programs.get(&lh))
        .map(|p| p.behavior.stats().cpu_micros)
        .unwrap_or(u64::MAX)
}

#[test]
fn file_server_crash_fails_program_load_cleanly() {
    let mut c = Cluster::new(quiet_config(2));
    let profile = profiles::simulation_profile(SimDuration::from_secs(30));
    // Crash the file-server machine just as the load begins.
    let t = c.now();
    c.at(t + SimDuration::from_millis(100), Command::Crash { ws: 0 });
    c.exec(1, profile, ExecTarget::Named("ws2".into()), Priority::GUEST);
    c.run_for(SimDuration::from_secs(120));
    assert_eq!(c.exec_reports.len(), 1, "execution resolved");
    assert!(!c.exec_reports[0].success, "load must fail, not hang");
    assert_eq!(c.stats.programs_finished, 0);
}

/// Churn: hours of simulated cluster life — owners coming and going with
/// auto-eviction, jobs arriving at random — must settle with conservation
/// invariants intact.
#[test]
fn long_churn_preserves_invariants() {
    use vsim::DetRng;
    use vworkload::UserModelParams;
    let cfg = ClusterConfig {
        workstations: 8,
        seed: 777,
        loss: LossModel::Bernoulli(1e-3),
        users: Some(UserModelParams {
            mean_active: SimDuration::from_secs(120),
            mean_idle: SimDuration::from_secs(300),
            initially_active: 0.3,
        }),
        evict_on_owner_return: true,
        ..ClusterConfig::default()
    };
    let mut c = Cluster::new(cfg);
    let mut rng = DetRng::seed(31337);
    let horizon = SimDuration::from_secs(1800); // Half a simulated hour.
    let mut t = SimTime::ZERO;
    let mut issued = 0;
    loop {
        t += SimDuration::from_secs_f64(rng.exp_f64(60.0));
        if t >= SimTime::ZERO + horizon {
            break;
        }
        let name = *rng.pick(&["make", "cc68", "optimizer", "assembler"]);
        let row = profiles::row(name).expect("known");
        c.at(
            t,
            Command::Exec {
                ws: 1 + rng.index(8),
                profile: profiles::steady_profile(row),
                target: ExecTarget::AnyIdle,
                priority: vkernel::Priority::GUEST,
            },
        );
        issued += 1;
    }
    c.run_until(SimTime::ZERO + horizon);
    // Drain whatever is still in flight.
    c.run_for(SimDuration::from_secs(300));

    assert_eq!(c.exec_reports.len(), issued, "every request resolved");
    let succeeded = c.exec_reports.iter().filter(|r| r.success).count();
    assert!(
        succeeded * 10 >= issued * 9,
        "{succeeded}/{issued} honored — the paper says almost all"
    );
    // Conservation: finished + still-running == succeeded.
    let still_running: usize = c.stations.iter().map(|w| w.programs.len()).sum();
    assert_eq!(
        c.stats.programs_finished as usize + still_running,
        succeeded,
        "no program lost or duplicated"
    );
    // Every surviving logical host lives on exactly one station, and its
    // behaviour lives where its kernel state lives.
    for r in &c.exec_reports {
        let Some(lh) = r.lh else { continue };
        let kernel_homes: Vec<_> = c
            .stations
            .iter()
            .filter(|w| w.kernel.is_resident(lh))
            .map(|w| w.host)
            .collect();
        let behavior_homes: Vec<_> = c
            .stations
            .iter()
            .filter(|w| w.programs.contains_key(&lh))
            .map(|w| w.host)
            .collect();
        assert!(kernel_homes.len() <= 1, "{lh} kernel state duplicated");
        assert_eq!(kernel_homes, behavior_homes, "{lh} split brain");
    }
    // All migrations that claimed success really evicted.
    for m in &c.migration_reports {
        if m.success {
            assert_ne!(Some(m.from_host), m.to_host);
        }
    }
}

#[test]
fn migration_emits_typed_trace_timeline() {
    let mut c = Cluster::new(ClusterConfig {
        trace: TraceLevel::Detail,
        ..quiet_config(3)
    });
    let profile = profiles::simulation_profile(SimDuration::from_secs(120));
    c.exec(1, profile, ExecTarget::Named("ws2".into()), Priority::GUEST);
    c.run_for(SimDuration::from_secs(20));
    let lh = c.exec_reports[0].lh.expect("program created");
    c.migrateprog(2, lh, false);
    c.run_for(SimDuration::from_secs(30));
    assert!(c.migration_reports[0].success);

    // Kernels, migrators and the wire share the cluster trace; assert on
    // it structurally — no message grepping.
    let n = lh.0;
    assert_eq!(
        c.trace()
            .count_matching(|e| matches!(e, TraceEvent::Freeze { lh } if *lh == n)),
        1,
        "pre-copy freezes exactly once, at the end"
    );
    assert_eq!(
        c.trace()
            .count_matching(|e| matches!(e, TraceEvent::Unfreeze { lh } if *lh == n)),
        1
    );
    assert!(
        c.trace()
            .count_matching(|e| matches!(e, TraceEvent::PrecopyRound { lh, .. } if *lh == n))
            >= 1,
        "at least one unfrozen pre-copy round traced"
    );
    assert_eq!(
        c.trace().count_matching(|e| matches!(
            e,
            TraceEvent::MigrationDone { lh, success: true, .. } if *lh == n
        )),
        1
    );
    assert_eq!(
        c.trace()
            .count_matching(|e| matches!(e, TraceEvent::Rebind { lh, .. } if *lh == n)),
        1
    );
    // And the timeline is ordered: every pre-copy round precedes the
    // freeze, which precedes the unfreeze.
    let pos = |pred: &dyn Fn(&TraceEvent) -> bool| {
        c.trace()
            .records()
            .iter()
            .position(|r| pred(&r.event))
            .expect("event present")
    };
    let freeze_at = pos(&|e| matches!(e, TraceEvent::Freeze { lh } if *lh == n));
    let unfreeze_at = pos(&|e| matches!(e, TraceEvent::Unfreeze { lh } if *lh == n));
    let round_at = pos(&|e| matches!(e, TraceEvent::PrecopyRound { lh, .. } if *lh == n));
    assert!(round_at < freeze_at && freeze_at < unfreeze_at);
}

/// Runs one program from ws1 on ws2 and migrates it once, for 70 s.
fn one_migration_run(trace_sink: TraceSinkSpec) -> Cluster {
    let mut c = Cluster::new(ClusterConfig {
        seed: 11,
        trace: TraceLevel::Detail,
        trace_sink,
        ..quiet_config(3)
    });
    let profile = profiles::simulation_profile(SimDuration::from_secs(120));
    c.exec(1, profile, ExecTarget::Named("ws2".into()), Priority::GUEST);
    c.run_for(SimDuration::from_secs(20));
    let lh = c.exec_reports[0].lh.expect("program created");
    c.migrateprog(2, lh, false);
    c.run_for(SimDuration::from_secs(50));
    assert!(c.migration_reports[0].success);
    c
}

#[test]
fn ring_trace_keeps_the_latest_records_of_every_component() {
    let full = one_migration_run(TraceSinkSpec::Unbounded);
    let ring = one_migration_run(TraceSinkSpec::Ring(64));
    let all = full.trace().records();
    assert!(all.len() > 64, "the run must overflow the ring");
    assert_eq!(&*ring.trace().records(), &all[all.len() - 64..]);
    assert_eq!(ring.trace().records_dropped(), (all.len() - 64) as u64);
}

#[test]
fn remote_exec_emits_typed_exec_done() {
    let mut c = Cluster::new(ClusterConfig {
        trace: TraceLevel::Info,
        ..quiet_config(3)
    });
    c.exec(
        1,
        small_compute_profile("job", 1),
        ExecTarget::AnyIdle,
        Priority::GUEST,
    );
    c.run_for(SimDuration::from_secs(10));
    assert_eq!(
        c.trace().count_matching(|e| matches!(
            e,
            TraceEvent::ExecDone {
                success: true,
                host: Some(_),
                ..
            }
        )),
        1
    );
    assert_eq!(
        c.trace()
            .count_matching(|e| matches!(e, TraceEvent::ProgramStarted { .. })),
        1
    );
}

/// A broadcast's receivers share one queue entry, but each is still fed
/// on its own: a station that crashes after the transmit and before the
/// arrival drops the frame, and every other receiver handles it.
#[test]
fn a_receiver_crashing_before_a_broadcast_arrives_drops_it_alone() {
    use vcluster::Event;
    use vkernel::{LogicalHostId, Packet};
    use vnet::Frame;
    let mut c = Cluster::new(quiet_config(4));
    let (lh, sender) = (LogicalHostId(777), c.stations[1].host);
    let pkt = Packet::NewBinding { lh, host: sender };
    let frame = Frame::broadcast(sender, pkt.wire_bytes(), pkt);
    let t = SimTime::from_micros(1_000);
    c.engine.schedule_at(
        t,
        Event::Transmit {
            frame: Box::new(frame),
        },
    );
    // The frame is on the wire for well over a microsecond.
    c.at(t + SimDuration::from_micros(1), Command::Crash { ws: 3 });
    let delivered = c.events_delivered();
    c.run_for(SimDuration::from_secs(1));
    assert_eq!(c.net.stats().deliveries, 4, "all four were up at transmit");
    for i in [0, 2, 4] {
        let cache = c.stations[i].kernel.binding_cache();
        assert_eq!(cache.peek(lh), Some(sender), "station {i} missed it");
    }
    assert_eq!(c.stations[3].kernel.binding_cache().peek(lh), None);
    // The transmit, the crash and one event for the four receivers, which
    // the profile still counts one by one.
    assert_eq!(c.events_delivered() - delivered, 3);
    let frames = c.profile_report().slot("Frame").map(|s| s.dispatches);
    assert_eq!(frames, Some(4));
}
