//! The paper's headline scenario (§1, §4.3): idle workstations as a
//! preemptable "pool of processors".
//!
//! A user on ws1 farms a long simulation job out with `@ *`. It lands on
//! an idle workstation. Twenty seconds later that workstation's owner
//! sits down — and the job is migrated away within a couple of seconds,
//! without being restarted and without the owner noticing more than the
//! reclaim delay. The job keeps its process ids, its open state, and its
//! progress.
//!
//! Run with: `cargo run --example preemptable_pool`

use v_system::prelude::*;

fn main() {
    let mut cluster = Cluster::new(ClusterConfig {
        workstations: 5,
        loss: LossModel::None,
        evict_on_owner_return: true,
        trace: TraceLevel::Info,
        ..ClusterConfig::default()
    });

    // A simulation job "with non-trivial running time" (§4.3's main use).
    let job = profiles::simulation_profile(SimDuration::from_secs(300));
    println!("ws1$ simulate @ *");
    cluster.exec(1, job, ExecTarget::AnyIdle, Priority::GUEST);
    cluster.run_for(SimDuration::from_secs(20));

    let lh = cluster.exec_reports[0].lh.expect("job created");
    let first_home = cluster.locate(lh).expect("job resident");
    let owner_ws = cluster.index_of(first_home);
    println!(
        "\njob {lh} is computing on {} (owner away)",
        cluster.stations[owner_ws].name
    );

    // The owner returns...
    println!(
        "\n*** the owner of {} sits down ***",
        cluster.stations[owner_ws].name
    );
    cluster.at(
        cluster.now() + SimDuration::from_millis(1),
        Command::SetOwnerActive {
            ws: owner_ws,
            active: true,
        },
    );
    cluster.run_for(SimDuration::from_secs(30));

    let report = cluster
        .migration_reports
        .first()
        .expect("eviction migration ran");
    let new_home = cluster.locate(lh).expect("job survived");
    println!("\njob {lh} migrated: {} -> {}", first_home, new_home);
    println!("  strategy         : {}", report.strategy);
    println!("  pre-copy rounds  : {}", report.iterations.len());
    for (i, it) in report.iterations.iter().enumerate() {
        println!(
            "    round {}: {} KB in {}",
            i + 1,
            it.bytes / 1024,
            it.duration
        );
    }
    println!("  residual (frozen): {} KB", report.residual_bytes / 1024);
    println!("  freeze time      : {}", report.freeze_time);
    println!("  total migration  : {}", report.total_time);
    println!(
        "  workstation reclaimed in {}",
        cluster.reclaim_times.first().expect("reclaim recorded")
    );

    // The job still finishes.
    cluster.run_for(SimDuration::from_secs(400));
    println!(
        "\njob finished: {} program(s) ran to completion, migrations: {}",
        cluster.stats.programs_finished,
        cluster.migration_reports.len()
    );
    assert_eq!(cluster.stats.programs_finished, 1);

    let m = cluster.metrics_report();
    println!(
        "guest CPU quanta harvested: {}",
        m.counter_total(Subsystem::Cluster, "quanta_guest")
    );
}
