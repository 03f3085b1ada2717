//! Quickstart: `program @ *`.
//!
//! Builds a small cluster, offloads a compile onto "some other lightly
//! loaded machine" (the paper's `@ *`), and prints the timing breakdown
//! §4.1 reports: host selection, environment setup, image load.
//!
//! Run with: `cargo run --example quickstart`

use v_system::prelude::*;

fn main() {
    let mut cluster = Cluster::new(ClusterConfig {
        workstations: 4,
        loss: LossModel::None,
        trace: TraceLevel::Info,
        ..ClusterConfig::default()
    });

    // The paper's parser pass: ~190 KB image, a heavy dirtier.
    let row = profiles::row("parser").expect("known program");
    let job = profiles::steady_profile(row);
    println!("ws1$ {} @ *", job.name);
    cluster.at(
        cluster.now(),
        Command::Exec {
            ws: 1,
            profile: job,
            target: ExecTarget::AnyIdle,
            priority: Priority::GUEST,
        },
    );
    cluster.run_for(SimDuration::from_secs(60));

    let r = cluster.exec_reports[0].clone();
    let name = r.chosen_host.map_or_else(
        || "?".to_string(),
        |h| cluster.stations[cluster.index_of(h)].name.clone(),
    );
    println!(
        "\nexecuted on {name} ({})",
        r.chosen_host.map(|h| h.to_string()).unwrap_or_default()
    );
    println!("  host selection : {}", r.selection_time);
    println!("  create (setup + load) : {}", r.creation_time);
    println!("  start : {}", r.start_time);
    println!("  total : {}", r.total_time);
    println!("  success : {}", r.success);

    // Let it run to completion.
    cluster.run_for(SimDuration::from_secs(30));
    println!(
        "\nprograms finished: {} (CPU went to {name})",
        cluster.stats.programs_finished,
    );

    println!("\n--- metrics ---");
    let m = cluster.metrics_report();
    println!(
        "  IPC sends       : {}",
        m.counter_total(Subsystem::Kernel, "sends")
    );
    println!(
        "  frames on wire  : {}",
        m.counter_total(Subsystem::Net, "frames_sent")
    );
    println!(
        "  guest quanta    : {}",
        m.counter_total(Subsystem::Cluster, "quanta_guest")
    );

    println!("\n--- trace ---");
    for rec in cluster.trace().records().iter() {
        println!("{rec}");
    }
}
