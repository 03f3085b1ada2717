//! Figure 2-1: communication paths between a program and the servers,
//! local and remote.
//!
//! A program started from ws1 but executing on ws2 talks to:
//!   * the *global* file server (network file server machine),
//!   * the display server of ws1 — the workstation the user sits at,
//!   * the program manager and kernel server of ws2 — the workstation it
//!     executes on, reached through well-known local groups.
//!
//! Everything goes through network-transparent IPC; the program's code is
//! identical to the local case. This example prints which server on which
//! machine handled each interaction.
//!
//! Run with: `cargo run --example communication_paths`

use v_system::prelude::*;

fn main() {
    let mut cluster = Cluster::new(ClusterConfig {
        workstations: 3,
        loss: LossModel::None,
        ..ClusterConfig::default()
    });
    cluster.file_server_mut().add_file("paper.tex", 48 * 1024);

    // A program that exercises every path: reads its input from the file
    // server, computes, writes output, and prints to the user's terminal.
    let row = profiles::row("tex").expect("known");
    let profile = ProgramProfile {
        name: "tex".into(),
        layout: profiles::layout_for("tex"),
        wws: row.fit(),
        phases: vec![
            Phase::FileRead {
                name: "paper.tex".into(),
                bytes: 48 * 1024,
                chunk: 8 * 1024,
            },
            Phase::Compute(SimDuration::from_secs(5)),
            Phase::Display { chars: 400 },
            Phase::FileWrite {
                name: "paper.dvi".into(),
                bytes: 96 * 1024,
                chunk: 8 * 1024,
            },
            Phase::Display { chars: 60 },
        ],
    };

    println!("ws1$ tex paper.tex @ ws2\n");
    cluster.exec(1, profile, ExecTarget::Named("ws2".into()), Priority::GUEST);
    cluster.run_for(SimDuration::from_secs(60));

    let r = &cluster.exec_reports[0];
    assert!(r.success);
    let host = r.chosen_host.expect("a host ran it");
    println!(
        "program ran on : {} ",
        cluster.stations[cluster.index_of(host)].name
    );

    println!("\ncommunication paths exercised (Figure 2-1):");
    println!(
        "  program -> program manager [ws2]   : created/destroyed there ({} programs created)",
        cluster.stations[2].pm.stats().programs_created
    );
    println!(
        "  program -> file server [fileserver]: {} KB read, {} KB written",
        cluster.file_server().stats().bytes_read / 1024,
        cluster.file_server().stats().bytes_written / 1024,
    );
    println!(
        "  program -> display server [ws1]    : {} chars on the *user's* screen",
        cluster.stations[1].display.stats().chars
    );
    println!(
        "  program -> display server [ws2]    : {} chars (none — the frame buffer is ws1's)",
        cluster.stations[2].display.stats().chars
    );
    println!(
        "  image load fileserver -> ws2       : {} KB of program image",
        cluster.file_server().stats().image_bytes / 1024
    );

    let k2 = cluster.stations[2].kernel.stats();
    println!(
        "\nws2 kernel: {} deliveries, {} local-group lookups (kernel server / PM by (lh, index))",
        k2.deliveries, k2.group_lookups
    );
    assert_eq!(cluster.stations[2].display.stats().chars, 0);
    assert_eq!(cluster.stations[1].display.stats().chars, 460);
}
