//! §2: "truly distributed programs" — `cc68` as the paper describes it.
//!
//! The C compiler "consists of 5 separate subprograms: a preprocessor, a
//! parser front-end, an optimizer, an assembler, a linking loader, and a
//! control program" (§4.1). Here the control program runs each pass as a
//! subprogram placed by the `@ *` machinery on whatever host is idle, and
//! waits for it through the program manager's WaitProgram — reply-pending
//! packets carry the long wait, exactly the §3.1 machinery.
//!
//! Run with: `cargo run --example distributed_make`

use v_system::prelude::*;

fn main() {
    let mut cluster = Cluster::new(ClusterConfig {
        workstations: 5,
        loss: LossModel::None,
        ..ClusterConfig::default()
    });

    println!("ws1$ cc68 prog.c     (control program + 5 passes)\n");
    cluster.exec(
        1,
        profiles::cc68_pipeline(),
        ExecTarget::Named("ws1".into()),
        Priority::LOCAL,
    );
    cluster.run_for(SimDuration::from_secs(400));

    println!("programs finished : {}", cluster.stats.programs_finished);
    assert_eq!(cluster.stats.programs_finished, 6, "control + 5 passes");

    println!("\nwhere each pass ran:");
    for w in &cluster.stations {
        let created = w.pm.stats().programs_created;
        if created > 0 {
            println!("  {:<12} created {created} program(s)", w.name);
        }
    }

    let rp: u64 = cluster
        .stations
        .iter()
        .map(|w| {
            let s = w.kernel.stats();
            s.reply_pendings_sent + s.reply_pendings_in_service
        })
        .sum();
    println!("\nreply-pending packets sent while the control program waited: {rp}");
    println!(
        "(the §3.1 'operation pending' machinery is what lets a V client\n\
         block on a long-running subprogram without timing out)"
    );
    assert!(rp > 0);
}
