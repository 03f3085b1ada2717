//! A2 — ablation: Demos/MP forwarding addresses vs V's binding-cache
//! rebinding (§5).
//!
//! "Demos/MP relies on a forwarding address remaining on the machine from
//! which the process was migrated ... this leads to failure when this
//! machine is subsequently rebooted and an old reference is still
//! outstanding. In contrast, our use of logical hosts allows a simple
//! rebinding that works without forwarding addresses."
//!
//! Scenario: a client talks to a server program; the program migrates;
//! the old host reboots; the client (with a stale cache) tries again.

use vbench::emit;
use vkernel::testkit::Rig;
use vkernel::{KernelConfig, LogicalHostId, Priority, ProcessId};
use vmem::SpaceLayout;
use vnet::{HostAddr, LossModel};
use vsim::SimTime;

struct Row {
    mode: &'static str,
    works_after_migration: bool,
    forwarded_requests: u64,
    residual_entries_on_old_host: usize,
    works_after_old_host_reboot: bool,
}
vsim::impl_to_json!(Row {
    mode,
    works_after_migration,
    forwarded_requests,
    residual_entries_on_old_host,
    works_after_old_host_reboot
});

/// Runs the scenario; `forwarding` selects Demos/MP mode.
fn scenario(forwarding: bool) -> (Row, vsim::MetricsReport) {
    let cfg = KernelConfig {
        // In Demos/MP mode the V recovery paths are off: no new-binding
        // broadcast, and no invalidate-and-broadcast fallback (the rebind
        // threshold is pushed beyond the give-up limit).
        broadcast_new_binding: !forwarding,
        retransmits_before_rebind: if forwarding { u32::MAX } else { 3 },
    };
    let mut rig: Rig<u32> = Rig::with_loss(3, LossModel::None, cfg);
    let spawn = |rig: &mut Rig<u32>, i: usize, lh: u32| -> ProcessId {
        let l = rig.kernel_mut(i).create_logical_host(LogicalHostId(lh));
        let team = l.create_space(SpaceLayout::tiny());
        l.create_process(team, Priority::LOCAL, false)
    };
    let victim = spawn(&mut rig, 0, 10);
    let client = spawn(&mut rig, 2, 1);
    rig.kernel_mut(2)
        .learn_binding(LogicalHostId(10), HostAddr(0));
    rig.respond(victim, |m| Some(m.body + 1));

    // Baseline exchange.
    rig.drive(2, |k, t, out| k.send(t, client, victim.into(), 1, 0, out));
    rig.run_until(SimTime::MAX);
    assert_eq!(rig.send_results().len(), 1);

    // Migrate lh10 from kernel 0 to kernel 1.
    let temp = LogicalHostId(900);
    rig.kernel_mut(0).freeze(LogicalHostId(10));
    let record = rig.kernel(0).extract_migration_record(LogicalHostId(10));
    {
        let l = rig.kernel_mut(1).create_logical_host(temp);
        for &(sid, layout) in &record.desc.spaces {
            l.create_space_with_id(sid, layout);
        }
    }
    rig.drive(1, |k, t, out| {
        k.install_migration_record(t, temp, &record, out)
    });
    if forwarding {
        rig.drive(0, |k, t, out| {
            k.delete_logical_host_with_forwarding(t, LogicalHostId(10), HostAddr(1), out)
        });
    } else {
        rig.drive(0, |k, t, out| {
            k.delete_logical_host(t, LogicalHostId(10), out)
        });
    }
    rig.drive(1, |k, t, out| {
        k.unfreeze_migrated(t, LogicalHostId(10), out)
    });
    rig.run_until(SimTime::MAX);

    // Client sends again with whatever cache state it has.
    rig.respond(victim, |m| Some(m.body + 1));
    rig.drive(2, |k, t, out| k.send(t, client, victim.into(), 2, 0, out));
    rig.run_until(SimTime::MAX);
    let after_migration = rig.send_results().len() == 2 && rig.send_results()[1].2;
    let forwarded = rig.kernel(0).stats().forwarded_requests;
    let residual = rig.kernel(0).forwarding_entries();

    // Old host reboots: volatile state (forwarding table) is lost. Give
    // the client a stale cache again to model an old reference.
    rig.kernel_mut(0).clear_forwarding();
    rig.kernel_mut(2)
        .learn_binding(LogicalHostId(10), HostAddr(0));
    rig.respond(victim, |m| Some(m.body + 1));
    rig.drive(2, |k, t, out| k.send(t, client, victim.into(), 3, 0, out));
    rig.run_until(SimTime::MAX);
    let results = rig.send_results();
    let after_reboot = results.len() == 3 && results[2].2;

    let mut metrics = vsim::MetricsReport::new();
    for i in 0..3 {
        metrics.push(rig.kernel(i).metrics(&format!("k{i}")));
    }
    let row = Row {
        mode: if forwarding {
            "forwarding addresses (Demos/MP)"
        } else {
            "binding-cache rebinding (V)"
        },
        works_after_migration: after_migration,
        forwarded_requests: forwarded,
        residual_entries_on_old_host: residual,
        works_after_old_host_reboot: after_reboot,
    };
    (row, metrics)
}

fn main() {
    vbench::args(); // start the wall clock; the scenario pair is fixed
    let (v, v_metrics) = scenario(false);
    let (demos, demos_metrics) = scenario(true);
    let mut metrics = v_metrics.prefixed("v");
    metrics.absorb(demos_metrics.prefixed("demos"));
    println!(
        "\nShape check: both work right after migration, but only V's\n\
         broadcast rebinding survives a reboot of the old host — the\n\
         forwarding table was the residual dependency."
    );
    assert!(v.works_after_old_host_reboot);
    assert!(!demos.works_after_old_host_reboot);
    assert_eq!(v.residual_entries_on_old_host, 0);
    emit("abl_forwarding", &[v, demos], &metrics);
}
