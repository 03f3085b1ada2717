//! Randomized protocol tests: arbitrary message traffic over lossy wires,
//! with migrations injected at arbitrary points. The reliable-IPC
//! invariants must hold for every seed:
//!
//! 1. every Send eventually completes (reply or clean failure);
//! 2. no transaction is delivered to the application more than once;
//! 3. migration preserves all of the above.
//!
//! Cases are generated from a seeded [`DetRng`], so each run covers the
//! same deterministic set of scenarios.

use vkernel::testkit::{AppEvent, Rig};
use vkernel::{KernelConfig, LogicalHostId, Priority, ProcessId, SendSeq};
use vmem::SpaceLayout;
use vnet::{HostAddr, LossModel};
use vsim::{DetRng, SimDuration, SimTime};

fn spawn(rig: &mut Rig<u32>, i: usize, lh: u32) -> ProcessId {
    let l = rig.kernel_mut(i).create_logical_host(LogicalHostId(lh));
    let team = l.create_space(SpaceLayout::tiny());
    l.create_process(team, Priority::LOCAL, false)
}

#[test]
fn every_send_completes_exactly_once_under_loss() {
    let mut rng = DetRng::seed(0xF00D);
    for _case in 0..24 {
        let seed = rng.range_u64(0, 10_000);
        let loss_pct = rng.range_u64(0, 20) as u32;
        let n_sends = rng.index(29) + 1;
        let cfg = KernelConfig::default();
        let mut rig: Rig<u32> = Rig::with_loss(
            4,
            if loss_pct == 0 {
                LossModel::None
            } else {
                LossModel::Bernoulli(loss_pct as f64 / 100.0)
            },
            cfg,
        );
        // One server per kernel, each echoing the body.
        let servers: Vec<ProcessId> = (0..4).map(|i| spawn(&mut rig, i, 10 + i as u32)).collect();
        let clients: Vec<ProcessId> = (0..4).map(|i| spawn(&mut rig, i, 20 + i as u32)).collect();
        for &s in &servers {
            rig.respond(s, |m| Some(m.body + 1));
        }
        // Seed some (possibly stale-able) bindings.
        for i in 0..4usize {
            for j in 0..4usize {
                rig.kernel_mut(i)
                    .learn_binding(LogicalHostId(10 + j as u32), HostAddr(j as u16));
            }
        }

        let mut issued: Vec<(ProcessId, SendSeq, u32)> = Vec::new();
        for k in 0..n_sends {
            let from_i = (seed as usize + k) % 4;
            let to_i = (seed as usize + k * 7 + 1) % 4;
            let from = clients[from_i];
            let to = servers[to_i];
            let body = k as u32;
            let seq = rig.drive(from_i, |kk, t, out| {
                kk.send(t, from, to.into(), body, 0, out)
            });
            issued.push((from, seq, body));
            // Interleave some progress so traffic overlaps.
            if k % 3 == 0 {
                rig.run_for(SimDuration::from_millis(5));
            }
        }
        rig.run_until(SimTime::MAX);

        // 1. Every send completed exactly once.
        let results = rig.send_results();
        for &(pid, seq, _) in &issued {
            let n = results
                .iter()
                .filter(|(p, s, _)| *p == pid && *s == seq)
                .count();
            assert_eq!(n, 1, "transaction {pid:?}/{seq:?} completed {n} times");
        }
        // 2. With loss < hard limits, everything should actually succeed
        //    (servers always answer; reply-pending + retransmission carry
        //    the rest) — allow failures only at extreme loss.
        if loss_pct <= 5 {
            assert!(
                results.iter().all(|r| r.2),
                "a send failed at {loss_pct}% loss"
            );
        }
        // 3. Each transaction reached the application at most once.
        let mut seen = std::collections::BTreeMap::new();
        for (_, e) in &rig.log {
            if let AppEvent::Delivered(m) = e {
                *seen.entry((m.from, m.seq)).or_insert(0) += 1;
            }
        }
        for (k, v) in seen {
            assert_eq!(v, 1, "transaction {k:?} delivered {v} times");
        }
    }
}

#[test]
fn migration_amid_random_traffic_preserves_invariants() {
    let mut rng = DetRng::seed(0xBEEF);
    for _case in 0..24 {
        let seed = rng.range_u64(0, 10_000);
        let migrate_after_ms = rng.range_u64(1, 50);
        let n_sends = rng.index(14) + 2;
        let mut rig: Rig<u32> = Rig::new(3);
        let victim = spawn(&mut rig, 0, 10); // Will migrate 0 -> 1.
        let clients: Vec<ProcessId> = (0..3).map(|i| spawn(&mut rig, i, 20 + i as u32)).collect();
        rig.respond(victim, |m| Some(m.body * 2));
        for i in 0..3usize {
            rig.kernel_mut(i)
                .learn_binding(LogicalHostId(10), HostAddr(0));
        }

        // Fire sends toward the victim from all hosts, staggered.
        let mut issued = Vec::new();
        for k in 0..n_sends {
            let i = (seed as usize + k) % 3;
            let from = clients[i];
            let seq = rig.drive(i, |kk, t, out| {
                kk.send(t, from, victim.into(), k as u32, 0, out)
            });
            issued.push((from, seq));
            rig.run_for(SimDuration::from_millis(2));
        }

        // Migrate at an arbitrary point.
        rig.run_for(SimDuration::from_millis(migrate_after_ms));
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
        rig.drive(0, |k, t, out| {
            k.delete_logical_host(t, LogicalHostId(10), out)
        });
        rig.drive(1, |k, t, out| {
            k.unfreeze_migrated(t, LogicalHostId(10), out)
        });
        // Keep the responder alive on the new host (the rig routes by
        // pid, which did not change).
        rig.respond(victim, |m| Some(m.body * 2));
        rig.run_until(SimTime::MAX);

        let results = rig.send_results();
        for &(pid, seq) in &issued {
            let n = results
                .iter()
                .filter(|(p, s, _)| *p == pid && *s == seq)
                .count();
            assert_eq!(n, 1, "transaction {pid:?}/{seq:?} completed {n} times");
        }
        // Post-migration the old host holds nothing for lh10.
        assert!(!rig.kernel(0).is_resident(LogicalHostId(10)));
        assert_eq!(rig.kernel(0).forwarding_entries(), 0);
        // And a fresh send still works.
        let from = clients[2];
        rig.drive(2, |kk, t, out| kk.send(t, from, victim.into(), 99, 0, out));
        rig.run_until(SimTime::MAX);
        let last = rig.send_results();
        assert!(last.last().expect("one more result").2);
    }
}
