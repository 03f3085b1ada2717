//! Interkernel protocol tests: Send/Reply over the wire, retransmission,
//! reply retention, freeze semantics, groups, bulk copy and the kernel-level
//! migration record — the §3.1 machinery, exercised end to end on the
//! two-to-three kernel test rig.

use vkernel::testkit::{AppEvent, Rig};
use vkernel::{
    Destination, GroupId, KernelConfig, LogicalHostId, Priority, ProcessId, SendError,
    PROGRAM_MANAGER_INDEX,
};
use vmem::SpaceLayout;
use vnet::{HostAddr, LossModel, McastGroup};
use vsim::{calib, SimDuration, SimTime, SpanTree, Subsystem, TraceEvent};

type Body = u32;

/// Creates a one-process logical host `lh` on kernel `i`; returns its pid.
fn spawn(rig: &mut Rig<Body>, i: usize, lh: u32) -> ProcessId {
    let l = rig.kernel_mut(i).create_logical_host(LogicalHostId(lh));
    let team = l.create_space(SpaceLayout::tiny());
    l.create_process(team, Priority::LOCAL, false)
}

fn run_all(rig: &mut Rig<Body>) {
    rig.run_until(SimTime::MAX);
}

#[test]
fn local_send_reply_round_trip() {
    let mut rig: Rig<Body> = Rig::new(1);
    let a = spawn(&mut rig, 0, 1);
    let b = {
        let l = rig.kernel_mut(0).create_logical_host(LogicalHostId(2));
        let team = l.create_space(SpaceLayout::tiny());
        l.create_process(team, Priority::LOCAL, false)
    };
    rig.respond(b, |m| Some(m.body + 1));
    rig.drive(0, |k, t, out| k.send(t, a, b.into(), 41, 0, out));
    run_all(&mut rig);
    let results = rig.send_results();
    assert_eq!(results.len(), 1);
    assert!(results[0].2, "local send should succeed");
    // No frames were needed.
    assert_eq!(rig.net.stats().frames_sent, 0);
    assert_eq!(rig.kernel(0).stats().local_sends, 1);
}

#[test]
fn remote_send_with_cached_binding() {
    let mut rig: Rig<Body> = Rig::new(2);
    let a = spawn(&mut rig, 0, 1);
    let b = spawn(&mut rig, 1, 2);
    rig.kernel_mut(0)
        .learn_binding(LogicalHostId(2), HostAddr(1));
    rig.respond(b, |m| Some(m.body * 2));
    rig.drive(0, |k, t, out| k.send(t, a, b.into(), 21, 0, out));
    run_all(&mut rig);
    assert_eq!(rig.send_results(), vec![(a, vkernel::SendSeq(0), true)]);
    // One request frame, one reply frame.
    assert_eq!(rig.net.stats().frames_sent, 2);
    assert_eq!(rig.kernel(1).stats().deliveries, 1);
    // The reply taught kernel 0 nothing new, but kernel 1 learned lh1's
    // binding from the incoming request.
    assert_eq!(
        rig.kernel(1).binding_cache().peek(LogicalHostId(1)),
        Some(HostAddr(0))
    );
}

#[test]
fn remote_send_without_binding_broadcasts_and_learns() {
    let mut rig: Rig<Body> = Rig::new(3);
    let a = spawn(&mut rig, 0, 1);
    let b = spawn(&mut rig, 2, 2);
    rig.respond(b, |m| Some(m.body));
    rig.drive(0, |k, t, out| k.send(t, a, b.into(), 7, 0, out));
    run_all(&mut rig);
    assert_eq!(rig.send_results().len(), 1);
    assert!(rig.send_results()[0].2);
    assert_eq!(rig.kernel(0).stats().broadcast_requests, 1);
    // The reply taught kernel 0 where lh2 lives.
    assert_eq!(
        rig.kernel(0).binding_cache().peek(LogicalHostId(2)),
        Some(HostAddr(2))
    );
    // Kernel 1 heard the broadcast but does not host lh2: dropped.
    assert_eq!(rig.kernel(1).stats().not_here, 1);
}

#[test]
fn lost_request_recovered_by_retransmission() {
    // Drop exactly the first delivery (the request); the retransmission
    // gets through and the exchange completes.
    let mut rig: Rig<Body> = Rig::with_loss(2, LossModel::FirstN(1), KernelConfig::default());
    let a = spawn(&mut rig, 0, 1);
    let b = spawn(&mut rig, 1, 2);
    rig.kernel_mut(0)
        .learn_binding(LogicalHostId(2), HostAddr(1));
    rig.respond(b, |m| Some(m.body));
    rig.drive(0, |k, t, out| k.send(t, a, b.into(), 1, 0, out));
    run_all(&mut rig);
    assert_eq!(rig.send_results(), vec![(a, vkernel::SendSeq(0), true)]);
    // The retransmission is visible as a typed trace event, not a log line.
    assert!(
        rig.trace()
            .count_matching(|e| matches!(e, TraceEvent::Retransmit { lh: 2, .. }))
            >= 1
    );
    // Exactly one application-level delivery despite the loss.
    assert_eq!(rig.kernel(1).stats().deliveries, 1);
}

#[test]
fn lost_reply_served_from_reply_cache() {
    // Delivery 1 = request (passes: drop the 2nd only), delivery 2 = reply
    // (DROPPED). The sender retransmits; the replier answers from its
    // reply cache without re-delivering to the application.
    let mut rig: Rig<Body> = Rig::with_loss(
        2,
        LossModel::EveryNth(2),
        KernelConfig {
            // With EveryNth(2) every second delivery drops; request (odd)
            // passes, reply (even) drops, retransmitted request (odd)
            // passes, cached reply (even) drops, ... until an odd slot
            // carries the reply. Insert a jitter-free warm-up so phases
            // shift: simplest is to accept several rounds; retransmission
            // interval is 0.5 s so give it time.
            ..KernelConfig::default()
        },
    );
    let a = spawn(&mut rig, 0, 1);
    let b = spawn(&mut rig, 1, 2);
    rig.kernel_mut(0)
        .learn_binding(LogicalHostId(2), HostAddr(1));
    rig.respond(b, |m| Some(m.body));
    rig.drive(0, |k, t, out| k.send(t, a, b.into(), 1, 0, out));
    // With a strict alternating drop pattern, each retransmission round is
    // request(pass) + reply(drop) + reply-pending? No: the reply comes from
    // the cache as a single frame, so rounds are 2 deliveries and the
    // pattern never breaks... except ReplyPending/odd-even drift from the
    // retention-refresh traffic. Run long enough and assert on stats
    // instead of completion below; then switch phase with FirstN to prove
    // completion.
    rig.run_for(SimDuration::from_secs(3));
    assert!(rig.kernel(0).stats().retransmissions >= 1);
    assert_eq!(
        rig.kernel(1).stats().deliveries,
        1,
        "reply cache must suppress re-delivery"
    );

    // Deterministic completion variant: drop only the reply (delivery 2).
    let mut rig: Rig<Body> = Rig::with_loss(2, LossModel::EveryNth(0), KernelConfig::default());
    let a = spawn(&mut rig, 0, 1);
    let b = spawn(&mut rig, 1, 2);
    rig.kernel_mut(0)
        .learn_binding(LogicalHostId(2), HostAddr(1));
    rig.respond(b, |m| Some(m.body));
    // Make the 2nd delivery (the reply) the only loss by sending one
    // sacrificial ping first so the counter sits at 2 when FirstN-like
    // behaviour is needed. EveryNth(0) never drops, so emulate by dropping
    // the reply at the receiver: freeze the *sender* instead (§3.1.3
    // discard path), then unfreeze.
    rig.drive(0, |k, t, out| k.send(t, a, b.into(), 2, 0, out));
    rig.kernel_mut(0).freeze(LogicalHostId(1));
    rig.run_for(SimDuration::from_secs(2));
    assert!(rig.kernel(0).stats().replies_discarded_frozen >= 1);
    rig.drive(0, |k, t, out| k.unfreeze_in_place(t, LogicalHostId(1), out));
    run_all(&mut rig);
    let results = rig.send_results();
    assert_eq!(results.len(), 1);
    assert!(results[0].2, "reply recovered from the reply cache");
    assert_eq!(rig.kernel(1).stats().deliveries, 1);
}

#[test]
fn unresponsive_target_times_out() {
    let mut rig: Rig<Body> = Rig::new(2);
    let a = spawn(&mut rig, 0, 1);
    let b = spawn(&mut rig, 1, 2);
    // No responder for b: request delivered, never answered — but an
    // in-progress request earns ReplyPending on each retransmission, so
    // the sender does NOT give up (§3.1). To observe a timeout, address a
    // process that does not exist at all.
    let ghost = ProcessId::new(LogicalHostId(9), 16);
    let _ = b;
    rig.drive(0, |k, t, out| k.send(t, a, ghost.into(), 1, 0, out));
    run_all(&mut rig);
    let results = rig.send_results();
    assert_eq!(results.len(), 1);
    assert!(!results[0].2, "send to a ghost must fail");
    assert_eq!(
        rig.kernel(0).stats().retransmissions as u32,
        calib::MAX_RETRANSMITS
    );
}

#[test]
fn busy_server_reply_pending_prevents_abort() {
    let mut rig: Rig<Body> = Rig::new(2);
    let a = spawn(&mut rig, 0, 1);
    let b = spawn(&mut rig, 1, 2);
    rig.kernel_mut(0)
        .learn_binding(LogicalHostId(2), HostAddr(1));
    // b never replies: the request stays in progress forever.
    rig.drive(0, |k, t, out| k.send(t, a, b.into(), 1, 0, out));
    let horizon = SimTime::ZERO + SimDuration::from_secs(30);
    rig.run_until(horizon);
    // Well past MAX_RETRANSMITS * interval (10 * 0.5 s = 5 s), yet no
    // failure: reply-pending packets kept it alive.
    assert!(rig.send_results().is_empty(), "send must still be pending");
    assert!(rig.kernel(0).stats().reply_pendings_received > 5);
    assert!(rig.kernel(1).stats().reply_pendings_in_service > 5);
    // The hard cap eventually fires (200 * 0.5 s = 100 s).
    run_all(&mut rig);
    let results = rig.send_results();
    assert_eq!(results.len(), 1);
    assert!(!results[0].2);
}

#[test]
fn retransmission_of_a_request_in_service_draws_an_unexported_reply_pending() {
    let mut rig: Rig<Body> = Rig::new(2);
    let a = spawn(&mut rig, 0, 1);
    let b = spawn(&mut rig, 1, 2);
    rig.kernel_mut(0)
        .learn_binding(LogicalHostId(2), HostAddr(1));
    // b never replies, so every retransmission finds the request already
    // delivered and being served.
    rig.drive(0, |k, t, out| k.send(t, a, b.into(), 1, 0, out));
    rig.run_for(SimDuration::from_secs(3));
    assert!(rig.kernel(0).stats().retransmissions > 0);
    let server = rig.kernel(1);
    assert!(server.stats().reply_pendings_in_service > 0);
    // The exported counter counts only frozen-target deferrals.
    assert_eq!(server.stats().reply_pendings_sent, 0);
    assert_eq!(
        server
            .metrics("ws2")
            .counter(Subsystem::Kernel, "reply_pendings_sent"),
        Some(0)
    );
}

#[test]
fn aborted_serve_span_closes_at_abort_time() {
    let mut rig: Rig<Body> = Rig::new(2);
    let a = spawn(&mut rig, 0, 1);
    let b = spawn(&mut rig, 1, 2);
    rig.kernel_mut(0)
        .learn_binding(LogicalHostId(2), HostAddr(1));
    // b never replies, so its serve span stays open until aborted.
    rig.drive(0, |k, t, out| k.send(t, a, b.into(), 1, 0, out));
    rig.run_for(SimDuration::from_millis(100));
    // Abort before the first retransmission reaches kernel 1 again.
    let aborted = rig.engine.now() + SimDuration::from_millis(100);
    rig.engine.advance_to(aborted);
    assert_eq!(rig.kernel_mut(1).abort_server_transactions(aborted, b), 1);
    let tree = SpanTree::build(rig.trace());
    let serve: Vec<_> = tree.spans_named("serve").collect();
    assert_eq!(serve.len(), 1);
    assert!(serve[0].open < aborted);
    assert_eq!(serve[0].close, Some(aborted));
}

#[test]
fn freeze_defers_and_unfreeze_in_place_delivers() {
    let mut rig: Rig<Body> = Rig::new(2);
    let a = spawn(&mut rig, 0, 1);
    let b = spawn(&mut rig, 1, 2);
    rig.kernel_mut(0)
        .learn_binding(LogicalHostId(2), HostAddr(1));
    rig.respond(b, |m| Some(m.body + 100));
    rig.kernel_mut(1).freeze(LogicalHostId(2));

    rig.drive(0, |k, t, out| k.send(t, a, b.into(), 5, 0, out));
    rig.run_for(SimDuration::from_secs(2));
    assert!(rig.send_results().is_empty(), "deferred while frozen");
    // The deferral shows up as a structured event on the frozen host.
    assert_eq!(
        rig.trace()
            .count_matching(|e| matches!(e, TraceEvent::ReplyDeferred { lh: 2 })),
        1
    );
    // Retransmissions to the frozen host drew reply-pending packets.
    assert!(rig.kernel(1).stats().reply_pendings_sent >= 1);
    assert_eq!(rig.kernel(1).stats().reply_pendings_in_service, 0);
    assert_eq!(rig.kernel(1).stats().deliveries, 0);

    rig.drive(1, |k, t, out| k.unfreeze_in_place(t, LogicalHostId(2), out));
    run_all(&mut rig);
    let results = rig.send_results();
    assert_eq!(results.len(), 1);
    assert!(results[0].2, "deferred request completes after unfreeze");
    assert_eq!(rig.kernel(1).stats().deliveries, 1);
}

#[test]
fn reply_to_frozen_sender_is_discarded_then_recovered() {
    let mut rig: Rig<Body> = Rig::new(2);
    let a = spawn(&mut rig, 0, 1);
    let b = spawn(&mut rig, 1, 2);
    rig.kernel_mut(0)
        .learn_binding(LogicalHostId(2), HostAddr(1));
    rig.respond(b, |m| Some(m.body + 1));
    // Freeze the *sender's* logical host right after issuing the send.
    rig.drive(0, |k, t, out| k.send(t, a, b.into(), 1, 0, out));
    rig.kernel_mut(0).freeze(LogicalHostId(1));
    rig.run_for(SimDuration::from_secs(3));
    // The reply arrived and was discarded; the kernel kept retransmitting
    // on behalf of the frozen awaiting process (§3.1.3).
    assert!(rig.kernel(0).stats().replies_discarded_frozen >= 1);
    assert!(rig.send_results().is_empty());
    // Unfreeze: the next retransmission is answered from b's reply cache.
    rig.drive(0, |k, t, out| k.unfreeze_in_place(t, LogicalHostId(1), out));
    run_all(&mut rig);
    let results = rig.send_results();
    assert_eq!(results.len(), 1);
    assert!(results[0].2, "reply recovered after unfreeze");
    // The application-level delivery happened exactly once.
    assert_eq!(rig.kernel(1).stats().deliveries, 1);
}

#[test]
fn global_group_send_first_reply_wins() {
    let mut rig: Rig<Body> = Rig::new(3);
    let gid = GroupId::PROGRAM_MANAGERS;
    let mcast = McastGroup(1);
    for i in 0..3 {
        rig.kernel_mut(i).set_group_route(gid, mcast);
    }
    let client = spawn(&mut rig, 0, 1);
    let pm1 = spawn(&mut rig, 1, 2);
    let pm2 = spawn(&mut rig, 2, 3);
    rig.drive(1, |k, _, out| k.join_group(gid, pm1, out));
    rig.drive(2, |k, _, out| k.join_group(gid, pm2, out));
    rig.respond(pm1, |_| Some(111));
    rig.respond(pm2, |_| Some(222));

    rig.drive(0, |k, t, out| k.send(t, client, gid.into(), 0, 0, out));
    run_all(&mut rig);
    let results = rig.send_results();
    assert_eq!(results.len(), 1, "exactly one completion");
    assert!(results[0].2);
    // Both members were delivered the query.
    assert_eq!(
        rig.kernel(1).stats().deliveries + rig.kernel(2).stats().deliveries,
        2
    );
    // The second response was counted as late/extra.
    assert_eq!(rig.kernel(0).stats().late_replies, 1);
}

#[test]
fn group_member_on_same_host_also_hears_query() {
    let mut rig: Rig<Body> = Rig::new(2);
    let gid = GroupId::PROGRAM_MANAGERS;
    let mcast = McastGroup(1);
    rig.kernel_mut(0).set_group_route(gid, mcast);
    rig.kernel_mut(1).set_group_route(gid, mcast);
    let client = spawn(&mut rig, 0, 1);
    let local_pm = spawn(&mut rig, 0, 2);
    let remote_pm = spawn(&mut rig, 1, 3);
    rig.drive(0, |k, _, out| k.join_group(gid, local_pm, out));
    rig.drive(1, |k, _, out| k.join_group(gid, remote_pm, out));
    rig.respond(local_pm, |_| Some(1));
    rig.respond(remote_pm, |_| Some(2));
    rig.drive(0, |k, t, out| k.send(t, client, gid.into(), 0, 0, out));
    run_all(&mut rig);
    let results = rig.send_results();
    assert_eq!(results.len(), 1);
    assert!(results[0].2);
    assert_eq!(rig.deliveries().len(), 2, "both members heard the query");
}

#[test]
fn well_known_local_group_reaches_program_manager() {
    let mut rig: Rig<Body> = Rig::new(2);
    let client = spawn(&mut rig, 0, 1);
    // Workstation 1 has a system logical host with its program manager.
    let pm = spawn(&mut rig, 1, 2);
    rig.kernel_mut(1)
        .register_well_known(PROGRAM_MANAGER_INDEX, pm);
    // A program on lh3 (also workstation 1) is what the client knows.
    let prog = spawn(&mut rig, 1, 3);
    let _ = prog;
    rig.kernel_mut(0)
        .learn_binding(LogicalHostId(3), HostAddr(1));
    rig.respond(pm, |m| Some(m.body + 1000));

    // Address "the program manager of whatever host runs lh3".
    let dest = Destination::Group(GroupId::program_manager_of(LogicalHostId(3)));
    rig.drive(0, |k, t, out| k.send(t, client, dest, 1, 0, out));
    run_all(&mut rig);
    let results = rig.send_results();
    assert_eq!(results.len(), 1);
    assert!(results[0].2);
    assert_eq!(rig.deliveries(), vec![(pm, client)]);
    assert_eq!(rig.kernel(1).stats().group_lookups, 1);
}

#[test]
fn bulk_copy_remote_takes_three_seconds_per_megabyte() {
    let mut rig: Rig<Body> = Rig::new(2);
    let a = spawn(&mut rig, 0, 1);
    // Target logical host with a 1 MB space on kernel 1.
    let layout = SpaceLayout {
        code_bytes: 0,
        init_data_bytes: 0,
        heap_bytes: 1024 * 1024,
        stack_bytes: 0,
    };
    let (tlh, tspace) = {
        let l = rig.kernel_mut(1).create_logical_host(LogicalHostId(50));
        let s = l.create_space(layout);
        (LogicalHostId(50), s)
    };
    rig.kernel_mut(0).learn_binding(tlh, HostAddr(1));
    let pages: Vec<u32> = (0..512).collect(); // 512 * 2 KB = 1 MB.
    rig.drive(0, |k, t, out| k.copy_pages(t, a, tlh, tspace, pages, out));
    run_all(&mut rig);
    let done: Vec<_> = rig
        .log
        .iter()
        .filter_map(|(t, e)| match e {
            AppEvent::CopyDone { result, .. } => Some((*t, *result)),
            _ => None,
        })
        .collect();
    assert_eq!(done.len(), 1);
    assert_eq!(done[0].1, Ok(1024 * 1024));
    let secs = done[0].0.as_secs_f64();
    assert!((secs - 3.0).abs() < 0.2, "1 MB copy took {secs:.3}s");
    assert_eq!(rig.kernel(0).stats().bulk_units_sent, 32);
}

#[test]
fn bulk_copy_survives_packet_loss() {
    let mut rig: Rig<Body> = Rig::with_loss(2, LossModel::EveryNth(7), KernelConfig::default());
    let a = spawn(&mut rig, 0, 1);
    let layout = SpaceLayout {
        code_bytes: 0,
        init_data_bytes: 0,
        heap_bytes: 256 * 1024,
        stack_bytes: 0,
    };
    let (tlh, tspace) = {
        let l = rig.kernel_mut(1).create_logical_host(LogicalHostId(50));
        let s = l.create_space(layout);
        (LogicalHostId(50), s)
    };
    rig.kernel_mut(0).learn_binding(tlh, HostAddr(1));
    let pages: Vec<u32> = (0..128).collect(); // 256 KB.
    rig.drive(0, |k, t, out| k.copy_pages(t, a, tlh, tspace, pages, out));
    run_all(&mut rig);
    let ok = rig
        .log
        .iter()
        .any(|(_, e)| matches!(e, AppEvent::CopyDone { result: Ok(b), .. } if *b == 256 * 1024));
    assert!(ok, "copy must complete despite loss");
    assert!(rig.kernel(0).stats().bulk_units_retransmitted >= 1);
}

#[test]
fn bulk_copy_to_missing_space_is_refused() {
    let mut rig: Rig<Body> = Rig::new(2);
    let a = spawn(&mut rig, 0, 1);
    rig.kernel_mut(1).create_logical_host(LogicalHostId(50));
    rig.kernel_mut(0)
        .learn_binding(LogicalHostId(50), HostAddr(1));
    rig.drive(0, |k, t, out| {
        k.copy_pages(t, a, LogicalHostId(50), vmem::SpaceId(9), vec![0, 1], out)
    });
    run_all(&mut rig);
    let refused = rig.log.iter().any(|(_, e)| {
        matches!(
            e,
            AppEvent::CopyDone {
                result: Err(SendError::Refused),
                ..
            }
        )
    });
    assert!(refused);
}

#[test]
fn bulk_copy_without_binding_fails_fast() {
    let mut rig: Rig<Body> = Rig::new(2);
    let a = spawn(&mut rig, 0, 1);
    rig.drive(0, |k, t, out| {
        k.copy_pages(t, a, LogicalHostId(77), vmem::SpaceId(0), vec![0], out)
    });
    let failed = rig.log.iter().any(|(_, e)| {
        matches!(
            e,
            AppEvent::CopyDone {
                result: Err(SendError::NoBinding),
                ..
            }
        )
    });
    assert!(failed);
}

#[test]
fn local_copy_charges_memcpy_cost() {
    let mut rig: Rig<Body> = Rig::new(1);
    let a = spawn(&mut rig, 0, 1);
    let layout = SpaceLayout {
        code_bytes: 0,
        init_data_bytes: 0,
        heap_bytes: 64 * 1024,
        stack_bytes: 0,
    };
    let (tlh, tspace) = {
        let l = rig.kernel_mut(0).create_logical_host(LogicalHostId(50));
        let s = l.create_space(layout);
        (LogicalHostId(50), s)
    };
    let pages: Vec<u32> = (0..32).collect(); // 64 KB.
    rig.drive(0, |k, t, out| k.copy_pages(t, a, tlh, tspace, pages, out));
    run_all(&mut rig);
    let done: Vec<_> = rig
        .log
        .iter()
        .filter_map(|(t, e)| match e {
            AppEvent::CopyDone { result, .. } => Some((*t, *result)),
            _ => None,
        })
        .collect();
    assert_eq!(done[0].1, Ok(64 * 1024));
    // 64 KB at 500 us/KB = 32 ms.
    assert_eq!(done[0].0, SimTime::ZERO + SimDuration::from_millis(32));
    assert_eq!(rig.net.stats().frames_sent, 0, "no network traffic");
}

#[test]
fn empty_copy_completes_immediately() {
    let mut rig: Rig<Body> = Rig::new(1);
    let a = spawn(&mut rig, 0, 1);
    rig.drive(0, |k, t, out| {
        k.copy_pages(t, a, LogicalHostId(50), vmem::SpaceId(0), vec![], out)
    });
    assert!(rig
        .log
        .iter()
        .any(|(_, e)| matches!(e, AppEvent::CopyDone { result: Ok(0), .. })));
}

/// Kernel-level migration: move lh1 from kernel 0 to kernel 1 by hand and
/// verify a third party's references rebind without forwarding state.
#[test]
fn manual_migration_rebinds_references() {
    let mut rig: Rig<Body> = Rig::new(3);
    let victim = spawn(&mut rig, 0, 10); // lh10 on kernel 0.
    let client = spawn(&mut rig, 2, 1); // client on kernel 2.
    rig.kernel_mut(2)
        .learn_binding(LogicalHostId(10), HostAddr(0));
    rig.respond(victim, |m| Some(m.body + 7));

    // Client talks to the victim once (works via kernel 0).
    rig.drive(2, |k, t, out| k.send(t, client, victim.into(), 1, 0, out));
    run_all(&mut rig);
    assert_eq!(rig.send_results().len(), 1);

    // --- Migrate lh10 to kernel 1. ---
    // Target init: temp logical host with matching space.
    let temp = LogicalHostId(900);
    {
        let record = rig.kernel(0).extract_migration_record(LogicalHostId(10));
        let l = rig.kernel_mut(1).create_logical_host(temp);
        for &(sid, layout) in &record.desc.spaces {
            l.create_space_with_id(sid, layout);
        }
        // (Bulk page copy elided here; it is exercised above.)
        rig.kernel_mut(0).freeze(LogicalHostId(10));
        let record = rig.kernel(0).extract_migration_record(LogicalHostId(10));
        rig.drive(1, |k, t, out| {
            k.install_migration_record(t, temp, &record, out)
        });
        rig.drive(0, |k, t, out| {
            k.delete_logical_host(t, LogicalHostId(10), out)
        });
        rig.drive(1, |k, t, out| {
            k.unfreeze_migrated(t, LogicalHostId(10), out)
        });
    }
    run_all(&mut rig);

    // The victim's pid is unchanged and reachable; the NewBinding
    // broadcast updated the client's cache.
    assert_eq!(
        rig.kernel(2).binding_cache().peek(LogicalHostId(10)),
        Some(HostAddr(1))
    );
    rig.respond(victim, |m| Some(m.body + 7));
    rig.drive(2, |k, t, out| k.send(t, client, victim.into(), 2, 0, out));
    run_all(&mut rig);
    let results = rig.send_results();
    assert_eq!(results.len(), 2);
    assert!(results.iter().all(|r| r.2));
    // Kernel 0 holds no residue for lh10.
    assert!(!rig.kernel(0).is_resident(LogicalHostId(10)));
}

/// Without the NewBinding broadcast, a client with a stale cache recovers
/// by invalidate-and-broadcast (§3.1.4) — the Demos/MP contrast: no
/// forwarding address needed on the old host.
#[test]
fn stale_binding_recovers_by_broadcast() {
    let cfg = KernelConfig {
        broadcast_new_binding: false,
        ..KernelConfig::default()
    };
    let mut rig: Rig<Body> = Rig::with_loss(3, LossModel::None, cfg);
    let victim = spawn(&mut rig, 0, 10);
    let client = spawn(&mut rig, 2, 1);
    rig.kernel_mut(2)
        .learn_binding(LogicalHostId(10), HostAddr(0));
    rig.respond(victim, |m| Some(m.body));

    // Migrate silently.
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
    run_all(&mut rig);

    // Client sends with a stale cache: first transmissions go to kernel 0
    // and are dropped; after `retransmits_before_rebind` the entry is
    // invalidated and the request is broadcast; kernel 1 answers.
    rig.drive(2, |k, t, out| k.send(t, client, victim.into(), 5, 0, out));
    run_all(&mut rig);
    let results = rig.send_results();
    assert_eq!(results.len(), 1);
    assert!(results[0].2, "stale binding must recover");
    assert!(rig.kernel(0).stats().not_here >= 1);
    assert_eq!(rig.kernel(2).stats().broadcast_requests, 1);
    assert_eq!(
        rig.kernel(2).binding_cache().peek(LogicalHostId(10)),
        Some(HostAddr(1))
    );
    assert_eq!(rig.kernel(2).binding_cache().stats().invalidations, 1);
}

/// Leaving a forwarding address is decided by the call alone, under the
/// default configuration: `delete_logical_host_with_forwarding` keeps one
/// entry on the old host and relays a stale request through it, while
/// `delete_logical_host` keeps none.
#[test]
fn forwarding_entry_is_left_by_the_call_not_the_config() {
    for forwarding in [true, false] {
        let mut rig: Rig<Body> = Rig::with_loss(3, LossModel::None, KernelConfig::default());
        let victim = spawn(&mut rig, 0, 10);
        let client = spawn(&mut rig, 2, 1);
        rig.respond(victim, |m| Some(m.body));

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
        run_all(&mut rig);
        assert_eq!(rig.kernel(0).forwarding_entries(), usize::from(forwarding));

        // An old reference: the client's cache points at the old host.
        rig.kernel_mut(2)
            .learn_binding(LogicalHostId(10), HostAddr(0));
        rig.drive(2, |k, t, out| k.send(t, client, victim.into(), 5, 0, out));
        run_all(&mut rig);
        let results = rig.send_results();
        assert_eq!(results.len(), 1);
        assert!(results[0].2, "the stale request is answered either way");
        assert_eq!(
            rig.kernel(0).stats().forwarded_requests,
            u64::from(forwarding)
        );
    }
}

/// An outstanding Send survives migration: the blocked process's
/// transaction is reinstalled on the new kernel and completes there.
#[test]
fn outstanding_send_migrates_with_logical_host() {
    let mut rig: Rig<Body> = Rig::new(3);
    let sender = spawn(&mut rig, 0, 10);
    let server = spawn(&mut rig, 2, 2);
    rig.kernel_mut(0)
        .learn_binding(LogicalHostId(2), HostAddr(2));

    // The server receives the request but is slow: no reply before the
    // sender migrates.
    rig.drive(0, |k, t, out| k.send(t, sender, server.into(), 9, 0, out));
    rig.run_for(SimDuration::from_millis(100));
    let (req_from, req_seq, req_body) = {
        let delivered: Vec<_> = rig
            .log
            .iter()
            .filter_map(|(_, e)| match e {
                AppEvent::Delivered(m) => Some((m.from, m.seq, m.body)),
                _ => None,
            })
            .collect();
        assert_eq!(delivered.len(), 1, "request reached the server");
        delivered[0]
    };

    // Migrate lh10 (with its outstanding send) to kernel 1.
    let temp = LogicalHostId(900);
    rig.kernel_mut(0).freeze(LogicalHostId(10));
    let record = rig.kernel(0).extract_migration_record(LogicalHostId(10));
    assert_eq!(record.outstanding.len(), 1, "send captured in record");
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
    rig.run_for(SimDuration::from_millis(50));

    // The server finally replies to the transaction it received.
    rig.drive(2, |k, t, out| {
        k.reply(t, server, req_from, req_seq, req_body * 10, 0, out)
    });
    run_all(&mut rig);
    let results = rig.send_results();
    assert_eq!(results.len(), 1);
    assert_eq!(results[0].0, sender);
    assert!(results[0].2, "send completes on the new host");
}

#[test]
fn delete_restarts_local_senders_remotely() {
    let mut rig: Rig<Body> = Rig::new(2);
    // lh10 (victim) and lh1 (local client) on kernel 0.
    let victim = spawn(&mut rig, 0, 10);
    let local_client = spawn(&mut rig, 0, 1);
    rig.respond(victim, |m| Some(m.body + 1));

    // Freeze the victim, then have the local client send to it: deferred.
    rig.kernel_mut(0).freeze(LogicalHostId(10));
    rig.drive(0, |k, t, out| {
        k.send(t, local_client, victim.into(), 3, 0, out)
    });
    assert_eq!(
        rig.kernel(0)
            .logical_host(LogicalHostId(10))
            .expect("resident")
            .deferred_count(),
        1
    );

    // Migrate the victim to kernel 1 and delete the old copy: the local
    // client's Send must restart and now route remotely.
    let temp = LogicalHostId(900);
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
    rig.drive(1, |k, t, out| {
        k.unfreeze_migrated(t, LogicalHostId(10), out)
    });
    rig.run_for(SimDuration::from_millis(10)); // NewBinding reaches kernel 0.
    rig.drive(0, |k, t, out| {
        k.delete_logical_host(t, LogicalHostId(10), out)
    });
    run_all(&mut rig);

    let results = rig.send_results();
    assert_eq!(results.len(), 1);
    assert_eq!(results[0].0, local_client);
    assert!(results[0].2, "restarted send completes remotely");
    assert!(rig.kernel(0).stats().remote_sends >= 1);
}

#[test]
fn migration_preserves_seq_uniqueness() {
    // A process sends from host A (seq 0), migrates, then sends from host
    // B: the new transaction must not collide with the old one.
    let mut rig: Rig<Body> = Rig::new(3);
    let p = spawn(&mut rig, 0, 10);
    let server = spawn(&mut rig, 2, 2);
    rig.kernel_mut(0)
        .learn_binding(LogicalHostId(2), HostAddr(2));
    rig.respond(server, |m| Some(m.body));
    rig.drive(0, |k, t, out| k.send(t, p, server.into(), 1, 0, out));
    run_all(&mut rig);

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
    run_all(&mut rig);

    rig.drive(1, |k, t, out| k.send(t, p, server.into(), 2, 0, out));
    run_all(&mut rig);
    let results = rig.send_results();
    assert_eq!(results.len(), 2);
    assert!(results.iter().all(|r| r.2));
    assert_ne!(results[0].1, results[1].1, "sequence numbers must differ");
}

#[test]
fn retained_replies_expire() {
    // §3.1.3: the replier retains a reply for retransmissions — but only
    // for a bounded retention period; afterwards the cache entry is gone
    // and a duplicate request is re-delivered to the application.
    let mut rig: Rig<Body> = Rig::new(2);
    let a = spawn(&mut rig, 0, 1);
    let b = spawn(&mut rig, 1, 2);
    rig.kernel_mut(0)
        .learn_binding(LogicalHostId(2), HostAddr(1));
    rig.respond(b, |m| Some(m.body));
    rig.drive(0, |k, t, out| k.send(t, a, b.into(), 1, 0, out));
    run_all(&mut rig);
    assert_eq!(rig.kernel(1).stats().deliveries, 1);

    // Replay the original request long after the retention period: the
    // reply cache no longer answers, so the application sees it afresh.
    rig.run_for(calib::REPLY_RETENTION + SimDuration::from_secs(2));
    let forged = vkernel::Packet::Request {
        seq: vkernel::SendSeq(0),
        from: a,
        to: b.into(),
        body: 1,
        data_bytes: 0,
        retransmission: true,
        span: vsim::SpanContext::NONE,
    };
    let frame = vnet::Frame::unicast(HostAddr(0), HostAddr(1), 64, forged);
    rig.drive(1, |k, t, out| k.handle_frame(t, frame, out));
    run_all(&mut rig);
    assert_eq!(
        rig.kernel(1).stats().deliveries,
        2,
        "expired cache means re-delivery"
    );
}

#[test]
fn group_leave_stops_delivery() {
    let mut rig: Rig<Body> = Rig::new(2);
    let gid = GroupId::PROGRAM_MANAGERS;
    let mcast = McastGroup(1);
    rig.kernel_mut(0).set_group_route(gid, mcast);
    rig.kernel_mut(1).set_group_route(gid, mcast);
    let client = spawn(&mut rig, 0, 1);
    let member = spawn(&mut rig, 1, 2);
    rig.drive(1, |k, _, out| k.join_group(gid, member, out));
    rig.respond(member, |_| Some(1));

    rig.drive(0, |k, t, out| k.send(t, client, gid.into(), 0, 0, out));
    run_all(&mut rig);
    assert_eq!(rig.kernel(1).stats().deliveries, 1);

    // Leave; the next group query gets no members and times out.
    rig.drive(1, |k, _, out| k.leave_group(gid, member, out));
    rig.drive(0, |k, t, out| k.send(t, client, gid.into(), 0, 0, out));
    run_all(&mut rig);
    assert_eq!(rig.kernel(1).stats().deliveries, 1, "no further delivery");
    let results = rig.send_results();
    assert_eq!(results.len(), 2);
    assert!(!results[1].2, "unanswered group query fails");
}

#[test]
fn destroyed_logical_host_drops_inflight_replies() {
    // A reply arriving for a deleted logical host must be counted late
    // and dropped, never panic.
    let mut rig: Rig<Body> = Rig::new(2);
    let a = spawn(&mut rig, 0, 1);
    let b = spawn(&mut rig, 1, 2);
    rig.kernel_mut(0)
        .learn_binding(LogicalHostId(2), HostAddr(1));
    // Delay the reply: no responder yet.
    rig.drive(0, |k, t, out| k.send(t, a, b.into(), 5, 0, out));
    rig.run_for(SimDuration::from_millis(10));
    let delivered = rig.deliveries();
    assert_eq!(delivered.len(), 1);

    // The sender's logical host is destroyed while the request is open.
    rig.drive(0, |k, t, out| {
        k.delete_logical_host(t, LogicalHostId(1), out)
    });
    // Now the server answers; the reply finds no outstanding transaction.
    let (from, seq) = (delivered[0].1, vkernel::SendSeq(0));
    rig.drive(1, |k, t, out| k.reply(t, b, from, seq, 99, 0, out));
    run_all(&mut rig);
    assert!(
        rig.send_results().is_empty(),
        "no completion for the dead lh"
    );
    assert!(rig.kernel(0).stats().late_replies >= 1);
}

#[test]
fn copy_from_pulls_pages_at_the_same_rate() {
    // CopyFrom (§2.1's other bulk primitive): kernel 0 pulls 256 KB from a
    // space on kernel 1; the data flows at the calibrated 3 s/MB.
    let mut rig: Rig<Body> = Rig::new(2);
    let puller = spawn(&mut rig, 0, 1);
    // A local space to receive into.
    let dst_space = {
        let l = rig
            .kernel_mut(0)
            .logical_host_mut(LogicalHostId(1))
            .expect("lh");
        l.create_space(vmem::SpaceLayout {
            code_bytes: 0,
            init_data_bytes: 0,
            heap_bytes: 256 * 1024,
            stack_bytes: 0,
        })
    };
    // The remote source.
    let (src_lh, src_space) = {
        let l = rig.kernel_mut(1).create_logical_host(LogicalHostId(50));
        let s = l.create_space(vmem::SpaceLayout {
            code_bytes: 0,
            init_data_bytes: 0,
            heap_bytes: 256 * 1024,
            stack_bytes: 0,
        });
        (LogicalHostId(50), s)
    };
    rig.kernel_mut(0).learn_binding(src_lh, HostAddr(1));
    let pages: Vec<u32> = (0..128).collect();
    rig.drive(0, |k, t, out| {
        k.pull_pages(
            t,
            puller,
            src_lh,
            src_space,
            LogicalHostId(1),
            dst_space,
            pages,
            out,
        )
    });
    run_all(&mut rig);
    // Two CopyDone events exist: the serving kernel's outbound transfer
    // and the puller's completion; assert on the puller's.
    let done: Vec<_> = rig
        .log
        .iter()
        .filter_map(|(t, e)| match e {
            AppEvent::CopyDone {
                initiator, result, ..
            } if *initiator == puller => Some((*t, *result)),
            _ => None,
        })
        .collect();
    assert_eq!(done.len(), 1);
    assert_eq!(done[0].1, Ok(256 * 1024));
    // 256 KB at ~3 s/MB = ~0.75 s.
    let secs = done[0].0.as_secs_f64();
    assert!((secs - 0.75).abs() < 0.1, "pull took {secs:.3}s");
    assert_eq!(rig.kernel(1).stats().pulls_served, 1);
}

#[test]
fn copy_from_unknown_space_is_refused() {
    let mut rig: Rig<Body> = Rig::new(2);
    let puller = spawn(&mut rig, 0, 1);
    rig.kernel_mut(1).create_logical_host(LogicalHostId(50));
    rig.kernel_mut(0)
        .learn_binding(LogicalHostId(50), HostAddr(1));
    rig.drive(0, |k, t, out| {
        k.pull_pages(
            t,
            puller,
            LogicalHostId(50),
            vmem::SpaceId(7),
            LogicalHostId(1),
            vmem::SpaceId(0),
            vec![0, 1],
            out,
        )
    });
    run_all(&mut rig);
    assert!(rig.log.iter().any(|(_, e)| matches!(
        e,
        AppEvent::CopyDone {
            result: Err(SendError::Refused),
            ..
        }
    )));
}

#[test]
fn copy_from_survives_lost_pull_request() {
    // Drop the first delivery (the BulkPull itself): the watchdog
    // retransmits it and the pull completes.
    let mut rig: Rig<Body> = Rig::with_loss(2, LossModel::FirstN(1), KernelConfig::default());
    let puller = spawn(&mut rig, 0, 1);
    let dst_space = {
        let l = rig
            .kernel_mut(0)
            .logical_host_mut(LogicalHostId(1))
            .expect("lh");
        l.create_space(vmem::SpaceLayout {
            code_bytes: 0,
            init_data_bytes: 0,
            heap_bytes: 64 * 1024,
            stack_bytes: 0,
        })
    };
    let (src_lh, src_space) = {
        let l = rig.kernel_mut(1).create_logical_host(LogicalHostId(50));
        let s = l.create_space(vmem::SpaceLayout {
            code_bytes: 0,
            init_data_bytes: 0,
            heap_bytes: 64 * 1024,
            stack_bytes: 0,
        });
        (LogicalHostId(50), s)
    };
    rig.kernel_mut(0).learn_binding(src_lh, HostAddr(1));
    let pages: Vec<u32> = (0..32).collect();
    rig.drive(0, |k, t, out| {
        k.pull_pages(
            t,
            puller,
            src_lh,
            src_space,
            LogicalHostId(1),
            dst_space,
            pages,
            out,
        )
    });
    run_all(&mut rig);
    assert!(rig
        .log
        .iter()
        .any(|(_, e)| matches!(e, AppEvent::CopyDone { result: Ok(b), .. } if *b == 64 * 1024)));
}

#[test]
fn orphaned_transactions_resolve_on_renewed_contact() {
    let mut rig: Rig<Body> = Rig::new(2);
    let a = spawn(&mut rig, 0, 1);
    let b = spawn(&mut rig, 1, 2);
    rig.kernel_mut(0)
        .learn_binding(LogicalHostId(2), HostAddr(1));
    // b accepts the request but never replies: reply-pending packets keep
    // the send alive until the hard cap, where the transaction is charged
    // as orphaned against serving logical host 2.
    rig.drive(0, |k, t, out| k.send(t, a, b.into(), 1, 0, out));
    run_all(&mut rig);
    assert_eq!(rig.kernel(0).stats().orphaned_transactions, 1);
    assert_eq!(rig.kernel(0).unresolved_orphans(), 1);
    assert_eq!(rig.kernel(0).stats().orphans_resolved, 0);

    // The server comes back to life: a later request to the same logical
    // host is answered, proving the orphan was transient (a recovered
    // server, not a leak) — the charge resolves instead of warning forever.
    rig.respond(b, |m| Some(m.body + 1));
    rig.drive(0, |k, t, out| k.send(t, a, b.into(), 2, 0, out));
    run_all(&mut rig);
    assert!(
        rig.send_results().last().expect("send completed").2,
        "renewed-contact send succeeds"
    );
    assert_eq!(rig.kernel(0).stats().orphans_resolved, 1);
    assert_eq!(rig.kernel(0).unresolved_orphans(), 0);
    // The cumulative charge counter keeps its history.
    assert_eq!(rig.kernel(0).stats().orphaned_transactions, 1);
}

/// Events are never cancelled, so the kernel must ignore a timer whose
/// work is done. After a remote Send, a push, a local copy and a pull have
/// run to quiescence, firing every timer they armed once more changes
/// nothing: no output, no application event, no counter.
#[test]
fn stale_timers_fire_as_no_ops() {
    let mut rig: Rig<Body> = Rig::new(2);
    let a = spawn(&mut rig, 0, 1);
    let b = spawn(&mut rig, 1, 2);
    rig.kernel_mut(0)
        .learn_binding(LogicalHostId(2), HostAddr(1));
    rig.respond(b, |m| Some(m.body));
    // `spawn` gave each logical host a tiny space 0.
    let (lh1, lh2, team) = (LogicalHostId(1), LogicalHostId(2), vmem::SpaceId(0));
    rig.drive(0, |k, t, out| k.send(t, a, b.into(), 1, 0, out));
    rig.drive(0, |k, t, out| {
        k.copy_pages(t, a, lh2, team, vec![0, 1], out)
    });
    rig.drive(0, |k, t, out| {
        k.copy_pages(t, a, lh1, team, vec![0, 1], out)
    });
    rig.drive(0, |k, t, out| {
        k.pull_pages(t, a, lh2, team, lh1, team, vec![2, 3], out)
    });
    run_all(&mut rig);
    let kinds: std::collections::BTreeSet<String> = rig
        .fired
        .iter()
        .map(|(_, key)| {
            format!("{key:?}")
                .split('(')
                .next()
                .unwrap_or("")
                .to_string()
        })
        .collect();
    assert_eq!(kinds.len(), 6, "every timer kind fired: {kinds:?}");

    let stats = |rig: &Rig<Body>| format!("{:?}{:?}", rig.kernel(0).stats(), rig.kernel(1).stats());
    let (logged, before) = (rig.log.len(), stats(&rig));
    for (i, key) in rig.fired.clone() {
        rig.drive(i, |k, t, out| {
            k.handle_timer(t, key, out);
            assert!(out.is_empty(), "{key:?} fired again produced {out:?}");
        });
    }
    assert_eq!(rig.log.len(), logged);
    assert_eq!(rig.engine.pending(), 0);
    assert_eq!(stats(&rig), before);
}
