//! Property tests on the Ethernet model: delivery sets, timing
//! monotonicity, and loss accounting must hold for arbitrary traffic.
//!
//! Inputs are generated from a seeded [`DetRng`], so every case is
//! deterministic and failures reproduce exactly.

use vnet::{Ethernet, Frame, HostAddr, LossModel, McastGroup, NetDest};
use vsim::{DetRng, SimTime, Trace};

/// Conservation: offered = delivered + dropped-by-loss +
/// dropped-by-down, per receiver.
#[test]
fn delivery_accounting_balances() {
    let mut rng = DetRng::seed(0xA1);
    for _case in 0..60 {
        let n_hosts = rng.index(10) + 2;
        let loss_nth = rng.range_u64(0, 7);
        let n_sends = rng.index(59) + 1;
        let mut net: Ethernet<u32> = Ethernet::new(
            LossModel::EveryNth(loss_nth),
            DetRng::seed(1),
            Trace::quiet(),
        );
        let hosts: Vec<HostAddr> = (0..n_hosts).map(|_| net.attach()).collect();
        let mut expected_receivers = 0u64;
        for i in 0..n_sends {
            let src = hosts[rng.index(n_hosts)];
            let dst = hosts[rng.index(n_hosts)];
            let bytes = rng.range_u64(1, 2000);
            if src == dst {
                continue;
            }
            let f = Frame::unicast(src, dst, bytes, i as u32);
            net.transmit(SimTime::ZERO, &f, &mut Vec::new());
            expected_receivers += 1;
        }
        let s = net.stats();
        assert_eq!(
            s.deliveries + s.drops_loss + s.drops_down,
            expected_receivers
        );
        assert_eq!(s.sender_down, 0);
    }
}

/// Broadcast reaches exactly the other live stations.
#[test]
fn broadcast_reaches_all_live_peers() {
    let mut rng = DetRng::seed(0xA2);
    for _case in 0..60 {
        let n_hosts = rng.index(14) + 2;
        let mut net: Ethernet<u32> =
            Ethernet::new(LossModel::None, DetRng::seed(2), Trace::quiet());
        let hosts: Vec<HostAddr> = (0..n_hosts).map(|_| net.attach()).collect();
        let mut live_others = 0;
        for &h in hosts.iter().skip(1) {
            let down = rng.chance(0.5);
            net.set_up(h, !down);
            if !down {
                live_others += 1;
            }
        }
        let mut out = Vec::new();
        net.transmit(SimTime::ZERO, &Frame::broadcast(hosts[0], 64, 0), &mut out);
        assert_eq!(out.len(), live_others);
        // Everyone hears the one frame at the same instant.
        if let Some(first) = out.first() {
            assert!(out
                .iter()
                .all(|d| d.at == first.at && d.corrupted.is_none()));
        }
    }
}

/// Channel serialization: arrival times over back-to-back frames are
/// strictly increasing, and total busy time equals the sum of frame
/// wire times.
#[test]
fn back_to_back_frames_serialize() {
    let mut rng = DetRng::seed(0xA3);
    for _case in 0..40 {
        let n_frames = rng.index(39) + 1;
        let mut net: Ethernet<u32> =
            Ethernet::new(LossModel::None, DetRng::seed(3), Trace::quiet());
        let a = net.attach();
        let b = net.attach();
        let mut last = None;
        let mut wire_sum = 0u64;
        let mut out = Vec::new();
        for i in 0..n_frames {
            let bytes = rng.range_u64(1, 4000);
            out.clear();
            net.transmit(
                SimTime::ZERO,
                &Frame::unicast(a, b, bytes, i as u32),
                &mut out,
            );
            let at = out[0].at;
            if let Some(prev) = last {
                assert!(at > prev, "arrivals must be ordered");
            }
            last = Some(at);
            wire_sum += vsim::calib::frame_wire_time(bytes).as_micros();
        }
        assert_eq!(net.stats().busy.as_micros(), wire_sum);
        assert_eq!(net.busy_until().as_micros(), wire_sum);
    }
}

/// Multicast membership is exact: joins minus leaves determine the
/// receiver set.
#[test]
fn multicast_membership_is_exact() {
    let mut rng = DetRng::seed(0xA4);
    for _case in 0..60 {
        let n_ops = rng.index(40);
        let mut net: Ethernet<u32> =
            Ethernet::new(LossModel::None, DetRng::seed(4), Trace::quiet());
        let hosts: Vec<HostAddr> = (0..8).map(|_| net.attach()).collect();
        let g = McastGroup(3);
        let mut model = std::collections::BTreeSet::new();
        for _ in 0..n_ops {
            let h = rng.index(8);
            if rng.chance(0.5) {
                net.join(g, hosts[h]);
                model.insert(hosts[h]);
            } else {
                net.leave(g, hosts[h]);
                model.remove(&hosts[h]);
            }
        }
        let sender = hosts[0];
        let mut out = Vec::new();
        net.transmit(SimTime::ZERO, &Frame::multicast(sender, g, 64, 0), &mut out);
        let mut got: Vec<HostAddr> = out.iter().map(|d| d.to).collect();
        got.sort();
        let want: Vec<HostAddr> = model.iter().copied().filter(|&h| h != sender).collect();
        assert_eq!(got, want);
        assert_eq!(net.members(g), model.into_iter().collect::<Vec<_>>());
    }
}

#[test]
fn frame_dest_display_is_stable() {
    // Non-property smoke: destinations render for logs.
    assert_eq!(NetDest::Unicast(HostAddr(4)).to_string(), "host4");
    assert_eq!(NetDest::Multicast(McastGroup(1)).to_string(), "mcast1");
}
