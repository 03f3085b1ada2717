//! The shared 10 Mbit Ethernet segment.
//!
//! A single segment connects every workstation and server (§4.1). The model
//! captures what the protocols above care about:
//!
//! * **Serialization**: the channel is a single resource; frames queue
//!   behind one another and a frame's wire time follows
//!   [`vsim::calib::frame_wire_time`]. (CSMA/CD collisions are folded into
//!   this FIFO arbitration — at the paper's utilization levels collision
//!   loss is negligible next to receiver-side drops.)
//! * **Loss**: per-receiver, pluggable ([`LossModel`]), so a broadcast can
//!   reach some stations and miss others.
//! * **Broadcast & multicast**: binding-cache queries broadcast; process
//!   groups (e.g. the program-manager group) multicast.
//! * **Host failure**: a down station neither sends nor receives, for the
//!   old-host-reboot and target-failure experiments.

use std::collections::{BTreeMap, BTreeSet};

use vsim::calib::{frame_wire_time, WIRE_LATENCY};
use vsim::{
    DetRng, ScopeMetrics, SimDuration, SimTime, Subsystem, Tally, Trace, TraceEvent, TraceLevel,
};

use crate::addr::{HostAddr, McastGroup, NetDest};
use crate::frame::Frame;
use crate::loss::{LossModel, LossState};

/// One receiver hearing a transmitted frame.
#[derive(Debug)]
pub struct Arrival<P> {
    /// Receiving station.
    pub to: HostAddr,
    /// Arrival instant (end of serialization plus latency, plus any
    /// latency spike on this link).
    pub at: SimTime,
    /// This receiver's own copy when the wire corrupted it in transit;
    /// `None` when it hears the transmitted frame intact.
    pub corrupted: Option<Box<Frame<P>>>,
}

/// Wire-level counters.
#[derive(Debug, Clone, Default)]
pub struct WireStats {
    /// Frames offered to the channel by live senders.
    pub frames_sent: u64,
    /// Successful per-receiver deliveries.
    pub deliveries: u64,
    /// Per-receiver drops due to the loss model.
    pub drops_loss: u64,
    /// Per-receiver drops because the receiver was down.
    pub drops_down: u64,
    /// Per-receiver drops because the link was partitioned.
    pub drops_partition: u64,
    /// Per-receiver deliveries whose checksum was corrupted in transit.
    pub corrupted: u64,
    /// Frames discarded because the *sender* was down.
    pub sender_down: u64,
    /// Total payload bytes offered.
    pub payload_bytes: u64,
    /// Cumulative channel busy time.
    pub busy: SimDuration,
}

impl WireStats {
    /// Channel utilization over `[SimTime::ZERO, now]`.
    pub fn utilization(&self, now: SimTime) -> f64 {
        if now == SimTime::ZERO {
            0.0
        } else {
            self.busy.as_secs_f64() / now.since(SimTime::ZERO).as_secs_f64()
        }
    }
}

struct Station {
    up: bool,
}

/// The shared segment.
///
/// # Examples
///
/// ```
/// use vnet::{Ethernet, Frame, LossModel};
/// use vsim::{DetRng, SimTime, Trace};
///
/// let mut net: Ethernet<&str> = Ethernet::new(LossModel::None, DetRng::seed(1), Trace::quiet());
/// let a = net.attach();
/// let b = net.attach();
/// let mut arrivals = Vec::new();
/// net.transmit(SimTime::ZERO, &Frame::unicast(a, b, 32, "hello"), &mut arrivals);
/// assert_eq!(arrivals.len(), 1);
/// assert_eq!(arrivals[0].to, b);
/// ```
pub struct Ethernet<P> {
    stations: Vec<Station>,
    groups: BTreeMap<McastGroup, BTreeSet<HostAddr>>,
    busy_until: SimTime,
    loss: LossState,
    rng: DetRng,
    /// Directed sender → receiver pairs currently blocked by a partition.
    blocked: BTreeSet<(HostAddr, HostAddr)>,
    /// Directed links with extra latency: `(extra, expires_at)`.
    link_extra: BTreeMap<(HostAddr, HostAddr), (SimDuration, SimTime)>,
    /// Per-delivery corruption probability while `now < corrupt_until`.
    corrupt_prob: f64,
    corrupt_until: SimTime,
    stats: WireStats,
    /// Payload size of every frame offered by a live sender, counted by
    /// size: the wire keeps nothing per frame.
    frame_payload_bytes: Tally,
    trace: Trace,
    _payload: std::marker::PhantomData<P>,
}

impl<P: Clone> Ethernet<P> {
    /// Creates an empty segment with the given loss model, emitting its
    /// drop events into `trace`.
    pub fn new(loss: LossModel, rng: DetRng, trace: Trace) -> Self {
        Ethernet {
            stations: Vec::new(),
            groups: BTreeMap::new(),
            busy_until: SimTime::ZERO,
            loss: LossState::new(loss),
            rng,
            blocked: BTreeSet::new(),
            link_extra: BTreeMap::new(),
            corrupt_prob: 0.0,
            corrupt_until: SimTime::ZERO,
            stats: WireStats::default(),
            frame_payload_bytes: Tally::new(),
            trace,
            _payload: std::marker::PhantomData,
        }
    }

    /// Attaches a new station and returns its address.
    ///
    /// # Panics
    ///
    /// Panics if the segment already has 65 536 stations, the whole
    /// [`HostAddr`] space.
    #[allow(clippy::expect_used)]
    pub fn attach(&mut self) -> HostAddr {
        let addr =
            HostAddr(u16::try_from(self.stations.len()).expect("too many stations on one segment"));
        self.stations.push(Station { up: true });
        addr
    }

    /// Number of attached stations.
    pub fn station_count(&self) -> usize {
        self.stations.len()
    }

    /// All attached station addresses.
    // `attach` refuses a station past `u16::MAX`, so every index fits.
    #[allow(clippy::cast_possible_truncation)]
    pub fn stations(&self) -> impl Iterator<Item = HostAddr> + '_ {
        (0..self.stations.len()).map(|i| HostAddr(i as u16))
    }

    /// Marks a station up or down (crash / reboot simulation).
    ///
    /// # Panics
    ///
    /// Panics if the address was never attached.
    pub fn set_up(&mut self, host: HostAddr, up: bool) {
        self.station_mut(host).up = up;
    }

    /// Adds a station to a multicast group (idempotent).
    pub fn join(&mut self, group: McastGroup, host: HostAddr) {
        let _ = self.station(host); // Validate.
        self.groups.entry(group).or_default().insert(host);
    }

    /// Removes a station from a multicast group (idempotent).
    pub fn leave(&mut self, group: McastGroup, host: HostAddr) {
        if let Some(members) = self.groups.get_mut(&group) {
            members.remove(&host);
        }
    }

    /// Current members of a group, in address order.
    pub fn members(&self, group: McastGroup) -> Vec<HostAddr> {
        self.groups
            .get(&group)
            .map(|s| s.iter().copied().collect())
            .unwrap_or_default()
    }

    /// Blocks frames from every station in `a` to every station in `b`
    /// (and the reverse direction when `symmetric`), modelling a network
    /// partition. Asymmetric partitions — a can talk to b but not hear it —
    /// are expressed by calling with `symmetric: false`.
    pub fn partition(&mut self, a: &[HostAddr], b: &[HostAddr], symmetric: bool) {
        for &x in a {
            for &y in b {
                if x != y {
                    self.blocked.insert((x, y));
                    if symmetric {
                        self.blocked.insert((y, x));
                    }
                }
            }
        }
    }

    /// Removes partition state between the two station groups, in both
    /// directions (healing is always symmetric).
    pub fn heal(&mut self, a: &[HostAddr], b: &[HostAddr]) {
        for &x in a {
            for &y in b {
                self.blocked.remove(&(x, y));
                self.blocked.remove(&(y, x));
            }
        }
    }

    /// True when frames from `from` to `to` are currently blocked.
    pub fn is_blocked(&self, from: HostAddr, to: HostAddr) -> bool {
        self.blocked.contains(&(from, to))
    }

    /// Adds `extra` delivery latency on the directed link `from → to` until
    /// the instant `until` (a per-link latency spike).
    pub fn set_link_latency(
        &mut self,
        from: HostAddr,
        to: HostAddr,
        extra: SimDuration,
        until: SimTime,
    ) {
        self.link_extra.insert((from, to), (extra, until));
    }

    /// Corrupts each delivery with probability `p` until the instant
    /// `until`; corrupted frames fail [`Frame::checksum_valid`] at the
    /// receiver.
    pub fn set_corruption(&mut self, p: f64, until: SimTime) {
        self.corrupt_prob = p;
        self.corrupt_until = until;
    }

    /// Offers a frame to the channel at time `now` and appends the
    /// receivers that hear it (possibly none) to `arrivals`, in receiver
    /// order (address order for a broadcast or multicast).
    ///
    /// The channel serializes frames: if it is busy, transmission starts
    /// when it frees. All receivers hear the frame at the same instant
    /// (plus any per-link latency spike); loss, partition blocking, and
    /// corruption are decided independently per receiver, in receiver
    /// order (`Ethernet::arrival`). The frame stays with the caller: only
    /// a receiver whose copy the wire corrupted gets a copy of its own.
    /// The sender never receives its own frame.
    pub fn transmit(&mut self, now: SimTime, frame: &Frame<P>, arrivals: &mut Vec<Arrival<P>>) {
        if !self.station(frame.src).up {
            self.stats.sender_down += 1;
            return;
        }
        self.stats.frames_sent += 1;
        self.stats.payload_bytes += frame.payload_bytes;
        self.frame_payload_bytes.add(frame.payload_bytes);

        let start = now.max(self.busy_until);
        let wire = frame_wire_time(frame.payload_bytes);
        self.busy_until = start + wire;
        self.stats.busy += wire;
        let arrival = start + wire + WIRE_LATENCY;

        match frame.dest {
            NetDest::Unicast(to) => arrivals.extend(self.arrival(now, arrival, frame, to)),
            NetDest::Broadcast => {
                // `attach` hands out dense addresses below 65 536.
                for to in (0..=u16::MAX).take(self.stations.len()).map(HostAddr) {
                    if to != frame.src {
                        arrivals.extend(self.arrival(now, arrival, frame, to));
                    }
                }
            }
            NetDest::Multicast(g) => {
                // `arrival` never changes membership, so the groups are
                // lent out while it decides each member's fate.
                let groups = std::mem::take(&mut self.groups);
                for &to in groups.get(&g).into_iter().flatten() {
                    if to != frame.src {
                        arrivals.extend(self.arrival(now, arrival, frame, to));
                    }
                }
                self.groups = groups;
            }
        }
    }

    /// Decides the fate of one frame at one receiver: down-station and
    /// partition drops, an *independent per-receiver* loss-model draw (per
    /// the `loss` module contract), a corruption draw while a corruption
    /// window is open (a corrupted receiver gets its own damaged copy),
    /// and any per-link latency spike. Returns the arrival, or `None` when
    /// the receiver never hears the frame.
    fn arrival(
        &mut self,
        now: SimTime,
        arrival: SimTime,
        frame: &Frame<P>,
        to: HostAddr,
    ) -> Option<Arrival<P>> {
        if !self.station(to).up {
            self.stats.drops_down += 1;
            return None;
        }
        // Partition blocking is static configuration: checked before the
        // loss draw and without consuming randomness.
        if self.is_blocked(frame.src, to) {
            self.stats.drops_partition += 1;
            self.trace.emit(
                TraceLevel::Detail,
                now,
                Subsystem::Net,
                TraceEvent::FrameDropped {
                    from: frame.src.0,
                    to: to.0,
                    bytes: frame.payload_bytes,
                },
            );
            return None;
        }
        if self.loss.drops(&mut self.rng) {
            self.stats.drops_loss += 1;
            self.trace.emit(
                TraceLevel::Detail,
                now,
                Subsystem::Net,
                TraceEvent::FrameDropped {
                    from: frame.src.0,
                    to: to.0,
                    bytes: frame.payload_bytes,
                },
            );
            return None;
        }
        let mut corrupted = None;
        if self.corrupt_prob > 0.0 && now < self.corrupt_until {
            let salt = self.rng.range_u64(1, u64::MAX);
            if self.rng.chance(self.corrupt_prob) {
                let mut copy = Box::new(frame.clone());
                copy.corrupt(salt);
                corrupted = Some(copy);
                self.stats.corrupted += 1;
            }
        }
        let at = match self.link_extra.get(&(frame.src, to)) {
            Some(&(extra, until)) if now < until => arrival + extra,
            _ => arrival,
        };
        self.stats.deliveries += 1;
        Some(Arrival { to, at, corrupted })
    }

    /// Wire counters.
    pub fn stats(&self) -> &WireStats {
        &self.stats
    }

    /// The wire counters and the frame-size histogram under the scope
    /// label `scope`.
    pub fn metrics(&self, scope: &str) -> ScopeMetrics {
        let s = &self.stats;
        ScopeMetrics::new(scope)
            .with_counter(Subsystem::Net, "frames_sent", s.frames_sent)
            .with_counter(Subsystem::Net, "frames_delivered", s.deliveries)
            .with_counter(Subsystem::Net, "frames_dropped_loss", s.drops_loss)
            .with_counter(Subsystem::Net, "frames_dropped_down", s.drops_down)
            .with_counter(
                Subsystem::Net,
                "frames_dropped_partition",
                s.drops_partition,
            )
            .with_counter(Subsystem::Net, "frames_corrupted", s.corrupted)
            .with_counter(Subsystem::Net, "frames_sender_down", s.sender_down)
            .with_counter(Subsystem::Net, "payload_bytes", s.payload_bytes)
            .with_counter(Subsystem::Net, "wire_busy_us", s.busy.as_micros())
            .with_histogram(
                Subsystem::Net,
                "frame_payload_bytes",
                "bytes",
                &self.frame_payload_bytes,
            )
    }

    /// When the channel next becomes idle.
    pub fn busy_until(&self) -> SimTime {
        self.busy_until
    }

    #[allow(clippy::expect_used)]
    fn station(&self, host: HostAddr) -> &Station {
        self.stations
            .get(host.0 as usize)
            .expect("unknown station address")
    }

    #[allow(clippy::expect_used)]
    fn station_mut(&mut self, host: HostAddr) -> &mut Station {
        self.stations
            .get_mut(host.0 as usize)
            .expect("unknown station address")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn net() -> Ethernet<u32> {
        Ethernet::new(LossModel::None, DetRng::seed(42), Trace::quiet())
    }

    /// Transmits `frame` and returns its arrivals.
    fn send(n: &mut Ethernet<u32>, now: SimTime, frame: Frame<u32>) -> Vec<Arrival<u32>> {
        let mut arrivals = Vec::new();
        n.transmit(now, &frame, &mut arrivals);
        arrivals
    }

    /// The receivers of one transmission, in order.
    fn receivers(arrivals: &[Arrival<u32>]) -> Vec<HostAddr> {
        arrivals.iter().map(|a| a.to).collect()
    }

    #[test]
    fn attach_hands_out_dense_addresses() {
        let mut n = net();
        assert_eq!(n.attach(), HostAddr(0));
        assert_eq!(n.attach(), HostAddr(1));
        assert_eq!(n.station_count(), 2);
    }

    #[test]
    fn unicast_arrives_after_wire_time_and_latency() {
        let mut n = net();
        let a = n.attach();
        let b = n.attach();
        let out = send(&mut n, SimTime::ZERO, Frame::unicast(a, b, 1024, 7));
        assert_eq!(receivers(&out), vec![b]);
        // (1024+38)*8/10 = 849 us wire + 50 us latency.
        assert_eq!(out[0].at, SimTime::from_micros(899));
        assert!(out[0].corrupted.is_none());
    }

    #[test]
    fn channel_serializes_back_to_back_frames() {
        let mut n = net();
        let a = n.attach();
        let b = n.attach();
        let first = send(&mut n, SimTime::ZERO, Frame::unicast(a, b, 1024, 1));
        let second = send(&mut n, SimTime::ZERO, Frame::unicast(a, b, 1024, 2));
        assert_eq!(first[0].at, SimTime::from_micros(899));
        // The second frame waits for the first to clear the wire.
        assert_eq!(second[0].at, SimTime::from_micros(849 + 899));
        assert!((n.stats().utilization(SimTime::from_micros(1698)) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn idle_gap_is_not_counted_busy() {
        let mut n = net();
        let a = n.attach();
        let b = n.attach();
        send(&mut n, SimTime::ZERO, Frame::unicast(a, b, 1024, 1));
        send(
            &mut n,
            SimTime::from_micros(10_000),
            Frame::unicast(a, b, 1024, 2),
        );
        let util = n.stats().utilization(SimTime::from_micros(20_000));
        assert!((util - 2.0 * 849.0 / 20_000.0).abs() < 1e-6, "util {util}");
    }

    #[test]
    fn broadcast_reaches_everyone_but_sender() {
        let mut n = net();
        let a = n.attach();
        let _b = n.attach();
        let _c = n.attach();
        let out = send(&mut n, SimTime::ZERO, Frame::broadcast(a, 32, 9));
        assert_eq!(receivers(&out), vec![HostAddr(1), HostAddr(2)]);
        // One frame, one instant, no copies.
        assert_eq!(out[0].at, out[1].at);
        assert!(out.iter().all(|x| x.corrupted.is_none()));
    }

    #[test]
    fn multicast_respects_membership() {
        let mut n = net();
        let a = n.attach();
        let b = n.attach();
        let c = n.attach();
        let g = McastGroup(1);
        n.join(g, b);
        n.join(g, c);
        n.join(g, c); // Idempotent.
        let out = send(&mut n, SimTime::ZERO, Frame::multicast(a, g, 32, 0));
        assert_eq!(receivers(&out), vec![b, c]);
        n.leave(g, b);
        let out = send(&mut n, SimTime::ZERO, Frame::multicast(a, g, 32, 0));
        assert_eq!(receivers(&out), vec![c]);
    }

    #[test]
    fn multicast_excludes_sender_even_if_member() {
        let mut n = net();
        let a = n.attach();
        let b = n.attach();
        let g = McastGroup(2);
        n.join(g, a);
        n.join(g, b);
        let out = send(&mut n, SimTime::ZERO, Frame::multicast(a, g, 32, 0));
        assert_eq!(receivers(&out), vec![b]);
    }

    #[test]
    fn down_receiver_hears_nothing() {
        let mut n = net();
        let a = n.attach();
        let b = n.attach();
        n.set_up(b, false);
        let out = send(&mut n, SimTime::ZERO, Frame::unicast(a, b, 32, 0));
        assert!(out.is_empty());
        assert_eq!(n.stats().drops_down, 1);
        n.set_up(b, true);
        let out = send(&mut n, SimTime::ZERO, Frame::unicast(a, b, 32, 0));
        assert_eq!(receivers(&out), vec![b]);
    }

    #[test]
    fn down_sender_transmits_nothing() {
        let mut n = net();
        let a = n.attach();
        let b = n.attach();
        n.set_up(a, false);
        let out = send(&mut n, SimTime::ZERO, Frame::unicast(a, b, 32, 0));
        assert!(out.is_empty());
        assert_eq!(n.stats().sender_down, 1);
        assert_eq!(n.stats().frames_sent, 0);
    }

    #[test]
    fn loss_model_drops_per_receiver() {
        let mut n: Ethernet<u32> =
            Ethernet::new(LossModel::EveryNth(2), DetRng::seed(1), Trace::quiet());
        let a = n.attach();
        let _b = n.attach();
        let _c = n.attach();
        // Broadcast to two receivers: the 2nd receiver check drops.
        let out = send(&mut n, SimTime::ZERO, Frame::broadcast(a, 32, 0));
        assert_eq!(out.len(), 1);
        assert_eq!(n.stats().drops_loss, 1);
    }

    #[test]
    fn loss_is_evaluated_independently_per_receiver() {
        // Regression for the `loss.rs` doc contract: every receiver of a
        // broadcast gets its own loss draw, so `EveryNth(3)` across two
        // 3-receiver broadcasts drops exactly receivers #3 and #6 — one
        // drop per frame, at a *different* receiver position each time.
        let mut n: Ethernet<u32> =
            Ethernet::new(LossModel::EveryNth(3), DetRng::seed(1), Trace::quiet());
        let a = n.attach();
        let b = n.attach();
        let c = n.attach();
        let d = n.attach();
        let e = n.attach();
        // Four receivers per broadcast → draws 1,2,3,4 then 5,6,7,8: the
        // multiples of three land on a different receiver each frame.
        let first = send(&mut n, SimTime::ZERO, Frame::broadcast(a, 32, 0));
        assert_eq!(
            receivers(&first),
            vec![b, c, e],
            "3rd per-receiver draw (d) is the drop"
        );
        let second = send(&mut n, SimTime::ZERO, Frame::broadcast(a, 32, 0));
        assert_eq!(
            receivers(&second),
            vec![b, d, e],
            "6th per-receiver draw (c) is the drop"
        );
        assert_eq!(n.stats().drops_loss, 2);
        assert_eq!(n.stats().deliveries, 6);
    }

    #[test]
    fn partition_blocks_directionally_and_heals() {
        let mut n = net();
        let a = n.attach();
        let b = n.attach();
        n.partition(&[a], &[b], false);
        assert!(n.is_blocked(a, b));
        assert!(!n.is_blocked(b, a), "asymmetric partition");
        let out = send(&mut n, SimTime::ZERO, Frame::unicast(a, b, 32, 0));
        assert!(out.is_empty());
        assert_eq!(n.stats().drops_partition, 1);
        // The reverse direction still works.
        let out = send(&mut n, SimTime::ZERO, Frame::unicast(b, a, 32, 0));
        assert_eq!(receivers(&out), vec![a]);
        n.heal(&[a], &[b]);
        let out = send(&mut n, SimTime::ZERO, Frame::unicast(a, b, 32, 0));
        assert_eq!(receivers(&out), vec![b]);
    }

    #[test]
    fn symmetric_partition_blocks_both_ways() {
        let mut n = net();
        let a = n.attach();
        let b = n.attach();
        let c = n.attach();
        n.partition(&[a], &[b, c], true);
        assert!(n.is_blocked(a, c) && n.is_blocked(c, a));
        // A broadcast from `a` reaches nobody; b → c is unaffected.
        assert!(send(&mut n, SimTime::ZERO, Frame::broadcast(a, 32, 0)).is_empty());
        let out = send(&mut n, SimTime::ZERO, Frame::unicast(b, c, 32, 0));
        assert_eq!(receivers(&out), vec![c]);
    }

    #[test]
    fn latency_spike_applies_until_expiry() {
        let mut n = net();
        let a = n.attach();
        let b = n.attach();
        let extra = SimDuration::from_millis(30);
        n.set_link_latency(a, b, extra, SimTime::from_micros(1_000));
        let out = send(&mut n, SimTime::ZERO, Frame::unicast(a, b, 1024, 0));
        assert_eq!(out[0].at, SimTime::from_micros(899 + 30_000));
        // After the window closes the link is back to normal.
        let t = SimTime::from_micros(5_000);
        let out = send(&mut n, t, Frame::unicast(a, b, 1024, 0));
        assert_eq!(out[0].at, t + SimDuration::from_micros(899));
    }

    #[test]
    fn corruption_window_mangles_checksums() {
        let mut n = net();
        let a = n.attach();
        let b = n.attach();
        n.set_corruption(1.0, SimTime::from_micros(100));
        let frame = Frame::unicast(a, b, 32, 0);
        let mut out = Vec::new();
        n.transmit(SimTime::ZERO, &frame, &mut out);
        assert_eq!(out.len(), 1, "corrupt frames are still delivered");
        let copy = out[0].corrupted.as_ref().expect("a damaged copy");
        assert!(!copy.checksum_valid());
        assert!(frame.checksum_valid(), "the frame as sent is intact");
        assert_eq!(n.stats().corrupted, 1);
        // Outside the window frames arrive intact.
        let out = send(
            &mut n,
            SimTime::from_micros(200),
            Frame::unicast(a, b, 32, 0),
        );
        assert!(out[0].corrupted.is_none());
    }

    #[test]
    fn every_nth_loss_hits_the_same_receiver_positions_across_fan_outs() {
        // Draw k (1-based, across transmits) is lost when k % 4 == 0. Six
        // receivers per broadcast: draws 1–6, then 7–12, then 13–18. The
        // arrivals list the survivors, so a lost position is exactly one
        // missing from the receiver order.
        let mut n: Ethernet<u32> =
            Ethernet::new(LossModel::EveryNth(4), DetRng::seed(1), Trace::quiet());
        let hosts: Vec<HostAddr> = (0..7).map(|_| n.attach()).collect();
        let lost = |out: &[Arrival<u32>]| -> Vec<usize> {
            let got = receivers(out);
            (1..7).filter(|i| !got.contains(&hosts[*i])).collect()
        };
        let first = send(&mut n, SimTime::ZERO, Frame::broadcast(hosts[0], 32, 0));
        assert_eq!(lost(&first), vec![4], "draw 4");
        let second = send(&mut n, SimTime::ZERO, Frame::broadcast(hosts[0], 32, 0));
        assert_eq!(lost(&second), vec![2, 6], "draws 8 and 12");
        let third = send(&mut n, SimTime::ZERO, Frame::broadcast(hosts[0], 32, 0));
        assert_eq!(lost(&third), vec![4], "draw 16");
        assert_eq!(n.stats().drops_loss, 4);
        assert_eq!(n.stats().deliveries, 14);
    }

    #[test]
    fn corruption_copies_only_the_corrupted_receivers_frame() {
        let mut n = net();
        let hosts: Vec<HostAddr> = (0..9).map(|_| n.attach()).collect();
        n.set_corruption(0.5, SimTime::from_micros(100));
        let frame = Frame::broadcast(hosts[0], 32, 5);
        let mut out = Vec::new();
        n.transmit(SimTime::ZERO, &frame, &mut out);
        assert_eq!(out.len(), 8, "corruption loses nothing");
        let copies: Vec<&Frame<u32>> = out.iter().filter_map(|a| a.corrupted.as_deref()).collect();
        // Seed 42 corrupts some receivers and spares others.
        assert!(!copies.is_empty() && copies.len() < 8, "{}", copies.len());
        assert_eq!(copies.len() as u64, n.stats().corrupted);
        for copy in copies {
            assert!(!copy.checksum_valid());
            assert_eq!(copy.payload, 5);
        }
        // Everyone else hears the one frame as sent.
        assert!(frame.checksum_valid());
    }

    #[test]
    fn latency_spiked_receiver_gets_its_own_instant() {
        let mut n = net();
        let a = n.attach();
        let b = n.attach();
        let c = n.attach();
        let d = n.attach();
        let extra = SimDuration::from_millis(30);
        n.set_link_latency(a, c, extra, SimTime::from_micros(1_000));
        let out = send(&mut n, SimTime::ZERO, Frame::broadcast(a, 1024, 0));
        assert_eq!(receivers(&out), vec![b, c, d]);
        let at: Vec<SimTime> = out.iter().map(|x| x.at).collect();
        let base = SimTime::from_micros(899);
        assert_eq!(at, vec![base, base + extra, base]);
        assert!(out.iter().all(|x| x.corrupted.is_none()));
    }

    #[test]
    #[should_panic(expected = "unknown station")]
    fn unknown_destination_panics() {
        let mut n = net();
        let a = n.attach();
        send(&mut n, SimTime::ZERO, Frame::unicast(a, HostAddr(9), 32, 0));
    }

    #[test]
    fn transmit_appends_to_the_callers_list() {
        let mut n = net();
        let hosts: Vec<HostAddr> = (0..4).map(|_| n.attach()).collect();
        let g = McastGroup(3);
        n.join(g, hosts[1]);
        n.join(g, hosts[3]);
        let mut arrivals = Vec::new();
        n.transmit(
            SimTime::ZERO,
            &Frame::unicast(hosts[0], hosts[2], 32, 1),
            &mut arrivals,
        );
        n.transmit(
            SimTime::ZERO,
            &Frame::multicast(hosts[2], g, 32, 2),
            &mut arrivals,
        );
        n.transmit(
            SimTime::ZERO,
            &Frame::broadcast(hosts[3], 32, 3),
            &mut arrivals,
        );
        let to: Vec<u16> = arrivals.iter().map(|a| a.to.0).collect();
        assert_eq!(to, [2, 1, 3, 0, 1, 2]);
    }

    #[test]
    fn frame_sizes_are_summarised_exactly() {
        let mut n = net();
        let a = n.attach();
        let b = n.attach();
        let mut sizes = vsim::Samples::new();
        for i in 0..300 {
            let bytes = [32, 1024, 32, 96, 1500][i % 5] + (i as u64 % 7);
            send(&mut n, SimTime::ZERO, Frame::unicast(a, b, bytes, 0));
            sizes.add(bytes as f64);
        }
        let m = n.metrics("net");
        let h = m.histogram(Subsystem::Net, "frame_payload_bytes").unwrap();
        let want = sizes.summary();
        assert_eq!(
            (h.count, h.mean, h.p50, h.p95, h.p99, h.min, h.max),
            (want.count, want.mean, want.p50, want.p95, want.p99, want.min, want.max)
        );
    }

    #[test]
    fn stats_accumulate() {
        let mut n = net();
        let a = n.attach();
        let b = n.attach();
        for i in 0..5 {
            send(&mut n, SimTime::ZERO, Frame::unicast(a, b, 100, i));
        }
        assert_eq!(n.stats().frames_sent, 5);
        assert_eq!(n.stats().deliveries, 5);
        assert_eq!(n.stats().payload_bytes, 500);
    }
}
