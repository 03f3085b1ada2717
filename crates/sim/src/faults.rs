//! Deterministic fault injection.
//!
//! A [`FaultPlan`] is a list of scheduled, seed-reproducible fault events:
//! station crashes with optional reboot, asymmetric network partitions with
//! heal, per-link latency spikes, payload corruption windows, and service
//! crash-restarts. Events fire either at an absolute simulated time or when
//! the protocol crosses a registered [`FaultPoint`] (a protocol step and the
//! party it hits: "source after pre-copy round 2", "source at freeze",
//! "source at unfreeze"), so failure timing can be pinned to exactly the
//! windows the paper's recovery arguments (§3.1.3, §3.3, §5) depend on.
//!
//! The plan itself is pure data; the cluster runtime executes it. Because a
//! plan is fixed up front and every stochastic choice inside the simulation
//! draws from a [`DetRng`], a run with a given seed and plan replays exactly.

use crate::rng::DetRng;
use crate::time::{SimDuration, SimTime};

/// The protocol party a fault point names — the station the fault hits
/// when an [`FaultTrigger::AtFaultPoint`] trigger fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Party {
    /// The migration source (the station currently hosting the program).
    Source,
    /// The migration target (the station receiving the copy), or — for
    /// lease steps — the remote station holding the leased program.
    Target,
    /// The program's origin station (the host it was executed from, which
    /// grants and renews its lease).
    Origin,
}

impl Party {
    /// Short static label for traces and reports.
    pub fn label(&self) -> &'static str {
        match self {
            Party::Source => "source",
            Party::Target => "target",
            Party::Origin => "origin",
        }
    }
}

impl core::fmt::Display for Party {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(self.label())
    }
}

/// A protocol step at which fault points are registered. Migration steps
/// follow §3.1's five-step protocol; lease steps cover the liveness
/// subsystem (heartbeat renewal, expiry handling, re-execution).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum ProtocolStep {
    /// Host selection answered (a target accepted `InitMigration`
    /// negotiation is about to begin).
    SelectHost,
    /// The target accepted `InitMigration` and allocated the temporary
    /// logical host.
    InitTarget,
    /// A pre-copy round just completed.
    PrecopyRound,
    /// The logical host was frozen for the final copy.
    Freeze,
    /// The residual (frozen) copy finished transferring.
    ResidualCopy,
    /// The state record was installed at the target — the commit point.
    Commit,
    /// The migrated copy was unfrozen at the target.
    Unfreeze,
    /// The source deleted its copy, releasing the old logical host.
    ReleaseSource,
    /// A lease heartbeat renewal round (remote holder sends, origin
    /// grants).
    LeaseRenew,
    /// A lease ran out: the holder is about to exterminate the orphan, or
    /// the origin declared the remote host silent.
    LeaseExpiry,
    /// The origin is about to re-execute a program whose remote host went
    /// silent.
    ReExec,
}

impl core::fmt::Display for ProtocolStep {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(self.label())
    }
}

impl ProtocolStep {
    /// A short static label for traces and reports.
    pub fn label(&self) -> &'static str {
        match self {
            ProtocolStep::SelectHost => "select-host",
            ProtocolStep::InitTarget => "init-target",
            ProtocolStep::PrecopyRound => "precopy-round",
            ProtocolStep::Freeze => "freeze",
            ProtocolStep::ResidualCopy => "residual-copy",
            ProtocolStep::Commit => "commit",
            ProtocolStep::Unfreeze => "unfreeze",
            ProtocolStep::ReleaseSource => "release-source",
            ProtocolStep::LeaseRenew => "lease-renew",
            ProtocolStep::LeaseExpiry => "lease-expiry",
            ProtocolStep::ReExec => "re-exec",
        }
    }
}

/// One registered fault point: a protocol step crossed with the party the
/// fault hits. The full registry is [`fault_points`]; matrix tests
/// enumerate it so coverage of every point is guaranteed by construction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct FaultPoint {
    /// The protocol step.
    pub step: ProtocolStep,
    /// The party the fault hits when triggered here.
    pub party: Party,
}

impl core::fmt::Display for FaultPoint {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "{}/{}", self.step, self.party)
    }
}

/// Shorthand constructor for a [`FaultPoint`].
const fn fp(step: ProtocolStep, party: Party) -> FaultPoint {
    FaultPoint { step, party }
}

/// The complete fault-point registry: every (protocol step × party)
/// combination the runtime can resolve and fire a fault at. Parties are
/// only listed for steps where they exist — e.g. `ReleaseSource` has no
/// target party (the target already owns the program by then), and
/// `ReExec` only involves the origin.
pub fn fault_points() -> &'static [FaultPoint] {
    const REGISTRY: &[FaultPoint] = &[
        fp(ProtocolStep::SelectHost, Party::Source),
        fp(ProtocolStep::SelectHost, Party::Origin),
        fp(ProtocolStep::InitTarget, Party::Source),
        fp(ProtocolStep::InitTarget, Party::Target),
        fp(ProtocolStep::PrecopyRound, Party::Source),
        fp(ProtocolStep::PrecopyRound, Party::Target),
        fp(ProtocolStep::Freeze, Party::Source),
        fp(ProtocolStep::Freeze, Party::Target),
        fp(ProtocolStep::ResidualCopy, Party::Source),
        fp(ProtocolStep::ResidualCopy, Party::Target),
        fp(ProtocolStep::Commit, Party::Source),
        fp(ProtocolStep::Commit, Party::Target),
        fp(ProtocolStep::Commit, Party::Origin),
        fp(ProtocolStep::Unfreeze, Party::Source),
        fp(ProtocolStep::Unfreeze, Party::Target),
        fp(ProtocolStep::ReleaseSource, Party::Source),
        fp(ProtocolStep::LeaseRenew, Party::Target),
        fp(ProtocolStep::LeaseRenew, Party::Origin),
        fp(ProtocolStep::LeaseExpiry, Party::Target),
        fp(ProtocolStep::LeaseExpiry, Party::Origin),
        fp(ProtocolStep::ReExec, Party::Origin),
    ];
    REGISTRY
}

/// Station-index sentinel for [`FaultTrigger::AtFaultPoint`] events: a
/// `FaultKind` station field set to `PARTY` is resolved to the point's
/// party station when the trigger fires (a `Partition` whose `b` side is
/// empty is resolved to "everyone else"). This keeps `FaultPlan` pure
/// data: the plan names *who in the protocol* fails, and the runtime
/// binds that to a concrete station at fire time.
pub const PARTY: u16 = u16::MAX;

/// When a fault fires.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FaultTrigger {
    /// At an absolute simulated instant.
    At(SimTime),
    /// When the protocol crosses a registered [`FaultPoint`]. Fires once,
    /// for the first matching crossing; station fields in the paired
    /// `FaultKind` equal to [`PARTY`] are resolved to the point's party
    /// station at fire time.
    AtFaultPoint {
        /// The registered point to fire at.
        point: FaultPoint,
        /// Restrict to this pre-copy round (1-based; `None` = any
        /// crossing). Only [`ProtocolStep::PrecopyRound`] crossings carry
        /// a round, so `Some` never matches another step.
        round: Option<u32>,
    },
}

/// What the fault does.
#[derive(Debug, Clone, PartialEq)]
pub enum FaultKind {
    /// Power station `ws` off; optionally power it back on after a delay.
    Crash {
        /// Station index (cluster numbering: 0 is the file server).
        ws: u16,
        /// Reboot delay, or `None` to leave the station down.
        reboot_after: Option<SimDuration>,
    },
    /// Block frames from group `a` to group `b` (and the reverse direction
    /// when `symmetric`); optionally heal after a delay.
    Partition {
        /// First station group.
        a: Vec<u16>,
        /// Second station group.
        b: Vec<u16>,
        /// Also block b → a traffic.
        symmetric: bool,
        /// Heal delay, or `None` to leave the partition in place.
        heal_after: Option<SimDuration>,
    },
    /// Add `extra` latency to frames on the directed link `from → to` for
    /// `duration`.
    LatencySpike {
        /// Sending station.
        from: u16,
        /// Receiving station.
        to: u16,
        /// Extra per-frame delivery latency.
        extra: SimDuration,
        /// How long the spike lasts.
        duration: SimDuration,
    },
    /// Corrupt each delivered frame's payload with `probability` for
    /// `duration`; corrupt frames fail the receiver's checksum and are
    /// dropped.
    Corrupt {
        /// Per-delivery corruption probability.
        probability: f64,
        /// How long the corruption window lasts.
        duration: SimDuration,
    },
    /// Crash-restart station `ws`'s program manager: in-flight transaction
    /// state is lost; the program ledger (recoverable from kernel state) and
    /// the migration watchdog survive.
    ServiceRestart {
        /// Station index.
        ws: u16,
    },
}

impl FaultKind {
    /// Replaces the [`PARTY`] placeholder in the station fields with the
    /// concrete station `ws` the matched protocol party runs on. A
    /// `Partition` with an empty `b` side isolates the party from the
    /// other `stations`.
    pub fn resolve_party(mut self, ws: u16, stations: u16) -> FaultKind {
        let fix = |s: &mut u16| {
            if *s == PARTY {
                *s = ws;
            }
        };
        match &mut self {
            FaultKind::Crash { ws: w, .. } | FaultKind::ServiceRestart { ws: w } => fix(w),
            FaultKind::LatencySpike { from, to, .. } => {
                fix(from);
                fix(to);
            }
            FaultKind::Partition { a, b, .. } => {
                a.iter_mut().for_each(fix);
                if b.is_empty() {
                    *b = (0..stations).filter(|s| !a.contains(s)).collect();
                } else {
                    b.iter_mut().for_each(fix);
                }
            }
            FaultKind::Corrupt { .. } => {}
        }
        self
    }

    /// A short static label for traces and reports.
    pub fn label(&self) -> &'static str {
        match self {
            FaultKind::Crash { .. } => "crash",
            FaultKind::Partition { .. } => "partition",
            FaultKind::LatencySpike { .. } => "latency-spike",
            FaultKind::Corrupt { .. } => "corrupt",
            FaultKind::ServiceRestart { .. } => "service-restart",
        }
    }
}

/// One scheduled fault.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultEvent {
    /// When it fires.
    pub trigger: FaultTrigger,
    /// What it does.
    pub kind: FaultKind,
}

/// A seed-reproducible schedule of fault events.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    /// The fault events, in no particular order.
    pub events: Vec<FaultEvent>,
}

impl FaultPlan {
    /// An empty plan (no faults).
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// True if the plan injects nothing.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Adds an event, builder-style.
    pub fn with(mut self, trigger: FaultTrigger, kind: FaultKind) -> Self {
        self.events.push(FaultEvent { trigger, kind });
        self
    }

    /// Generates a random-but-reproducible plan of 2–5 events over
    /// `stations` stations (index 0, the file server, is never crashed or
    /// restarted) within `horizon`. Every crash reboots and every partition
    /// heals, so a correct cluster must converge to a coherent state.
    ///
    /// # Panics
    ///
    /// Panics if `stations < 3` (fault targets need at least two
    /// workstations) or `horizon` is shorter than 2 s.
    // Every `range_u64` bound here is at most `stations` (a u16) or 3.
    #[allow(clippy::cast_possible_truncation)]
    pub fn random(rng: &mut DetRng, stations: u16, horizon: SimDuration) -> Self {
        assert!(stations >= 3, "need at least two workstations");
        assert!(
            horizon >= SimDuration::from_secs(2),
            "horizon too short for a fault plan"
        );
        let n = rng.range_u64(2, 6);
        let mut events = Vec::new();
        for _ in 0..n {
            let trigger = if rng.chance(0.6) {
                FaultTrigger::At(SimTime::from_micros(
                    rng.range_u64(1_000_000, horizon.as_micros().max(1_000_001)),
                ))
            } else {
                let (step, round) = match rng.index(3) {
                    0 => (ProtocolStep::PrecopyRound, Some(rng.range_u64(1, 3) as u32)),
                    1 => (ProtocolStep::Freeze, None),
                    _ => (ProtocolStep::Unfreeze, None),
                };
                FaultTrigger::AtFaultPoint {
                    point: fp(step, Party::Source),
                    round,
                }
            };
            let kind = match rng.index(5) {
                0 => FaultKind::Crash {
                    ws: rng.range_u64(1, stations as u64) as u16,
                    reboot_after: Some(SimDuration::from_millis(rng.range_u64(3_000, 20_000))),
                },
                1 => {
                    let a = rng.range_u64(1, stations as u64) as u16;
                    let mut b = rng.range_u64(1, stations as u64) as u16;
                    if b == a {
                        b = 1 + (a % (stations - 1));
                    }
                    FaultKind::Partition {
                        a: vec![a],
                        b: vec![b],
                        symmetric: rng.chance(0.5),
                        heal_after: Some(SimDuration::from_millis(rng.range_u64(3_000, 15_000))),
                    }
                }
                2 => {
                    let from = rng.range_u64(0, stations as u64) as u16;
                    let mut to = rng.range_u64(0, stations as u64) as u16;
                    if to == from {
                        to = (from + 1) % stations;
                    }
                    FaultKind::LatencySpike {
                        from,
                        to,
                        extra: SimDuration::from_millis(rng.range_u64(5, 200)),
                        duration: SimDuration::from_millis(rng.range_u64(2_000, 10_000)),
                    }
                }
                3 => FaultKind::Corrupt {
                    probability: rng.range_f64(0.05, 0.3),
                    duration: SimDuration::from_millis(rng.range_u64(2_000, 8_000)),
                },
                _ => FaultKind::ServiceRestart {
                    ws: rng.range_u64(1, stations as u64) as u16,
                },
            };
            events.push(FaultEvent { trigger, kind });
        }
        FaultPlan { events }
    }

    /// The names accepted by [`FaultPlan::by_name`], for sweep validation
    /// and documentation.
    pub fn names() -> &'static [&'static str] {
        &[
            "none",
            "random",
            "crash_storm",
            "partition_heavy",
            "corruption",
            "lease_chaos",
        ]
    }

    /// Builds a named, seed-reproducible plan — the declarative form used
    /// by sweep grids, where a fault-plan axis is a list of names just
    /// like a scalar knob is a list of numbers. Returns `None` for an
    /// unknown name (callers report it against [`FaultPlan::names`]).
    ///
    /// All named plans are self-healing (crashes reboot, partitions heal)
    /// except where a plan's purpose is to exercise permanent loss; every
    /// plan obeys [`FaultPlan::random`]'s station-count and horizon
    /// preconditions.
    ///
    /// # Panics
    ///
    /// Panics if `stations < 3` or `horizon` is shorter than 2 s, like
    /// [`FaultPlan::random`].
    pub fn by_name(name: &str, seed: u64, stations: u16, horizon: SimDuration) -> Option<Self> {
        assert!(stations >= 3, "need at least two workstations");
        assert!(
            horizon >= SimDuration::from_secs(2),
            "horizon too short for a fault plan"
        );
        // Mix the plan name into the seed so sibling axes draw different
        // schedules from the same sweep seed.
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in name.bytes() {
            h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
        let mut rng = DetRng::seed(seed ^ h);
        let span = horizon.as_micros().max(2_000_001);
        let ws = |rng: &mut DetRng| u16::try_from(rng.range_u64(1, stations as u64)).unwrap_or(1);
        let at = |rng: &mut DetRng| {
            FaultTrigger::At(SimTime::from_micros(rng.range_u64(1_000_000, span)))
        };
        let mut plan = FaultPlan::none();
        match name {
            "none" => {}
            "random" => plan = FaultPlan::random(&mut rng, stations, horizon),
            "crash_storm" => {
                for _ in 0..3 {
                    let trigger = at(&mut rng);
                    plan = plan.with(
                        trigger,
                        FaultKind::Crash {
                            ws: ws(&mut rng),
                            reboot_after: Some(SimDuration::from_millis(
                                rng.range_u64(3_000, 12_000),
                            )),
                        },
                    );
                }
            }
            "partition_heavy" => {
                for _ in 0..2 {
                    let a = ws(&mut rng);
                    let mut b = ws(&mut rng);
                    if b == a {
                        b = 1 + (a % (stations - 1));
                    }
                    let trigger = at(&mut rng);
                    plan = plan.with(
                        trigger,
                        FaultKind::Partition {
                            a: vec![a],
                            b: vec![b],
                            symmetric: true,
                            heal_after: Some(SimDuration::from_millis(
                                rng.range_u64(4_000, 15_000),
                            )),
                        },
                    );
                }
            }
            "corruption" => {
                for _ in 0..2 {
                    let trigger = at(&mut rng);
                    plan = plan.with(
                        trigger,
                        FaultKind::Corrupt {
                            probability: rng.range_f64(0.1, 0.4),
                            duration: SimDuration::from_millis(rng.range_u64(2_000, 8_000)),
                        },
                    );
                }
            }
            "lease_chaos" => {
                // A crash long enough to outlive a default lease plus its
                // grace window (so extermination / re-exec paths fire),
                // and a partition racing the grace window.
                let trigger = at(&mut rng);
                plan = plan.with(
                    trigger,
                    FaultKind::Crash {
                        ws: ws(&mut rng),
                        reboot_after: Some(SimDuration::from_millis(rng.range_u64(18_000, 30_000))),
                    },
                );
                let a = ws(&mut rng);
                let mut b = ws(&mut rng);
                if b == a {
                    b = 1 + (a % (stations - 1));
                }
                let trigger = at(&mut rng);
                plan = plan.with(
                    trigger,
                    FaultKind::Partition {
                        a: vec![a],
                        b: vec![b],
                        symmetric: true,
                        heal_after: Some(SimDuration::from_millis(rng.range_u64(12_000, 22_000))),
                    },
                );
            }
            _ => return None,
        }
        Some(plan)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn random_plans_are_reproducible() {
        let a = FaultPlan::random(&mut DetRng::seed(9), 5, SimDuration::from_secs(60));
        let b = FaultPlan::random(&mut DetRng::seed(9), 5, SimDuration::from_secs(60));
        assert_eq!(a, b);
        assert!(a.events.len() >= 2 && a.events.len() <= 5);
    }

    #[test]
    fn random_plans_never_target_the_file_server() {
        for seed in 0..50 {
            let p = FaultPlan::random(&mut DetRng::seed(seed), 4, SimDuration::from_secs(30));
            for e in &p.events {
                match &e.kind {
                    FaultKind::Crash { ws, reboot_after } => {
                        assert!(*ws >= 1);
                        assert!(reboot_after.is_some(), "random crashes must reboot");
                    }
                    FaultKind::Partition {
                        a, b, heal_after, ..
                    } => {
                        assert!(a.iter().all(|&w| w >= 1));
                        assert!(b.iter().all(|&w| w >= 1));
                        assert_ne!(a, b);
                        assert!(heal_after.is_some(), "random partitions must heal");
                    }
                    FaultKind::ServiceRestart { ws } => assert!(*ws >= 1),
                    FaultKind::LatencySpike { .. } | FaultKind::Corrupt { .. } => {}
                }
            }
        }
    }

    /// Every `ProtocolStep`, walked through an exhaustive successor
    /// match: a new variant fails to compile here until it is chained in.
    fn all_steps() -> Vec<ProtocolStep> {
        let mut steps = Vec::new();
        let mut next = Some(ProtocolStep::SelectHost);
        while let Some(step) = next {
            steps.push(step);
            next = match step {
                ProtocolStep::SelectHost => Some(ProtocolStep::InitTarget),
                ProtocolStep::InitTarget => Some(ProtocolStep::PrecopyRound),
                ProtocolStep::PrecopyRound => Some(ProtocolStep::Freeze),
                ProtocolStep::Freeze => Some(ProtocolStep::ResidualCopy),
                ProtocolStep::ResidualCopy => Some(ProtocolStep::Commit),
                ProtocolStep::Commit => Some(ProtocolStep::Unfreeze),
                ProtocolStep::Unfreeze => Some(ProtocolStep::ReleaseSource),
                ProtocolStep::ReleaseSource => Some(ProtocolStep::LeaseRenew),
                ProtocolStep::LeaseRenew => Some(ProtocolStep::LeaseExpiry),
                ProtocolStep::LeaseExpiry => Some(ProtocolStep::ReExec),
                ProtocolStep::ReExec => None,
            };
        }
        steps
    }

    #[test]
    fn every_protocol_step_has_a_fault_point() {
        for step in all_steps() {
            assert!(
                fault_points().iter().any(|p| p.step == step),
                "{step} has no fault point in fault_points()"
            );
        }
    }

    #[test]
    fn registry_is_unique_and_displayable() {
        let points = fault_points();
        assert!(points.len() >= 15, "registry should stay exhaustive");
        let unique: std::collections::BTreeSet<_> = points.iter().copied().collect();
        assert_eq!(unique.len(), points.len(), "duplicate fault point");
        for p in points {
            assert!(p.to_string().contains('/'));
        }
    }

    #[test]
    fn named_plans_are_reproducible_and_validated() {
        for name in FaultPlan::names() {
            let a = FaultPlan::by_name(name, 11, 5, SimDuration::from_secs(30))
                .unwrap_or_else(|| panic!("{name} must resolve"));
            let b = FaultPlan::by_name(name, 11, 5, SimDuration::from_secs(30)).unwrap();
            assert_eq!(a, b, "{name} must replay");
            if *name != "none" {
                assert!(!a.is_empty(), "{name} must schedule something");
            }
        }
        assert!(FaultPlan::by_name("nope", 1, 5, SimDuration::from_secs(30)).is_none());
        // Sibling names must not collapse to the same schedule.
        let storm = FaultPlan::by_name("crash_storm", 7, 5, SimDuration::from_secs(30)).unwrap();
        let parts =
            FaultPlan::by_name("partition_heavy", 7, 5, SimDuration::from_secs(30)).unwrap();
        assert_ne!(storm, parts);
    }

    #[test]
    fn builder_collects_events() {
        let p = FaultPlan::none().with(
            FaultTrigger::At(SimTime::from_micros(5)),
            FaultKind::Corrupt {
                probability: 0.1,
                duration: SimDuration::from_secs(1),
            },
        );
        assert_eq!(p.events.len(), 1);
        assert!(!p.is_empty());
        assert_eq!(p.events[0].kind.label(), "corrupt");
    }
}
