//! Engine self-profiling: per-subsystem / per-event-kind dispatch counts
//! and wall-clock attribution.
//!
//! The simulator is deterministic, so *counting* dispatches is free and
//! replayable — but attributing *wall-clock* time requires a host clock,
//! which the `det-time` lint bans from library crates. The [`HostClock`]
//! trait squares that circle: the library default is [`NullClock`], which
//! always reads 0 (so every `wall_ns` stays 0 and the library remains
//! clock-free), and bench binaries inject a real monotonic clock at the
//! edge. Dispatch counts are identical either way; only the nanosecond
//! column changes between a test run and a profiling run.
//!
//! # Examples
//!
//! ```
//! use vsim::{Profiler, Subsystem};
//!
//! let mut p = Profiler::null();
//! let slot = p.slot(Subsystem::Net, "Frame");
//! let t0 = p.begin();
//! // ... dispatch the event ...
//! p.end(slot, t0, 1);
//! let report = p.report();
//! assert_eq!(report.slots[0].dispatches, 1);
//! assert_eq!(report.slots[0].wall_ns, 0); // null clock
//! ```

use crate::json::{Json, ToJson};
use crate::trace::Subsystem;

/// A monotonic host-time source for wall-clock attribution.
///
/// `&mut self` so implementations may keep state (e.g. an epoch); reads
/// are nanoseconds from an arbitrary per-clock origin — only differences
/// are meaningful.
pub trait HostClock {
    /// Current reading in nanoseconds.
    fn now_ns(&mut self) -> u64;
    /// Short identifier recorded in reports (`"null"`, `"monotonic"`).
    fn label(&self) -> &'static str;
}

/// The deterministic default clock: always reads 0, so profiled wall
/// times are identically 0 and library code stays free of host time.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullClock;

impl HostClock for NullClock {
    fn now_ns(&mut self) -> u64 {
        0
    }
    fn label(&self) -> &'static str {
        "null"
    }
}

/// Handle to an interned `(subsystem, event-kind)` attribution slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SlotId(u32);

#[derive(Debug, Clone)]
struct Slot {
    subsystem: Subsystem,
    kind: &'static str,
    dispatches: u64,
    wall_ns: u64,
}

/// Accumulates dispatch counts and wall time per interned slot.
pub struct Profiler {
    clock: Box<dyn HostClock>,
    slots: Vec<Slot>,
}

impl std::fmt::Debug for Profiler {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Profiler")
            .field("clock", &self.clock.label())
            .field("slots", &self.slots)
            .finish()
    }
}

impl Default for Profiler {
    fn default() -> Self {
        Profiler::null()
    }
}

impl Profiler {
    /// A profiler on the deterministic [`NullClock`] (counts only).
    pub fn null() -> Self {
        Profiler::with_clock(Box::new(NullClock))
    }

    /// A profiler on an injected clock (bench binaries pass a real one).
    pub fn with_clock(clock: Box<dyn HostClock>) -> Self {
        Profiler {
            clock,
            slots: Vec::new(),
        }
    }

    /// Swaps the clock, keeping accumulated slots.
    pub fn set_clock(&mut self, clock: Box<dyn HostClock>) {
        self.clock = clock;
    }

    /// Interns an attribution slot. Idempotent by `(subsystem, kind)`;
    /// call once per event kind at setup, not on the hot path.
    // Slot ids index one entry per event kind, far below `u32::MAX`.
    #[allow(clippy::cast_possible_truncation)]
    pub fn slot(&mut self, subsystem: Subsystem, kind: &'static str) -> SlotId {
        if let Some(i) = self
            .slots
            .iter()
            .position(|s| s.subsystem == subsystem && s.kind == kind)
        {
            return SlotId(i as u32);
        }
        self.slots.push(Slot {
            subsystem,
            kind,
            dispatches: 0,
            wall_ns: 0,
        });
        SlotId(self.slots.len() as u32 - 1)
    }

    /// Reads the clock before a dispatch; pass the value to [`end`].
    ///
    /// [`end`]: Profiler::end
    #[inline]
    // The sanctioned host-clock read: it feeds wall-time attribution only.
    #[allow(clippy::disallowed_methods)]
    pub fn begin(&mut self) -> u64 {
        self.clock.now_ns()
    }

    /// Charges `dispatches` dispatches (and the elapsed wall time since
    /// `t0`) to `slot`: one per event, or one per item of an event that
    /// carries several (the receivers of one queued frame). Under the
    /// null clock the elapsed time is always 0.
    #[inline]
    // The sanctioned host-clock read: it feeds wall-time attribution only.
    #[allow(clippy::disallowed_methods)]
    pub fn end(&mut self, slot: SlotId, t0: u64, dispatches: u64) {
        let now = self.clock.now_ns();
        let s = &mut self.slots[slot.0 as usize];
        s.dispatches += dispatches;
        s.wall_ns += now.saturating_sub(t0);
    }

    /// Snapshots every slot for artifact emission, sorted by descending
    /// wall time then descending dispatches (hottest first), ties broken
    /// by subsystem and kind so the order is deterministic.
    pub fn report(&self) -> ProfileReport {
        let mut slots: Vec<SlotReport> = self
            .slots
            .iter()
            .map(|s| SlotReport {
                subsystem: s.subsystem,
                kind: s.kind,
                dispatches: s.dispatches,
                wall_ns: s.wall_ns,
            })
            .collect();
        slots.sort_by(|a, b| {
            b.wall_ns
                .cmp(&a.wall_ns)
                .then(b.dispatches.cmp(&a.dispatches))
                .then(a.subsystem.to_string().cmp(&b.subsystem.to_string()))
                .then(a.kind.cmp(b.kind))
        });
        ProfileReport {
            clock: self.clock.label(),
            slots,
        }
    }
}

/// One slot's accumulated attribution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SlotReport {
    /// Subsystem the event kind belongs to.
    pub subsystem: Subsystem,
    /// Event-kind label (the `Event` variant name).
    pub kind: &'static str,
    /// Times this kind was dispatched.
    pub dispatches: u64,
    /// Wall nanoseconds spent dispatching it (0 under the null clock).
    pub wall_ns: u64,
}

/// A frozen [`Profiler`]: the `profile` section of bench artifacts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProfileReport {
    /// Label of the clock that produced `wall_ns` values.
    pub clock: &'static str,
    /// Per-slot attribution, hottest first.
    pub slots: Vec<SlotReport>,
}

impl ProfileReport {
    /// Finds a slot by event-kind label.
    pub fn slot(&self, kind: &str) -> Option<&SlotReport> {
        self.slots.iter().find(|s| s.kind == kind)
    }
}

impl ToJson for SlotReport {
    fn to_json(&self) -> Json {
        Json::obj([
            ("subsystem", self.subsystem.to_string().to_json()),
            ("kind", self.kind.to_json()),
            ("dispatches", self.dispatches.to_json()),
            ("wall_ns", self.wall_ns.to_json()),
        ])
    }
}

impl ToJson for ProfileReport {
    fn to_json(&self) -> Json {
        Json::obj([
            ("clock", self.clock.to_json()),
            ("slots", self.slots.to_json()),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A scripted clock for testing wall attribution without host time.
    struct StepClock {
        t: u64,
        step: u64,
    }

    impl HostClock for StepClock {
        fn now_ns(&mut self) -> u64 {
            let t = self.t;
            self.t += self.step;
            t
        }
        fn label(&self) -> &'static str {
            "step"
        }
    }

    #[test]
    fn slots_are_interned_idempotently() {
        let mut p = Profiler::null();
        let a = p.slot(Subsystem::Net, "Frame");
        let b = p.slot(Subsystem::Net, "Frame");
        let c = p.slot(Subsystem::Kernel, "Frame");
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(p.report().slots.len(), 2);
    }

    #[test]
    fn null_clock_counts_but_attributes_zero_time() {
        let mut p = Profiler::null();
        let s = p.slot(Subsystem::Engine, "Tick");
        for _ in 0..5 {
            let t0 = p.begin();
            p.end(s, t0, 1);
        }
        let r = p.report();
        assert_eq!(r.clock, "null");
        assert_eq!(r.slot("Tick").unwrap().dispatches, 5);
        assert_eq!(r.slot("Tick").unwrap().wall_ns, 0);
    }

    #[test]
    fn injected_clock_attributes_elapsed_time() {
        let mut p = Profiler::with_clock(Box::new(StepClock { t: 0, step: 10 }));
        let s = p.slot(Subsystem::Cluster, "Command");
        let t0 = p.begin(); // reads 0
        p.end(s, t0, 1); // reads 10 -> charges 10
        let t0 = p.begin(); // reads 20
        p.end(s, t0, 1); // reads 30 -> charges 10
        let r = p.report();
        assert_eq!(r.clock, "step");
        assert_eq!(r.slot("Command").unwrap().dispatches, 2);
        assert_eq!(r.slot("Command").unwrap().wall_ns, 20);
    }

    #[test]
    fn one_event_can_charge_several_dispatches_and_its_time_once() {
        let mut p = Profiler::with_clock(Box::new(StepClock { t: 0, step: 10 }));
        let s = p.slot(Subsystem::Net, "Frame");
        let t0 = p.begin();
        p.end(s, t0, 16); // one event carrying sixteen receivers
        let r = p.report();
        assert_eq!(r.slot("Frame").unwrap().dispatches, 16);
        assert_eq!(r.slot("Frame").unwrap().wall_ns, 10);
    }

    #[test]
    fn report_sorts_hottest_first_deterministically() {
        let mut p = Profiler::with_clock(Box::new(StepClock { t: 0, step: 1 }));
        let cold = p.slot(Subsystem::Net, "Cold");
        let hot = p.slot(Subsystem::Kernel, "Hot");
        let t0 = p.begin();
        p.end(cold, t0, 1);
        for _ in 0..10 {
            let t0 = p.begin();
            p.end(hot, t0, 1);
        }
        let r = p.report();
        assert_eq!(r.slots[0].kind, "Hot");
        assert_eq!(r.slots[1].kind, "Cold");
    }

    #[test]
    fn swapping_clock_keeps_counts() {
        let mut p = Profiler::null();
        let s = p.slot(Subsystem::Engine, "Tick");
        let t0 = p.begin();
        p.end(s, t0, 1);
        p.set_clock(Box::new(StepClock { t: 0, step: 7 }));
        let t0 = p.begin();
        p.end(s, t0, 1);
        let r = p.report();
        assert_eq!(r.clock, "step");
        assert_eq!(r.slot("Tick").unwrap().dispatches, 2);
        assert_eq!(r.slot("Tick").unwrap().wall_ns, 7);
    }
}
