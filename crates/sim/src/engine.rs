//! The discrete-event engine.
//!
//! A single [`Engine`] owns the pending-event queue and the simulated clock.
//! Components of the simulation are *sans-IO state machines*: they never
//! block and never sleep; instead they schedule future events on the engine
//! and react when those events are popped.
//!
//! Determinism: events that fire at the same instant are delivered in the
//! order they were scheduled (FIFO tie-break on a monotone sequence number),
//! so a run is a pure function of the initial state and the RNG seed.
//! Pending events live in one binary heap ordered by `(at, seq)`.
//!
//! Every scheduled event is delivered: there is no cancellation. A
//! component whose timer has outlived its purpose recognises the stale
//! event when it fires and ignores it.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::metrics::ScopeMetrics;
use crate::time::{SimDuration, SimTime};
use crate::trace::Subsystem;

/// One pending event: its firing time, its schedule sequence number (the
/// FIFO tie-break), and the payload.
struct Entry<E> {
    at: SimTime,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<E> Eq for Entry<E> {}

impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest (and, within an
        // instant, the first-pushed) entry surfaces first.
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// A deterministic discrete-event queue with a simulated clock.
///
/// # Examples
///
/// ```
/// use vsim::{Engine, SimDuration, SimTime};
///
/// let mut engine: Engine<&str> = Engine::new();
/// engine.schedule_after(SimDuration::from_millis(5), "world");
/// engine.schedule_after(SimDuration::from_millis(1), "hello");
///
/// let mut seen = Vec::new();
/// while let Some((t, e)) = engine.step() {
///     seen.push((t.as_micros(), e));
/// }
/// assert_eq!(seen, vec![(1_000, "hello"), (5_000, "world")]);
/// ```
///
/// Driving a state machine that schedules follow-up events:
///
/// ```
/// use vsim::{Engine, SimDuration};
///
/// let mut engine: Engine<u32> = Engine::new();
/// engine.schedule_now(0);
/// let mut fired = Vec::new();
/// while let Some((_, ev)) = engine.step() {
///     fired.push(ev);
///     if ev < 3 {
///         engine.schedule_after(SimDuration::from_micros(1), ev + 1);
///     }
/// }
/// assert_eq!(fired, vec![0, 1, 2, 3]);
/// assert_eq!(engine.events_delivered(), 4);
/// ```
pub struct Engine<E> {
    queue: BinaryHeap<Entry<E>>,
    now: SimTime,
    /// Sequence number of the next scheduled event, which is also the
    /// number of events scheduled so far.
    next_seq: u64,
    /// Events delivered so far.
    popped: u64,
}

impl<E> Default for Engine<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> Engine<E> {
    /// Creates an empty engine with the clock at [`SimTime::ZERO`].
    pub fn new() -> Self {
        Engine {
            queue: BinaryHeap::new(),
            now: SimTime::ZERO,
            next_seq: 0,
            popped: 0,
        }
    }

    /// The current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The engine's counters and queue-depth gauge under the scope label
    /// `scope`. The gauge is read from the queue itself.
    pub fn metrics(&self, scope: &str) -> ScopeMetrics {
        ScopeMetrics::new(scope)
            .with_counter(Subsystem::Engine, "events_scheduled", self.next_seq)
            .with_counter(Subsystem::Engine, "events_delivered", self.popped)
            .with_gauge(Subsystem::Engine, "queue_depth", self.pending() as f64)
    }

    /// Number of events delivered so far.
    pub fn events_delivered(&self) -> u64 {
        self.popped
    }

    /// Number of events still pending.
    pub fn pending(&self) -> usize {
        self.queue.len()
    }

    /// Schedules `event` to fire at the absolute instant `at`.
    ///
    /// Scheduling in the past is a logic error in a discrete-event model.
    ///
    /// # Panics
    ///
    /// Panics if `at` is earlier than the current time.
    pub fn schedule_at(&mut self, at: SimTime, event: E) {
        assert!(
            at >= self.now,
            "scheduled event in the past: {at} < now {}",
            self.now
        );
        let seq = self.next_seq;
        self.next_seq += 1;
        self.queue.push(Entry { at, seq, event });
    }

    /// Schedules `event` to fire `delay` after the current time.
    pub fn schedule_after(&mut self, delay: SimDuration, event: E) {
        self.schedule_at(self.now + delay, event)
    }

    /// Schedules `event` at the current instant, after all events already
    /// scheduled for this instant.
    pub fn schedule_now(&mut self, event: E) {
        self.schedule_at(self.now, event)
    }

    /// Delivers the next event, advancing the clock to its firing time.
    ///
    /// Returns `None` when the queue is empty.
    pub fn step(&mut self) -> Option<(SimTime, E)> {
        self.step_due(SimTime::MAX)
    }

    /// Delivers the next event if it fires at or before `limit`.
    ///
    /// Advances the clock to the event time on success. The clock is *not*
    /// advanced to `limit` on failure; call [`Engine::advance_to`] if a
    /// scenario needs the clock moved past the last event.
    pub fn step_due(&mut self, limit: SimTime) -> Option<(SimTime, E)> {
        if self.queue.peek()?.at > limit {
            return None;
        }
        let Entry { at, event, .. } = self.queue.pop()?;
        debug_assert!(at >= self.now, "event queue went backwards");
        self.now = at;
        self.popped += 1;
        Some((at, event))
    }

    /// Moves the clock forward to `t` without delivering events.
    ///
    /// # Panics
    ///
    /// Panics if an undelivered event is pending before `t`, or if `t` is in
    /// the past — both indicate scenario logic errors.
    pub fn advance_to(&mut self, t: SimTime) {
        assert!(t >= self.now, "advance_to moving backwards");
        if let Some(e) = self.queue.peek() {
            assert!(
                e.at >= t,
                "advance_to({t}) would skip a pending event at {}",
                e.at
            );
        }
        self.now = t;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut e: Engine<u32> = Engine::new();
        e.schedule_after(SimDuration::from_micros(30), 3);
        e.schedule_after(SimDuration::from_micros(10), 1);
        e.schedule_after(SimDuration::from_micros(20), 2);
        let order: Vec<u32> = std::iter::from_fn(|| e.step().map(|(_, v)| v)).collect();
        assert_eq!(order, vec![1, 2, 3]);
        assert_eq!(e.now(), SimTime::from_micros(30));
    }

    #[test]
    fn same_instant_is_fifo() {
        let mut e: Engine<u32> = Engine::new();
        let t = SimTime::from_micros(5);
        for v in 0..100 {
            e.schedule_at(t, v);
        }
        let order: Vec<u32> = std::iter::from_fn(|| e.step().map(|(_, v)| v)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn step_due_respects_limit() {
        let mut e: Engine<u32> = Engine::new();
        e.schedule_after(SimDuration::from_micros(10), 1);
        e.schedule_after(SimDuration::from_micros(20), 2);
        assert_eq!(
            e.step_due(SimTime::from_micros(15)).map(|(_, v)| v),
            Some(1)
        );
        assert_eq!(e.step_due(SimTime::from_micros(15)), None);
        // The clock stays at the last delivered event.
        assert_eq!(e.now(), SimTime::from_micros(10));
        assert_eq!(e.step().map(|(_, v)| v), Some(2));
    }

    #[test]
    fn schedule_now_runs_after_peers_at_same_instant() {
        let mut e: Engine<&str> = Engine::new();
        e.schedule_at(SimTime::ZERO, "first");
        e.schedule_now("second");
        assert_eq!(e.step().map(|(_, v)| v), Some("first"));
        assert_eq!(e.step().map(|(_, v)| v), Some("second"));
    }

    #[test]
    #[should_panic(expected = "in the past")]
    fn scheduling_in_the_past_panics() {
        let mut e: Engine<u32> = Engine::new();
        e.schedule_after(SimDuration::from_micros(10), 1);
        e.step();
        e.schedule_at(SimTime::from_micros(5), 2);
    }

    #[test]
    fn advance_to_moves_idle_clock() {
        let mut e: Engine<u32> = Engine::new();
        e.advance_to(SimTime::from_micros(100));
        assert_eq!(e.now(), SimTime::from_micros(100));
        // An event at or after the target stays pending.
        e.schedule_after(SimDuration::from_micros(20), 2);
        e.advance_to(SimTime::from_micros(110));
        assert_eq!(e.step(), Some((SimTime::from_micros(120), 2)));
    }

    #[test]
    #[should_panic(expected = "would skip")]
    fn advance_to_refuses_to_skip_events() {
        let mut e: Engine<u32> = Engine::new();
        e.schedule_after(SimDuration::from_micros(10), 1);
        e.advance_to(SimTime::from_micros(20));
    }

    #[test]
    fn queue_gauge_tracks_depth() {
        let mut e: Engine<u32> = Engine::new();
        let depth = |e: &Engine<u32>| e.metrics("engine").gauge(Subsystem::Engine, "queue_depth");
        assert_eq!(depth(&e), Some(0.0));
        e.schedule_after(SimDuration::from_micros(1), 1);
        e.schedule_after(SimDuration::from_micros(2), 2);
        assert_eq!(depth(&e), Some(2.0));
        assert_eq!(e.step().map(|(_, v)| v), Some(1));
        assert_eq!(depth(&e), Some(1.0));
        assert_eq!(e.step().map(|(_, v)| v), Some(2));
        assert_eq!(depth(&e), Some(0.0));
    }
}
