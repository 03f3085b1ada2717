//! The simulation context: one narrow handle over clock, queue, and trace.
//!
//! In the dslab shape, components don't thread `&mut Engine` plus a
//! separate `&mut Trace` (plus a copy of `now`) through every call — they
//! hold one cheap context that answers `now()`, schedules, cancels, and
//! emits trace records stamped with the current instant. [`SimContext`]
//! is that handle for this codebase: the cluster runtime owns one and
//! drives the whole simulation through it, and the trace helpers
//! ([`SimContext::info`] etc.) stamp `now` themselves so dispatch code
//! can't emit a record at the wrong time.

use crate::engine::{Engine, EventId};
use crate::profile::{HostClock, Profiler};
use crate::time::{SimDuration, SimTime};
use crate::trace::{Subsystem, Trace, TraceEvent, TraceLevel};

/// An [`Engine`] and its [`Trace`] behind one surface.
///
/// # Examples
///
/// ```
/// use vsim::{SimContext, SimDuration, Subsystem, Trace, TraceEvent, TraceLevel};
///
/// let mut ctx: SimContext<&str> = SimContext::new(Trace::new(TraceLevel::Info));
/// ctx.schedule_after(SimDuration::from_millis(1), "tick");
/// while let Some((_, ev)) = ctx.step() {
///     assert_eq!(ev, "tick");
///     ctx.info(Subsystem::Cluster, TraceEvent::Note { text: "handled" });
/// }
/// assert_eq!(ctx.trace().records().len(), 1);
/// assert_eq!(ctx.trace().records()[0].at, ctx.now());
/// ```
pub struct SimContext<E> {
    engine: Engine<E>,
    trace: Trace,
    profiler: Profiler,
}

impl<E> SimContext<E> {
    /// A context with an empty engine and the given trace.
    pub fn new(trace: Trace) -> Self {
        SimContext {
            engine: Engine::new(),
            trace,
            profiler: Profiler::null(),
        }
    }

    // --- Clock and queue (forwarded to the engine). ---

    /// The current simulated time.
    #[inline]
    pub fn now(&self) -> SimTime {
        self.engine.now()
    }

    /// Schedules `event` at the absolute instant `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` is in the past (see [`Engine::schedule_at`]).
    pub fn schedule_at(&mut self, at: SimTime, event: E) -> EventId {
        self.engine.schedule_at(at, event)
    }

    /// Schedules `event` to fire `delay` after the current time.
    pub fn schedule_after(&mut self, delay: SimDuration, event: E) -> EventId {
        self.engine.schedule_after(delay, event)
    }

    /// Schedules `event` at the current instant, after its peers.
    pub fn schedule_now(&mut self, event: E) -> EventId {
        self.engine.schedule_now(event)
    }

    /// Cancels a scheduled event (lazy; see [`Engine::cancel`]).
    pub fn cancel(&mut self, id: EventId) {
        self.engine.cancel(id);
    }

    /// Events still pending on the queue.
    pub fn pending(&self) -> usize {
        self.engine.pending()
    }

    /// Events delivered so far.
    pub fn events_delivered(&self) -> u64 {
        self.engine.events_delivered()
    }

    /// Delivers the next event, advancing the clock.
    pub fn step(&mut self) -> Option<(SimTime, E)> {
        self.engine.step()
    }

    /// Delivers the next event at or before `limit`.
    pub fn step_due(&mut self, limit: SimTime) -> Option<(SimTime, E)> {
        self.engine.step_due(limit)
    }

    /// Moves the idle clock forward (see [`Engine::advance_to`]).
    ///
    /// # Panics
    ///
    /// Panics if an undelivered event is pending before `t`.
    pub fn advance_to(&mut self, t: SimTime) {
        self.engine.advance_to(t);
    }

    /// The underlying engine.
    pub fn engine(&self) -> &Engine<E> {
        &self.engine
    }

    // --- Tracing, stamped with the current instant. ---

    /// True when records at `level` would be retained.
    #[inline]
    pub fn trace_enabled(&self, level: TraceLevel) -> bool {
        self.trace.enabled(level)
    }

    /// Emits a [`TraceLevel::Detail`] record at the current instant.
    pub fn detail(&mut self, subsystem: Subsystem, event: TraceEvent) {
        let now = self.engine.now();
        self.trace.detail(now, subsystem, event);
    }

    /// Emits a [`TraceLevel::Info`] record at the current instant.
    pub fn info(&mut self, subsystem: Subsystem, event: TraceEvent) {
        let now = self.engine.now();
        self.trace.info(now, subsystem, event);
    }

    /// Emits a [`TraceLevel::Warn`] record at the current instant.
    pub fn warn(&mut self, subsystem: Subsystem, event: TraceEvent) {
        let now = self.engine.now();
        self.trace.warn(now, subsystem, event);
    }

    /// The context's trace: a handle to the buffer shared with every
    /// component that was handed a clone of it.
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// Mutable trace access, for emitters that stamp a span themselves
    /// (see [`crate::SpanId::done`]).
    pub fn trace_mut(&mut self) -> &mut Trace {
        &mut self.trace
    }

    // --- Self-profiling (see [`crate::profile`]). ---

    /// The dispatch profiler (null-clocked by default, so deterministic).
    pub fn profiler(&self) -> &Profiler {
        &self.profiler
    }

    /// Mutable profiler access: interning slots, charging dispatches.
    pub fn profiler_mut(&mut self) -> &mut Profiler {
        &mut self.profiler
    }

    /// Injects a real host clock for wall-clock attribution. Only bench
    /// binaries should call this; library code stays on the null clock so
    /// simulation results never depend on host time.
    pub fn set_host_clock(&mut self, clock: Box<dyn HostClock>) {
        self.profiler.set_clock(clock);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_helpers_stamp_the_clock() {
        let mut ctx: SimContext<u32> = SimContext::new(Trace::new(TraceLevel::Detail));
        ctx.schedule_after(SimDuration::from_micros(7), 1);
        while ctx.step().is_some() {
            ctx.info(Subsystem::Cluster, TraceEvent::Note { text: "fired" });
        }
        let recs = ctx.trace().records();
        assert_eq!(recs.len(), 1);
        assert_eq!(recs[0].at, SimTime::from_micros(7));
    }

    #[test]
    fn forwards_queue_operations() {
        let mut ctx: SimContext<u32> = SimContext::new(Trace::default());
        let id = ctx.schedule_after(SimDuration::from_micros(5), 9);
        assert_eq!(ctx.pending(), 1);
        ctx.cancel(id);
        assert_eq!(ctx.pending(), 0);
        assert_eq!(ctx.step(), None);
        ctx.advance_to(SimTime::from_micros(50));
        assert_eq!(ctx.now(), SimTime::from_micros(50));
        assert_eq!(ctx.events_delivered(), 0);
    }
}
