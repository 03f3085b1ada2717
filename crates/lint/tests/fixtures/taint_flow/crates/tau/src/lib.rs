//! Taint fixture: a host-clock reading flows through two locals into a
//! scheduling sink. Banning the clock read (clippy.toml) stops the flow
//! at its source.

/// The event scheduler.
pub struct Sched;

impl Sched {
    /// Schedules an event at `_at`.
    pub fn schedule(&mut self, _at: u64) {}
}

/// A host clock.
pub trait Host {
    /// Host nanoseconds.
    fn now_ns(&self) -> u64;
}

/// Tainted: `clock.now_ns()` → `stamp` → `deadline` → `schedule`.
pub fn tick(clock: &dyn Host, s: &mut Sched) {
    let stamp = clock.now_ns();
    let deadline = stamp + 5;
    s.schedule(deadline);
}

/// Clean: the argument is caller-supplied simulated time.
pub fn tick_sim(at: u64, s: &mut Sched) {
    s.schedule(at + 5);
}
