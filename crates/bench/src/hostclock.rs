//! The bench-side real clock for the engine self-profiler.
//!
//! `vsim`'s [`Profiler`](vsim::Profiler) defaults to the deterministic
//! [`NullClock`](vsim::NullClock) so library code never reads host time
//! (the workspace `clippy.toml` bans `Instant` there). Wall-clock
//! attribution therefore lives here, at the edge: bench binaries inject a
//! [`WallClock`] via `Cluster::set_host_clock` and the same dispatch
//! counters gain real nanosecond attribution. vbench's own `clippy.toml`
//! leaves `Instant` allowed.

use std::time::Instant;

use vsim::HostClock;

/// A monotonic host clock backed by [`std::time::Instant`].
pub struct WallClock {
    epoch: Instant,
}

impl WallClock {
    /// A clock whose origin is the moment of construction.
    pub fn new() -> Self {
        WallClock {
            epoch: Instant::now(),
        }
    }
}

impl Default for WallClock {
    fn default() -> Self {
        WallClock::new()
    }
}

impl HostClock for WallClock {
    fn now_ns(&mut self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }
    fn label(&self) -> &'static str {
        "monotonic"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wall_clock_is_monotone() {
        let mut c = WallClock::new();
        let a = c.now_ns();
        let b = c.now_ns();
        assert!(b >= a);
        assert_eq!(c.label(), "monotonic");
    }

    #[test]
    fn profiler_accepts_the_wall_clock() {
        let mut p = vsim::Profiler::with_clock(Box::new(WallClock::new()));
        let s = p.slot(vsim::Subsystem::Engine, "Tick");
        let t0 = p.begin();
        p.end(s, t0, 1);
        let r = p.report();
        assert_eq!(r.clock, "monotonic");
        assert_eq!(r.slot("Tick").unwrap().dispatches, 1);
    }
}
