//! `vtrace` — query library over the telemetry artifacts the bench
//! binaries emit.
//!
//! Every bench artifact is a single JSON document (see
//! `vbench::emit_full`) whose optional `series` section carries the
//! change-point [`SeriesReport`](vsim::SeriesReport), whose optional
//! `profile` section carries the engine self-profiler's
//! [`ProfileReport`](vsim::ProfileReport), and whose optional `spans`
//! section carries per-span duration summaries. The companion
//! `<name>_trace.json` files are Chrome Trace Event documents
//! (`traceEvents`). This crate reads both shapes back with
//! [`vsim::Json::parse`] — no external dependencies — and answers the
//! questions the raw JSON makes awkward:
//!
//! * [`query::top`] — hottest event kinds / subsystems from `profile`;
//! * [`query::aggregate`] — windowed rate and p50/p95/p99 over `series`;
//! * [`query::filter`] — cut any document down by subsystem, host, span
//!   name, or sim-time window;
//! * [`export::counter_trace`] — render `series` as Perfetto counter
//!   tracks ("C" events), optionally merged with an existing span trace.
//!
//! All operations are pure functions over [`Json`] so they are testable
//! without touching the filesystem; `main.rs` owns I/O and exit codes.

pub mod export;
pub mod query;

use vsim::Json;

/// Reads and parses a JSON document, mapping both I/O and syntax errors
/// to a displayable string that names the file.
pub fn load(path: &std::path::Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// An inclusive-exclusive sim-time window in microseconds; `None` bounds
/// are open.
#[derive(Clone, Copy, Default)]
pub struct Window {
    /// Inclusive lower bound, simulated microseconds.
    pub from_us: Option<u64>,
    /// Exclusive upper bound, simulated microseconds.
    pub to_us: Option<u64>,
}

impl Window {
    /// True when `t` (µs) falls inside the window.
    #[must_use]
    pub fn contains(&self, t: u64) -> bool {
        self.from_us.is_none_or(|f| t >= f) && self.to_us.is_none_or(|to| t < to)
    }

    /// True when both bounds are open (no filtering).
    #[must_use]
    pub fn is_open(&self) -> bool {
        self.from_us.is_none() && self.to_us.is_none()
    }
}

/// Reads a JSON number as `u64` (negative and fractional values are
/// `None` — artifact timestamps and counts are unsigned integers).
#[must_use]
pub fn num_u64(j: &Json) -> Option<u64> {
    match j {
        Json::UInt(u) => Some(*u),
        Json::Int(i) => u64::try_from(*i).ok(),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn window_bounds_are_half_open() {
        let w = Window {
            from_us: Some(10),
            to_us: Some(20),
        };
        assert!(!w.contains(9));
        assert!(w.contains(10));
        assert!(w.contains(19));
        assert!(!w.contains(20));
        assert!(Window::default().is_open());
        assert!(Window::default().contains(u64::MAX));
    }
}
