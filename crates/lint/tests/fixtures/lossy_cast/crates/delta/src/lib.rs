//! Known-bad fixture: a narrowing cast on simulated-time arithmetic.
#![deny(clippy::cast_possible_truncation)]

/// Silently wraps past 71 minutes of microseconds.
pub fn truncate_time(micros: u64) -> u32 {
    micros as u32
}

/// Widening is lossless: no finding.
pub fn widen_is_fine(x: u16) -> u64 {
    u64::from(x)
}
