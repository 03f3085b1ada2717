//! Simulated time.
//!
//! The whole reproduction runs on a single discrete-event clock with
//! microsecond resolution. Microseconds are fine-grained enough to express
//! the paper's smallest measured cost (the 13 µs per-operation freeze check,
//! §4.1) and coarse enough that a `u64` lasts for half a million simulated
//! years.

use core::fmt;
use core::iter::Sum;
use core::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// An instant on the simulated clock, in microseconds since simulation start.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

/// A span of simulated time, in microseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

impl SimTime {
    /// The simulation epoch (t = 0).
    pub const ZERO: SimTime = SimTime(0);

    /// The largest representable instant. Used as an "infinite" horizon.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Creates an instant `us` microseconds after the epoch.
    pub const fn from_micros(us: u64) -> Self {
        SimTime(us)
    }

    /// Microseconds since the epoch.
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// Seconds since the epoch, as a float (for reporting only).
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1_000_000.0
    }

    /// The duration elapsed since `earlier`.
    ///
    /// # Panics
    ///
    /// Panics if `earlier` is later than `self`; the simulation clock never
    /// runs backwards, so this indicates a logic error.
    #[allow(clippy::expect_used)]
    pub fn since(self, earlier: SimTime) -> SimDuration {
        SimDuration(
            self.0
                .checked_sub(earlier.0)
                .expect("SimTime::since: `earlier` is in the future"),
        )
    }

    /// The duration since `earlier`, or zero if `earlier` is in the future.
    pub fn saturating_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }

    /// Saturating addition of a duration.
    pub fn saturating_add(self, d: SimDuration) -> SimTime {
        SimTime(self.0.saturating_add(d.0))
    }
}

impl SimDuration {
    /// The zero-length duration.
    pub const ZERO: SimDuration = SimDuration(0);

    /// The largest representable duration.
    pub const MAX: SimDuration = SimDuration(u64::MAX);

    /// Creates a duration of `us` microseconds.
    pub const fn from_micros(us: u64) -> Self {
        SimDuration(us)
    }

    /// Creates a duration of `ms` milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        SimDuration(ms * 1_000)
    }

    /// Creates a duration of `s` seconds.
    pub const fn from_secs(s: u64) -> Self {
        SimDuration(s * 1_000_000)
    }

    /// Creates a duration from a float second count, rounding to the nearest
    /// microsecond and clamping negatives to zero.
    // `s` is positive here, and `as` saturates at `u64::MAX` instead of wrapping.
    #[allow(clippy::cast_possible_truncation)]
    pub fn from_secs_f64(s: f64) -> Self {
        if s <= 0.0 {
            SimDuration(0)
        } else {
            SimDuration((s * 1_000_000.0).round() as u64)
        }
    }

    /// Length in microseconds.
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// Length in whole milliseconds (truncating).
    pub const fn as_millis(self) -> u64 {
        self.0 / 1_000
    }

    /// Length in seconds as a float.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1_000_000.0
    }

    /// True if this duration is zero.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Saturating subtraction.
    pub fn saturating_sub(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(other.0))
    }

    /// Multiplies by a float factor, rounding to the nearest microsecond.
    ///
    /// Used for scaling calibrated costs (e.g. "3 s per megabyte" applied to
    /// a fractional megabyte count).
    pub fn mul_f64(self, factor: f64) -> SimDuration {
        SimDuration::from_secs_f64(self.as_secs_f64() * factor)
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    #[allow(clippy::expect_used)]
    fn add(self, d: SimDuration) -> SimTime {
        SimTime(self.0.checked_add(d.0).expect("SimTime overflow"))
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, d: SimDuration) {
        *self = *self + d;
    }
}

impl Sub<SimDuration> for SimTime {
    type Output = SimTime;
    #[allow(clippy::expect_used)]
    fn sub(self, d: SimDuration) -> SimTime {
        SimTime(self.0.checked_sub(d.0).expect("SimTime underflow"))
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    fn sub(self, earlier: SimTime) -> SimDuration {
        self.since(earlier)
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    #[allow(clippy::expect_used)]
    fn add(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.checked_add(other.0).expect("SimDuration overflow"))
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, other: SimDuration) {
        *self = *self + other;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    #[allow(clippy::expect_used)]
    fn sub(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.checked_sub(other.0).expect("SimDuration underflow"))
    }
}

impl SubAssign for SimDuration {
    fn sub_assign(&mut self, other: SimDuration) {
        *self = *self - other;
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    #[allow(clippy::expect_used)]
    fn mul(self, n: u64) -> SimDuration {
        SimDuration(self.0.checked_mul(n).expect("SimDuration overflow"))
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;
    fn div(self, n: u64) -> SimDuration {
        SimDuration(self.0 / n)
    }
}

impl Sum for SimDuration {
    fn sum<I: Iterator<Item = SimDuration>>(iter: I) -> SimDuration {
        iter.fold(SimDuration::ZERO, |a, b| a + b)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t={}", SimDuration(self.0))
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let us = self.0;
        if us >= 1_000_000 {
            write!(f, "{:.3}s", us as f64 / 1_000_000.0)
        } else if us >= 1_000 {
            write!(f, "{:.3}ms", us as f64 / 1_000.0)
        } else {
            write!(f, "{us}us")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_round_trips() {
        assert_eq!(SimDuration::from_millis(3).as_micros(), 3_000);
        assert_eq!(SimDuration::from_secs(2).as_millis(), 2_000);
        assert_eq!(SimTime::from_micros(7).as_micros(), 7);
    }

    #[test]
    fn arithmetic_is_consistent() {
        let t0 = SimTime::from_micros(100);
        let t1 = t0 + SimDuration::from_micros(50);
        assert_eq!(t1.as_micros(), 150);
        assert_eq!(t1.since(t0), SimDuration::from_micros(50));
        assert_eq!(t1 - t0, SimDuration::from_micros(50));
        assert_eq!(t1 - SimDuration::from_micros(150), SimTime::ZERO);
    }

    #[test]
    fn duration_scaling() {
        let three_secs = SimDuration::from_secs(3);
        // The paper's 3 s/MB copy rate applied to half a megabyte.
        assert_eq!(three_secs.mul_f64(0.5), SimDuration::from_millis(1_500));
        assert_eq!(three_secs * 2, SimDuration::from_secs(6));
        assert_eq!(three_secs / 3, SimDuration::from_secs(1));
    }

    #[test]
    fn float_seconds_round_trip() {
        let d = SimDuration::from_secs_f64(0.000_013);
        assert_eq!(d.as_micros(), 13);
        assert!((d.as_secs_f64() - 0.000_013).abs() < 1e-12);
        assert_eq!(SimDuration::from_secs_f64(-1.0), SimDuration::ZERO);
    }

    #[test]
    fn saturating_ops() {
        let t = SimTime::from_micros(5);
        assert_eq!(
            t.saturating_since(SimTime::from_micros(10)),
            SimDuration::ZERO
        );
        assert_eq!(
            SimTime::MAX.saturating_add(SimDuration::from_secs(1)),
            SimTime::MAX
        );
        assert_eq!(
            SimDuration::from_micros(1).saturating_sub(SimDuration::from_micros(2)),
            SimDuration::ZERO
        );
    }

    #[test]
    #[should_panic(expected = "in the future")]
    fn since_panics_on_backwards_time() {
        let _ = SimTime::ZERO.since(SimTime::from_micros(1));
    }

    #[test]
    fn display_picks_sensible_units() {
        assert_eq!(SimDuration::from_micros(13).to_string(), "13us");
        assert_eq!(SimDuration::from_micros(23_000).to_string(), "23.000ms");
        assert_eq!(SimDuration::from_secs(3).to_string(), "3.000s");
    }

    #[test]
    fn duration_sum() {
        let total: SimDuration = [1u64, 2, 3]
            .iter()
            .map(|&s| SimDuration::from_secs(s))
            .sum();
        assert_eq!(total, SimDuration::from_secs(6));
    }
}
