//! Simulated time.
//!
//! All simulation timestamps are [`SimTime`] — microseconds since the start
//! of the run on the *global* (omniscient) clock. Individual sites never see
//! `SimTime` directly; they observe it through their [`crate::SiteClock`],
//! which may be skewed or drifting.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// A point in simulated time, in microseconds from the start of the run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(pub u64);

/// A span of simulated time, in microseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(pub u64);

impl SimTime {
    /// The origin of simulated time.
    pub const ZERO: SimTime = SimTime(0);
    /// The largest representable instant; used as an "infinitely far" horizon.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Construct from whole microseconds.
    pub const fn from_micros(us: u64) -> Self {
        SimTime(us)
    }

    /// Construct from whole milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        SimTime(ms * 1_000)
    }

    /// Construct from whole seconds.
    pub const fn from_secs(s: u64) -> Self {
        SimTime(s * 1_000_000)
    }

    /// The raw microsecond count.
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// Time as fractional seconds (for reporting).
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// The duration elapsed since `earlier`, saturating at zero.
    pub fn since(self, earlier: SimTime) -> SimDuration {
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

    /// Construct from whole microseconds.
    pub const fn from_micros(us: u64) -> Self {
        SimDuration(us)
    }

    /// Construct from whole milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        SimDuration(ms * 1_000)
    }

    /// Construct from whole seconds.
    pub const fn from_secs(s: u64) -> Self {
        SimDuration(s * 1_000_000)
    }

    /// The raw microsecond count.
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// Duration as fractional seconds (for reporting).
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Duration as fractional milliseconds (for reporting).
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1e3
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    fn sub(self, rhs: SimTime) -> SimDuration {
        SimDuration(self.0 - rhs.0)
    }
}

impl Add<SimDuration> for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 + rhs.0)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}ms", self.as_millis_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_agree() {
        assert_eq!(SimTime::from_secs(2), SimTime::from_millis(2_000));
        assert_eq!(SimTime::from_millis(3), SimTime::from_micros(3_000));
        assert_eq!(SimDuration::from_secs(1).as_micros(), 1_000_000);
    }

    #[test]
    fn arithmetic() {
        let t = SimTime::from_millis(10) + SimDuration::from_millis(5);
        assert_eq!(t, SimTime::from_millis(15));
        assert_eq!(t - SimTime::from_millis(10), SimDuration::from_millis(5));
        let mut u = SimTime::ZERO;
        u += SimDuration::from_micros(7);
        assert_eq!(u.as_micros(), 7);
    }

    #[test]
    fn since_saturates() {
        let a = SimTime::from_millis(1);
        let b = SimTime::from_millis(2);
        assert_eq!(a.since(b), SimDuration::ZERO);
        assert_eq!(b.since(a), SimDuration::from_millis(1));
    }

    #[test]
    fn display_formats() {
        assert_eq!(SimTime::from_secs(1).to_string(), "1.000000s");
        assert_eq!(SimDuration::from_millis(2).to_string(), "2.000ms");
    }

    #[test]
    fn ordering() {
        assert!(SimTime::from_micros(1) < SimTime::from_micros(2));
        assert!(SimTime::MAX > SimTime::from_secs(1_000_000));
    }
}
