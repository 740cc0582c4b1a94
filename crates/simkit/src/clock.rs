//! Per-site clocks with skew and drift.
//!
//! §5.2 of the paper proposes generating serial numbers from "real time site
//! clocks, expanded with the unique site identifier", and argues that "the
//! amount of the time drift among the clocks has no influence on the
//! correctness of the Certifier. The drift may cause unnecessary aborts,
//! only." Experiment XT4 measures exactly this, which requires a clock model
//! whose error is controllable.
//!
//! A [`SiteClock`] maps true simulated time `t` to the locally observed time
//!
//! ```text
//! local(t) = t + skew + drift_ppm * t / 1_000_000
//! ```
//!
//! `skew` is a constant offset (may be negative); `drift_ppm` is a constant
//! rate error in parts-per-million (may be negative). Both zero gives a
//! perfect clock.

use crate::time::SimTime;

/// A site-local clock with constant skew and linear drift.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SiteClock {
    /// Constant offset added to true time, in microseconds (may be negative).
    pub skew_us: i64,
    /// Rate error in parts-per-million (may be negative).
    pub drift_ppm: i64,
}

impl Default for SiteClock {
    fn default() -> Self {
        SiteClock::perfect()
    }
}

impl SiteClock {
    /// A clock with no error: `local(t) == t`.
    pub const fn perfect() -> Self {
        SiteClock {
            skew_us: 0,
            drift_ppm: 0,
        }
    }

    /// A clock with constant offset only.
    pub const fn with_skew(skew_us: i64) -> Self {
        SiteClock {
            skew_us,
            drift_ppm: 0,
        }
    }

    /// A clock with both a constant offset and a rate error.
    pub const fn new(skew_us: i64, drift_ppm: i64) -> Self {
        SiteClock { skew_us, drift_ppm }
    }

    /// The locally observed time at true time `t`, in microseconds.
    ///
    /// The result saturates at zero: a local clock never reads negative even
    /// if the configured skew would take it below the epoch.
    pub fn read(&self, t: SimTime) -> u64 {
        let base = t.as_micros() as i128;
        let drift = base * self.drift_ppm as i128 / 1_000_000;
        let local = base + self.skew_us as i128 + drift;
        local.clamp(0, u64::MAX as i128) as u64
    }

    /// Absolute clock error at true time `t`, in microseconds.
    pub fn error_at(&self, t: SimTime) -> i64 {
        let local = self.read(t) as i128;
        (local - t.as_micros() as i128) as i64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfect_clock_is_identity() {
        let c = SiteClock::perfect();
        for us in [0u64, 1, 1_000_000, 123_456_789] {
            assert_eq!(c.read(SimTime::from_micros(us)), us);
        }
    }

    #[test]
    fn positive_skew_shifts_forward() {
        let c = SiteClock::with_skew(500);
        assert_eq!(c.read(SimTime::from_micros(1_000)), 1_500);
        assert_eq!(c.error_at(SimTime::from_micros(1_000)), 500);
    }

    #[test]
    fn negative_skew_saturates_at_zero() {
        let c = SiteClock::with_skew(-10_000);
        assert_eq!(c.read(SimTime::from_micros(5_000)), 0);
        assert_eq!(c.read(SimTime::from_micros(20_000)), 10_000);
    }

    #[test]
    fn drift_accumulates_linearly() {
        // +100 ppm: after 1 simulated second the clock is 100us fast.
        let c = SiteClock::new(0, 100);
        assert_eq!(c.read(SimTime::from_secs(1)), 1_000_100);
        assert_eq!(c.read(SimTime::from_secs(10)), 10_001_000);
    }

    #[test]
    fn negative_drift_lags() {
        let c = SiteClock::new(0, -50);
        assert_eq!(c.read(SimTime::from_secs(2)), 2_000_000 - 100);
        assert_eq!(c.error_at(SimTime::from_secs(2)), -100);
    }

    #[test]
    fn skew_and_drift_combine() {
        let c = SiteClock::new(1_000, 10);
        // t = 1s: 1_000_000 + 1_000 + 10 = 1_001_010
        assert_eq!(c.read(SimTime::from_secs(1)), 1_001_010);
    }

    #[test]
    fn monotone_for_sane_drift() {
        // Drift magnitudes below 1e6 ppm keep the clock strictly monotone.
        let c = SiteClock::new(-300, -500);
        let mut prev = c.read(SimTime::from_micros(1_000));
        for us in (2_000..100_000).step_by(997) {
            let cur = c.read(SimTime::from_micros(us));
            assert!(cur >= prev, "clock went backwards at t={us}");
            prev = cur;
        }
    }
}
