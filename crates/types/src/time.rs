//! Simulated time.
//!
//! The study ran between October 2019 and April 2020; for the reproduction
//! all timestamps are seconds since a *study epoch*. One-second granularity
//! matches the review timestamps the paper's crawler collected (§5), and is
//! finer than the fastest collector (5 s).

use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// Seconds in one minute.
pub(crate) const MINUTE: u64 = 60;
/// Seconds in one hour.
pub(crate) const HOUR: u64 = 3_600;
/// Seconds in one day.
pub(crate) const DAY: u64 = 86_400;

/// A point in simulated time, in whole seconds since the study epoch.
///
/// `SimTime` is totally ordered and supports `+ SimDuration` and
/// `- SimTime -> SimDuration`. It deliberately has no relation to wall-clock
/// time: the fleet simulator is deterministic and the collection pipeline is
/// driven by this clock, never by `std::time`.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct SimTime(pub u64);

impl SimTime {
    /// The study epoch (t = 0).
    pub const EPOCH: SimTime = SimTime(0);

    /// Construct from whole seconds since the epoch.
    pub const fn from_secs(secs: u64) -> Self {
        SimTime(secs)
    }

    /// Construct from whole minutes since the epoch.
    pub const fn from_mins(mins: u64) -> Self {
        SimTime(mins * MINUTE)
    }

    /// Construct from whole hours since the epoch.
    pub const fn from_hours(hours: u64) -> Self {
        SimTime(hours * HOUR)
    }

    /// Construct from whole days since the epoch.
    pub const fn from_days(days: u64) -> Self {
        SimTime(days * DAY)
    }

    /// Seconds since the epoch.
    pub const fn as_secs(self) -> u64 {
        self.0
    }

    /// Fractional days since the epoch.
    pub fn as_days(self) -> f64 {
        self.0 as f64 / DAY as f64
    }

    /// The calendar day index (0-based) this instant falls on.
    pub const fn day_index(self) -> u64 {
        self.0 / DAY
    }

    /// Saturating subtraction; returns a zero duration if `earlier` is later.
    pub fn saturating_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }

    /// Signed difference in seconds (`self - other`). Negative values arise
    /// in the paper's data when a review predates the *last* install of an
    /// app (§6.3, "Install-to-Review Time"); such reviews come from a
    /// previous install and are excluded from the delay analysis.
    pub fn signed_delta_secs(self, other: SimTime) -> i64 {
        self.0 as i64 - other.0 as i64
    }

    /// Advance by `d`, saturating at `u64::MAX`.
    pub fn saturating_add(self, d: SimDuration) -> SimTime {
        SimTime(self.0.saturating_add(d.0))
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let d = self.0 / DAY;
        let h = (self.0 % DAY) / HOUR;
        let m = (self.0 % HOUR) / MINUTE;
        let s = self.0 % MINUTE;
        write!(f, "d{d}+{h:02}:{m:02}:{s:02}")
    }
}

/// A span of simulated time, in whole seconds.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct SimDuration(pub u64);

impl SimDuration {
    /// A zero-length span.
    pub const ZERO: SimDuration = SimDuration(0);

    /// Construct from whole seconds.
    pub const fn from_secs(secs: u64) -> Self {
        SimDuration(secs)
    }

    /// Construct from whole minutes.
    pub const fn from_mins(mins: u64) -> Self {
        SimDuration(mins * MINUTE)
    }

    /// Construct from whole hours.
    pub const fn from_hours(hours: u64) -> Self {
        SimDuration(hours * HOUR)
    }

    /// Construct from whole days.
    pub const fn from_days(days: u64) -> Self {
        SimDuration(days * DAY)
    }

    /// The span in whole seconds.
    pub const fn as_secs(self) -> u64 {
        self.0
    }

    /// The span in fractional days.
    pub fn as_days(self) -> f64 {
        self.0 as f64 / DAY as f64
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

/// A half-open interval `[start, end)` of simulated time.
///
/// Used by Appendix A's snapshot fingerprinting: two RacketStore installs
/// with *overlapping* install intervals must be different physical devices.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct TimeInterval {
    /// First instant contained in the interval.
    pub start: SimTime,
    /// First instant after the interval.
    pub end: SimTime,
}

impl TimeInterval {
    /// Create an interval; panics if `end < start`.
    pub fn new(start: SimTime, end: SimTime) -> Self {
        assert!(end >= start, "interval end before start");
        TimeInterval { start, end }
    }

    /// The interval's length.
    pub fn duration(&self) -> SimDuration {
        self.end - self.start
    }

    /// Whether `t` falls inside `[start, end)`.
    pub fn contains(&self, t: SimTime) -> bool {
        t >= self.start && t < self.end
    }

    /// Whether two intervals share any instant.
    pub fn overlaps(&self, other: &TimeInterval) -> bool {
        self.start < other.end && other.start < self.end
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_round_trips() {
        assert_eq!(SimTime::from_days(2).as_secs(), 2 * DAY);
        assert_eq!(SimTime::from_hours(3).as_secs(), 3 * HOUR);
        assert_eq!(SimTime::from_mins(5).as_secs(), 300);
        assert_eq!(SimDuration::from_days(1).as_days(), 1.0);
        assert_eq!(SimDuration::from_hours(2).0, 2 * HOUR);
    }

    #[test]
    fn arithmetic() {
        let t = SimTime::from_days(1) + SimDuration::from_hours(6);
        assert_eq!(t.as_secs(), DAY + 6 * HOUR);
        assert_eq!((t - SimTime::from_days(1)).0, 6 * HOUR);
        assert_eq!(t.day_index(), 1);
    }

    #[test]
    fn signed_delta_handles_past_installs() {
        let install = SimTime::from_days(10);
        let review = SimTime::from_days(3);
        // Review predates the last install: negative delta, excluded in §6.3.
        assert!(review.signed_delta_secs(install) < 0);
        assert_eq!(review.saturating_since(install), SimDuration::ZERO);
    }

    #[test]
    fn display_format() {
        let t = SimTime::from_days(2) + SimDuration::from_secs(3 * HOUR + 4 * MINUTE + 5);
        assert_eq!(t.to_string(), "d2+03:04:05");
    }

    #[test]
    fn interval_overlap() {
        let a = TimeInterval::new(SimTime::from_days(0), SimTime::from_days(2));
        let b = TimeInterval::new(SimTime::from_days(1), SimTime::from_days(3));
        let c = TimeInterval::new(SimTime::from_days(2), SimTime::from_days(4));
        assert!(a.overlaps(&b));
        assert!(b.overlaps(&a));
        assert!(!a.overlaps(&c), "touching intervals do not overlap");
        assert!(a.contains(SimTime::from_days(1)));
        assert!(!a.contains(SimTime::from_days(2)));
    }

    #[test]
    #[should_panic(expected = "interval end before start")]
    fn interval_rejects_reversed_bounds() {
        TimeInterval::new(SimTime::from_days(2), SimTime::from_days(1));
    }
}
