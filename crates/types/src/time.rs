//! Simulated-time primitives.
//!
//! The emulator advances a virtual clock with nanosecond resolution. Two
//! newtypes keep instants and durations apart at compile time:
//! [`SimTime`] is a point on the simulated timeline and [`SimDuration`] is a
//! span between two points.
//!
//! ```
//! use conzone_types::{SimDuration, SimTime};
//!
//! let start = SimTime::ZERO;
//! let end = start + SimDuration::from_micros(32);
//! assert_eq!(end - start, SimDuration::from_micros(32));
//! ```

use core::fmt;
use core::iter::Sum;
use core::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// An instant on the simulated timeline, in nanoseconds since simulation
/// start.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SimTime(u64);

/// A span of simulated time, in nanoseconds.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SimDuration(u64);

impl SimTime {
    /// The origin of the simulated timeline.
    pub const ZERO: SimTime = SimTime(0);

    /// Creates an instant `ns` nanoseconds after simulation start.
    #[inline]
    pub const fn from_nanos(ns: u64) -> Self {
        SimTime(ns)
    }

    /// Nanoseconds since simulation start.
    #[inline]
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Seconds since simulation start, as a float (for reporting).
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// The later of two instants.
    #[inline]
    pub(crate) fn max(self, other: SimTime) -> SimTime {
        SimTime(self.0.max(other.0))
    }

    /// Duration elapsed since `earlier`, saturating to zero if `earlier` is
    /// in the future.
    #[inline]
    pub fn saturating_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }

    /// The instant `d` after this one, or `None` past the end of the
    /// timeline (which `+` would overflow).
    #[inline]
    pub fn checked_add(self, d: SimDuration) -> Option<SimTime> {
        self.0.checked_add(d.0).map(SimTime)
    }
}

impl SimDuration {
    /// A zero-length span.
    pub const ZERO: SimDuration = SimDuration(0);

    /// Creates a duration from nanoseconds.
    #[inline]
    pub const fn from_nanos(ns: u64) -> Self {
        SimDuration(ns)
    }

    /// Creates a duration from microseconds.
    #[inline]
    pub const fn from_micros(us: u64) -> Self {
        SimDuration(us * 1_000)
    }

    /// Creates a duration from milliseconds.
    #[inline]
    pub const fn from_millis(ms: u64) -> Self {
        SimDuration(ms * 1_000_000)
    }

    /// Creates a duration from whole seconds.
    #[inline]
    pub const fn from_secs(s: u64) -> Self {
        SimDuration(s * 1_000_000_000)
    }

    /// Nanoseconds in this span.
    #[inline]
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Microseconds in this span, as a float (for reporting).
    #[inline]
    pub fn as_micros_f64(self) -> f64 {
        self.0 as f64 / 1e3
    }

    /// Seconds in this span, as a float (for reporting).
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Duration of transferring `bytes` at `bytes_per_sec`, rounded up to the
    /// next nanosecond.
    ///
    /// # Panics
    ///
    /// Panics if `bytes_per_sec` is zero.
    pub fn for_transfer(bytes: u64, bytes_per_sec: u64) -> SimDuration {
        assert!(bytes_per_sec > 0, "transfer rate must be non-zero");
        // ns = bytes * 1e9 / rate, using u128 to avoid overflow.
        let ns = (u128::from(bytes) * 1_000_000_000u128).div_ceil(u128::from(bytes_per_sec));
        // 584 years of transfer saturate rather than wrap.
        SimDuration(u64::try_from(ns).unwrap_or(u64::MAX))
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    #[inline]
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign<SimDuration> for SimTime {
    #[inline]
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    #[inline]
    fn sub(self, rhs: SimTime) -> SimDuration {
        SimDuration(
            self.0
                .checked_sub(rhs.0)
                .expect("subtracted a later SimTime from an earlier one"),
        )
    }
}

impl Sub<SimDuration> for SimTime {
    type Output = SimTime;
    #[inline]
    fn sub(self, rhs: SimDuration) -> SimTime {
        SimTime(
            self.0
                .checked_sub(rhs.0)
                .expect("SimTime underflow when subtracting duration"),
        )
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 + rhs.0)
    }
}

impl AddAssign for SimDuration {
    #[inline]
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(
            self.0
                .checked_sub(rhs.0)
                .expect("SimDuration underflow in subtraction"),
        )
    }
}

impl SubAssign for SimDuration {
    #[inline]
    fn sub_assign(&mut self, rhs: SimDuration) {
        *self = *self - rhs;
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn mul(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 * rhs)
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn div(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 / rhs)
    }
}

impl Sum for SimDuration {
    fn sum<I: Iterator<Item = SimDuration>>(iter: I) -> SimDuration {
        SimDuration(iter.map(|d| d.0).sum())
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}s", self.as_secs_f64())
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000_000_000 {
            write!(f, "{:.3}s", self.as_secs_f64())
        } else if self.0 >= 1_000_000 {
            write!(f, "{:.3}ms", self.0 as f64 / 1e6)
        } else if self.0 >= 1_000 {
            write!(f, "{:.1}us", self.as_micros_f64())
        } else {
            write!(f, "{}ns", self.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic_roundtrip() {
        let t = SimTime::from_nanos(500);
        let d = SimDuration::from_nanos(200);
        assert_eq!((t + d) - t, d);
        assert_eq!((t + d) - d, t);
    }

    #[test]
    fn constructors_scale() {
        assert_eq!(SimDuration::from_micros(1).as_nanos(), 1_000);
        assert_eq!(SimDuration::from_millis(1).as_nanos(), 1_000_000);
        assert_eq!(SimDuration::from_secs(1).as_nanos(), 1_000_000_000);
    }

    #[test]
    fn transfer_time_rounds_up() {
        // 1 byte at 3 bytes/s is 333_333_333.33 ns, rounded up.
        let d = SimDuration::for_transfer(1, 3);
        assert_eq!(d.as_nanos(), 333_333_334);
        // Exact division stays exact: 4 KiB at 4 KiB/s is one second.
        let d = SimDuration::for_transfer(4096, 4096);
        assert_eq!(d, SimDuration::from_secs(1));
    }

    #[test]
    fn transfer_time_matches_channel_model() {
        // 16 KiB page at 3200 MiB/s: 16384 / (3200 * 1 MiB) s = 4.8828 us.
        let d = SimDuration::for_transfer(16384, 3200 * 1024 * 1024);
        assert!((d.as_micros_f64() - 4.8828).abs() < 0.01, "{d}");
    }

    #[test]
    #[should_panic(expected = "underflow")]
    fn duration_subtraction_underflow_panics() {
        let _ = SimDuration::from_nanos(1) - SimDuration::from_nanos(2);
    }

    #[test]
    fn saturating_since_clamps() {
        let a = SimTime::from_nanos(10);
        let b = SimTime::from_nanos(20);
        assert_eq!(b.saturating_since(a).as_nanos(), 10);
        assert_eq!(a.saturating_since(b), SimDuration::ZERO);
    }

    #[test]
    fn checked_add_stops_at_the_end_of_the_timeline() {
        let last = SimTime::from_nanos(u64::MAX - 1);
        assert_eq!(
            last.checked_add(SimDuration::from_nanos(1)),
            Some(SimTime::from_nanos(u64::MAX))
        );
        assert_eq!(last.checked_add(SimDuration::from_nanos(2)), None);
    }

    #[test]
    fn display_picks_unit() {
        assert_eq!(SimDuration::from_nanos(5).to_string(), "5ns");
        assert_eq!(SimDuration::from_micros(75).to_string(), "75.0us");
        assert_eq!(SimDuration::from_millis(2).to_string(), "2.000ms");
    }

    #[test]
    fn sum_of_durations() {
        let total: SimDuration = (1..=4).map(SimDuration::from_micros).sum();
        assert_eq!(total, SimDuration::from_micros(10));
    }
}
