//! Serially reusable hardware resources.
//!
//! A flash chip or channel services one operation at a time. [`Resource`]
//! tracks the time it becomes free; callers reserve spans in submission
//! order, which is exactly how an analytic discrete-event model computes
//! queueing delay without an explicit event per operation.

use conzone_types::{SimDuration, SimTime};

/// A serially reusable resource with first-come-first-served queueing.
///
/// ```
/// use conzone_sim::Resource;
/// use conzone_types::{SimDuration, SimTime};
///
/// let mut chip = Resource::new();
/// let op1 = chip.acquire(SimTime::ZERO, SimDuration::from_micros(32));
/// let op2 = chip.acquire(SimTime::ZERO, SimDuration::from_micros(32));
/// assert_eq!(op2.start, op1.end); // second op queues behind the first
/// ```
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Resource {
    busy_until: SimTime,
}

/// A reserved span on a resource.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Reservation {
    /// When the operation actually starts (after queueing).
    pub start: SimTime,
    /// When the operation completes and the resource frees.
    pub end: SimTime,
}

impl Resource {
    /// Creates an idle resource.
    pub fn new() -> Resource {
        Resource {
            busy_until: SimTime::ZERO,
        }
    }

    /// Reserves the resource for `duration` starting no earlier than `now`,
    /// queueing behind any prior reservation.
    #[inline]
    pub fn acquire(&mut self, now: SimTime, duration: SimDuration) -> Reservation {
        let start = now.max(self.busy_until);
        let end = start + duration;
        self.busy_until = end;
        Reservation { start, end }
    }

    /// When the resource next becomes free.
    #[inline]
    pub fn free_at(&self) -> SimTime {
        self.busy_until
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fcfs_queueing() {
        let mut r = Resource::new();
        let a = r.acquire(SimTime::from_nanos(100), SimDuration::from_nanos(50));
        assert_eq!(a.start, SimTime::from_nanos(100));
        assert_eq!(a.end, SimTime::from_nanos(150));
        // Submitted earlier in wall time but the resource is busy.
        let b = r.acquire(SimTime::from_nanos(120), SimDuration::from_nanos(30));
        assert_eq!(b.start, SimTime::from_nanos(150));
        assert_eq!(b.end, SimTime::from_nanos(180));
        // Submitted after the resource drained: starts immediately.
        let c = r.acquire(SimTime::from_nanos(500), SimDuration::from_nanos(10));
        assert_eq!(c.start, SimTime::from_nanos(500));
    }

    #[test]
    fn idle_checks() {
        let mut r = Resource::new();
        assert_eq!(r.free_at(), SimTime::ZERO);
        r.acquire(SimTime::ZERO, SimDuration::from_nanos(10));
        assert_eq!(r.free_at(), SimTime::from_nanos(10));
    }
}
