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

/// A bank of identical resources, e.g. all chips or all channels.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ResourceBank {
    resources: Vec<Resource>,
}

impl ResourceBank {
    /// Creates `n` idle resources.
    pub fn new(n: usize) -> ResourceBank {
        ResourceBank {
            resources: vec![Resource::new(); n],
        }
    }

    /// Reserves resource `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of bounds.
    #[inline]
    pub fn acquire(&mut self, index: usize, now: SimTime, duration: SimDuration) -> Reservation {
        self.resources[index].acquire(now, duration)
    }

    /// When resource `index` next becomes free.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of bounds.
    #[inline]
    pub fn free_at(&self, index: usize) -> SimTime {
        self.resources[index].free_at()
    }

    /// The latest free time across the bank (when everything drains).
    pub fn all_free_at(&self) -> SimTime {
        self.resources
            .iter()
            .map(Resource::free_at)
            .fold(SimTime::ZERO, SimTime::max)
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

    #[test]
    fn bank_tracks_independent_resources() {
        let mut bank = ResourceBank::new(2);
        bank.acquire(0, SimTime::ZERO, SimDuration::from_nanos(100));
        bank.acquire(1, SimTime::ZERO, SimDuration::from_nanos(40));
        assert_eq!(bank.free_at(0), SimTime::from_nanos(100));
        assert_eq!(bank.free_at(1), SimTime::from_nanos(40));
        assert_eq!(bank.all_free_at(), SimTime::from_nanos(100));
    }
}
