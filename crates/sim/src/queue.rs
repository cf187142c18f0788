//! A time-ordered event queue for discrete-event loops.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use conzone_types::SimTime;

/// A min-heap of `(time, payload)` events with FIFO tie-breaking.
///
/// Events popping at equal times come out in insertion order, which keeps
/// multi-threaded host simulations deterministic.
///
/// ```
/// use conzone_sim::EventQueue;
/// use conzone_types::SimTime;
///
/// let mut q = EventQueue::new();
/// q.push(SimTime::from_nanos(20), "late");
/// q.push(SimTime::from_nanos(10), "early");
/// assert_eq!(q.pop(), Some((SimTime::from_nanos(10), "early")));
/// ```
#[derive(Debug)]
pub struct EventQueue<T> {
    heap: BinaryHeap<Reverse<Entry<T>>>,
    seq: u64,
}

#[derive(Debug)]
struct Entry<T> {
    time: SimTime,
    seq: u64,
    payload: T,
}

impl<T> PartialEq for Entry<T> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<T> Eq for Entry<T> {}
impl<T> PartialOrd for Entry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<T> Ord for Entry<T> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.time.cmp(&other.time).then(self.seq.cmp(&other.seq))
    }
}

impl<T> EventQueue<T> {
    /// Creates an empty queue.
    pub fn new() -> EventQueue<T> {
        EventQueue {
            heap: BinaryHeap::new(),
            seq: 0,
        }
    }

    /// Schedules `payload` at `time`.
    pub fn push(&mut self, time: SimTime, payload: T) {
        let seq = self.seq;
        self.seq += 1;
        self.heap.push(Reverse(Entry { time, seq, payload }));
    }

    /// Removes and returns the earliest event.
    pub fn pop(&mut self) -> Option<(SimTime, T)> {
        self.heap.pop().map(|Reverse(e)| (e.time, e.payload))
    }
}

impl<T> Default for EventQueue<T> {
    fn default() -> Self {
        EventQueue::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn orders_by_time() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_nanos(3), 'c');
        q.push(SimTime::from_nanos(1), 'a');
        q.push(SimTime::from_nanos(2), 'b');
        let order: Vec<char> = std::iter::from_fn(|| q.pop().map(|(_, p)| p)).collect();
        assert_eq!(order, vec!['a', 'b', 'c']);
    }

    #[test]
    fn fifo_at_equal_times() {
        let mut q = EventQueue::new();
        for i in 0..10 {
            q.push(SimTime::from_nanos(5), i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, p)| p)).collect();
        assert_eq!(order, (0..10).collect::<Vec<_>>());
    }
}
