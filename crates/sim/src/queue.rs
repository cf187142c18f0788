//! A time-ordered event queue for discrete-event loops.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use conzone_types::SimTime;

/// A min-heap of `(time, payload)` events with FIFO tie-breaking.
///
/// Events popping at equal times come out in insertion order, which keeps
/// multi-threaded host simulations deterministic.
///
/// A discrete-event loop pops an event and usually pushes the next one
/// straight away. So `pop` hands out a copy of the root and leaves it in
/// the heap, marked taken, and the next `push` writes over it: one
/// sift-down instead of the three sifts of a removal and an insertion,
/// and none when the queue holds one event. A `pop` that finds the root
/// taken removes it first. Keys `(time, seq)` are unique, so the order of
/// pops does not depend on the heap's layout.
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
    /// The root has been popped and waits to be overwritten or removed.
    taken: bool,
}

#[derive(Debug)]
struct Entry<T> {
    time: SimTime,
    seq: u64,
    payload: T,
}

impl<T> Entry<T> {
    /// `(time, seq)` as one integer, so that a sift's comparisons are
    /// single wide compares rather than two chained ones.
    fn key(&self) -> u128 {
        (u128::from(self.time.as_nanos()) << 64) | u128::from(self.seq)
    }
}

impl<T> PartialEq for Entry<T> {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
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
        self.key().cmp(&other.key())
    }
}

impl<T: Copy> EventQueue<T> {
    /// Creates an empty queue.
    pub fn new() -> EventQueue<T> {
        EventQueue {
            heap: BinaryHeap::new(),
            seq: 0,
            taken: false,
        }
    }

    /// Schedules `payload` at `time`.
    #[inline]
    pub fn push(&mut self, time: SimTime, payload: T) {
        let seq = self.seq;
        self.seq += 1;
        let entry = Reverse(Entry { time, seq, payload });
        if std::mem::take(&mut self.taken) {
            // The popped root's slot: dropping the guard sifts it down.
            if let Some(mut root) = self.heap.peek_mut() {
                *root = entry;
                return;
            }
        }
        self.heap.push(entry);
    }

    /// Removes and returns the earliest event.
    #[inline]
    pub fn pop(&mut self) -> Option<(SimTime, T)> {
        if std::mem::take(&mut self.taken) {
            self.heap.pop();
        }
        let Reverse(e) = self.heap.peek()?;
        self.taken = true;
        Some((e.time, e.payload))
    }
}

impl<T: Copy> Default for EventQueue<T> {
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
