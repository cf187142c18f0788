//! An intrusive-list LRU set with entry pinning.
//!
//! The L2P cache evicts by LRU (paper §III-C); the pinned-aggregate design
//! of §IV-D additionally keeps chunk/zone entries resident. This set
//! implements both: pinned entries are never chosen as eviction victims.
//! Keys are one packed `u64` (the L2P cache's tile number and granularity,
//! the Legacy baseline's raw LPN); residency is all an entry records.
//!
//! An entry is a 16-byte node — its key and two `u32` links of the recency
//! list — plus a pin flag. Keys find their node through an open-addressing
//! table of `u32` node numbers, at two to four slots per entry: 25 to 33
//! bytes an entry in all.

use conzone_types::to_index;

/// The index's multiplier: 2^64 divided by the golden ratio, made odd.
/// Fibonacci hashing takes the top bits of the product, which depend on
/// every bit of the key, so keys aligned to a power of two — whose
/// products share their low bits — still spread over the whole table.
/// Keys come from the simulator's own address arithmetic, not from outside
/// the program, so resistance to crafted collisions buys nothing here.
const GOLDEN: u64 = 0x9E37_79B9_7F4A_7C15;

/// Node 0 is the recency list's sentinel. No key maps to it, so 0 in the
/// index marks an empty slot and in a link the end of the list.
const SENTINEL: u32 = 0;

#[derive(Debug, Clone, Copy)]
struct Node {
    key: u64,
    /// The next more recently used node. On a free node, unused.
    prev: u32,
    /// The next less recently used node. On a free node, the next free one.
    next: u32,
}

const EMPTY: Node = Node {
    key: 0,
    prev: SENTINEL,
    next: SENTINEL,
};

/// Outcome of an insert.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InsertOutcome {
    /// Entry stored without displacing anything.
    Stored,
    /// Entry stored after evicting one LRU victim, whose key this carries.
    Evicted(u64),
    /// The key was already resident; it was promoted.
    Updated,
    /// Cache full of pinned entries; a non-pinned insert was dropped.
    Rejected,
    /// A pinned insert exceeded capacity (all residents pinned); it was
    /// stored anyway and the cache is over budget.
    OverCapacity,
}

/// LRU set of `u64` keys with per-entry pinning.
///
/// ```
/// use conzone_ftl::{InsertOutcome, LruCache};
///
/// let mut c = LruCache::new(2);
/// c.insert(1, false);
/// c.insert(2, false);
/// c.touch(1); // 1 becomes most recent
/// assert_eq!(c.insert(3, false), InsertOutcome::Evicted(2));
/// assert!(c.touch(1) && c.touch(3) && !c.touch(2));
/// ```
#[derive(Debug)]
pub struct LruCache {
    /// Key → node number, open addressing with linear probing; 0 is an
    /// empty slot, so a new table is zeroed memory. The length is a power
    /// of two at least twice the resident count, which keeps probes short
    /// and guarantees every probe meets an empty slot.
    index: Vec<u32>,
    /// `64 - log2(index.len())`: a key's home slot is the top bits of its
    /// product with [`GOLDEN`].
    shift: u32,
    /// Node 0 is the sentinel of the circular recency list: its `next` is
    /// the most and its `prev` the least recently used node.
    nodes: Vec<Node>,
    /// Per node: whether eviction must skip it.
    pinned: Vec<bool>,
    /// Head of the chain of free nodes, linked through `next`.
    free: u32,
    len: usize,
    capacity: usize,
    evictions: u64,
}

impl LruCache {
    /// Creates a cache holding at most `capacity` entries.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero or reaches 2^31.
    pub fn new(capacity: usize) -> LruCache {
        assert!(capacity > 0, "cache capacity must be non-zero");
        assert!(capacity < 1 << 31, "cache capacity must be below 2^31");
        let slots = (2 * capacity).next_power_of_two();
        let mut nodes = Vec::with_capacity(capacity + 1);
        nodes.push(EMPTY);
        let mut pinned = Vec::with_capacity(capacity + 1);
        pinned.push(false);
        LruCache {
            index: vec![0; slots],
            shift: 64 - slots.trailing_zeros(),
            nodes,
            pinned,
            free: SENTINEL,
            len: 0,
            capacity,
            evictions: 0,
        }
    }

    /// Number of resident entries.
    #[inline]
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Whether the cache is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Configured capacity in entries.
    #[inline]
    pub(crate) fn capacity(&self) -> usize {
        self.capacity
    }

    /// LRU evictions performed so far.
    #[inline]
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    /// Whether `key` is resident (does not touch recency).
    #[inline]
    pub(crate) fn contains(&self, key: u64) -> bool {
        self.find(key).1 != SENTINEL
    }

    /// The slot `key`'s probe starts at.
    #[inline]
    fn home(&self, key: u64) -> usize {
        to_index(key.wrapping_mul(GOLDEN) >> self.shift)
    }

    /// Probes for `key`: the slot holding its node and the node, or the
    /// empty slot that ends the probe and [`SENTINEL`].
    #[inline]
    fn find(&self, key: u64) -> (usize, u32) {
        let mask = self.index.len() - 1;
        let mut slot = self.home(key);
        loop {
            let node = self.index[slot];
            if node == SENTINEL || self.nodes[node as usize].key == key {
                return (slot, node);
            }
            slot = (slot + 1) & mask;
        }
    }

    /// Empties `slot` by backward-shift deletion: each later entry of the
    /// probe run whose home lies at or before the hole moves back into it,
    /// so no probe ever meets a gap in front of its key.
    fn unindex(&mut self, mut hole: usize) {
        let mask = self.index.len() - 1;
        let mut slot = (hole + 1) & mask;
        loop {
            let node = self.index[slot];
            if node == SENTINEL {
                break;
            }
            let home = self.home(self.nodes[node as usize].key);
            // Probe distances from the entry's home and from the hole.
            if slot.wrapping_sub(home) & mask >= slot.wrapping_sub(hole) & mask {
                self.index[hole] = node;
                hole = slot;
            }
            slot = (slot + 1) & mask;
        }
        self.index[hole] = SENTINEL;
    }

    /// Doubles the index and re-enters every resident: an over-capacity
    /// pinned insert would otherwise fill it past half.
    fn grow(&mut self) {
        self.index = vec![0; 2 * self.index.len()];
        self.shift -= 1;
        let mut node = self.nodes[SENTINEL as usize].next;
        while node != SENTINEL {
            let slot = self.find(self.nodes[node as usize].key).0;
            self.index[slot] = node;
            node = self.nodes[node as usize].next;
        }
    }

    fn unlink(&mut self, node: u32) {
        let Node { prev, next, .. } = self.nodes[node as usize];
        self.nodes[prev as usize].next = next;
        self.nodes[next as usize].prev = prev;
    }

    fn push_front(&mut self, node: u32) {
        let old_head = self.nodes[SENTINEL as usize].next;
        self.nodes[node as usize].prev = SENTINEL;
        self.nodes[node as usize].next = old_head;
        self.nodes[old_head as usize].prev = node;
        self.nodes[SENTINEL as usize].next = node;
    }

    /// Makes `node` the most-recently-used node; a no-op when it already
    /// is, which is every repeated hit on one entry.
    fn promote(&mut self, node: u32) {
        if self.nodes[SENTINEL as usize].next != node {
            self.unlink(node);
            self.push_front(node);
        }
    }

    /// Whether `key` is resident, promoting it to most-recently-used if so.
    pub fn touch(&mut self, key: u64) -> bool {
        match self.find(key).1 {
            SENTINEL => false,
            node => {
                self.promote(node);
                true
            }
        }
    }

    /// Drops the resident `node`, whose index entry is at `slot`.
    fn release(&mut self, slot: usize, node: u32) {
        self.unindex(slot);
        self.unlink(node);
        self.nodes[node as usize].next = self.free;
        self.free = node;
        self.len -= 1;
    }

    /// Removes `key`; returns whether it was resident.
    pub fn remove(&mut self, key: u64) -> bool {
        match self.find(key) {
            (_, SENTINEL) => false,
            (slot, node) => {
                self.release(slot, node);
                true
            }
        }
    }

    /// Finds the least-recently-used non-pinned entry, if any.
    fn eviction_victim(&self) -> Option<u32> {
        let mut node = self.nodes[SENTINEL as usize].prev;
        while node != SENTINEL {
            if !self.pinned[node as usize] {
                return Some(node);
            }
            node = self.nodes[node as usize].prev;
        }
        None
    }

    /// A node holding `key`, from the free chain or new.
    #[allow(
        clippy::expect_used,
        reason = "over-capacity inserts are pinned aggregates, one per zone or chunk at most, far from 2^32 nodes"
    )]
    fn alloc(&mut self, key: u64, pinned: bool) -> u32 {
        let node = Node { key, ..EMPTY };
        if self.free == SENTINEL {
            let number = u32::try_from(self.nodes.len()).expect("LRU node number beyond u32");
            self.nodes.push(node);
            self.pinned.push(pinned);
            number
        } else {
            let number = self.free;
            self.free = self.nodes[number as usize].next;
            self.nodes[number as usize] = node;
            self.pinned[number as usize] = pinned;
            number
        }
    }

    /// Inserts `key` as most-recently-used. A resident key is promoted
    /// (retaining the stronger of the two pin flags). When the cache is
    /// full, the LRU non-pinned entry is evicted and its node reused; if
    /// every resident is pinned, a non-pinned insert is rejected while a
    /// pinned insert is stored over capacity.
    pub fn insert(&mut self, key: u64, pinned: bool) -> InsertOutcome {
        let (mut slot, found) = self.find(key);
        if found != SENTINEL {
            self.pinned[found as usize] |= pinned;
            self.promote(found);
            return InsertOutcome::Updated;
        }
        let outcome = if self.len < self.capacity {
            InsertOutcome::Stored
        } else if let Some(victim) = self.eviction_victim() {
            let victim_key = self.nodes[victim as usize].key;
            let (victim_slot, _) = self.find(victim_key);
            self.release(victim_slot, victim);
            self.evictions += 1;
            // The deletion may have shifted an entry into `key`'s probe.
            slot = self.find(key).0;
            InsertOutcome::Evicted(victim_key)
        } else if pinned {
            if 2 * (self.len + 1) > self.index.len() {
                self.grow();
                slot = self.find(key).0;
            }
            InsertOutcome::OverCapacity
        } else {
            return InsertOutcome::Rejected;
        };
        let node = self.alloc(key, pinned);
        self.index[slot] = node;
        self.push_front(node);
        self.len += 1;
        outcome
    }

    /// Removes every key for which `pred` returns true; returns how many
    /// were removed. Walks the recency list, unlinking as it goes, so it
    /// allocates nothing (zone reset calls it on every reset).
    pub(crate) fn retain_not<F: FnMut(u64) -> bool>(&mut self, mut pred: F) -> usize {
        let mut removed = 0;
        let mut node = self.nodes[SENTINEL as usize].next;
        while node != SENTINEL {
            let Node { key, next, .. } = self.nodes[node as usize];
            if pred(key) {
                self.remove(key);
                removed += 1;
            }
            node = next;
        }
        removed
    }

    /// Drops every entry.
    pub(crate) fn clear(&mut self) {
        self.index.fill(0);
        self.nodes.truncate(1);
        self.nodes[SENTINEL as usize] = EMPTY;
        self.pinned.truncate(1);
        self.free = SENTINEL;
        self.len = 0;
    }

    /// Resident `(key, pinned)` pairs, most recently used first.
    #[cfg(test)]
    pub(crate) fn recency(&self) -> impl Iterator<Item = (u64, bool)> + '_ {
        let live = |node: u32| (node != SENTINEL).then_some(node);
        std::iter::successors(live(self.nodes[SENTINEL as usize].next), move |&node| {
            live(self.nodes[node as usize].next)
        })
        .map(|node| (self.nodes[node as usize].key, self.pinned[node as usize]))
    }

    /// The index slot `key`'s probe starts at, and the index's length.
    #[cfg(test)]
    pub(crate) fn home_slot(&self, key: u64) -> (usize, usize) {
        (self.home(key), self.index.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn order(c: &LruCache) -> Vec<u64> {
        c.recency().map(|(k, _)| k).collect()
    }

    #[test]
    fn lru_order_eviction() {
        let mut c = LruCache::new(3);
        for k in [1, 2, 3] {
            assert_eq!(c.insert(k, false), InsertOutcome::Stored);
        }
        assert!(c.touch(1));
        // 2 was LRU after 1 was touched.
        assert_eq!(c.insert(4, false), InsertOutcome::Evicted(2));
        assert!(!c.contains(2));
        assert_eq!(order(&c), [4, 1, 3]);
        assert_eq!(c.evictions(), 1);
    }

    #[test]
    fn touching_the_head_keeps_the_order() {
        let mut c = LruCache::new(3);
        for k in [1, 2, 3] {
            c.insert(k, false);
        }
        // 3 is already most recent: neither a touch nor an update moves it.
        assert!(c.touch(3));
        assert_eq!(c.insert(3, false), InsertOutcome::Updated);
        assert_eq!(order(&c), [3, 2, 1]);
        assert_eq!(
            c.insert(4, false),
            InsertOutcome::Evicted(1),
            "oldest first"
        );
        assert_eq!(c.insert(5, false), InsertOutcome::Evicted(2));
        assert_eq!(
            c.insert(6, false),
            InsertOutcome::Evicted(3),
            "old head last"
        );
        // A single resident is head and tail at once.
        let mut one = LruCache::new(1);
        one.insert(7, false);
        assert!(one.touch(7) && !one.touch(8));
        assert_eq!(one.insert(8, false), InsertOutcome::Evicted(7));
        assert_eq!(order(&one), [8]);
    }

    #[test]
    fn a_node_is_16_bytes() {
        assert_eq!(std::mem::size_of::<Node>(), 16);
    }

    #[test]
    fn update_in_place_keeps_len() {
        let mut c = LruCache::new(2);
        c.insert(1, false);
        assert_eq!(c.insert(1, false), InsertOutcome::Updated);
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn pinned_entries_survive_eviction() {
        let mut c = LruCache::new(2);
        c.insert(9, true);
        c.insert(1, false);
        // Evicts 1, never the pinned 9 at the tail.
        assert_eq!(c.insert(2, false), InsertOutcome::Evicted(1));
        assert_eq!(order(&c), [2, 9]);
        // An update keeps the stronger pin flag.
        assert_eq!(c.insert(9, false), InsertOutcome::Updated);
        assert_eq!(c.recency().next(), Some((9, true)));
    }

    #[test]
    fn all_pinned_rejects_unpinned_but_accepts_pinned() {
        let mut c = LruCache::new(2);
        c.insert(1, true);
        c.insert(2, true);
        assert_eq!(c.insert(3, false), InsertOutcome::Rejected);
        assert!(!c.contains(3));
        assert_eq!(c.insert(4, true), InsertOutcome::OverCapacity);
        assert!(c.contains(4));
        assert_eq!(c.len(), 3); // over budget by one, visible to callers
    }

    #[test]
    fn remove_and_reuse_slots() {
        let mut c = LruCache::new(2);
        c.insert(1, false);
        assert!(c.remove(1));
        assert!(!c.remove(1));
        c.insert(2, false);
        c.insert(3, false);
        assert_eq!(c.len(), 2);
        assert_eq!(order(&c), [3, 2]);
    }

    #[test]
    fn retain_not_removes_matching() {
        let mut c = LruCache::new(10);
        for k in 0..10 {
            c.insert(k, false);
        }
        let removed = c.retain_not(|k| k % 2 == 0);
        assert_eq!(removed, 5);
        // The tail (0), the head's neighbour (8) and middles were unlinked
        // mid-walk; the survivors keep their recency order, 1 now oldest.
        assert_eq!(order(&c), [9, 7, 5, 3, 1]);
        for k in 10..15 {
            assert_eq!(c.insert(k, false), InsertOutcome::Stored);
        }
        assert_eq!(c.insert(15, false), InsertOutcome::Evicted(1));
        assert_eq!(c.insert(16, false), InsertOutcome::Evicted(3));
        // Removing everything, head included, leaves a usable cache.
        assert_eq!(c.retain_not(|_| true), 10);
        assert!(c.is_empty());
        c.insert(4, false);
        assert!(c.touch(4));
    }

    #[test]
    fn clear_empties() {
        let mut c = LruCache::new(4);
        c.insert(1, true);
        c.clear();
        assert!(c.is_empty());
        c.insert(2, false);
        assert_eq!(order(&c), [2]);
    }

    #[test]
    fn heavy_churn_consistency() {
        let mut c = LruCache::new(64);
        for i in 0..10_000u64 {
            c.insert(i % 257, false);
            assert!(c.len() <= 64);
        }
        // The most recent keys must be resident, in order.
        let newest: Vec<u64> = (0..64).map(|back| (9_999 - back) % 257).collect();
        assert_eq!(order(&c), newest);
    }
}
