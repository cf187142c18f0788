//! An intrusive-list LRU set with entry pinning.
//!
//! The L2P cache evicts by LRU (paper §III-C); the pinned-aggregate design
//! of §IV-D additionally keeps chunk/zone entries resident. This set
//! implements both: pinned entries are never chosen as eviction victims.
//! Keys are one packed `u64` (the L2P cache's tile number and granularity,
//! the Legacy baseline's raw LPN); residency is all an entry records.

#[allow(
    clippy::disallowed_types,
    reason = "keyed O(1) index lookups under a fixed hasher with no per-process seed, and never iterated: the recency order lives in the explicit linked list, so hashing cannot leak into sim-visible behaviour"
)]
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

const NIL: usize = usize::MAX;

/// Multiplicative hash of one `u64` key. hashbrown picks the bucket from
/// the low bits of `finish` and its control tag from the top seven, and the
/// low bits of a product depend only on the low bits of the key, so
/// `finish` folds the well-mixed high half into the low half — otherwise
/// keys aligned to a power of two would share one bucket. Keys come from
/// the simulator's own address arithmetic, not from outside the program,
/// so SipHash's resistance to crafted collisions buys nothing here.
#[derive(Debug, Default, Clone, Copy)]
struct KeyHasher(u64);

impl Hasher for KeyHasher {
    #[inline]
    fn write_u64(&mut self, key: u64) {
        self.0 = (self.0 ^ key).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0 ^ (self.0 >> 32)
    }
}

#[derive(Debug, Clone, Copy)]
struct Node {
    key: u64,
    pinned: bool,
    prev: usize,
    next: usize,
}

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
    #[allow(
        clippy::disallowed_types,
        reason = "fixed hasher, keyed lookups only, never iterated"
    )]
    map: HashMap<u64, usize, BuildHasherDefault<KeyHasher>>,
    /// Node slots; the ones on `free` hold stale contents.
    nodes: Vec<Node>,
    free: Vec<usize>,
    /// Most recently used.
    head: usize,
    /// Least recently used.
    tail: usize,
    capacity: usize,
    evictions: u64,
}

impl LruCache {
    /// Creates a cache holding at most `capacity` entries.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> LruCache {
        assert!(capacity > 0, "cache capacity must be non-zero");
        LruCache {
            #[allow(clippy::disallowed_types, reason = "fixed hasher, keyed lookups only")]
            map: HashMap::with_capacity_and_hasher(capacity, BuildHasherDefault::default()),
            nodes: Vec::with_capacity(capacity),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
            capacity,
            evictions: 0,
        }
    }

    /// Number of resident entries.
    #[inline]
    pub(crate) fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the cache is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
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
        self.map.contains_key(&key)
    }

    fn unlink(&mut self, idx: usize) {
        let Node { prev, next, .. } = self.nodes[idx];
        if prev != NIL {
            self.nodes[prev].next = next;
        } else {
            self.head = next;
        }
        if next != NIL {
            self.nodes[next].prev = prev;
        } else {
            self.tail = prev;
        }
    }

    fn push_front(&mut self, idx: usize) {
        let old_head = self.head;
        self.nodes[idx].prev = NIL;
        self.nodes[idx].next = old_head;
        if old_head != NIL {
            self.nodes[old_head].prev = idx;
        }
        self.head = idx;
        if self.tail == NIL {
            self.tail = idx;
        }
    }

    /// Makes `idx` the most-recently-used node; a no-op when it already is,
    /// which is every repeated hit on one entry.
    fn promote(&mut self, idx: usize) {
        if self.head != idx {
            self.unlink(idx);
            self.push_front(idx);
        }
    }

    /// Whether `key` is resident, promoting it to most-recently-used if so.
    pub fn touch(&mut self, key: u64) -> bool {
        match self.map.get(&key) {
            Some(&idx) => {
                self.promote(idx);
                true
            }
            None => false,
        }
    }

    /// Removes `key`; returns whether it was resident.
    pub fn remove(&mut self, key: u64) -> bool {
        let Some(idx) = self.map.remove(&key) else {
            return false;
        };
        self.unlink(idx);
        self.free.push(idx);
        true
    }

    /// Finds the least-recently-used non-pinned entry, if any.
    fn eviction_victim(&self) -> Option<usize> {
        let mut idx = self.tail;
        while idx != NIL {
            let n = &self.nodes[idx];
            if !n.pinned {
                return Some(idx);
            }
            idx = n.prev;
        }
        None
    }

    /// Puts `node` in a free slot, or a new one.
    fn alloc(&mut self, node: Node) -> usize {
        match self.free.pop() {
            Some(idx) => {
                self.nodes[idx] = node;
                idx
            }
            None => {
                self.nodes.push(node);
                self.nodes.len() - 1
            }
        }
    }

    /// Inserts `key` as most-recently-used. A resident key is promoted
    /// (retaining the stronger of the two pin flags). When the cache is
    /// full, the LRU non-pinned entry is evicted and its node slot reused
    /// in place; if every resident is pinned, a non-pinned insert is
    /// rejected while a pinned insert is stored over capacity.
    pub fn insert(&mut self, key: u64, pinned: bool) -> InsertOutcome {
        if let Some(&idx) = self.map.get(&key) {
            self.nodes[idx].pinned |= pinned;
            self.promote(idx);
            return InsertOutcome::Updated;
        }
        let node = Node {
            key,
            pinned,
            prev: NIL,
            next: NIL,
        };
        let (idx, outcome) = if self.map.len() < self.capacity {
            (self.alloc(node), InsertOutcome::Stored)
        } else {
            match self.eviction_victim() {
                Some(victim) => {
                    let victim_key = self.nodes[victim].key;
                    self.map.remove(&victim_key);
                    self.unlink(victim);
                    self.nodes[victim] = node;
                    self.evictions += 1;
                    (victim, InsertOutcome::Evicted(victim_key))
                }
                None if pinned => (self.alloc(node), InsertOutcome::OverCapacity),
                None => return InsertOutcome::Rejected,
            }
        };
        self.map.insert(key, idx);
        self.push_front(idx);
        outcome
    }

    /// Removes every key for which `pred` returns true; returns how many
    /// were removed. Walks the recency list, unlinking as it goes, so it
    /// allocates nothing (zone reset calls it on every reset).
    pub(crate) fn retain_not<F: FnMut(u64) -> bool>(&mut self, mut pred: F) -> usize {
        let mut removed = 0;
        let mut idx = self.head;
        while idx != NIL {
            let Node { key, next, .. } = self.nodes[idx];
            if pred(key) {
                self.remove(key);
                removed += 1;
            }
            idx = next;
        }
        removed
    }

    /// Drops every entry.
    pub(crate) fn clear(&mut self) {
        self.map.clear();
        self.nodes.clear();
        self.free.clear();
        self.head = NIL;
        self.tail = NIL;
    }

    /// Resident `(key, pinned)` pairs, most recently used first.
    #[cfg(test)]
    pub(crate) fn recency(&self) -> impl Iterator<Item = (u64, bool)> + '_ {
        let live = |idx: usize| (idx != NIL).then_some(idx);
        std::iter::successors(live(self.head), move |&idx| live(self.nodes[idx].next))
            .map(|idx| (self.nodes[idx].key, self.nodes[idx].pinned))
    }
}

/// What the index hashes `key` to: the bucket comes from the low bits, the
/// control tag from the top seven.
#[cfg(test)]
pub(crate) fn hash_of(key: u64) -> u64 {
    use std::hash::BuildHasher;
    BuildHasherDefault::<KeyHasher>::default().hash_one(key)
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
