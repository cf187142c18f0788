//! An intrusive-list LRU cache with entry pinning.
//!
//! The L2P cache evicts by LRU (paper §III-C); the pinned-aggregate design
//! of §IV-D additionally keeps chunk/zone entries resident. This generic
//! cache implements both: pinned entries are never chosen as eviction
//! victims.

#[allow(
    clippy::disallowed_types,
    reason = "keyed O(1) index lookups only; the recency order lives in the explicit linked list and is never taken from map iteration, so hashing cannot leak into sim-visible behaviour"
)]
use std::collections::HashMap;
use std::hash::Hash;

const NIL: usize = usize::MAX;

#[derive(Debug)]
struct Node<K, V> {
    key: K,
    value: V,
    pinned: bool,
    prev: usize,
    next: usize,
}

/// Outcome of an insert.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InsertOutcome {
    /// Entry stored without displacing anything.
    Stored,
    /// Entry stored after evicting one LRU victim.
    Evicted,
    /// Entry replaced an existing entry with the same key.
    Updated,
    /// Cache full of pinned entries; a non-pinned insert was dropped.
    Rejected,
    /// A pinned insert exceeded capacity (all residents pinned); it was
    /// stored anyway and the cache is over budget.
    OverCapacity,
}

/// LRU cache with per-entry pinning.
///
/// ```
/// use conzone_ftl::LruCache;
///
/// let mut c = LruCache::new(2);
/// c.insert('a', 1, false);
/// c.insert('b', 2, false);
/// c.get(&'a'); // 'a' becomes most recent
/// c.insert('c', 3, false); // evicts 'b'
/// assert!(c.contains(&'a') && c.contains(&'c') && !c.contains(&'b'));
/// ```
#[derive(Debug)]
pub struct LruCache<K, V> {
    #[allow(
        clippy::disallowed_types,
        reason = "keyed lookups only, never iterated"
    )]
    map: HashMap<K, usize>,
    nodes: Vec<Option<Node<K, V>>>,
    free: Vec<usize>,
    /// Most recently used.
    head: usize,
    /// Least recently used.
    tail: usize,
    capacity: usize,
    evictions: u64,
}

impl<K: Hash + Eq + Copy, V> LruCache<K, V> {
    /// Creates a cache holding at most `capacity` entries.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> LruCache<K, V> {
        assert!(capacity > 0, "cache capacity must be non-zero");
        LruCache {
            #[allow(clippy::disallowed_types, reason = "keyed lookups only")]
            map: HashMap::with_capacity(capacity),
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
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the cache is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Configured capacity in entries.
    #[inline]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// LRU evictions performed so far.
    #[inline]
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    /// Whether `key` is resident (does not touch recency).
    #[inline]
    pub fn contains(&self, key: &K) -> bool {
        self.map.contains_key(key)
    }

    #[allow(
        clippy::expect_used,
        reason = "linked-list integrity: every index reachable from the list or the map points at a live node by construction"
    )]
    fn node(&self, idx: usize) -> &Node<K, V> {
        self.nodes[idx].as_ref().expect("linked node must be live")
    }

    #[allow(
        clippy::expect_used,
        reason = "same linked-list integrity invariant as node()"
    )]
    fn node_mut(&mut self, idx: usize) -> &mut Node<K, V> {
        self.nodes[idx].as_mut().expect("linked node must be live")
    }

    fn unlink(&mut self, idx: usize) {
        let (prev, next) = {
            let n = self.node(idx);
            (n.prev, n.next)
        };
        if prev != NIL {
            self.node_mut(prev).next = next;
        } else {
            self.head = next;
        }
        if next != NIL {
            self.node_mut(next).prev = prev;
        } else {
            self.tail = prev;
        }
    }

    fn push_front(&mut self, idx: usize) {
        let old_head = self.head;
        {
            let n = self.node_mut(idx);
            n.prev = NIL;
            n.next = old_head;
        }
        if old_head != NIL {
            self.node_mut(old_head).prev = idx;
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

    /// Looks up `key`, promoting it to most-recently-used on hit.
    pub fn get(&mut self, key: &K) -> Option<&V> {
        let idx = *self.map.get(key)?;
        self.promote(idx);
        Some(&self.node(idx).value)
    }

    /// Looks up `key` without touching recency.
    pub fn peek(&self, key: &K) -> Option<&V> {
        self.map.get(key).map(|&idx| &self.node(idx).value)
    }

    /// Removes `key`, returning its value.
    pub fn remove(&mut self, key: &K) -> Option<V> {
        let idx = self.map.remove(key)?;
        self.unlink(idx);
        #[allow(clippy::expect_used, reason = "the map only holds live indices")]
        let node = self.nodes[idx].take().expect("mapped node must be live");
        self.free.push(idx);
        Some(node.value)
    }

    /// Finds the least-recently-used non-pinned entry, if any.
    fn eviction_victim(&self) -> Option<usize> {
        let mut idx = self.tail;
        while idx != NIL {
            let n = self.node(idx);
            if !n.pinned {
                return Some(idx);
            }
            idx = n.prev;
        }
        None
    }

    /// Inserts `key → value`. An existing entry is updated in place
    /// (retaining the stronger of the two pin flags). When the cache is
    /// full, the LRU non-pinned entry is evicted; if every resident is
    /// pinned, a non-pinned insert is rejected while a pinned insert is
    /// stored over capacity.
    pub fn insert(&mut self, key: K, value: V, pinned: bool) -> InsertOutcome {
        if let Some(&idx) = self.map.get(&key) {
            {
                let n = self.node_mut(idx);
                n.value = value;
                n.pinned |= pinned;
            }
            self.promote(idx);
            return InsertOutcome::Updated;
        }
        let mut outcome = InsertOutcome::Stored;
        if self.map.len() >= self.capacity {
            match self.eviction_victim() {
                Some(victim) => {
                    let vkey = self.node(victim).key;
                    self.remove(&vkey);
                    self.evictions += 1;
                    outcome = InsertOutcome::Evicted;
                }
                None if pinned => outcome = InsertOutcome::OverCapacity,
                None => return InsertOutcome::Rejected,
            }
        }
        let node = Node {
            key,
            value,
            pinned,
            prev: NIL,
            next: NIL,
        };
        let idx = match self.free.pop() {
            Some(i) => {
                self.nodes[i] = Some(node);
                i
            }
            None => {
                self.nodes.push(Some(node));
                self.nodes.len() - 1
            }
        };
        self.map.insert(key, idx);
        self.push_front(idx);
        outcome
    }

    /// Iterates over resident keys in unspecified order.
    pub fn keys(&self) -> impl Iterator<Item = &K> {
        self.map.keys()
    }

    /// Removes every key for which `pred` returns true; returns how many
    /// were removed. Walks the recency list, unlinking as it goes, so it
    /// allocates nothing (zone reset calls it on every reset).
    pub fn retain_not<F: FnMut(&K) -> bool>(&mut self, mut pred: F) -> usize {
        let mut removed = 0;
        let mut idx = self.head;
        while idx != NIL {
            let node = self.node(idx);
            let (key, next) = (node.key, node.next);
            if pred(&key) {
                self.remove(&key);
                removed += 1;
            }
            idx = next;
        }
        removed
    }

    /// Drops every entry.
    pub fn clear(&mut self) {
        self.map.clear();
        self.nodes.clear();
        self.free.clear();
        self.head = NIL;
        self.tail = NIL;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lru_order_eviction() {
        let mut c = LruCache::new(3);
        for (k, v) in [('a', 1), ('b', 2), ('c', 3)] {
            assert_eq!(c.insert(k, v, false), InsertOutcome::Stored);
        }
        c.get(&'a');
        assert_eq!(c.insert('d', 4, false), InsertOutcome::Evicted);
        // 'b' was LRU after 'a' was touched.
        assert!(!c.contains(&'b'));
        assert!(c.contains(&'a') && c.contains(&'c') && c.contains(&'d'));
        assert_eq!(c.evictions(), 1);
    }

    #[test]
    fn touching_the_head_keeps_the_order() {
        let mut c = LruCache::new(3);
        for k in ['a', 'b', 'c'] {
            c.insert(k, 0, false);
        }
        // 'c' is already most recent: neither a get nor an update moves it.
        assert_eq!(c.get(&'c'), Some(&0));
        assert_eq!(c.insert('c', 1, false), InsertOutcome::Updated);
        assert_eq!(c.get(&'c'), Some(&1));
        c.insert('d', 0, false);
        assert!(!c.contains(&'a'), "oldest goes first");
        c.insert('e', 0, false);
        assert!(!c.contains(&'b'));
        c.insert('f', 0, false);
        assert!(!c.contains(&'c'), "and the old head last");
        // A single resident is head and tail at once.
        let mut one = LruCache::new(1);
        one.insert('x', 0, false);
        one.get(&'x');
        assert_eq!(one.insert('y', 0, false), InsertOutcome::Evicted);
        assert!(one.contains(&'y') && !one.contains(&'x'));
    }

    #[test]
    fn update_in_place_keeps_len() {
        let mut c = LruCache::new(2);
        c.insert('a', 1, false);
        assert_eq!(c.insert('a', 9, false), InsertOutcome::Updated);
        assert_eq!(c.len(), 1);
        assert_eq!(c.peek(&'a'), Some(&9));
    }

    #[test]
    fn pinned_entries_survive_eviction() {
        let mut c = LruCache::new(2);
        c.insert('p', 0, true);
        c.insert('a', 1, false);
        c.insert('b', 2, false); // evicts 'a', never 'p'
        assert!(c.contains(&'p'));
        assert!(!c.contains(&'a'));
        assert!(c.contains(&'b'));
    }

    #[test]
    fn all_pinned_rejects_unpinned_but_accepts_pinned() {
        let mut c = LruCache::new(2);
        c.insert(1, (), true);
        c.insert(2, (), true);
        assert_eq!(c.insert(3, (), false), InsertOutcome::Rejected);
        assert!(!c.contains(&3));
        assert_eq!(c.insert(4, (), true), InsertOutcome::OverCapacity);
        assert!(c.contains(&4));
        assert_eq!(c.len(), 3); // over budget by one, visible to callers
    }

    #[test]
    fn remove_and_reuse_slots() {
        let mut c = LruCache::new(2);
        c.insert('a', 1, false);
        assert_eq!(c.remove(&'a'), Some(1));
        assert_eq!(c.remove(&'a'), None);
        c.insert('b', 2, false);
        c.insert('c', 3, false);
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn retain_not_removes_matching() {
        let mut c = LruCache::new(10);
        for i in 0..10 {
            c.insert(i, i, false);
        }
        let removed = c.retain_not(|k| *k % 2 == 0);
        assert_eq!(removed, 5);
        assert_eq!(c.len(), 5);
        assert!(c.contains(&1) && !c.contains(&2));
        // The tail (0), the head's neighbour (8) and middles were unlinked
        // mid-walk; the survivors keep their recency order, 1 now oldest.
        for k in 10..15 {
            assert_eq!(c.insert(k, k, false), InsertOutcome::Stored);
        }
        assert_eq!(c.insert(15, 15, false), InsertOutcome::Evicted);
        assert!(!c.contains(&1) && c.contains(&3));
        assert_eq!(c.insert(16, 16, false), InsertOutcome::Evicted);
        assert!(!c.contains(&3) && c.contains(&5));
        // Removing everything, head included, leaves a usable cache.
        assert_eq!(c.retain_not(|_| true), 10);
        assert!(c.is_empty());
        c.insert(4, 4, false);
        assert_eq!(c.get(&4), Some(&4));
    }

    #[test]
    fn clear_empties() {
        let mut c = LruCache::new(4);
        c.insert(1, 1, true);
        c.clear();
        assert!(c.is_empty());
        c.insert(2, 2, false);
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn heavy_churn_consistency() {
        let mut c = LruCache::new(64);
        for i in 0..10_000u64 {
            c.insert(i % 257, i, false);
            assert!(c.len() <= 64);
        }
        // The most recent keys must be resident.
        assert!(c.contains(&(9_999u64 % 257)));
    }
}
