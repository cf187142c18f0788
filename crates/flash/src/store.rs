//! Optional data backing store for read-after-write verification.
//!
//! Timing studies over gigabytes of flash do not want to hold the data in
//! host memory, so payload storage is opt-in
//! ([`DeviceConfig::data_backing`](conzone_types::DeviceConfig)). When
//! enabled, every programmed 4 KiB slice's bytes are retained and reads
//! return them, letting integration and property tests assert data
//! integrity through buffering, SLC staging, combines and GC migration.

#[allow(
    clippy::disallowed_types,
    reason = "keyed per-slice payload accesses on the data-backed hot path; the store is never iterated, so hash order cannot reach simulated behaviour"
)]
use std::collections::HashMap;

use conzone_types::{Ppa, SLICE_BYTES};

/// Per-slice payload store, keyed by physical address.
#[derive(Debug, Default)]
pub struct DataStore {
    enabled: bool,
    #[allow(
        clippy::disallowed_types,
        reason = "keyed lookups only, never iterated"
    )]
    slices: HashMap<u64, Box<[u8]>>,
}

impl DataStore {
    /// Creates a store; a disabled store ignores writes and returns `None`.
    pub fn new(enabled: bool) -> DataStore {
        DataStore {
            enabled,
            #[allow(clippy::disallowed_types, reason = "keyed lookups only")]
            slices: HashMap::new(),
        }
    }

    /// Whether payloads are retained.
    #[inline]
    pub(crate) fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Stores the bytes of one slice.
    ///
    /// # Panics
    ///
    /// Panics if `data` is not exactly 4 KiB.
    pub fn put(&mut self, ppa: Ppa, data: &[u8]) {
        if !self.enabled {
            return;
        }
        assert_eq!(
            data.len() as u64,
            SLICE_BYTES,
            "slice payload must be 4 KiB"
        );
        self.slices.insert(ppa.raw(), data.into());
    }

    /// Fetches the bytes of one slice, if retained.
    pub fn get(&self, ppa: Ppa) -> Option<&[u8]> {
        self.slices.get(&ppa.raw()).map(|b| b.as_ref())
    }

    /// Drops all payloads in `[first, first + count)` linear slice
    /// addresses (used on block erase). A store that holds nothing — every
    /// timing-only device — returns before hashing a single key.
    pub fn remove_range(&mut self, first: Ppa, count: u64) {
        if self.slices.is_empty() {
            return;
        }
        for i in 0..count {
            self.slices.remove(&(first.raw() + i));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn slice_of(byte: u8) -> Vec<u8> {
        vec![byte; SLICE_BYTES as usize]
    }

    #[test]
    fn disabled_store_ignores_everything() {
        let mut s = DataStore::new(false);
        s.put(Ppa(1), &slice_of(7));
        assert!(s.get(Ppa(1)).is_none());
        assert!(!s.is_enabled());
    }

    /// Timing-only devices erase whole blocks through a disabled store:
    /// every mutation must be a no-op that leaves it empty.
    #[test]
    fn disabled_store_mutations_are_noops() {
        let mut s = DataStore::new(false);
        s.put(Ppa(1), &slice_of(7));
        s.remove_range(Ppa(1), 1);
        s.remove_range(Ppa(0), 960);
        assert!(s.get(Ppa(1)).is_none());
    }

    /// The same calls on an enabled store that happens to be empty, then
    /// holding one slice outside the removed range.
    #[test]
    fn enabled_store_early_out_only_when_empty() {
        let mut s = DataStore::new(true);
        s.remove_range(Ppa(0), 8);
        s.put(Ppa(20), &slice_of(3));
        s.remove_range(Ppa(0), 8);
        assert!(
            s.get(Ppa(20)).is_some(),
            "a slice outside the range survives"
        );
        s.remove_range(Ppa(16), 8);
        assert!(s.get(Ppa(20)).is_none());
    }

    #[test]
    fn put_get_remove() {
        let mut s = DataStore::new(true);
        s.put(Ppa(5), &slice_of(1));
        assert_eq!(s.get(Ppa(5)).unwrap()[0], 1);
        assert!(s.get(Ppa(9)).is_none());
        s.remove_range(Ppa(5), 1);
        assert!(s.get(Ppa(5)).is_none());
    }

    #[test]
    fn remove_range_clears_block() {
        let mut s = DataStore::new(true);
        for i in 0..10 {
            s.put(Ppa(100 + i), &slice_of(i as u8));
        }
        s.remove_range(Ppa(100), 5);
        for i in 0..10 {
            assert_eq!(s.get(Ppa(100 + i)).is_some(), i >= 5, "slice {i}");
        }
    }

    #[test]
    #[should_panic(expected = "4 KiB")]
    fn wrong_size_payload_panics() {
        DataStore::new(true).put(Ppa(0), &[0u8; 100]);
    }
}
