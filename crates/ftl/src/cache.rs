//! The volatile L2P cache (paper §III-C).
//!
//! Cache entries carry three domains — logical address, mapping granularity
//! and physical address — and lookups translate the logical address into
//! LZA, LCA and LPA, matching each in turn. Eviction is LRU; the pinned
//! configuration of §IV-D keeps aggregated entries resident and evicts the
//! entries they cover.

use conzone_types::{Lpn, MapGranularity};

use crate::lru::{InsertOutcome, LruCache};

/// Lookup order: LZA, then LCA, then LPA (paper Fig. 4 Ⅰ).
const LEVELS: [MapGranularity; 3] = [
    MapGranularity::Zone,
    MapGranularity::Chunk,
    MapGranularity::Page,
];

/// Result of a cache lookup.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LookupResult {
    /// Hit at the given granularity.
    Hit(MapGranularity),
    /// No entry covers the page.
    Miss,
}

/// The L2P cache.
///
/// ```
/// use conzone_ftl::{L2pCache, LookupResult};
/// use conzone_types::{Lpn, MapGranularity};
///
/// let mut cache = L2pCache::new(64, 4, 16);
/// cache.insert(Lpn(5), MapGranularity::Chunk, false);
/// // Any page of chunk 1 now hits at chunk granularity.
/// assert_eq!(cache.lookup(Lpn(7)), LookupResult::Hit(MapGranularity::Chunk));
/// assert_eq!(cache.lookup(Lpn(9)), LookupResult::Miss);
/// ```
#[derive(Debug)]
pub struct L2pCache {
    /// Keyed by tile *number* and granularity ([`L2pCache::key_for`]).
    lru: LruCache,
    /// Resident entries per granularity, indexed by [`level`]: a
    /// granularity with none is not probed.
    residents: [usize; 3],
    chunk_slices: u64,
    zone_slices: u64,
}

/// Index of a granularity in [`L2pCache::residents`]: its two map bits.
#[inline]
fn level(granularity: MapGranularity) -> usize {
    usize::from(granularity.to_bits())
}

/// The level and tile number a packed key ([`L2pCache::key_for`]) holds.
#[inline]
fn unpack(key: u64) -> (usize, u64) {
    ((key & 0b11) as usize, key >> 2)
}

impl L2pCache {
    /// Creates a cache of `capacity` entries over the given chunk/zone
    /// tiling.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` or either tile size is zero.
    pub fn new(capacity: usize, chunk_slices: u64, zone_slices: u64) -> L2pCache {
        assert!(chunk_slices > 0 && zone_slices > 0);
        L2pCache {
            lru: LruCache::new(capacity),
            residents: [0; 3],
            chunk_slices,
            zone_slices,
        }
    }

    /// Capacity in entries.
    #[inline]
    pub(crate) fn capacity(&self) -> usize {
        self.lru.capacity()
    }

    /// Resident entries.
    #[inline]
    #[expect(
        clippy::len_without_is_empty,
        reason = "callers count entries; none asks whether the cache is empty"
    )]
    pub fn len(&self) -> usize {
        self.lru.len()
    }

    /// Total LRU evictions so far.
    #[inline]
    pub fn evictions(&self) -> u64 {
        self.lru.evictions()
    }

    /// Resident entries over capacity, in `[0, 1]` — the cache-pressure
    /// figure the heatmap snapshot reports.
    pub fn occupancy(&self) -> f64 {
        if self.capacity() == 0 {
            0.0
        } else {
            self.len() as f64 / self.capacity() as f64
        }
    }

    /// Logical pages per entry of `granularity`.
    #[inline]
    fn tile(&self, granularity: MapGranularity) -> u64 {
        match granularity {
            MapGranularity::Page => 1,
            MapGranularity::Chunk => self.chunk_slices,
            MapGranularity::Zone => self.zone_slices,
        }
    }

    /// The logical pages `[lo, hi)` that one entry of `granularity`
    /// covering `lpn` resolves: the page itself, its chunk or its zone. A
    /// hit at `lpn` is a hit, on the same entry, for every page of the span.
    #[inline]
    pub fn span(&self, lpn: Lpn, granularity: MapGranularity) -> (Lpn, Lpn) {
        let tile = self.tile(granularity);
        let lo = lpn.raw() / tile * tile;
        (Lpn(lo), Lpn(lo + tile))
    }

    /// The packed key of the entry covering `lpn` at `granularity`: the
    /// tile's number above the two map bits. The number, not the tile's
    /// first LPN, so that chunk and zone keys are consecutive integers and
    /// spread over the index's slots like page keys do.
    #[inline]
    fn key_for(&self, lpn: Lpn, granularity: MapGranularity) -> u64 {
        (lpn.raw() / self.tile(granularity)) << 2 | u64::from(granularity.to_bits())
    }

    /// Looks up a logical page, trying LZA, then LCA, then LPA (paper
    /// Fig. 4 Ⅰ) — of which only the granularities that have residents
    /// are probed. A hit promotes the entry to most-recently-used.
    pub fn lookup(&mut self, lpn: Lpn) -> LookupResult {
        for granularity in LEVELS {
            if self.residents[level(granularity)] == 0 {
                debug_assert!(!self.lru.contains(self.key_for(lpn, granularity)));
            } else if self.lru.touch(self.key_for(lpn, granularity)) {
                return LookupResult::Hit(granularity);
            }
        }
        LookupResult::Miss
    }

    /// Whether any entry covers `lpn`, without touching recency.
    pub fn covers(&self, lpn: Lpn) -> bool {
        LEVELS
            .into_iter()
            .any(|g| self.residents[level(g)] > 0 && self.lru.contains(self.key_for(lpn, g)))
    }

    /// Inserts the entry covering `lpn` at `granularity`. When `pinned` is
    /// set (the §IV-D design), aggregated entries stay resident and the
    /// entries they cover are removed. The key an
    /// [`InsertOutcome::Evicted`] carries is this cache's packed one,
    /// opaque to callers.
    pub fn insert(&mut self, lpn: Lpn, granularity: MapGranularity, pinned: bool) -> InsertOutcome {
        if granularity > MapGranularity::Page {
            self.evict_covered(lpn, granularity);
        }
        let outcome = self.lru.insert(self.key_for(lpn, granularity), pinned);
        match outcome {
            InsertOutcome::Stored | InsertOutcome::OverCapacity => {
                self.residents[level(granularity)] += 1;
            }
            InsertOutcome::Evicted(victim) => {
                self.residents[level(granularity)] += 1;
                self.residents[unpack(victim).0] -= 1;
            }
            InsertOutcome::Updated | InsertOutcome::Rejected => {}
        }
        outcome
    }

    /// Removes every entry of a level under `below` whose tile starts in
    /// `[lo, hi)`.
    fn remove_starting_in(&mut self, (lo, hi): (Lpn, Lpn), below: usize) {
        // Per level, the numbers `[first, end)` of the tiles whose first
        // page is in the span.
        let mut numbers = [(0, 0); 3];
        for granularity in LEVELS {
            let tile = self.tile(granularity);
            numbers[level(granularity)] = (lo.raw().div_ceil(tile), hi.raw().div_ceil(tile));
        }
        let residents = &mut self.residents;
        self.lru.retain_not(|key| {
            let (level, number) = unpack(key);
            let (first, end) = numbers[level];
            let matched = level < below && (first..end).contains(&number);
            if matched {
                residents[level] -= 1;
            }
            matched
        });
    }

    /// Removes entries strictly below `granularity` that the new aggregated
    /// entry covers ("the covered L2P mapping entries are evicted",
    /// §IV-D).
    fn evict_covered(&mut self, lpn: Lpn, granularity: MapGranularity) {
        let below = level(granularity);
        if self.residents[..below].iter().all(|&n| n == 0) {
            return;
        }
        self.remove_starting_in(self.span(lpn, granularity), below);
    }

    /// Invalidates any entry covering `lpn` (mapping changed: overwrite, GC
    /// migration or zone reset).
    pub fn invalidate_page(&mut self, lpn: Lpn) {
        for granularity in LEVELS {
            let level = level(granularity);
            if self.residents[level] > 0 && self.lru.remove(self.key_for(lpn, granularity)) {
                self.residents[level] -= 1;
            }
        }
    }

    /// Invalidates every entry of the zone containing `lpn`.
    pub fn invalidate_zone(&mut self, zone_start: Lpn) {
        let zone = self.span(zone_start, MapGranularity::Zone);
        self.remove_starting_in(zone, LEVELS.len());
    }

    /// Drops everything.
    pub fn clear(&mut self) {
        self.lru.clear();
        self.residents = [0; 3];
    }

    /// The lookup answer without the resident counts: probe zone, chunk and
    /// page key, touching nothing.
    #[cfg(test)]
    pub(crate) fn lookup_naive(&self, lpn: Lpn) -> LookupResult {
        LEVELS
            .into_iter()
            .find(|&g| self.lru.contains(self.key_for(lpn, g)))
            .map_or(LookupResult::Miss, LookupResult::Hit)
    }

    /// The per-granularity resident counts as maintained and as recounted
    /// from the entries themselves.
    #[cfg(test)]
    pub(crate) fn residents_and_recount(&self) -> ([usize; 3], [usize; 3]) {
        let mut recount = [0; 3];
        for (key, _) in self.lru.recency() {
            recount[unpack(key).0] += 1;
        }
        (self.residents, recount)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cache() -> L2pCache {
        L2pCache::new(8, 4, 16)
    }

    #[test]
    fn lookup_priority_zone_chunk_page() {
        let mut c = cache();
        c.insert(Lpn(0), MapGranularity::Page, false);
        c.insert(Lpn(0), MapGranularity::Chunk, false);
        c.insert(Lpn(0), MapGranularity::Zone, false);
        assert_eq!(c.lookup(Lpn(0)), LookupResult::Hit(MapGranularity::Zone));
    }

    #[test]
    fn chunk_hit_covers_whole_chunk_only() {
        let mut c = cache();
        c.insert(Lpn(4), MapGranularity::Chunk, false);
        assert_eq!(c.lookup(Lpn(6)), LookupResult::Hit(MapGranularity::Chunk));
        assert_eq!(c.lookup(Lpn(3)), LookupResult::Miss);
        assert_eq!(c.lookup(Lpn(8)), LookupResult::Miss);
    }

    #[test]
    fn aggregated_insert_evicts_covered() {
        let mut c = cache();
        for i in 0..4 {
            c.insert(Lpn(i), MapGranularity::Page, false);
        }
        assert_eq!(c.len(), 4);
        c.insert(Lpn(0), MapGranularity::Chunk, false);
        // The four page entries are gone; only the chunk entry remains.
        assert_eq!(c.len(), 1);
        assert_eq!(c.lookup(Lpn(2)), LookupResult::Hit(MapGranularity::Chunk));
    }

    #[test]
    fn zone_insert_evicts_covered_chunks_and_pages() {
        let mut c = cache();
        c.insert(Lpn(0), MapGranularity::Chunk, false);
        c.insert(Lpn(5), MapGranularity::Page, false);
        c.insert(Lpn(17), MapGranularity::Page, false); // other zone
        c.insert(Lpn(0), MapGranularity::Zone, false);
        assert_eq!(c.len(), 2); // zone entry + other-zone page
        assert_eq!(c.lookup(Lpn(17)), LookupResult::Hit(MapGranularity::Page));
    }

    #[test]
    fn lru_eviction_under_pressure() {
        let mut c = cache(); // capacity 8
        for i in 0..9 {
            c.insert(Lpn(i * 16), MapGranularity::Page, false);
        }
        assert_eq!(c.len(), 8);
        assert_eq!(c.evictions(), 1);
        assert_eq!(c.lookup(Lpn(0)), LookupResult::Miss, "oldest evicted");
    }

    #[test]
    fn pinned_aggregates_survive_pressure() {
        let mut c = cache();
        c.insert(Lpn(0), MapGranularity::Zone, true);
        for i in 0..20 {
            c.insert(Lpn(100 + i), MapGranularity::Page, false);
        }
        assert_eq!(c.lookup(Lpn(5)), LookupResult::Hit(MapGranularity::Zone));
    }

    #[test]
    fn invalidate_page_and_zone() {
        let mut c = cache();
        c.insert(Lpn(0), MapGranularity::Chunk, false);
        c.invalidate_page(Lpn(2));
        assert_eq!(c.lookup(Lpn(0)), LookupResult::Miss);

        c.insert(Lpn(16), MapGranularity::Zone, false);
        c.insert(Lpn(20), MapGranularity::Page, false);
        c.insert(Lpn(0), MapGranularity::Page, false);
        c.invalidate_zone(Lpn(16));
        assert_eq!(c.lookup(Lpn(20)), LookupResult::Miss);
        assert_eq!(c.lookup(Lpn(0)), LookupResult::Hit(MapGranularity::Page));
    }

    #[test]
    fn span_is_the_tile_containing_the_page() {
        let c = cache(); // chunks of 4, zones of 16
        assert_eq!(c.span(Lpn(21), MapGranularity::Page), (Lpn(21), Lpn(22)));
        assert_eq!(c.span(Lpn(21), MapGranularity::Chunk), (Lpn(20), Lpn(24)));
        assert_eq!(c.span(Lpn(21), MapGranularity::Zone), (Lpn(16), Lpn(32)));
    }

    #[test]
    fn one_lookup_stands_for_every_page_of_the_hit_span() {
        // What the run-granular read path relies on: after a hit, looking
        // up the other pages of its span changes nothing, so the later
        // eviction order is the same whether they are looked up or not.
        let eviction_order = |lookups: &[u64]| {
            let mut c = L2pCache::new(3, 4, 16);
            c.insert(Lpn(4), MapGranularity::Chunk, false);
            c.insert(Lpn(16), MapGranularity::Page, false);
            c.insert(Lpn(17), MapGranularity::Page, false);
            for &lpn in lookups {
                assert_eq!(c.lookup(Lpn(lpn)), LookupResult::Hit(MapGranularity::Chunk));
            }
            let mut order = Vec::new();
            for fresh in 100..103 {
                c.insert(Lpn(fresh), MapGranularity::Page, false);
                order.push([4, 16, 17].map(|lpn| c.covers(Lpn(lpn))));
            }
            order
        };
        let (lo, hi) = cache().span(Lpn(5), MapGranularity::Chunk);
        let whole: Vec<u64> = (lo.raw()..hi.raw()).collect();
        assert_eq!(eviction_order(&[5]), eviction_order(&whole));
        assert_eq!(eviction_order(&[5])[0], [true, false, true]);
    }

    #[test]
    fn aligned_keys_spread_over_the_index() {
        use std::collections::BTreeSet;

        let cfg = conzone_types::DeviceConfig::paper_evaluation();
        let (chunk, zone) = (cfg.chunk_slices(), cfg.zone_size_slices());
        let zones = cfg.zone_count() as u64;
        assert_eq!((zones, zones * zone / chunk), (96, 384));
        let c = L2pCache::new(cfg.l2p_cache_entries(), chunk, zone);
        let keys = |n: u64, stride: u64, g| -> Vec<u64> {
            (0..n).map(|i| c.key_for(Lpn(i * stride), g)).collect()
        };
        let distinct = |keys: &[u64], bits: &dyn Fn(u64) -> u64| {
            keys.iter().map(|&k| bits(k)).collect::<BTreeSet<_>>().len()
        };
        // 3072 entries get 8192 slots.
        assert_eq!(c.lru.home_slot(0).1, 8192);
        let home = |k| c.lru.home_slot(k).0 as u64;
        for keys in [
            keys(96, zone, MapGranularity::Zone),
            keys(384, chunk, MapGranularity::Chunk),
            keys(3072, 2, MapGranularity::Page),
        ] {
            // 3072 random draws from 8192 slots take about 83 %; Fibonacci
            // hashing spreads runs of evenly spaced keys wider still.
            assert!(distinct(&keys, &home) * 10 >= keys.len() * 9);
        }
        // Why the home slot is the product's top bits: its low bits put
        // every zone's aligned first LPN in one slot.
        let first_lpns: Vec<u64> = (0..zones).map(|z| z * zone).collect();
        let low_bits = |k: u64| k.wrapping_mul(0x9E37_79B9_7F4A_7C15) & 0xfff;
        assert_eq!(distinct(&first_lpns, &low_bits), 1);
        assert_eq!(distinct(&first_lpns, &home), first_lpns.len());
    }

    #[test]
    fn covers_does_not_touch_recency() {
        let mut c = L2pCache::new(2, 4, 16);
        c.insert(Lpn(0), MapGranularity::Page, false);
        c.insert(Lpn(1), MapGranularity::Page, false);
        assert!(c.covers(Lpn(0)));
        // Insert a third entry: LRU victim must still be Lpn(0) because
        // covers() did not promote it.
        c.insert(Lpn(2), MapGranularity::Page, false);
        assert!(!c.covers(Lpn(0)));
        assert!(c.covers(Lpn(1)));
    }
}
