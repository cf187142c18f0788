//! Property-based tests: the pinned-LRU cache against a reference model,
//! and mapping-table aggregation invariants.

use std::collections::BTreeMap;

use proptest::prelude::*;

use crate::{L2pCache, LookupResult, LruCache, MapBitmap, MappingTable};
use conzone_types::{Lpn, LpnRange, MapGranularity, Ppa, ZoneId};

#[derive(Debug, Clone)]
enum LruOp {
    Insert(u16, u16),
    Get(u16),
    Remove(u16),
}

fn lru_ops() -> impl Strategy<Value = Vec<LruOp>> {
    prop::collection::vec(
        prop_oneof![
            3 => (any::<u16>(), any::<u16>()).prop_map(|(k, v)| LruOp::Insert(k % 64, v)),
            2 => any::<u16>().prop_map(|k| LruOp::Get(k % 64)),
            1 => any::<u16>().prop_map(|k| LruOp::Remove(k % 64)),
        ],
        1..200,
    )
}

/// A straightforward reference LRU: Vec ordered most-recent-first.
#[derive(Default)]
struct RefLru {
    entries: Vec<(u16, u16)>, // MRU at index 0
    capacity: usize,
}

impl RefLru {
    fn insert(&mut self, k: u16, v: u16) {
        if let Some(pos) = self.entries.iter().position(|(ek, _)| *ek == k) {
            self.entries.remove(pos);
        } else if self.entries.len() == self.capacity {
            self.entries.pop();
        }
        self.entries.insert(0, (k, v));
    }
    fn get(&mut self, k: u16) -> Option<u16> {
        let pos = self.entries.iter().position(|(ek, _)| *ek == k)?;
        let e = self.entries.remove(pos);
        self.entries.insert(0, e);
        Some(e.1)
    }
    fn remove(&mut self, k: u16) -> Option<u16> {
        let pos = self.entries.iter().position(|(ek, _)| *ek == k)?;
        Some(self.entries.remove(pos).1)
    }
}

/// One step of the run-form ≡ per-page-loop property. Two zones of 32
/// pages in chunks of 8, plus a third zone clipped to 6 pages.
#[derive(Debug, Clone)]
enum TableOp {
    /// Map `n` pages from `lpn` to consecutive slices.
    Set(u64, u64, bool),
    /// Try chunk, then zone aggregation around `lpn`.
    Aggregate(u64),
    /// Move `n` pages from `lpn` to consecutive slices (if all mapped).
    Relocate(u64, u64),
    Unmap(u64),
    /// Unmap `n` pages from `lpn` (may reach past the table).
    UnmapRun(u64, u64),
    UnmapZone(u64),
}

const TABLE_PAGES: u64 = 70;

fn table_ops() -> impl Strategy<Value = Vec<TableOp>> {
    let run = || (0..TABLE_PAGES, 0u64..40);
    prop::collection::vec(
        prop_oneof![
            // Mostly canonical, so chunks and zones do aggregate and later
            // runs punch into them.
            4 => (run(), 0u8..8).prop_map(|((l, n), c)| TableOp::Set(l, n, c != 0)),
            3 => (0..TABLE_PAGES).prop_map(TableOp::Aggregate),
            2 => run().prop_map(|(l, n)| TableOp::Relocate(l, n)),
            1 => (0..TABLE_PAGES).prop_map(TableOp::Unmap),
            1 => run().prop_map(|(l, n)| TableOp::UnmapRun(l, n)),
            1 => (0u64..3).prop_map(TableOp::UnmapZone),
        ],
        1..60,
    )
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 96, ..ProptestConfig::default() })]

    /// The run forms of the mapping table against the per-page loops they
    /// replaced, kept here as the reference: `set_extent` ≡ n × `set`
    /// (a run punching into an aggregated chunk or zone demotes exactly
    /// what the loop demoted), `relocate_extent` ≡ n × `relocate`,
    /// `unmap_extent` and `unmap_zone` ≡ the `unmap` loop — on aggregated
    /// zones, past the table and on the clipped last zone — and
    /// `non_canonical_ppas` ≡ a filter over `get`.
    #[test]
    fn run_forms_equal_the_per_page_loops(ops in table_ops()) {
        let mut bulk = MappingTable::new(TABLE_PAGES, 8, 32);
        let mut looped = MappingTable::new(TABLE_PAGES, 8, 32);
        let mut next_ppa = 1000;
        for op in ops {
            match op {
                TableOp::Set(lpn, n, canonical) => {
                    let n = n.min(TABLE_PAGES - lpn);
                    bulk.set_extent(Lpn(lpn), Ppa(next_ppa), n, canonical);
                    for i in 0..n {
                        looped.set(Lpn(lpn + i), Ppa(next_ppa + i), canonical);
                    }
                    next_ppa += n;
                }
                TableOp::Aggregate(lpn) => {
                    for t in [&mut bulk, &mut looped] {
                        t.try_aggregate_chunk(Lpn(lpn));
                        t.try_aggregate_zone(Lpn(lpn));
                    }
                }
                TableOp::Relocate(lpn, n) => {
                    let n = n.min(TABLE_PAGES - lpn);
                    if (lpn..lpn + n).all(|l| looped.get(Lpn(l)).is_some()) {
                        bulk.relocate_extent(Lpn(lpn), Ppa(next_ppa), n);
                        for i in 0..n {
                            looped.relocate(Lpn(lpn + i), Ppa(next_ppa + i));
                        }
                        next_ppa += n;
                    }
                }
                TableOp::Unmap(lpn) => {
                    bulk.unmap(Lpn(lpn));
                    looped.unmap(Lpn(lpn));
                }
                TableOp::UnmapRun(lpn, n) => {
                    bulk.unmap_extent(Lpn(lpn), n);
                    for i in 0..n {
                        looped.unmap(Lpn(lpn + i));
                    }
                }
                TableOp::UnmapZone(zone) => {
                    bulk.unmap_zone(ZoneId(zone));
                    for lpn in (zone * 32..zone * 32 + 32).filter(|&l| l < TABLE_PAGES) {
                        looped.unmap(Lpn(lpn));
                    }
                }
            }
            for lpn in (0..TABLE_PAGES).map(Lpn) {
                prop_assert_eq!(bulk.get(lpn), looped.get(lpn), "{} after {:?}", lpn, op);
            }
        }
        for (start, count) in [(0, TABLE_PAGES), (5, 30), (64, 20), (80, 4)] {
            let range = LpnRange::new(Lpn(start), count);
            let filtered: Vec<Ppa> = range
                .iter()
                .filter_map(|lpn| looped.get(lpn))
                .filter(|e| !e.canonical)
                .map(|e| e.ppa)
                .collect();
            prop_assert_eq!(bulk.non_canonical_ppas(range).collect::<Vec<_>>(), filtered);
        }
    }

    /// Without pinning, `LruCache` behaves exactly like a textbook LRU.
    #[test]
    fn lru_matches_reference(ops in lru_ops(), cap in 1usize..16) {
        let mut real = LruCache::new(cap);
        let mut reference = RefLru { capacity: cap, ..Default::default() };
        for op in ops {
            match op {
                LruOp::Insert(k, v) => {
                    real.insert(k, v, false);
                    reference.insert(k, v);
                }
                LruOp::Get(k) => {
                    prop_assert_eq!(real.get(&k).copied(), reference.get(k), "get {}", k);
                }
                LruOp::Remove(k) => {
                    prop_assert_eq!(real.remove(&k), reference.remove(k), "remove {}", k);
                }
            }
            prop_assert_eq!(real.len(), reference.entries.len());
            prop_assert!(real.len() <= cap);
        }
        // Final residency agrees exactly.
        for (k, v) in &reference.entries {
            prop_assert_eq!(real.peek(k), Some(v));
        }
    }

    /// Pinned entries are never evicted, whatever the churn.
    #[test]
    fn pinned_entries_survive(churn in prop::collection::vec(any::<u16>(), 1..300), cap in 2usize..16) {
        let mut cache = LruCache::new(cap);
        cache.insert(u16::MAX, 1, true);
        for k in churn {
            cache.insert(k % 1000, 0, false);
            prop_assert!(cache.contains(&u16::MAX));
        }
    }

    /// The mapping table's aggregation bits always describe reality:
    /// a chunk entry implies every page of the chunk is mapped and
    /// canonical; unmapping any page breaks future aggregation.
    #[test]
    fn aggregation_soundness(
        mapped in prop::collection::vec((0u64..64, any::<bool>()), 1..80)
    ) {
        let mut table = MappingTable::new(64, 8, 32);
        for &(lpn, canonical) in &mapped {
            table.set(Lpn(lpn), Ppa(1000 + lpn), canonical);
        }
        for chunk in 0..8u64 {
            let start = chunk * 8;
            let complete = (start..start + 8).all(|l| {
                table.get(Lpn(l)).map(|e| e.canonical).unwrap_or(false)
            });
            let aggregated = table.try_aggregate_chunk(Lpn(start));
            prop_assert_eq!(aggregated, complete, "chunk {}", chunk);
            if aggregated {
                for l in start..start + 8 {
                    prop_assert!(
                        table.granularity_of(Lpn(l)) >= Some(MapGranularity::Chunk)
                    );
                }
            }
        }
    }

    /// The L2P cache and the map-bit bitmap agree with the table after an
    /// arbitrary interleaving of inserts and invalidations.
    #[test]
    fn cache_and_bitmap_track_table(
        ops in prop::collection::vec((0u64..64, any::<bool>()), 1..120)
    ) {
        let mut table = MappingTable::new(64, 8, 32);
        let mut cache = L2pCache::new(128, 8, 32);
        let mut bitmap = MapBitmap::new(64);
        let mut shadow: BTreeMap<u64, bool> = BTreeMap::new(); // lpn -> mapped

        for (lpn, write) in ops {
            if write {
                // A write into an aggregated range demotes the whole range
                // (MappingTable::set documents this); a correct client
                // mirrors that in its bitmap before recording the page.
                if table.granularity_of(Lpn(lpn)) > Some(MapGranularity::Page) {
                    let start = lpn / 8 * 8;
                    bitmap.set_range(Lpn(start), 8, MapGranularity::Page);
                }
                table.set(Lpn(lpn), Ppa(lpn), true);
                bitmap.set(Lpn(lpn), MapGranularity::Page);
                cache.insert(Lpn(lpn), MapGranularity::Page, false);
                shadow.insert(lpn, true);
                if table.try_aggregate_chunk(Lpn(lpn)) {
                    let start = lpn / 8 * 8;
                    bitmap.set_range(Lpn(start), 8, MapGranularity::Chunk);
                }
            } else {
                // Unmap demotes covering aggregations too.
                if table.granularity_of(Lpn(lpn)) > Some(MapGranularity::Page) {
                    let start = lpn / 8 * 8;
                    bitmap.set_range(Lpn(start), 8, MapGranularity::Page);
                }
                table.unmap(Lpn(lpn));
                cache.invalidate_page(Lpn(lpn));
                bitmap.set(Lpn(lpn), MapGranularity::Page);
                shadow.insert(lpn, false);
            }
        }
        for (lpn, mapped) in shadow {
            if mapped {
                let g = table.granularity_of(Lpn(lpn)).expect("mapped");
                prop_assert_eq!(bitmap.get(Lpn(lpn)), g, "bitmap mirrors table at {}", lpn);
            } else {
                prop_assert!(table.get(Lpn(lpn)).is_none());
                // The cache may not claim coverage of an unmapped page at
                // page granularity (chunk/zone coverage would have been
                // torn down by invalidate_page too).
                prop_assert_eq!(cache.lookup(Lpn(lpn)) == LookupResult::Miss, true);
            }
        }
    }
}
