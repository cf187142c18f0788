//! Property-based tests: the pinned-LRU cache against a reference model,
//! the packed mapping table and owner map against plain `Option` / map
//! models, and mapping-table aggregation invariants.

use std::collections::BTreeMap;

use proptest::prelude::*;

use crate::{InsertOutcome, L2pCache, LookupResult, LruCache, MapBitmap, MappingTable, OwnerMap};
use conzone_types::{Geometry, Lpn, LpnRange, MapGranularity, Ppa, ZoneId, MAX_SLICES};

#[derive(Debug, Clone)]
enum LruOp {
    /// Insert a key, pinned or not.
    Insert(u64, bool),
    Touch(u64),
    Remove(u64),
    /// `retain_not` of the keys congruent to the first modulo the second.
    RemoveClass(u64, u64),
    Clear,
}

fn lru_ops() -> impl Strategy<Value = Vec<LruOp>> {
    let key = || 0u64..64;
    prop::collection::vec(
        prop_oneof![
            // One insert in eight is pinned: enough to fill a small cache
            // with pins (Rejected, OverCapacity), not so many that it
            // always is.
            24 => (key(), 0u8..8).prop_map(|(k, p)| LruOp::Insert(k, p == 0)),
            16 => key().prop_map(LruOp::Touch),
            8 => key().prop_map(LruOp::Remove),
            3 => (key(), 2u64..6).prop_map(|(k, m)| LruOp::RemoveClass(k % m, m)),
            1 => Just(LruOp::Clear),
        ],
        1..200,
    )
}

/// A straightforward reference pinned LRU: `(key, pinned)` in a Vec
/// ordered most-recent-first.
#[derive(Default)]
struct RefLru {
    entries: Vec<(u64, bool)>,
    capacity: usize,
}

impl RefLru {
    fn position(&self, k: u64) -> Option<usize> {
        self.entries.iter().position(|&(ek, _)| ek == k)
    }
    fn insert(&mut self, k: u64, mut pinned: bool) -> InsertOutcome {
        let mut outcome = InsertOutcome::Stored;
        if let Some(pos) = self.position(k) {
            pinned |= self.entries.remove(pos).1;
            outcome = InsertOutcome::Updated;
        } else if self.entries.len() >= self.capacity {
            // The last unpinned entry is the victim.
            match self.entries.iter().rposition(|&(_, p)| !p) {
                Some(pos) => outcome = InsertOutcome::Evicted(self.entries.remove(pos).0),
                None if pinned => outcome = InsertOutcome::OverCapacity,
                None => return InsertOutcome::Rejected,
            }
        }
        self.entries.insert(0, (k, pinned));
        outcome
    }
    fn touch(&mut self, k: u64) -> bool {
        let Some(pos) = self.position(k) else {
            return false;
        };
        let e = self.entries.remove(pos);
        self.entries.insert(0, e);
        true
    }
    fn remove(&mut self, k: u64) -> bool {
        self.position(k)
            .map(|pos| self.entries.remove(pos))
            .is_some()
    }
}

/// One step of the resident-count property, over 4 zones of 16 pages in
/// chunks of 4.
#[derive(Debug, Clone)]
enum CacheOp {
    Insert(u64, MapGranularity, bool),
    Lookup(u64),
    InvalidatePage(u64),
    InvalidateZone(u64),
    Clear,
}

fn cache_ops() -> impl Strategy<Value = Vec<CacheOp>> {
    let lpn = || 0u64..64;
    // Mostly pages, so aggregated inserts find entries to evict; one
    // aggregated insert in four is pinned.
    let granularity = || {
        prop_oneof![
            5 => Just(MapGranularity::Page),
            2 => Just(MapGranularity::Chunk),
            1 => Just(MapGranularity::Zone),
        ]
    };
    prop::collection::vec(
        prop_oneof![
            12 => (lpn(), granularity(), 0u8..4).prop_map(|(l, g, p)| {
                CacheOp::Insert(l, g, p == 0 && g > MapGranularity::Page)
            }),
            12 => lpn().prop_map(CacheOp::Lookup),
            4 => lpn().prop_map(CacheOp::InvalidatePage),
            2 => lpn().prop_map(CacheOp::InvalidateZone),
            1 => Just(CacheOp::Clear),
        ],
        1..150,
    )
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

/// One step of the owner-map ≡ `BTreeMap` property.
#[derive(Debug, Clone)]
enum OwnerOp {
    Insert(Ppa, Lpn),
    Remove(Ppa),
    /// `n` slices from the address, owned by the pages from the `Lpn`.
    InsertRun(Ppa, Lpn, usize),
    RemoveRun(Ppa, usize),
}

/// Over `Geometry::tiny()`'s SLC region (blocks 0..4 of 4 chips, 64 slices
/// a block): addresses in the first six blocks of every chip, so some lie
/// outside the region, and runs long enough to leave a block, the region
/// and the chip. One page in eight sits at the top of the encoding.
fn owner_ops() -> impl Strategy<Value = Vec<OwnerOp>> {
    let g = Geometry::tiny();
    let (spb, chip_span) = (
        g.slices_per_block(),
        g.blocks_per_chip as u64 * g.slices_per_block(),
    );
    let ppa = move || (0u64..4, 0..6 * spb).prop_map(move |(chip, at)| Ppa(chip * chip_span + at));
    let lpn = || {
        prop_oneof![
            7 => (0u64..500).prop_map(Lpn),
            1 => (0u64..100).prop_map(|below| Lpn(MAX_SLICES - 100 - below)),
        ]
    };
    prop::collection::vec(
        prop_oneof![
            3 => (ppa(), lpn()).prop_map(|(p, l)| OwnerOp::Insert(p, l)),
            2 => ppa().prop_map(OwnerOp::Remove),
            4 => (ppa(), lpn(), 0usize..100).prop_map(|(p, l, n)| OwnerOp::InsertRun(p, l, n)),
            3 => (ppa(), 0usize..100).prop_map(|(p, n)| OwnerOp::RemoveRun(p, n)),
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
    /// `non_canonical_ppas` ≡ a filter over `get`. Both are the packed
    /// table; `plain` is the `Vec<Option<Ppa>>` it replaced, and after
    /// every step `ppas(range)`, per-page `get` and `iter_mapped` must
    /// read the same from it (physical addresses start at 0, the one the
    /// packing has to tell from "unmapped").
    #[test]
    fn run_forms_equal_the_per_page_loops(ops in table_ops()) {
        let mut bulk = MappingTable::new(TABLE_PAGES, 8, 32);
        let mut looped = MappingTable::new(TABLE_PAGES, 8, 32);
        let mut plain: Vec<Option<Ppa>> = vec![None; TABLE_PAGES as usize];
        let plain_run = |lpn: u64, n: u64| lpn as usize..((lpn + n).min(TABLE_PAGES)) as usize;
        let mut next_ppa = 0;
        for op in ops {
            match op {
                TableOp::Set(lpn, n, canonical) => {
                    let n = n.min(TABLE_PAGES - lpn);
                    bulk.set_extent(Lpn(lpn), Ppa(next_ppa), n, canonical);
                    for i in 0..n {
                        looped.set(Lpn(lpn + i), Ppa(next_ppa + i), canonical);
                        plain[(lpn + i) as usize] = Some(Ppa(next_ppa + i));
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
                            plain[(lpn + i) as usize] = Some(Ppa(next_ppa + i));
                        }
                        next_ppa += n;
                    }
                }
                TableOp::Unmap(lpn) => {
                    bulk.unmap(Lpn(lpn));
                    looped.unmap(Lpn(lpn));
                    plain[lpn as usize] = None;
                }
                TableOp::UnmapRun(lpn, n) => {
                    bulk.unmap_extent(Lpn(lpn), n);
                    for i in 0..n {
                        looped.unmap(Lpn(lpn + i));
                    }
                    plain[plain_run(lpn, n)].fill(None);
                }
                TableOp::UnmapZone(zone) => {
                    bulk.unmap_zone(ZoneId(zone));
                    for lpn in (zone * 32..zone * 32 + 32).filter(|&l| l < TABLE_PAGES) {
                        looped.unmap(Lpn(lpn));
                    }
                    plain[plain_run(zone * 32, 32)].fill(None);
                }
            }
            for lpn in (0..TABLE_PAGES).map(Lpn) {
                prop_assert_eq!(bulk.get(lpn), looped.get(lpn), "{} after {:?}", lpn, op);
                prop_assert_eq!(bulk.get(lpn).map(|e| e.ppa), plain[lpn.raw() as usize]);
            }
            let mapped = plain.iter().flatten().count() as u64;
            prop_assert_eq!(bulk.iter_mapped().count() as u64, mapped, "after {:?}", op);
            prop_assert_eq!(
                (0..3).map(|z| bulk.zone_mapped_slices(ZoneId(z))).sum::<u64>(),
                mapped
            );
            for (start, count) in [(0, TABLE_PAGES), (5, 30), (64, 6)] {
                let view: Vec<_> = bulk.ppas(LpnRange::new(Lpn(start), count)).collect();
                prop_assert_eq!(&view[..], &plain[plain_run(start, count)], "after {:?}", op);
            }
            prop_assert_eq!(bulk.ppas(LpnRange::new(Lpn(64), 20)).len(), 0);
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

    /// The packed `OwnerMap` against the `BTreeMap<Ppa, Lpn>` it replaced:
    /// every call returns what the map returns, the run forms are its
    /// per-slice loops, and after every step `len` and the ascending-`Ppa`
    /// iteration — dense region and overflow merged — are the map's.
    #[test]
    fn owner_map_matches_a_btreemap(ops in owner_ops()) {
        let g = Geometry::tiny();
        let mut packed = OwnerMap::new(&g, 0..g.slc_blocks_per_chip);
        let mut plain: BTreeMap<Ppa, Lpn> = BTreeMap::new();
        for op in ops {
            match op {
                OwnerOp::Insert(ppa, lpn) => {
                    prop_assert_eq!(packed.insert(ppa, lpn), plain.insert(ppa, lpn), "{:?}", op);
                }
                OwnerOp::Remove(ppa) => {
                    prop_assert_eq!(packed.remove(ppa), plain.remove(&ppa), "{:?}", op);
                }
                OwnerOp::InsertRun(first, start, n) => {
                    packed.insert_run(first, start, n);
                    for i in 0..n as u64 {
                        plain.insert(first.offset(i), start.offset(i));
                    }
                    for i in 0..n as u64 {
                        let ppa = first.offset(i);
                        prop_assert_eq!(packed.get(ppa), Some(start.offset(i)), "{:?}", op);
                        prop_assert!(packed.contains_key(ppa));
                    }
                }
                OwnerOp::RemoveRun(first, n) => {
                    packed.remove_run(first, n);
                    for i in 0..n as u64 {
                        plain.remove(&first.offset(i));
                        prop_assert_eq!(packed.get(first.offset(i)), None, "{:?}", op);
                    }
                }
            }
            prop_assert_eq!(packed.len(), plain.len(), "{:?}", op);
            let entries: Vec<(Ppa, Lpn)> = plain.iter().map(|(p, l)| (*p, *l)).collect();
            prop_assert_eq!(packed.iter().collect::<Vec<_>>(), entries, "{:?}", op);
        }
    }

    /// `LruCache` behaves exactly like a textbook pinned LRU: the same
    /// outcome and evicted key from every operation, and the same recency
    /// order and pin flags after it.
    #[test]
    fn lru_matches_reference(ops in lru_ops(), cap in 1usize..16) {
        let mut real = LruCache::new(cap);
        let mut reference = RefLru { capacity: cap, ..Default::default() };
        let mut evictions = 0;
        for op in ops {
            match op {
                LruOp::Insert(k, pinned) => {
                    let outcome = reference.insert(k, pinned);
                    prop_assert_eq!(real.insert(k, pinned), outcome, "{:?}", op);
                    evictions += u64::from(matches!(outcome, InsertOutcome::Evicted(_)));
                }
                LruOp::Touch(k) => prop_assert_eq!(real.touch(k), reference.touch(k), "{:?}", op),
                LruOp::Remove(k) => prop_assert_eq!(real.remove(k), reference.remove(k), "{:?}", op),
                LruOp::RemoveClass(r, m) => {
                    let before = reference.entries.len();
                    reference.entries.retain(|&(k, _)| k % m != r);
                    let removed = before - reference.entries.len();
                    prop_assert_eq!(real.retain_not(|k| k % m == r), removed, "{:?}", op);
                }
                LruOp::Clear => {
                    real.clear();
                    reference.entries.clear();
                }
            }
            prop_assert_eq!(real.recency().collect::<Vec<_>>(), &reference.entries[..], "{:?}", op);
            prop_assert_eq!(real.len(), reference.entries.len());
            prop_assert_eq!(real.evictions(), evictions);
            for k in 0..64 {
                prop_assert_eq!(real.contains(k), reference.position(k).is_some());
            }
        }
    }

    /// `L2pCache::lookup` probes only granularities with residents; its
    /// answer is the one all three probes give, and the counts it decides
    /// by equal a recount of the entries — after evictions, covered-entry
    /// removal, rejected and over-capacity inserts, invalidations and
    /// `clear`. (Debug builds also assert inside `lookup` that a skipped
    /// granularity holds no covering key.)
    #[test]
    fn lookup_skips_only_empty_granularities(ops in cache_ops(), cap in 1usize..12) {
        let mut cache = L2pCache::new(cap, 4, 16);
        for op in ops {
            match op {
                CacheOp::Insert(lpn, g, pinned) => {
                    cache.insert(Lpn(lpn), g, pinned);
                }
                CacheOp::Lookup(lpn) => {
                    let naive = cache.lookup_naive(Lpn(lpn));
                    prop_assert_eq!(cache.covers(Lpn(lpn)), naive != LookupResult::Miss);
                    prop_assert_eq!(cache.lookup(Lpn(lpn)), naive, "{:?}", op);
                }
                CacheOp::InvalidatePage(lpn) => {
                    cache.invalidate_page(Lpn(lpn));
                    prop_assert_eq!(cache.lookup_naive(Lpn(lpn)), LookupResult::Miss);
                }
                CacheOp::InvalidateZone(lpn) => {
                    cache.invalidate_zone(Lpn(lpn));
                    for l in lpn / 16 * 16..lpn / 16 * 16 + 16 {
                        prop_assert_eq!(cache.lookup_naive(Lpn(l)), LookupResult::Miss);
                    }
                }
                CacheOp::Clear => cache.clear(),
            }
            let (residents, recount) = cache.residents_and_recount();
            prop_assert_eq!(residents, recount, "{:?}", op);
            prop_assert_eq!(residents.iter().sum::<usize>(), cache.len());
        }
    }

    /// Pinned entries are never evicted, whatever the churn.
    #[test]
    fn pinned_entries_survive(churn in prop::collection::vec(any::<u16>(), 1..300), cap in 2usize..16) {
        let mut cache = LruCache::new(cap);
        cache.insert(u64::MAX, true);
        for k in churn {
            cache.insert(u64::from(k % 1000), false);
            prop_assert!(cache.contains(u64::MAX));
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
