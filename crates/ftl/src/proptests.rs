//! Property-based tests: the pinned-LRU cache against a reference model,
//! the packed mapping table and owner map against plain `Option` / map
//! models, and mapping-table aggregation invariants.

use std::collections::BTreeMap;

use conzone_check::{check, Rng, Simpler};

use crate::{InsertOutcome, L2pCache, LookupResult, LruCache, MapBitmap, MappingTable, OwnerMap};
use conzone_types::{Geometry, Lpn, LpnRange, MapGranularity, Ppa, ZoneId, MAX_SLICES};

#[derive(Debug, Clone, PartialEq)]
enum LruOp {
    /// Insert a key, pinned or not.
    Insert(u64, bool),
    Touch(u64),
    Remove(u64),
    /// `retain_not` of the keys congruent to the first modulo the second.
    RemoveClass(u64, u64),
    Clear,
}

fn lru_op(rng: &mut Rng) -> LruOp {
    let key = |rng: &mut Rng| rng.range(0..64);
    match rng.below(52) {
        // One insert in eight is pinned: enough to fill a small cache
        // with pins (Rejected, OverCapacity), not so many that it
        // always is.
        0..24 => LruOp::Insert(key(rng), rng.below(8) == 0),
        24..40 => LruOp::Touch(key(rng)),
        40..48 => LruOp::Remove(key(rng)),
        48..51 => {
            let (k, m) = (key(rng), rng.range(2..6));
            LruOp::RemoveClass(k % m, m)
        }
        _ => LruOp::Clear,
    }
}

impl Simpler for LruOp {}

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
#[derive(Debug, Clone, PartialEq)]
enum CacheOp {
    Insert(u64, MapGranularity, bool),
    Lookup(u64),
    InvalidatePage(u64),
    InvalidateZone(u64),
    Clear,
}

fn cache_op(rng: &mut Rng) -> CacheOp {
    let lpn = |rng: &mut Rng| rng.range(0..64);
    match rng.below(31) {
        // Mostly pages, so aggregated inserts find entries to evict; one
        // aggregated insert in four is pinned.
        0..12 => {
            let l = lpn(rng);
            let g = match rng.below(8) {
                0..5 => MapGranularity::Page,
                5..7 => MapGranularity::Chunk,
                _ => MapGranularity::Zone,
            };
            CacheOp::Insert(l, g, rng.below(4) == 0 && g > MapGranularity::Page)
        }
        12..24 => CacheOp::Lookup(lpn(rng)),
        24..28 => CacheOp::InvalidatePage(lpn(rng)),
        28..30 => CacheOp::InvalidateZone(lpn(rng)),
        _ => CacheOp::Clear,
    }
}

impl Simpler for CacheOp {}

/// One step of the run-form ≡ per-page-loop property. Two zones of 32
/// pages in chunks of 8, plus a third zone clipped to 6 pages.
#[derive(Debug, Clone, PartialEq)]
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

fn table_op(rng: &mut Rng) -> TableOp {
    let run = |rng: &mut Rng| (rng.range(0..TABLE_PAGES), rng.range(0..40));
    match rng.below(12) {
        // Mostly canonical, so chunks and zones do aggregate and later
        // runs punch into them.
        0..4 => {
            let (l, n) = run(rng);
            TableOp::Set(l, n, rng.below(8) != 0)
        }
        4..7 => TableOp::Aggregate(rng.range(0..TABLE_PAGES)),
        7..9 => {
            let (l, n) = run(rng);
            TableOp::Relocate(l, n)
        }
        9 => TableOp::Unmap(rng.range(0..TABLE_PAGES)),
        10 => {
            let (l, n) = run(rng);
            TableOp::UnmapRun(l, n)
        }
        _ => TableOp::UnmapZone(rng.range(0..3)),
    }
}

impl Simpler for TableOp {}

/// One step of the owner-map ≡ `BTreeMap` property.
#[derive(Debug, Clone, PartialEq)]
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
fn owner_op(rng: &mut Rng) -> OwnerOp {
    let g = Geometry::tiny();
    let (spb, chip_span) = (
        g.slices_per_block(),
        g.blocks_per_chip as u64 * g.slices_per_block(),
    );
    let ppa = |rng: &mut Rng| {
        let chip = rng.range(0..4);
        Ppa(chip * chip_span + rng.range(0..6 * spb))
    };
    let lpn = |rng: &mut Rng| match rng.below(8) {
        0..7 => Lpn(rng.range(0..500)),
        _ => Lpn(MAX_SLICES - 100 - rng.range(0..100)),
    };
    match rng.below(12) {
        0..3 => {
            let p = ppa(rng);
            OwnerOp::Insert(p, lpn(rng))
        }
        3..5 => OwnerOp::Remove(ppa(rng)),
        5..9 => {
            let (p, l) = (ppa(rng), lpn(rng));
            OwnerOp::InsertRun(p, l, rng.range(0..100))
        }
        _ => {
            let p = ppa(rng);
            OwnerOp::RemoveRun(p, rng.range(0..100))
        }
    }
}

impl Simpler for OwnerOp {}

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
fn run_forms_equal_the_per_page_loops() {
    let generate = |rng: &mut Rng| ((), rng.vec(1..60, table_op));
    let path = concat!(module_path!(), "::run_forms_equal_the_per_page_loops");
    check(path, 96, generate, |(), ops| {
        let mut bulk = MappingTable::new(TABLE_PAGES, 8, 32);
        let mut looped = MappingTable::new(TABLE_PAGES, 8, 32);
        let mut plain: Vec<Option<Ppa>> = vec![None; TABLE_PAGES as usize];
        let plain_run = |lpn: u64, n: u64| lpn as usize..((lpn + n).min(TABLE_PAGES)) as usize;
        let mut next_ppa = 0;
        for op in ops.iter().cloned() {
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
                assert_eq!(bulk.get(lpn), looped.get(lpn), "{} after {:?}", lpn, op);
                assert_eq!(bulk.get(lpn).map(|e| e.ppa), plain[lpn.raw() as usize]);
            }
            let mapped = plain.iter().flatten().count() as u64;
            assert_eq!(bulk.iter_mapped().count() as u64, mapped, "after {:?}", op);
            assert_eq!(
                (0..3)
                    .map(|z| bulk.zone_mapped_slices(ZoneId(z)))
                    .sum::<u64>(),
                mapped
            );
            for (start, count) in [(0, TABLE_PAGES), (5, 30), (64, 6)] {
                let view: Vec<_> = bulk.ppas(LpnRange::new(Lpn(start), count)).collect();
                assert_eq!(&view[..], &plain[plain_run(start, count)], "after {:?}", op);
            }
            assert_eq!(bulk.ppas(LpnRange::new(Lpn(64), 20)).len(), 0);
        }
        for (start, count) in [(0, TABLE_PAGES), (5, 30), (64, 20), (80, 4)] {
            let range = LpnRange::new(Lpn(start), count);
            let filtered: Vec<Ppa> = range
                .iter()
                .filter_map(|lpn| looped.get(lpn))
                .filter(|e| !e.canonical)
                .map(|e| e.ppa)
                .collect();
            assert_eq!(bulk.non_canonical_ppas(range).collect::<Vec<_>>(), filtered);
        }
    });
}

/// The packed `OwnerMap` against the `BTreeMap<Ppa, Lpn>` it replaced:
/// every call returns what the map returns, the run forms are its
/// per-slice loops, and after every step `len` and the ascending-`Ppa`
/// iteration — dense region and overflow merged — are the map's.
#[test]
fn owner_map_matches_a_btreemap() {
    let generate = |rng: &mut Rng| ((), rng.vec(1..60, owner_op));
    let path = concat!(module_path!(), "::owner_map_matches_a_btreemap");
    check(path, 96, generate, |(), ops| {
        let g = Geometry::tiny();
        let mut packed = OwnerMap::new(&g, 0..g.slc_blocks_per_chip);
        let mut plain: BTreeMap<Ppa, Lpn> = BTreeMap::new();
        for op in ops.iter().cloned() {
            match op {
                OwnerOp::Insert(ppa, lpn) => {
                    assert_eq!(packed.insert(ppa, lpn), plain.insert(ppa, lpn), "{:?}", op);
                }
                OwnerOp::Remove(ppa) => {
                    assert_eq!(packed.remove(ppa), plain.remove(&ppa), "{:?}", op);
                }
                OwnerOp::InsertRun(first, start, n) => {
                    packed.insert_run(first, start, n);
                    for i in 0..n as u64 {
                        plain.insert(first.offset(i), start.offset(i));
                    }
                    for i in 0..n as u64 {
                        let ppa = first.offset(i);
                        assert_eq!(packed.get(ppa), Some(start.offset(i)), "{:?}", op);
                        assert!(packed.contains_key(ppa));
                    }
                }
                OwnerOp::RemoveRun(first, n) => {
                    packed.remove_run(first, n);
                    for i in 0..n as u64 {
                        plain.remove(&first.offset(i));
                        assert_eq!(packed.get(first.offset(i)), None, "{:?}", op);
                    }
                }
            }
            assert_eq!(packed.len(), plain.len(), "{:?}", op);
            let entries: Vec<(Ppa, Lpn)> = plain.iter().map(|(p, l)| (*p, *l)).collect();
            assert_eq!(packed.iter().collect::<Vec<_>>(), entries, "{:?}", op);
        }
    });
}

/// `LruCache` behaves exactly like a textbook pinned LRU: the same
/// outcome and evicted key from every operation, and the same recency
/// order and pin flags after it.
#[test]
fn lru_matches_reference() {
    let generate = |rng: &mut Rng| (rng.range(1..16), rng.vec(1..200, lru_op));
    let path = concat!(module_path!(), "::lru_matches_reference");
    check(path, 96, generate, |&cap, ops| {
        let mut real = LruCache::new(cap);
        let mut reference = RefLru {
            capacity: cap,
            ..Default::default()
        };
        let mut evictions = 0;
        for op in ops.iter().cloned() {
            match op {
                LruOp::Insert(k, pinned) => {
                    let outcome = reference.insert(k, pinned);
                    assert_eq!(real.insert(k, pinned), outcome, "{:?}", op);
                    evictions += u64::from(matches!(outcome, InsertOutcome::Evicted(_)));
                }
                LruOp::Touch(k) => assert_eq!(real.touch(k), reference.touch(k), "{:?}", op),
                LruOp::Remove(k) => assert_eq!(real.remove(k), reference.remove(k), "{:?}", op),
                LruOp::RemoveClass(r, m) => {
                    let before = reference.entries.len();
                    reference.entries.retain(|&(k, _)| k % m != r);
                    let removed = before - reference.entries.len();
                    assert_eq!(real.retain_not(|k| k % m == r), removed, "{:?}", op);
                }
                LruOp::Clear => {
                    real.clear();
                    reference.entries.clear();
                }
            }
            let recency: Vec<_> = real.recency().collect();
            assert_eq!(recency, &reference.entries[..], "{op:?}");
            assert_eq!(real.len(), reference.entries.len());
            assert_eq!(real.evictions(), evictions);
            for k in 0..64 {
                assert_eq!(real.contains(k), reference.position(k).is_some());
            }
        }
    });
}

/// `L2pCache::lookup` probes only granularities with residents; its
/// answer is the one all three probes give, and the counts it decides
/// by equal a recount of the entries — after evictions, covered-entry
/// removal, rejected and over-capacity inserts, invalidations and
/// `clear`. (Debug builds also assert inside `lookup` that a skipped
/// granularity holds no covering key.)
#[test]
fn lookup_skips_only_empty_granularities() {
    let generate = |rng: &mut Rng| (rng.range(1..12), rng.vec(1..150, cache_op));
    let path = concat!(module_path!(), "::lookup_skips_only_empty_granularities");
    check(path, 96, generate, |&cap, ops| {
        let mut cache = L2pCache::new(cap, 4, 16);
        for op in ops.iter().cloned() {
            match op {
                CacheOp::Insert(lpn, g, pinned) => {
                    cache.insert(Lpn(lpn), g, pinned);
                }
                CacheOp::Lookup(lpn) => {
                    let naive = cache.lookup_naive(Lpn(lpn));
                    assert_eq!(cache.covers(Lpn(lpn)), naive != LookupResult::Miss);
                    assert_eq!(cache.lookup(Lpn(lpn)), naive, "{:?}", op);
                }
                CacheOp::InvalidatePage(lpn) => {
                    cache.invalidate_page(Lpn(lpn));
                    assert_eq!(cache.lookup_naive(Lpn(lpn)), LookupResult::Miss);
                }
                CacheOp::InvalidateZone(lpn) => {
                    cache.invalidate_zone(Lpn(lpn));
                    for l in lpn / 16 * 16..lpn / 16 * 16 + 16 {
                        assert_eq!(cache.lookup_naive(Lpn(l)), LookupResult::Miss);
                    }
                }
                CacheOp::Clear => cache.clear(),
            }
            let (residents, recount) = cache.residents_and_recount();
            assert_eq!(residents, recount, "{:?}", op);
            assert_eq!(residents.iter().sum::<usize>(), cache.len());
        }
    });
}

/// Pinned entries are never evicted, whatever the churn.
#[test]
fn pinned_entries_survive() {
    let generate = |rng: &mut Rng| (rng.range(2..16), rng.vec(1..300, |r| r.next_u64() as u16));
    let path = concat!(module_path!(), "::pinned_entries_survive");
    check(path, 96, generate, |&cap, churn| {
        let mut cache = LruCache::new(cap);
        cache.insert(u64::MAX, true);
        for &k in churn {
            cache.insert(u64::from(k % 1000), false);
            assert!(cache.contains(u64::MAX));
        }
    });
}

/// The mapping table's aggregation bits always describe reality:
/// a chunk entry implies every page of the chunk is mapped and
/// canonical; unmapping any page breaks future aggregation.
#[test]
fn aggregation_soundness() {
    let generate = |rng: &mut Rng| ((), rng.vec(1..80, |rng| (rng.range(0..64), rng.bool())));
    let path = concat!(module_path!(), "::aggregation_soundness");
    check(path, 96, generate, |(), mapped| {
        let mut table = MappingTable::new(64, 8, 32);
        for &(lpn, canonical) in mapped {
            table.set(Lpn(lpn), Ppa(1000 + lpn), canonical);
        }
        for chunk in 0..8u64 {
            let start = chunk * 8;
            let complete =
                (start..start + 8).all(|l| table.get(Lpn(l)).map(|e| e.canonical).unwrap_or(false));
            let aggregated = table.try_aggregate_chunk(Lpn(start));
            assert_eq!(aggregated, complete, "chunk {}", chunk);
            if aggregated {
                for l in start..start + 8 {
                    assert!(table.granularity_of(Lpn(l)) >= Some(MapGranularity::Chunk));
                }
            }
        }
    });
}

/// The L2P cache and the map-bit bitmap agree with the table after an
/// arbitrary interleaving of inserts and invalidations.
#[test]
fn cache_and_bitmap_track_table() {
    let generate = |rng: &mut Rng| ((), rng.vec(1..120, |rng| (rng.range(0..64), rng.bool())));
    let path = concat!(module_path!(), "::cache_and_bitmap_track_table");
    check(path, 96, generate, |(), ops| {
        let mut table = MappingTable::new(64, 8, 32);
        let mut cache = L2pCache::new(128, 8, 32);
        let mut bitmap = MapBitmap::new(64);
        let mut shadow: BTreeMap<u64, bool> = BTreeMap::new(); // lpn -> mapped

        for &(lpn, write) in ops {
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
                assert_eq!(bitmap.get(Lpn(lpn)), g, "bitmap mirrors table at {}", lpn);
            } else {
                assert!(table.get(Lpn(lpn)).is_none());
                // The cache may not claim coverage of an unmapped page at
                // page granularity (chunk/zone coverage would have been
                // torn down by invalidate_page too).
                assert_eq!(cache.lookup(Lpn(lpn)), LookupResult::Miss);
            }
        }
    });
}
