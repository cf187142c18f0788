//! The page-granularity L2P mapping table with hybrid-aggregation map bits.
//!
//! Per paper §III-C, "the FTL still uses page mapping to record all mapping
//! information"; two reserved bits in each entry record whether the entry
//! belongs to an aggregated chunk- or zone-level run. Aggregation is
//! possible only for data placed at its *canonical* reserved physical
//! location (the per-zone reserved normal blocks plus the reserved SLC
//! patch pages of §III-E); data staged in ordinary SLC buffer blocks can
//! never aggregate because its physical contiguity is not guaranteed.

use conzone_types::{to_index, ChunkId, Lpn, LpnRange, MapGranularity, Ppa, ZoneId};

/// One decoded mapping-table entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MapEntry {
    /// Physical slice holding the logical page.
    pub ppa: Ppa,
    /// Aggregation level recorded in the entry's map bits.
    pub granularity: MapGranularity,
    /// Whether the data sits at its canonical reserved location.
    pub canonical: bool,
}

/// The full L2P mapping table.
///
/// The table is held in emulator RAM; its *flash residency* is modelled by
/// the timed mapping fetches the device performs on L2P cache misses.
#[derive(Debug)]
pub struct MappingTable {
    /// `ppas[lpn]` — [`pack`]ed physical address, 0 while unmapped: the
    /// paper's 4-byte entry, and a fresh table is untouched zero pages.
    ppas: Vec<u32>,
    /// Two map bits + canonical flag per entry, packed into a byte.
    flags: Vec<u8>,
    chunk_slices: u64,
    zone_slices: u64,
}

pub(crate) const CANONICAL_FLAG: u8 = 0b100;

/// The two map bits of a flag byte.
pub(crate) const MAP_BITS: u8 = 0b11;

/// `0x01` in every byte of a word: a flag mask times this is the mask
/// repeated over eight entries.
const EVERY_BYTE: u64 = 0x0101_0101_0101_0101;

/// The flag bytes of `flags` eight at a time, as words, and the fewer
/// than eight left over.
#[inline]
fn flag_words(flags: &[u8]) -> (impl Iterator<Item = u64> + '_, &[u8]) {
    let words = flags.chunks_exact(8);
    let rest = words.remainder();
    let words = words.map(|w| u64::from_le_bytes([w[0], w[1], w[2], w[3], w[4], w[5], w[6], w[7]]));
    (words, rest)
}

/// Whether some entry of `flags` has a bit of `mask` set: the words
/// or-ed together and tested once, then the remainder.
#[inline]
pub(crate) fn any_flag(flags: &[u8], mask: u8) -> bool {
    let (words, rest) = flag_words(flags);
    let wide = EVERY_BYTE * u64::from(mask);
    words.fold(0, |acc, w| acc | w) & wide != 0 || rest.iter().any(|f| f & mask != 0)
}

/// Whether every entry of `flags` has bit `bit` set: the words and-ed
/// together and tested once, then the remainder.
#[inline]
pub(crate) fn all_flag(flags: &[u8], bit: u8) -> bool {
    let (words, rest) = flag_words(flags);
    let wide = EVERY_BYTE * u64::from(bit);
    words.fold(u64::MAX, |acc, w| acc & w) & wide == wide && rest.iter().all(|f| f & bit != 0)
}

/// Slot value of a mapped page: the address plus one, leaving 0 — what a
/// lazily-zeroed allocation reads as — for "unmapped".
#[inline]
#[allow(
    clippy::expect_used,
    reason = "Geometry::validate bounds physical slices at MAX_SLICES, so every address of a built device fits"
)]
fn pack(ppa: Ppa) -> u32 {
    let raw = u32::try_from(ppa.raw()).ok();
    raw.and_then(|raw| raw.checked_add(1))
        .expect("physical address beyond the 32-bit table entry")
}

/// Inverse of [`pack`]: `None` for the empty slot.
#[inline]
fn unpack(slot: u32) -> Option<Ppa> {
    slot.checked_sub(1).map(|raw| Ppa(u64::from(raw)))
}

/// Points the slots of `run` at the physically consecutive slices from
/// `first`.
fn store_run(run: &mut [u32], first: Ppa) {
    // The end is packed only to check that the whole run fits an entry.
    let (mut packed, _) = (pack(first), pack(first.offset(run.len() as u64)));
    for slot in run {
        *slot = packed;
        packed += 1;
    }
}

/// Flag byte of a freshly written page-granularity entry.
fn page_flags(canonical: bool) -> u8 {
    MapGranularity::Page.to_bits() | if canonical { CANONICAL_FLAG } else { 0 }
}

impl MappingTable {
    /// Creates an empty table for `capacity_slices` logical pages.
    ///
    /// # Panics
    ///
    /// Panics unless `chunk_slices` divides `zone_slices` and both are
    /// non-zero.
    pub fn new(capacity_slices: u64, chunk_slices: u64, zone_slices: u64) -> MappingTable {
        assert!(chunk_slices > 0 && zone_slices > 0);
        assert_eq!(
            zone_slices % chunk_slices,
            0,
            "chunks must tile zones exactly"
        );
        MappingTable {
            ppas: vec![0; to_index(capacity_slices)],
            flags: vec![0; to_index(capacity_slices)],
            chunk_slices,
            zone_slices,
        }
    }

    /// A table holding exactly the given packed entries and flag bytes
    /// (chunks of one page, one zone), for properties that draw the
    /// entries directly.
    #[cfg(test)]
    pub(crate) fn from_entries(ppas: Vec<u32>, flags: Vec<u8>) -> MappingTable {
        assert_eq!(ppas.len(), flags.len());
        let zone_slices = (ppas.len() as u64).max(1);
        MappingTable {
            ppas,
            flags,
            chunk_slices: 1,
            zone_slices,
        }
    }

    /// Logical capacity in slices.
    #[inline]
    pub(crate) fn capacity(&self) -> u64 {
        self.ppas.len() as u64
    }

    /// The chunk containing a logical page.
    #[inline]
    pub(crate) fn chunk_of(&self, lpn: Lpn) -> ChunkId {
        ChunkId(lpn.raw() / self.chunk_slices)
    }

    /// The zone containing a logical page.
    #[inline]
    pub(crate) fn zone_of(&self, lpn: Lpn) -> ZoneId {
        ZoneId(lpn.raw() / self.zone_slices)
    }

    /// Looks up one logical page.
    #[allow(
        clippy::expect_used,
        reason = "set/unmap only write the three valid granularities, so the stored bits always decode"
    )]
    pub fn get(&self, lpn: Lpn) -> Option<MapEntry> {
        let idx = lpn.index();
        let ppa = unpack(*self.ppas.get(idx)?)?;
        let flags = self.flags[idx];
        Some(MapEntry {
            ppa,
            granularity: MapGranularity::from_bits(flags & 0b11)
                .expect("table never stores the reserved bit pattern"),
            canonical: flags & CANONICAL_FLAG != 0,
        })
    }

    /// Physical addresses of the pages of `range`, in logical order, `None`
    /// for an unmapped page; empty when `range` reaches past the table.
    /// Lets a caller that already knows one cache entry covers the range
    /// resolve it with a single bounds check.
    pub fn ppas(&self, range: LpnRange) -> impl ExactSizeIterator<Item = Option<Ppa>> + '_ {
        let (lo, hi) = (range.start.index(), range.end().index());
        let run = self.ppas.get(lo..hi).unwrap_or_default();
        run.iter().map(|slot| unpack(*slot))
    }

    /// Physical addresses of the pages of `range` up to its first unmapped
    /// page, in logical order — the `Some` prefix of
    /// [`MappingTable::ppas`], sized before it is copied, so a caller
    /// gathering a cache hit's run extends its list in one step.
    pub fn mapped_prefix(&self, range: LpnRange) -> impl ExactSizeIterator<Item = Ppa> + '_ {
        let (lo, hi) = (range.start.index(), range.end().index());
        let run = self.ppas.get(lo..hi).unwrap_or_default();
        let mapped = run.iter().position(|&slot| slot == 0).unwrap_or(run.len());
        run[..mapped].iter().map(|&slot| Ppa(u64::from(slot - 1)))
    }

    /// Installs or updates one entry at page granularity. `canonical`
    /// records whether `ppa` is the slice's reserved location, which gates
    /// later aggregation.
    ///
    /// Updating a page that belonged to an aggregated chunk or zone breaks
    /// that aggregation, so the covering run is demoted back to page map
    /// bits (keeping the "aggregation level is uniform across its range"
    /// invariant that the cache and bitmap rely on).
    ///
    /// # Panics
    ///
    /// Panics if `lpn` is beyond the table capacity.
    pub fn set(&mut self, lpn: Lpn, ppa: Ppa, canonical: bool) {
        // Not `set_extent(.., 1, ..)`: the slice plumbing of a one-page
        // run costs three times the two stores (3 ns vs 11 ns, measured).
        let idx = lpn.index();
        assert!(idx < self.ppas.len(), "lpn {lpn} beyond capacity");
        self.demote_covering(idx);
        self.ppas[idx] = pack(ppa);
        self.flags[idx] = page_flags(canonical);
    }

    /// [`MappingTable::set`] for a run: maps the `count` logical pages from
    /// `start` to the `count` physically consecutive slices from `first`,
    /// all with the same `canonical` flag — one programmed unit, or one
    /// SLC partial program. The flag bytes are written with one fill; the
    /// per-page demotion of `set` runs only for pages found aggregated.
    ///
    /// # Panics
    ///
    /// Panics if the run reaches beyond the table capacity.
    pub fn set_extent(&mut self, start: Lpn, first: Ppa, count: u64, canonical: bool) {
        let (lo, hi) = (start.index(), to_index(start.raw() + count));
        assert!(
            hi <= self.ppas.len(),
            "lpn run {start}+{count} beyond capacity"
        );
        if any_flag(&self.flags[lo..hi], MAP_BITS) {
            for idx in lo..hi {
                self.demote_covering(idx);
            }
        }
        // One pass over both tables, not a `memset` call for a unit's or a
        // page's worth of flag bytes.
        let flags = page_flags(canonical);
        let (mut packed, _) = (pack(first), pack(first.offset(count)));
        for (slot, f) in self.ppas[lo..hi].iter_mut().zip(&mut self.flags[lo..hi]) {
            *slot = packed;
            *f = flags;
            packed += 1;
        }
    }

    /// Demotes the aggregated chunk or zone covering entry `idx`, if any,
    /// back to page bits.
    fn demote_covering(&mut self, idx: usize) {
        let tile = match MapGranularity::from_bits(self.flags[idx] & MAP_BITS) {
            Some(MapGranularity::Chunk) => self.chunk_slices,
            Some(MapGranularity::Zone) => self.zone_slices,
            _ => return,
        };
        let start = idx as u64 / tile * tile;
        self.set_range_bits(start, tile, MapGranularity::Page);
    }

    /// Moves an entry to a new physical address, preserving its map bits
    /// and canonical flag (GC migration relocates data without changing
    /// its aggregation state).
    ///
    /// # Panics
    ///
    /// Panics if `lpn` is unmapped.
    pub fn relocate(&mut self, lpn: Lpn, ppa: Ppa) {
        self.relocate_extent(lpn, ppa, 1);
    }

    /// [`MappingTable::relocate`] for a run: the `count` logical pages
    /// from `start` now live at the `count` physically consecutive slices
    /// from `first`; flags are untouched.
    ///
    /// # Panics
    ///
    /// Panics if any page of the run is unmapped or beyond capacity.
    pub fn relocate_extent(&mut self, start: Lpn, first: Ppa, count: u64) {
        let (lo, hi) = (start.index(), to_index(start.raw() + count));
        let run = self.ppas.get_mut(lo..hi).unwrap_or_default();
        assert!(
            run.len() == hi - lo && !run.contains(&0),
            "relocating unmapped lpn in {start}+{count}"
        );
        store_run(run, first);
    }

    /// Physical addresses of the mapped pages of `range` whose data is
    /// *not* at its canonical reserved location, in logical order (pages
    /// past the table are skipped like unmapped ones). Eight entries whose
    /// flags are all canonical are passed over with one test.
    pub fn non_canonical_ppas(&self, range: LpnRange) -> impl Iterator<Item = Ppa> + '_ {
        let hi = range.end().index().min(self.ppas.len());
        let lo = range.start.index().min(hi);
        let (flags, slots) = (&self.flags[lo..hi], &self.ppas[lo..hi]);
        let (words, rest) = flag_words(flags);
        let canonical = EVERY_BYTE * u64::from(CANONICAL_FLAG);
        // Entries worth a look: those of each word not all canonical, then
        // the remainder.
        let looked_at = words
            .enumerate()
            .filter(move |&(_, w)| w & canonical != canonical)
            .flat_map(|(w, _)| w * 8..w * 8 + 8)
            .chain(flags.len() - rest.len()..flags.len());
        looked_at
            .filter(move |&i| flags[i] & CANONICAL_FLAG == 0)
            .filter_map(move |i| unpack(slots[i]))
    }

    /// Unmaps one entry (host overwrote or the zone was reset). Like
    /// [`MappingTable::set`], punching a hole into an aggregated range
    /// demotes the covering run back to page bits.
    pub fn unmap(&mut self, lpn: Lpn) {
        let idx = lpn.index();
        if idx < self.ppas.len() {
            self.demote_covering(idx);
            self.ppas[idx] = 0;
            self.flags[idx] = 0;
        }
    }

    /// [`MappingTable::unmap`] for a run of logical pages (a trimmed range,
    /// or the owners of one physical run GC is moving): two fills, with the
    /// per-page demotion only where an aggregated entry is found. Pages
    /// past the table are skipped, as `unmap` skips them.
    pub fn unmap_extent(&mut self, start: Lpn, count: u64) {
        let hi = to_index((start.raw() + count).min(self.capacity()));
        let lo = start.index().min(hi);
        if any_flag(&self.flags[lo..hi], MAP_BITS) {
            for idx in lo..hi {
                self.demote_covering(idx);
            }
        }
        self.ppas[lo..hi].fill(0);
        self.flags[lo..hi].fill(0);
    }

    /// Unmaps every entry of a zone. Chunks tile zones, so every
    /// aggregation covering one of its pages lies inside the zone and is
    /// cleared with it: two fills, no per-entry demotion.
    pub fn unmap_zone(&mut self, zone: ZoneId) {
        let lo = to_index((zone.raw() * self.zone_slices).min(self.capacity()));
        let hi = to_index((lo as u64 + self.zone_slices).min(self.capacity()));
        self.ppas[lo..hi].fill(0);
        self.flags[lo..hi].fill(0);
    }

    /// Whether `[start, start + len)` lies inside the table and every page
    /// of it is mapped canonically. Only mapped entries carry the
    /// canonical flag (`unmap` clears it), so the flag bytes alone decide,
    /// eight at a time.
    fn range_aggregatable(&self, start: u64, len: u64) -> bool {
        let (lo, hi) = (to_index(start), to_index(start + len));
        let canonical = self
            .flags
            .get(lo..hi)
            .is_some_and(|flags| all_flag(flags, CANONICAL_FLAG));
        debug_assert!(!canonical || !self.ppas[lo..hi].contains(&0));
        canonical
    }

    fn set_range_bits(&mut self, start: u64, len: u64, granularity: MapGranularity) {
        let bits = granularity.to_bits();
        for f in &mut self.flags[to_index(start)..to_index(start + len)] {
            *f = (*f & !0b11) | bits;
        }
    }

    /// Attempts to aggregate the chunk containing `lpn`: succeeds when every
    /// page of the chunk is mapped canonically (paper §III-C ②). Returns
    /// whether the chunk is now (or already was) aggregated at chunk level
    /// or better.
    pub fn try_aggregate_chunk(&mut self, lpn: Lpn) -> bool {
        let chunk = self.chunk_of(lpn);
        let start = chunk.raw() * self.chunk_slices;
        if let Some(e) = self.get(Lpn(start)) {
            if e.granularity >= MapGranularity::Chunk {
                return true;
            }
        }
        if self.range_aggregatable(start, self.chunk_slices) {
            self.set_range_bits(start, self.chunk_slices, MapGranularity::Chunk);
            true
        } else {
            false
        }
    }

    /// Attempts to aggregate the zone containing `lpn`: succeeds when every
    /// page of the zone is mapped canonically. Returns whether the zone is
    /// now aggregated.
    pub fn try_aggregate_zone(&mut self, lpn: Lpn) -> bool {
        let zone = self.zone_of(lpn);
        let start = zone.raw() * self.zone_slices;
        if let Some(e) = self.get(Lpn(start)) {
            if e.granularity == MapGranularity::Zone {
                return true;
            }
        }
        if self.range_aggregatable(start, self.zone_slices) {
            self.set_range_bits(start, self.zone_slices, MapGranularity::Zone);
            true
        } else {
            false
        }
    }

    /// The aggregation level currently recorded for `lpn` (`None` if
    /// unmapped).
    pub fn granularity_of(&self, lpn: Lpn) -> Option<MapGranularity> {
        self.get(lpn).map(|e| e.granularity)
    }

    /// Mapped slices inside one zone — the utilization column of the
    /// per-zone heatmap snapshot.
    pub fn zone_mapped_slices(&self, zone: ZoneId) -> u64 {
        let start = (zone.raw() * self.zone_slices).min(self.ppas.len() as u64);
        let end = (start + self.zone_slices).min(self.ppas.len() as u64);
        self.ppas[to_index(start)..to_index(end)]
            .iter()
            .filter(|slot| **slot != 0)
            .count() as u64
    }

    /// Iterates every mapped `(lpn, entry)` pair in logical-page order
    /// (used by the debug invariant checker and reports).
    pub fn iter_mapped(&self) -> impl Iterator<Item = (Lpn, MapEntry)> + '_ {
        (0..self.ppas.len()).filter_map(move |i| {
            let lpn = Lpn(i as u64);
            self.get(lpn).map(|e| (lpn, e))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table() -> MappingTable {
        // 2 zones of 16 slices, chunks of 4.
        MappingTable::new(32, 4, 16)
    }

    #[test]
    fn set_get_unmap() {
        let mut t = table();
        assert!(t.get(Lpn(3)).is_none());
        t.set(Lpn(3), Ppa(77), true);
        let e = t.get(Lpn(3)).unwrap();
        assert_eq!(e.ppa, Ppa(77));
        assert_eq!(e.granularity, MapGranularity::Page);
        assert!(e.canonical);
        t.unmap(Lpn(3));
        assert!(t.get(Lpn(3)).is_none());
    }

    #[test]
    fn chunk_aggregation_requires_all_canonical() {
        let mut t = table();
        for i in 0..3 {
            t.set(Lpn(i), Ppa(100 + i), true);
        }
        assert!(!t.try_aggregate_chunk(Lpn(0)), "incomplete chunk");
        t.set(Lpn(3), Ppa(103), false); // staged in SLC: not canonical
        assert!(!t.try_aggregate_chunk(Lpn(0)), "non-canonical page");
        t.set(Lpn(3), Ppa(103), true);
        assert!(t.try_aggregate_chunk(Lpn(0)));
        for i in 0..4 {
            assert_eq!(t.granularity_of(Lpn(i)), Some(MapGranularity::Chunk));
        }
        // Pages outside the chunk are untouched.
        assert_eq!(t.granularity_of(Lpn(4)), None);
    }

    #[test]
    fn zone_aggregation_covers_all_chunks() {
        let mut t = table();
        for i in 16..32 {
            t.set(Lpn(i), Ppa(200 + i), true);
        }
        assert!(t.try_aggregate_zone(Lpn(20)));
        for i in 16..32 {
            assert_eq!(t.granularity_of(Lpn(i)), Some(MapGranularity::Zone));
        }
        // Re-aggregating is idempotent.
        assert!(t.try_aggregate_zone(Lpn(16)));
    }

    #[test]
    fn page_update_demotes_broken_aggregation() {
        let mut t = table();
        for i in 0..4 {
            t.set(Lpn(i), Ppa(10 + i), true);
        }
        t.try_aggregate_chunk(Lpn(0));
        // An update breaks the chunk's contiguity: every covered entry
        // demotes back to page bits, so a later try_aggregate re-checks
        // the whole range instead of trusting a stale fast path.
        t.set(Lpn(2), Ppa(99), false);
        assert_eq!(t.granularity_of(Lpn(2)), Some(MapGranularity::Page));
        assert_eq!(t.granularity_of(Lpn(1)), Some(MapGranularity::Page));
        assert!(!t.try_aggregate_chunk(Lpn(0)), "non-canonical page blocks");
        t.set(Lpn(2), Ppa(99), true);
        assert!(
            t.try_aggregate_chunk(Lpn(0)),
            "repaired chunk re-aggregates"
        );
    }

    #[test]
    fn unmap_zone_clears_range() {
        let mut t = table();
        for i in 0..32 {
            t.set(Lpn(i), Ppa(i), true);
        }
        t.unmap_zone(ZoneId(1));
        assert_eq!(t.iter_mapped().count(), 16);
        assert!(t.get(Lpn(16)).is_none());
        assert!(t.get(Lpn(15)).is_some());
    }

    #[test]
    fn ppas_is_the_range_view_of_get() {
        let mut t = table();
        for i in [3, 4, 6] {
            t.set(Lpn(i), Ppa(70 + i), true);
        }
        let run: Vec<Option<Ppa>> = t.ppas(LpnRange::new(Lpn(3), 4)).collect();
        let each: Vec<Option<Ppa>> = (3..7).map(|i| t.get(Lpn(i)).map(|e| e.ppa)).collect();
        assert_eq!(run, each);
        assert_eq!(run[2], None);
        // Past the table there is nothing to resolve.
        assert_eq!(t.ppas(LpnRange::new(Lpn(30), 3)).len(), 0);
        assert_eq!(t.ppas(LpnRange::new(Lpn(30), 2)).len(), 2);
    }

    #[test]
    fn mapped_prefix_is_the_some_prefix_of_ppas() {
        let mut t = table();
        for i in [3, 4, 6, 31] {
            t.set(Lpn(i), Ppa(70 + i), true);
        }
        for (start, count) in [(3, 4), (3, 2), (5, 3), (6, 1), (0, 32), (31, 1), (30, 3)] {
            let range = LpnRange::new(Lpn(start), count);
            let want: Vec<Ppa> = t.ppas(range).map_while(|ppa| ppa).collect();
            let got = t.mapped_prefix(range);
            assert_eq!(got.len(), want.len(), "{start}+{count}");
            assert_eq!(got.collect::<Vec<_>>(), want, "{start}+{count}");
        }
    }

    #[test]
    fn chunk_and_zone_of() {
        let t = table();
        assert_eq!(t.chunk_of(Lpn(5)), ChunkId(1));
        assert_eq!(t.zone_of(Lpn(17)), ZoneId(1));
    }

    #[test]
    #[should_panic(expected = "beyond capacity")]
    fn set_out_of_range_panics() {
        table().set(Lpn(32), Ppa(0), true);
    }

    #[test]
    fn relocate_preserves_flags() {
        let mut t = table();
        for i in 0..4 {
            t.set(Lpn(i), Ppa(10 + i), true);
        }
        t.try_aggregate_chunk(Lpn(0));
        t.relocate(Lpn(2), Ppa(500));
        let e = t.get(Lpn(2)).unwrap();
        assert_eq!(e.ppa, Ppa(500));
        assert_eq!(e.granularity, MapGranularity::Chunk);
        assert!(e.canonical);
    }

    #[test]
    #[should_panic(expected = "relocating unmapped")]
    fn relocate_unmapped_panics() {
        table().relocate(Lpn(0), Ppa(1));
    }
}

#[cfg(test)]
mod demotion_tests {
    use super::*;

    #[test]
    fn unmap_demotes_covering_aggregation() {
        let mut t = MappingTable::new(32, 4, 16);
        for i in 0..16 {
            t.set(Lpn(i), Ppa(i), true);
        }
        assert!(t.try_aggregate_zone(Lpn(0)));
        t.unmap(Lpn(7));
        assert_eq!(t.get(Lpn(7)), None);
        for i in (0..16).filter(|i| *i != 7) {
            assert_eq!(
                t.granularity_of(Lpn(i)),
                Some(MapGranularity::Page),
                "lpn {i} demoted"
            );
        }
        // The fast path cannot claim a stale aggregation afterwards.
        assert!(!t.try_aggregate_chunk(Lpn(4)), "hole blocks chunk 1");
        assert!(t.try_aggregate_chunk(Lpn(0)), "chunk 0 re-aggregates");
    }
}
