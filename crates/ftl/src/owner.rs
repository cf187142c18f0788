//! Dense reverse map (physical slice → logical page) over a block range.

use std::collections::BTreeMap;
use std::ops::Range;

use conzone_types::{to_index, Geometry, Lpn, Ppa};

/// Reverse map of every live slice of a block range to its logical page.
///
/// Two users: ConZone's SLC region (blocks `0..slc_blocks_per_chip`; zone
/// reset and remount *iterate* it, so its order is sim-visible and must be
/// identical across seeded reruns) and the Legacy baseline's normal blocks
/// (`slc_blocks_per_chip..blocks_per_chip`; GC asks it who owns each live
/// slice of a victim). Both used to be a `BTreeMap` keyed by address,
/// whose node allocations made every program path allocate and, for
/// Legacy, cost more than the rest of the device put together; this is a
/// direct-mapped slot array over the region.
///
/// Dense index: with `raw = ((chip * blocks_per_chip + block) *
/// pages_per_block + page) * slices_per_page + slice` lexicographic in
/// `(chip, block, page, slice)`, a slice of the region (`first_block <=
/// block < first_block + region_blocks`) maps to `(chip * region_blocks +
/// block - first_block) * slices_per_block + in_block` — also
/// lexicographic in the same tuple, so ascending dense order is exactly
/// ascending `Ppa` order and iteration is bit-identical to the `BTreeMap`
/// it replaced. The region is one contiguous span of every chip's
/// addresses, so that index is the chip's region span times the chip plus
/// the address's offset into the region: one division finds it.
///
/// Addresses outside the region (invariant-corruption tests insert them
/// on purpose) go to a `BTreeMap` overflow that is empty in normal
/// operation; iteration merges the two streams in `Ppa` order.
#[derive(Debug)]
pub struct OwnerMap {
    /// Owner slots for the region, indexed by dense slice index: the
    /// [`pack`]ed logical page, 0 while free — four bytes a slice, and a
    /// fresh map is untouched zero pages.
    slots: Vec<u32>,
    /// Live entries in `slots` (kept incrementally; `len()` is O(1)).
    dense_len: usize,
    /// Raw-address span of one chip: `blocks_per_chip * slices_per_block`.
    chip_span: u64,
    /// Where the region starts in a chip's span: `first_block *
    /// slices_per_block`.
    region_start: u64,
    /// Slices of the region on one chip: `region_blocks *
    /// slices_per_block`.
    region_span: u64,
    /// Entries outside the region; normally empty.
    overflow: BTreeMap<Ppa, Lpn>,
}

/// Slot value of an owned slice: the page number plus one, leaving 0 —
/// what a lazily-zeroed allocation reads as — for "free".
#[inline]
#[allow(
    clippy::expect_used,
    reason = "DeviceConfig::build bounds padded logical slices at MAX_SLICES, so every page of a built device fits"
)]
fn pack(lpn: Lpn) -> u32 {
    let raw = u32::try_from(lpn.raw()).ok();
    raw.and_then(|raw| raw.checked_add(1))
        .expect("logical page beyond the 32-bit owner slot")
}

/// Inverse of [`pack`]: `None` for the free slot.
#[inline]
fn unpack(slot: u32) -> Option<Lpn> {
    slot.checked_sub(1).map(|raw| Lpn(u64::from(raw)))
}

impl OwnerMap {
    /// An empty map, dense over `blocks` of every chip of `geometry`.
    pub fn new(geometry: &Geometry, blocks: Range<usize>) -> OwnerMap {
        let block_span = geometry.slices_per_block();
        let region_blocks = blocks.len();
        let slots = geometry.nchips() * region_blocks * to_index(block_span);
        OwnerMap {
            slots: vec![0; slots],
            dense_len: 0,
            chip_span: geometry.blocks_per_chip as u64 * block_span,
            region_start: blocks.start as u64 * block_span,
            region_span: region_blocks as u64 * block_span,
            overflow: BTreeMap::new(),
        }
    }

    /// Dense slot index for an in-region address, `None` outside.
    #[inline]
    fn dense_index(&self, ppa: Ppa) -> Option<usize> {
        self.locate(ppa).map(|(i, _)| i)
    }

    /// Dense slot index for an in-region address, with the number of
    /// slots from it to the end of its chip's part of the region (up to
    /// which consecutive addresses are consecutive slots); `None` outside.
    #[inline]
    fn locate(&self, ppa: Ppa) -> Option<(usize, u64)> {
        let raw = ppa.raw();
        let chip = raw / self.chip_span;
        // Wraps to a huge value below the region, failing the bound check.
        let in_region = (raw - chip * self.chip_span).wrapping_sub(self.region_start);
        (in_region < self.region_span).then(|| {
            (
                to_index(chip * self.region_span + in_region),
                self.region_span - in_region,
            )
        })
    }

    /// Inverse of [`OwnerMap::dense_index`].
    #[inline]
    fn dense_ppa(&self, idx: usize) -> Ppa {
        let idx = idx as u64;
        let chip = idx / self.region_span;
        let in_region = idx - chip * self.region_span;
        Ppa(chip * self.chip_span + self.region_start + in_region)
    }

    /// Records `lpn` as the owner of `ppa`; returns the previous owner.
    pub fn insert(&mut self, ppa: Ppa, lpn: Lpn) -> Option<Lpn> {
        match self.dense_index(ppa) {
            Some(i) => {
                let prev = unpack(std::mem::replace(&mut self.slots[i], pack(lpn)));
                self.dense_len += usize::from(prev.is_none());
                prev
            }
            None => self.overflow.insert(ppa, lpn),
        }
    }

    /// Forgets the owner of `ppa`, returning it.
    pub fn remove(&mut self, ppa: Ppa) -> Option<Lpn> {
        match self.dense_index(ppa) {
            Some(i) => {
                let prev = unpack(std::mem::take(&mut self.slots[i]));
                self.dense_len -= usize::from(prev.is_some());
                prev
            }
            None => self.overflow.remove(&ppa),
        }
    }

    /// The slots of the `count` physically consecutive slices from
    /// `first`, when the whole run lies inside one chip's part of the
    /// region — where consecutive addresses are consecutive slots, found
    /// with a single index computation. `None` for a run that leaves it;
    /// the callers then go slice by slice.
    fn run_slots(&mut self, first: Ppa, count: usize) -> Option<&mut [u32]> {
        let (i, room) = self.locate(first)?;
        (count as u64 <= room).then(|| &mut self.slots[i..i + count])
    }

    /// [`OwnerMap::insert`] for a run: slice `first + i` is owned by page
    /// `start + i`.
    pub fn insert_run(&mut self, first: Ppa, start: Lpn, count: usize) {
        match self.run_slots(first, count) {
            Some(slots) => {
                let mut fresh = 0;
                let owners = pack(start)..pack(start.offset(count as u64));
                for (slot, owner) in slots.iter_mut().zip(owners) {
                    fresh += usize::from(*slot == 0);
                    *slot = owner;
                }
                self.dense_len += fresh;
            }
            None => {
                for i in 0..count as u64 {
                    self.insert(first.offset(i), start.offset(i));
                }
            }
        }
    }

    /// [`OwnerMap::remove`] for a run of physically consecutive slices.
    pub fn remove_run(&mut self, first: Ppa, count: usize) {
        match self.run_slots(first, count) {
            Some(slots) => {
                // One pass that counts and clears: a run is a few slots, too
                // short for a second pass or a `memset` call to pay.
                let mut live = 0;
                for slot in slots {
                    live += usize::from(*slot != 0);
                    *slot = 0;
                }
                self.dense_len -= live;
            }
            None => {
                for i in 0..count as u64 {
                    self.remove(first.offset(i));
                }
            }
        }
    }

    /// The owner of `ppa`, if recorded.
    pub fn get(&self, ppa: Ppa) -> Option<Lpn> {
        match self.dense_index(ppa) {
            Some(i) => unpack(self.slots[i]),
            None => self.overflow.get(&ppa).copied(),
        }
    }

    /// Whether `ppa` has a recorded owner.
    pub fn contains_key(&self, ppa: Ppa) -> bool {
        self.get(ppa).is_some()
    }

    /// Number of recorded owners.
    #[expect(
        clippy::len_without_is_empty,
        reason = "callers count owners; none asks whether the map is empty"
    )]
    pub fn len(&self) -> usize {
        self.dense_len + self.overflow.len()
    }

    /// Live entries in ascending `Ppa` order (the `BTreeMap` order the
    /// map replaced): the dense stream and the overflow stream merged.
    pub fn iter(&self) -> impl Iterator<Item = (Ppa, Lpn)> + '_ {
        OwnerIter {
            map: self,
            next_dense: 0,
            overflow: self.overflow.iter().peekable(),
        }
    }
}

/// Splits a stream of physical addresses (`None`: a gap, such as an
/// unmapped page) into `(first, len)` runs of consecutive slices that
/// stay inside one block — what [`OwnerMap::remove_run`] and the flash
/// array's `invalidate_run` take — in stream order. A gap ends a run.
pub fn block_runs(
    ppas: impl IntoIterator<Item = Option<Ppa>>,
    slices_per_block: u64,
) -> impl Iterator<Item = (Ppa, usize)> {
    let mut ppas = ppas.into_iter().peekable();
    std::iter::from_fn(move || {
        let first = ppas.find_map(|ppa| ppa)?;
        let in_block = slices_per_block - first.raw() % slices_per_block;
        let mut len = 1;
        while len < in_block && ppas.next_if_eq(&Some(first.offset(len))).is_some() {
            len += 1;
        }
        Some((first, to_index(len)))
    })
}

/// Merged in-order iterator over [`OwnerMap`]; yields pairs by value.
#[derive(Debug)]
struct OwnerIter<'a> {
    map: &'a OwnerMap,
    next_dense: usize,
    overflow: std::iter::Peekable<std::collections::btree_map::Iter<'a, Ppa, Lpn>>,
}

impl Iterator for OwnerIter<'_> {
    type Item = (Ppa, Lpn);

    fn next(&mut self) -> Option<(Ppa, Lpn)> {
        while self.next_dense < self.map.slots.len() && self.map.slots[self.next_dense] == 0 {
            self.next_dense += 1;
        }
        let dense =
            (self.next_dense < self.map.slots.len()).then(|| self.map.dense_ppa(self.next_dense));
        match (dense, self.overflow.peek()) {
            (Some(dp), Some((&op, _))) if op < dp => {
                let (ppa, lpn) = self.overflow.next()?;
                Some((*ppa, *lpn))
            }
            (Some(dp), _) => {
                let lpn = unpack(self.map.slots[self.next_dense])?;
                self.next_dense += 1;
                Some((dp, lpn))
            }
            (None, Some(_)) => {
                let (ppa, lpn) = self.overflow.next()?;
                Some((*ppa, *lpn))
            }
            (None, None) => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The two regions the workspace uses: ConZone's SLC blocks and
    /// Legacy's normal blocks.
    fn regions(g: &Geometry) -> [Range<usize>; 2] {
        [
            0..g.slc_blocks_per_chip,
            g.slc_blocks_per_chip..g.blocks_per_chip,
        ]
    }

    #[test]
    fn owner_map_matches_btreemap_semantics() {
        let g = Geometry::tiny();
        let spb = g.slices_per_block();
        let chip_span = g.blocks_per_chip as u64 * spb;
        for region in regions(&g) {
            let mut dense = OwnerMap::new(&g, region.clone());
            let mut reference: BTreeMap<Ppa, Lpn> = BTreeMap::new();
            let base = region.start as u64 * spb;

            // In-region slices across chips and blocks, one out-of-region
            // address (the corruption-test case), interleaved with removals.
            let in_region = [
                Ppa(base),
                Ppa(base + 1),
                Ppa(base + spb),                 // chip 0, second block
                Ppa(chip_span + base),           // chip 1, first block
                Ppa(chip_span + base + spb + 3), // chip 1, second block
            ];
            for (i, &ppa) in in_region.iter().enumerate() {
                assert_eq!(dense.insert(ppa, Lpn(i as u64)), None);
                reference.insert(ppa, Lpn(i as u64));
            }
            // One block past the region, or — when the region reaches the
            // end of the chip — one block before it.
            let outside = if region.end < g.blocks_per_chip {
                Ppa(region.end as u64 * spb)
            } else {
                Ppa(base - spb)
            };
            dense.insert(outside, Lpn(99));
            reference.insert(outside, Lpn(99));

            assert_eq!(dense.len(), reference.len());
            assert!(dense.contains_key(outside));
            assert_eq!(dense.get(Ppa(base + spb)), Some(Lpn(2)));

            // Update in place keeps the length.
            assert_eq!(dense.insert(Ppa(base), Lpn(7)), Some(Lpn(0)));
            reference.insert(Ppa(base), Lpn(7));
            assert_eq!(dense.len(), reference.len());

            // Iteration is ascending-Ppa, identical to the BTreeMap, with
            // the out-of-region entry merged at the right position.
            let got: Vec<(Ppa, Lpn)> = dense.iter().collect();
            let want: Vec<(Ppa, Lpn)> = reference.iter().map(|(p, l)| (*p, *l)).collect();
            assert_eq!(got, want);

            assert_eq!(dense.remove(Ppa(base + spb)), Some(Lpn(2)));
            assert_eq!(dense.remove(Ppa(base + spb)), None);
            reference.remove(&Ppa(base + spb));
            assert_eq!(dense.len(), reference.len());
            assert_eq!(dense.get(Ppa(base + spb)), None);
        }
    }

    /// Runs stop at a gap, at a jump, at a step backwards and at the end
    /// of the block they started in (8 slices a block here).
    #[test]
    fn block_runs_clip_at_block_boundaries_and_gaps() {
        let gap = u64::MAX;
        let runs = |raws: &[u64]| {
            let ppas = raws.iter().map(|&r| (r != gap).then_some(Ppa(r)));
            block_runs(ppas, 8).collect::<Vec<_>>()
        };
        assert_eq!(runs(&[]), []);
        assert_eq!(runs(&[gap, gap]), []);
        assert_eq!(runs(&[3, 4, 5]), [(Ppa(3), 3)]);
        // 6..=9 crosses from block 0 into block 1.
        assert_eq!(runs(&[6, 7, 8, 9]), [(Ppa(6), 2), (Ppa(8), 2)]);
        // A whole block, and not a slice of the next.
        let two_blocks: Vec<u64> = (8..24).collect();
        assert_eq!(runs(&two_blocks), [(Ppa(8), 8), (Ppa(16), 8)]);
        // A gap splits slices that are consecutive on flash.
        assert_eq!(runs(&[gap, 1, gap, 2, 3]), [(Ppa(1), 1), (Ppa(2), 2)]);
        assert_eq!(
            runs(&[1, 2, 4, 3, 3, 12, 13]),
            [
                (Ppa(1), 2),
                (Ppa(4), 1),
                (Ppa(3), 1),
                (Ppa(3), 1),
                (Ppa(12), 2)
            ]
        );
    }

    /// Both packed tables at the ends of their encoding: address 0 is not
    /// the empty entry, the largest address `build()` lets through
    /// round-trips (alone and as the end of a run), and a geometry or a
    /// padded logical space one slice larger is a `ConfigError`.
    #[test]
    fn packed_entries_cover_exactly_the_validated_address_space() {
        use crate::MappingTable;
        use conzone_types::{DeviceConfig, LpnRange, MAX_SLICES};

        let last = MAX_SLICES - 1;
        let mut table = MappingTable::new(8, 4, 8);
        table.set(Lpn(0), Ppa(0), true);
        assert_eq!(table.get(Lpn(0)).map(|e| e.ppa), Some(Ppa(0)));
        assert_eq!(table.get(Lpn(1)), None);
        table.set(Lpn(1), Ppa(last), true);
        table.set_extent(Lpn(2), Ppa(last - 1), 2, false);
        table.relocate_extent(Lpn(0), Ppa(last), 1);
        let ppas: Vec<_> = table.ppas(LpnRange::new(Lpn(0), 5)).collect();
        let (hi, lo) = (Some(Ppa(last)), Some(Ppa(last - 1)));
        assert_eq!(ppas, [hi, hi, lo, hi, None]);
        assert_eq!(table.iter_mapped().count(), 4);

        let g = Geometry::tiny();
        let mut owners = OwnerMap::new(&g, 0..g.slc_blocks_per_chip);
        assert_eq!(owners.insert(Ppa(0), Lpn(0)), None);
        assert_eq!(owners.get(Ppa(0)), Some(Lpn(0)));
        assert_eq!(owners.get(Ppa(1)), None);
        assert_eq!(owners.insert(Ppa(0), Lpn(last)), Some(Lpn(0)));
        owners.insert_run(Ppa(1), Lpn(last - 1), 2);
        assert_eq!(
            owners.iter().collect::<Vec<_>>(),
            [
                (Ppa(0), Lpn(last)),
                (Ppa(1), Lpn(last - 1)),
                (Ppa(2), Lpn(last))
            ]
        );
        assert_eq!(owners.remove(Ppa(2)), Some(Lpn(last)));
        assert_eq!(owners.len(), 2);

        // 2 chips x (2^31 - 1) one-slice blocks: MAX_SLICES exactly.
        let largest = Geometry {
            channels: 2,
            chips_per_channel: 1,
            blocks_per_chip: (1 << 31) - 1,
            slc_blocks_per_chip: 1,
            pages_per_block: 1,
            page_bytes: 4096,
            program_unit_bytes: 4096,
            planes_per_chip: 1,
        };
        assert_eq!(largest.total_slices(), MAX_SLICES);
        let build = |g: Geometry| DeviceConfig::builder(g).chunk_bytes(4096).build();
        assert!(build(largest).is_ok());
        // 3 x 5 x 286 331 153 = 2^32 - 1 slices: one too many.
        let physical = build(Geometry {
            channels: 3,
            chips_per_channel: 5,
            blocks_per_chip: 286_331_153,
            ..largest
        });
        assert!(physical.unwrap_err().to_string().contains("physical"));
        // Factors whose product does not fit in 64 bits.
        let huge = build(Geometry {
            channels: usize::MAX,
            blocks_per_chip: usize::MAX,
            ..largest
        });
        assert!(huge.unwrap_err().to_string().contains("physical"));
        // 3.6 G physical slices, but zones of 3 padded to 4: 4.8 G logical.
        let logical = build(Geometry {
            channels: 3,
            blocks_per_chip: 1_200_000_000,
            ..largest
        });
        assert!(logical.unwrap_err().to_string().contains("logical"));
    }

    /// The run forms against the per-slice calls they replace: inside a
    /// block, over slots already taken, across a block boundary and out
    /// of the region (both of which fall back to per-slice).
    #[test]
    fn owner_run_ops_equal_per_slice_calls() {
        let g = Geometry::tiny();
        let spb = g.slices_per_block();
        for region in regions(&g) {
            let base = region.start as u64 * spb;
            // One past the region's last slice on chip 0: outside it, whether
            // that is the next block or the next chip's block 0.
            let end = region.end as u64 * spb;
            let runs = [
                (Ppa(base + 3), 4usize),
                (Ppa(base + 5), 6),       // overlaps the first run
                (Ppa(base + spb - 2), 5), // crosses into the next block
                (Ppa(end - 1), 3),        // leaves the region
                (Ppa(base + 7), 0),
            ];
            let mut bulk = OwnerMap::new(&g, region.clone());
            let mut looped = OwnerMap::new(&g, region.clone());
            let same = |bulk: &OwnerMap, looped: &OwnerMap| {
                assert_eq!(bulk.len(), looped.len());
                assert_eq!(
                    bulk.iter().collect::<Vec<_>>(),
                    looped.iter().collect::<Vec<_>>()
                );
            };
            for (k, &(first, count)) in runs.iter().enumerate() {
                let start = Lpn(100 * k as u64);
                bulk.insert_run(first, start, count);
                for i in 0..count as u64 {
                    looped.insert(first.offset(i), start.offset(i));
                }
                same(&bulk, &looped);
            }
            assert_eq!(bulk.get(Ppa(base + 5)), Some(Lpn(100)), "later run won");
            for &(first, count) in &[
                (Ppa(base + 4), 3usize),
                (Ppa(base + spb - 1), 2),
                (Ppa(end), 2),
            ] {
                bulk.remove_run(first, count);
                for i in 0..count as u64 {
                    looped.remove(first.offset(i));
                }
                same(&bulk, &looped);
            }
            // Removing what is already gone changes nothing.
            bulk.remove_run(Ppa(base + 4), 3);
            same(&bulk, &looped);
        }
    }
}
