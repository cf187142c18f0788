//! SLC-region bookkeeping: superblock free/used lists, the reverse
//! slice-owner map, and the write stream used for premature flushes,
//! zone-tail patches and GC destinations.

use std::collections::{BTreeMap, VecDeque};

use conzone_types::{Geometry, Lpn, Ppa, SuperblockId};

/// Reverse map of every live SLC slice to its logical page.
///
/// Zone reset and remount *iterate* this map, so its order is
/// sim-visible and must be identical across seeded reruns. It used to be
/// a `BTreeMap<Ppa, Lpn>`, whose node allocations made the SLC program
/// path (tail patches run on every zone in steady state) allocate; the
/// replacement is a direct-mapped slot array over the SLC region.
///
/// Dense index: with `raw = ((chip * blocks_per_chip + block) *
/// pages_per_block + page) * slices_per_page + slice` lexicographic in
/// `(chip, block, page, slice)`, an SLC slice (`block <
/// slc_blocks_per_chip`) maps to `(chip * slc_blocks_per_chip + block) *
/// slices_per_block + in_block` — also lexicographic in the same tuple,
/// so ascending dense order is exactly ascending `Ppa` order and
/// iteration is bit-identical to the `BTreeMap` it replaced.
///
/// Addresses outside the SLC region (invariant-corruption tests insert
/// them on purpose) go to a `BTreeMap` overflow that is empty in normal
/// operation; iteration merges the two streams in `Ppa` order.
#[derive(Debug)]
pub(crate) struct SlcOwnerMap {
    /// Owner slots for the SLC region, indexed by dense slice index.
    slots: Vec<Option<Lpn>>,
    /// Live entries in `slots` (kept incrementally; `len()` is O(1)).
    dense_len: usize,
    /// Raw-address span of one chip: `blocks_per_chip * slices_per_block`.
    chip_span: u64,
    /// Slices per block (`in_block` span).
    block_span: u64,
    /// SLC blocks per chip.
    slc_blocks: u64,
    /// Entries outside the SLC region; normally empty.
    overflow: BTreeMap<Ppa, Lpn>,
}

impl SlcOwnerMap {
    fn new(geometry: &Geometry) -> SlcOwnerMap {
        let block_span = geometry.slices_per_block();
        let slc_blocks = geometry.slc_blocks_per_chip as u64;
        let slots = geometry.nchips() * geometry.slc_blocks_per_chip * block_span as usize;
        SlcOwnerMap {
            slots: vec![None; slots],
            dense_len: 0,
            chip_span: geometry.blocks_per_chip as u64 * block_span,
            block_span,
            slc_blocks,
            overflow: BTreeMap::new(),
        }
    }

    /// Dense slot index for an in-region address, `None` outside.
    #[inline]
    fn dense_index(&self, ppa: Ppa) -> Option<usize> {
        let raw = ppa.raw();
        let chip = raw / self.chip_span;
        let rem = raw % self.chip_span;
        let block = rem / self.block_span;
        let in_block = rem % self.block_span;
        if block < self.slc_blocks {
            Some(((chip * self.slc_blocks + block) * self.block_span + in_block) as usize)
        } else {
            None
        }
    }

    /// Inverse of [`SlcOwnerMap::dense_index`].
    #[inline]
    fn dense_ppa(&self, idx: usize) -> Ppa {
        let idx = idx as u64;
        let per_chip = self.slc_blocks * self.block_span;
        let chip = idx / per_chip;
        let rem = idx % per_chip;
        let block = rem / self.block_span;
        let in_block = rem % self.block_span;
        Ppa(chip * self.chip_span + block * self.block_span + in_block)
    }

    pub(crate) fn insert(&mut self, ppa: Ppa, lpn: Lpn) -> Option<Lpn> {
        match self.dense_index(ppa) {
            Some(i) => {
                let prev = self.slots[i].replace(lpn);
                if prev.is_none() {
                    self.dense_len += 1;
                }
                prev
            }
            None => self.overflow.insert(ppa, lpn),
        }
    }

    pub(crate) fn remove(&mut self, ppa: &Ppa) -> Option<Lpn> {
        match self.dense_index(*ppa) {
            Some(i) => {
                let prev = self.slots[i].take();
                if prev.is_some() {
                    self.dense_len -= 1;
                }
                prev
            }
            None => self.overflow.remove(ppa),
        }
    }

    /// The slots of the `count` physically consecutive slices from
    /// `first`, when the whole run lies inside one SLC block — where
    /// consecutive addresses are consecutive slots, found with a single
    /// index computation. `None` for a run that leaves the block or the
    /// region; the callers then go slice by slice.
    fn run_slots(&mut self, first: Ppa, count: usize) -> Option<&mut [Option<Lpn>]> {
        let i = self.dense_index(first)?;
        let in_block = i % self.block_span as usize;
        (in_block + count <= self.block_span as usize).then(|| &mut self.slots[i..i + count])
    }

    /// [`SlcOwnerMap::insert`] for a run: slice `first + i` is owned by
    /// page `start + i`.
    pub(crate) fn insert_run(&mut self, first: Ppa, start: Lpn, count: usize) {
        match self.run_slots(first, count) {
            Some(slots) => {
                let mut fresh = 0;
                for (slot, lpn) in slots.iter_mut().zip(start.raw()..) {
                    fresh += usize::from(slot.replace(Lpn(lpn)).is_none());
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

    /// [`SlcOwnerMap::remove`] for a run of physically consecutive slices.
    pub(crate) fn remove_run(&mut self, first: Ppa, count: usize) {
        match self.run_slots(first, count) {
            Some(slots) => {
                let mut live = 0;
                for slot in slots {
                    live += usize::from(slot.take().is_some());
                }
                self.dense_len -= live;
            }
            None => {
                for i in 0..count as u64 {
                    self.remove(&first.offset(i));
                }
            }
        }
    }

    pub(crate) fn get(&self, ppa: &Ppa) -> Option<&Lpn> {
        match self.dense_index(*ppa) {
            Some(i) => self.slots[i].as_ref(),
            None => self.overflow.get(ppa),
        }
    }

    pub(crate) fn contains_key(&self, ppa: &Ppa) -> bool {
        self.get(ppa).is_some()
    }

    pub(crate) fn len(&self) -> usize {
        self.dense_len + self.overflow.len()
    }

    /// Live entries in ascending `Ppa` order (the `BTreeMap` order the
    /// map replaced): the dense stream and the overflow stream merged.
    pub(crate) fn iter(&self) -> OwnerIter<'_> {
        OwnerIter {
            map: self,
            next_dense: 0,
            overflow: self.overflow.iter().peekable(),
        }
    }
}

/// Merged in-order iterator over [`SlcOwnerMap`]; yields pairs by value.
#[derive(Debug)]
pub(crate) struct OwnerIter<'a> {
    map: &'a SlcOwnerMap,
    next_dense: usize,
    overflow: std::iter::Peekable<std::collections::btree_map::Iter<'a, Ppa, Lpn>>,
}

impl Iterator for OwnerIter<'_> {
    type Item = (Ppa, Lpn);

    fn next(&mut self) -> Option<(Ppa, Lpn)> {
        while self.next_dense < self.map.slots.len() && self.map.slots[self.next_dense].is_none() {
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
                let lpn = self.map.slots[self.next_dense]?;
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

/// Allocation and occupancy state of the SLC secondary-buffer region.
///
/// The region consists of the first `slc_blocks_per_chip` superblocks of the
/// array. One superblock at a time is the *active* write destination; its
/// per-chip blocks fill via round-robin partial programming. Fully
/// programmed superblocks move to the used list until GC reclaims them.
#[derive(Debug)]
pub(crate) struct SlcRegion {
    /// Currently filling superblock.
    pub active: Option<SuperblockId>,
    /// Erased superblocks ready to become active.
    pub free: VecDeque<SuperblockId>,
    /// Fully programmed superblocks, eligible as GC victims.
    pub used: Vec<SuperblockId>,
    /// Reverse map of every live SLC slice to its logical page, needed by
    /// GC migration and zone reset invalidation.
    pub owner: SlcOwnerMap,
}

impl SlcRegion {
    pub(crate) fn new(geometry: &Geometry) -> SlcRegion {
        SlcRegion {
            active: None,
            free: (0..geometry.slc_superblocks() as u64)
                .map(SuperblockId)
                .collect(),
            // Sized to the whole region: `retire_active` must not grow it
            // mid-workload (the steady-state zero-allocation contract).
            used: Vec::with_capacity(geometry.slc_superblocks()),
            owner: SlcOwnerMap::new(geometry),
        }
    }

    /// Total superblocks in the region.
    #[cfg(test)]
    pub(crate) fn total(&self) -> usize {
        self.free.len() + self.used.len() + usize::from(self.active.is_some())
    }

    /// Retires the active superblock to the used list.
    pub(crate) fn retire_active(&mut self) {
        if let Some(sb) = self.active.take() {
            self.used.push(sb);
        }
    }

    /// Takes a free superblock as the new active one.
    pub(crate) fn activate_next(&mut self) -> Option<SuperblockId> {
        debug_assert!(self.active.is_none());
        let sb = self.free.pop_front()?;
        self.active = Some(sb);
        Some(sb)
    }

    /// Moves an erased victim back to the free list.
    pub(crate) fn reclaim(&mut self, sb: SuperblockId) {
        self.used.retain(|&s| s != sb);
        self.free.push_back(sb);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lifecycle() {
        let g = Geometry::tiny();
        let mut r = SlcRegion::new(&g);
        assert_eq!(r.total(), 4);
        assert_eq!(r.free.len(), 4);

        let sb = r.activate_next().unwrap();
        assert_eq!(sb, SuperblockId(0));
        assert_eq!(r.free.len(), 3);
        assert_eq!(r.total(), 4);

        r.retire_active();
        assert_eq!(r.used, vec![SuperblockId(0)]);

        r.reclaim(SuperblockId(0));
        assert!(r.used.is_empty());
        assert_eq!(r.free.len(), 4);
        assert_eq!(r.total(), 4);
    }

    #[test]
    fn owner_map_matches_btreemap_semantics() {
        let g = Geometry::tiny();
        let mut dense = SlcOwnerMap::new(&g);
        let mut reference: BTreeMap<Ppa, Lpn> = BTreeMap::new();

        // In-region slices across chips and blocks, one out-of-region
        // address (the corruption-test case), interleaved with removals.
        let spb = g.slices_per_block();
        let chip_span = g.blocks_per_chip as u64 * spb;
        let in_region = [
            Ppa(0),
            Ppa(1),
            Ppa(spb),                 // chip 0, block 1
            Ppa(chip_span),           // chip 1, block 0
            Ppa(chip_span + spb + 3), // chip 1, block 1
        ];
        for (i, &ppa) in in_region.iter().enumerate() {
            assert_eq!(dense.insert(ppa, Lpn(i as u64)), None);
            reference.insert(ppa, Lpn(i as u64));
        }
        let outside = Ppa(g.slc_blocks_per_chip as u64 * spb); // block slc, chip 0
        dense.insert(outside, Lpn(99));
        reference.insert(outside, Lpn(99));

        assert_eq!(dense.len(), reference.len());
        assert!(dense.contains_key(&outside));
        assert_eq!(dense.get(&Ppa(spb)), Some(&Lpn(2)));

        // Update in place keeps the length.
        assert_eq!(dense.insert(Ppa(0), Lpn(7)), Some(Lpn(0)));
        reference.insert(Ppa(0), Lpn(7));
        assert_eq!(dense.len(), reference.len());

        // Iteration is ascending-Ppa, identical to the BTreeMap, with the
        // out-of-region entry merged at the right position.
        let got: Vec<(Ppa, Lpn)> = dense.iter().collect();
        let want: Vec<(Ppa, Lpn)> = reference.iter().map(|(p, l)| (*p, *l)).collect();
        assert_eq!(got, want);

        assert_eq!(dense.remove(&Ppa(spb)), Some(Lpn(2)));
        assert_eq!(dense.remove(&Ppa(spb)), None);
        reference.remove(&Ppa(spb));
        assert_eq!(dense.len(), reference.len());
        assert_eq!(dense.get(&Ppa(spb)), None);
    }

    /// The run forms against the per-slice calls they replace: inside a
    /// block, over slots already taken, across a block boundary and out
    /// of the region (both of which fall back to per-slice).
    #[test]
    fn owner_run_ops_equal_per_slice_calls() {
        let g = Geometry::tiny();
        let spb = g.slices_per_block();
        let outside = g.slc_blocks_per_chip as u64 * spb;
        let runs = [
            (Ppa(3), 4usize),
            (Ppa(5), 6),           // overlaps the first run
            (Ppa(spb - 2), 5),     // crosses into block 1
            (Ppa(outside - 1), 3), // leaves the SLC region
            (Ppa(7), 0),
        ];
        let mut bulk = SlcOwnerMap::new(&g);
        let mut looped = SlcOwnerMap::new(&g);
        let same = |bulk: &SlcOwnerMap, looped: &SlcOwnerMap| {
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
        assert_eq!(bulk.get(&Ppa(5)), Some(&Lpn(100)), "later run won");
        for &(first, count) in &[(Ppa(4), 3usize), (Ppa(spb - 1), 2), (Ppa(outside), 2)] {
            bulk.remove_run(first, count);
            for i in 0..count as u64 {
                looped.remove(&first.offset(i));
            }
            same(&bulk, &looped);
        }
        // Removing what is already gone changes nothing.
        bulk.remove_run(Ppa(4), 3);
        same(&bulk, &looped);
    }
}
