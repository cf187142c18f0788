//! Per-block NAND state: program cursor, slice validity and wear.
//!
//! A flash block programs strictly sequentially (the NAND append
//! constraint) and erases as a whole. Multi-level-cell blocks program a
//! whole multi-page programming unit at a time; SLC blocks may partial-
//! program at 4 KiB slice granularity (paper §II-A).

use conzone_types::CellType;

use crate::bitvec::BitVec;
use crate::error::FlashError;

/// State of one flash block.
#[derive(Debug, Clone)]
pub struct Block {
    cell: CellType,
    /// Next programmable slice index (NAND sequential-program cursor).
    /// Programming is strictly sequential, so the slices programmed since
    /// the last erase are exactly `0..cursor`.
    cursor: usize,
    /// Programmed slices that still hold live data.
    valid: BitVec,
    erase_count: u64,
    slices: usize,
}

impl Block {
    /// Creates an erased block of `slices` 4 KiB slices.
    pub(crate) fn new(cell: CellType, slices: usize) -> Block {
        Block {
            cell,
            cursor: 0,
            valid: BitVec::new(slices),
            erase_count: 0,
            slices,
        }
    }

    /// The block's cell technology.
    #[inline]
    pub fn cell(&self) -> CellType {
        self.cell
    }

    /// Slices per block.
    #[inline]
    pub fn slices(&self) -> usize {
        self.slices
    }

    /// Next programmable slice index.
    #[inline]
    pub fn cursor(&self) -> usize {
        self.cursor
    }

    /// Whether nothing has been programmed since the last erase.
    #[inline]
    pub(crate) fn is_erased(&self) -> bool {
        self.cursor == 0
    }

    /// Times the block has been erased.
    #[inline]
    pub fn erase_count(&self) -> u64 {
        self.erase_count
    }

    /// Live slices in the block.
    #[inline]
    pub fn valid_count(&self) -> usize {
        self.valid.count_ones()
    }

    /// Iterates over the in-block indices of live slices.
    pub fn iter_valid(&self) -> impl Iterator<Item = usize> + '_ {
        self.valid.iter_ones()
    }

    /// Whether slice `idx` holds live data.
    #[inline]
    pub fn is_valid(&self, idx: usize) -> bool {
        self.valid.get(idx)
    }

    /// Whether slice `idx` has been programmed since the last erase.
    #[inline]
    pub(crate) fn is_written(&self, idx: usize) -> bool {
        idx < self.cursor
    }

    /// Offset from `start` of the first of the `count` slices there that
    /// is unwritten or dead, or `None` when the whole run is live: one
    /// masked validity test per word the run touches, and a per-slice
    /// search only when that fails. (Only programmed slices are ever
    /// valid; the cursor test keeps that out of the argument.)
    #[inline]
    pub(crate) fn first_dead(&self, start: usize, count: usize) -> Option<usize> {
        if start + count <= self.cursor && self.valid.all_ones(start, count) {
            return None;
        }
        (0..count).find(|&i| !self.is_written(start + i) || !self.is_valid(start + i))
    }

    /// Programs `count` slices at the cursor, marking them valid, and
    /// returns the index of the first slice programmed.
    ///
    /// # Errors
    ///
    /// [`FlashError::BlockFull`] when fewer than `count` slices remain.
    pub(crate) fn program(&mut self, count: usize) -> Result<usize, FlashError> {
        if self.cursor + count > self.slices {
            return Err(FlashError::BlockFull {
                cursor: self.cursor,
                requested: count,
                slices: self.slices,
            });
        }
        let start = self.cursor;
        self.valid.fill_range(start, count, true);
        self.cursor += count;
        Ok(start)
    }

    /// Marks the `count` programmed slices starting at `start` dead
    /// (superseded, host-invalidated or burned by a failed program).
    ///
    /// # Errors
    ///
    /// [`FlashError::InvalidSlice`], naming the first offender, if the run
    /// reaches a slice that was never programmed; nothing is changed then.
    pub(crate) fn invalidate_run(&mut self, start: usize, count: usize) -> Result<(), FlashError> {
        if start + count > self.cursor {
            return Err(FlashError::InvalidSlice {
                index: start.max(self.cursor),
            });
        }
        self.valid.fill_range(start, count, false);
        Ok(())
    }

    /// Erases the block, clearing all state and bumping the wear counter.
    pub(crate) fn erase(&mut self) {
        self.cursor = 0;
        self.valid.clear_all();
        self.erase_count += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequential_program_and_validity() {
        let mut b = Block::new(CellType::Slc, 8);
        assert!(b.is_erased());
        assert_eq!(b.program(3).unwrap(), 0);
        assert_eq!(b.program(2).unwrap(), 3);
        assert_eq!(b.cursor(), 5);
        assert_eq!(b.valid_count(), 5);
        assert!(b.is_valid(4));
        assert!(!b.is_written(5));
    }

    #[test]
    fn program_past_end_rejected() {
        let mut b = Block::new(CellType::Tlc, 4);
        b.program(4).unwrap();
        assert_eq!(b.cursor(), b.slices());
        assert!(matches!(b.program(1), Err(FlashError::BlockFull { .. })));
    }

    #[test]
    fn invalidate_and_iter_valid() {
        let mut b = Block::new(CellType::Slc, 6);
        b.program(5).unwrap();
        b.invalidate_run(1, 1).unwrap();
        b.invalidate_run(3, 1).unwrap();
        assert_eq!(b.valid_count(), 3);
        assert_eq!(b.iter_valid().collect::<Vec<_>>(), vec![0, 2, 4]);
        // Idempotent on already-dead slices.
        b.invalidate_run(1, 1).unwrap();
        assert_eq!(b.valid_count(), 3);
        // But never-written slices are an error.
        assert!(matches!(
            b.invalidate_run(5, 1),
            Err(FlashError::InvalidSlice { index: 5 })
        ));
    }

    /// A run is the per-slice loop: same validity afterwards, and a run
    /// reaching an unprogrammed slice names it and changes nothing.
    #[test]
    fn invalidate_run_equals_the_per_slice_loop() {
        for (start, count) in [(0, 0), (0, 70), (3, 64), (63, 2), (69, 1)] {
            let mut bulk = Block::new(CellType::Slc, 100);
            bulk.program(70).unwrap();
            let mut looped = bulk.clone();
            bulk.invalidate_run(start, count).unwrap();
            for i in start..start + count {
                looped.invalidate_run(i, 1).unwrap();
            }
            assert_eq!(
                bulk.iter_valid().collect::<Vec<_>>(),
                looped.iter_valid().collect::<Vec<_>>(),
                "{start}+{count}"
            );
        }
        let mut b = Block::new(CellType::Slc, 100);
        b.program(70).unwrap();
        assert!(matches!(
            b.invalidate_run(68, 4),
            Err(FlashError::InvalidSlice { index: 70 })
        ));
        assert_eq!(b.valid_count(), 70, "a rejected run invalidates nothing");
    }

    /// `program` against the per-slice definition it replaced: the claimed
    /// slices, and only those, become written and valid, across word
    /// boundaries of the validity bitmap; `BlockFull` changes nothing.
    #[test]
    fn program_marks_exactly_the_claimed_run() {
        let mut b = Block::new(CellType::Tlc, 200);
        let mut cursor = 0;
        for count in [1, 62, 1, 1, 96, 0, 39] {
            assert_eq!(b.program(count).unwrap(), cursor);
            cursor += count;
            for i in 0..200 {
                assert_eq!(b.is_written(i), i < cursor, "written {i} at {cursor}");
                assert_eq!(b.is_valid(i), i < cursor, "valid {i} at {cursor}");
            }
        }
        assert_eq!(b.cursor(), b.slices());
        assert!(matches!(
            b.program(1),
            Err(FlashError::BlockFull {
                cursor: 200,
                requested: 1,
                slices: 200
            })
        ));
        assert_eq!((b.cursor(), b.valid_count()), (200, 200));
    }

    /// `first_dead` against the two per-slice tests it replaces, for runs
    /// before, across and past the cursor and around invalidated slices.
    #[test]
    fn first_dead_equals_the_per_slice_tests() {
        let mut b = Block::new(CellType::Slc, 200);
        b.program(130).unwrap();
        b.invalidate_run(63, 2).unwrap();
        b.invalidate_run(100, 1).unwrap();
        for start in [0usize, 1, 60, 63, 64, 65, 99, 101, 126, 129, 130, 196] {
            for count in 0..=(200 - start).min(70) {
                let looped =
                    (0..count).find(|&i| !b.is_written(start + i) || !b.is_valid(start + i));
                assert_eq!(b.first_dead(start, count), looped, "{start}+{count}");
            }
        }
    }

    #[test]
    fn erase_resets_and_counts_wear() {
        let mut b = Block::new(CellType::Qlc, 4);
        b.program(4).unwrap();
        b.erase();
        assert!(b.is_erased());
        assert_eq!(b.valid_count(), 0);
        assert_eq!(b.erase_count(), 1);
        b.program(2).unwrap();
        b.erase();
        assert_eq!(b.erase_count(), 2);
    }
}
