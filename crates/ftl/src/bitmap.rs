//! The in-SRAM map-bit bitmap of the Bitmap search strategy (paper §III-C).
//!
//! To know how many flash fetches an L2P miss needs, the device must learn
//! the aggregation level of the target address *before* reading the mapping
//! table. The performance-optimised option mirrors every entry's two map
//! bits in SRAM — ~0.006 % of capacity (64 MB for 1 TB, which the paper
//! deems unacceptable for consumer devices but uses as the BITMAP baseline
//! of §IV-D).

use conzone_types::{to_index, Lpn, MapGranularity};

/// Two map bits per logical page, packed 4-per-byte.
#[derive(Debug, Clone)]
pub struct MapBitmap {
    bits: Vec<u8>,
    capacity: u64,
}

impl MapBitmap {
    /// Creates a bitmap for `capacity_slices` logical pages, all at page
    /// granularity.
    pub fn new(capacity_slices: u64) -> MapBitmap {
        MapBitmap {
            bits: vec![0; to_index(capacity_slices.div_ceil(4))],
            capacity: capacity_slices,
        }
    }

    /// SRAM the bitmap occupies, in bytes (the paper's overhead argument,
    /// which the tests hold it to).
    #[cfg(test)]
    fn overhead_bytes(&self) -> u64 {
        self.bits.len() as u64
    }

    /// Records the aggregation level of one page.
    ///
    /// # Panics
    ///
    /// Panics if `lpn` is out of range.
    pub(crate) fn set(&mut self, lpn: Lpn, granularity: MapGranularity) {
        assert!(lpn.raw() < self.capacity, "lpn {lpn} out of range");
        let idx = (lpn.raw() / 4) as usize;
        let shift = (lpn.raw() % 4) * 2;
        self.bits[idx] = (self.bits[idx] & !(0b11 << shift)) | (granularity.to_bits() << shift);
    }

    /// Records the aggregation level of a run of pages: the whole bytes
    /// between the run's unaligned ends take one fill, the (at most three)
    /// pages at either end a masked store each.
    ///
    /// # Panics
    ///
    /// Panics if a non-empty run reaches out of range.
    pub fn set_range(&mut self, start: Lpn, count: u64, granularity: MapGranularity) {
        if count == 0 {
            return;
        }
        let (lo, hi) = (start.raw(), start.raw() + count);
        assert!(hi <= self.capacity, "lpn {} out of range", Lpn(hi - 1));
        let first_whole = lo.next_multiple_of(4).min(hi);
        let end_whole = (hi / 4 * 4).max(first_whole);
        for lpn in (lo..first_whole).chain(end_whole..hi) {
            self.set(Lpn(lpn), granularity);
        }
        self.bits[(first_whole / 4) as usize..(end_whole / 4) as usize]
            .fill(granularity.to_bits() * 0b0101_0101);
    }

    /// Reads the aggregation level of one page.
    ///
    /// # Panics
    ///
    /// Panics if `lpn` is out of range.
    #[allow(
        clippy::expect_used,
        reason = "set_range rejects the reserved bit pattern, so a stored pair always decodes"
    )]
    pub fn get(&self, lpn: Lpn) -> MapGranularity {
        assert!(lpn.raw() < self.capacity, "lpn {lpn} out of range");
        let idx = (lpn.raw() / 4) as usize;
        let shift = (lpn.raw() % 4) * 2;
        MapGranularity::from_bits((self.bits[idx] >> shift) & 0b11)
            .expect("bitmap never stores the reserved pattern")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_get_independent_pages() {
        let mut b = MapBitmap::new(10);
        b.set(Lpn(0), MapGranularity::Zone);
        b.set(Lpn(1), MapGranularity::Chunk);
        b.set(Lpn(2), MapGranularity::Page);
        assert_eq!(b.get(Lpn(0)), MapGranularity::Zone);
        assert_eq!(b.get(Lpn(1)), MapGranularity::Chunk);
        assert_eq!(b.get(Lpn(2)), MapGranularity::Page);
        assert_eq!(b.get(Lpn(3)), MapGranularity::Page, "default is page");
        // Overwrite works.
        b.set(Lpn(0), MapGranularity::Page);
        assert_eq!(b.get(Lpn(0)), MapGranularity::Page);
    }

    #[test]
    fn set_range_covers_run() {
        let mut b = MapBitmap::new(100);
        b.set_range(Lpn(10), 20, MapGranularity::Chunk);
        assert_eq!(b.get(Lpn(9)), MapGranularity::Page);
        assert_eq!(b.get(Lpn(10)), MapGranularity::Chunk);
        assert_eq!(b.get(Lpn(29)), MapGranularity::Chunk);
        assert_eq!(b.get(Lpn(30)), MapGranularity::Page);
    }

    /// `set_range` against the per-page `set` loop it replaced: every
    /// start and length modulo 4 (so every mix of unaligned head, whole
    /// bytes and unaligned tail), the empty run, and the run to the very
    /// end of an odd-sized bitmap.
    #[test]
    fn set_range_equals_the_per_page_loop() {
        const PAGES: u64 = 43;
        let levels = [
            MapGranularity::Page,
            MapGranularity::Chunk,
            MapGranularity::Zone,
        ];
        for start in 0..=8 {
            for len in (0..=13).chain([PAGES - start]) {
                for (i, &level) in levels.iter().enumerate() {
                    // A background of the *next* level shows both a
                    // neighbour overwritten and a page of the run missed.
                    let mut bulk = MapBitmap::new(PAGES);
                    for p in 0..PAGES {
                        bulk.set(Lpn(p), levels[(i + 1 + p as usize % 2) % 3]);
                    }
                    let mut looped = bulk.clone();
                    bulk.set_range(Lpn(start), len, level);
                    for p in start..start + len {
                        looped.set(Lpn(p), level);
                    }
                    assert_eq!(bulk.bits, looped.bits, "{start}+{len} = {level}");
                }
            }
        }
        // The loop never looked at `start` when there was nothing to set.
        MapBitmap::new(4).set_range(Lpn(9), 0, MapGranularity::Zone);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn set_range_past_capacity_panics() {
        MapBitmap::new(10).set_range(Lpn(6), 5, MapGranularity::Chunk);
    }

    #[test]
    fn overhead_matches_paper_scale() {
        // 1 TB at 4 KiB pages = 268_435_456 pages → 64 MiB of SRAM.
        let pages = 1_u64 << 40 >> 12;
        assert_eq!(MapBitmap::new(pages).overhead_bytes(), 64 * 1024 * 1024);
        // Our 1.5 GB evaluation device: ~96 KiB, i.e. ~0.006 %.
        let b = MapBitmap::new(393_216);
        assert_eq!(b.overhead_bytes(), 98_304);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_panics() {
        MapBitmap::new(4).get(Lpn(4));
    }
}
