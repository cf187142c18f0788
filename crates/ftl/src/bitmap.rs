//! The in-SRAM map-bit bitmap of the Bitmap search strategy (paper §III-C).
//!
//! To know how many flash fetches an L2P miss needs, the device must learn
//! the aggregation level of the target address *before* reading the mapping
//! table. The performance-optimised option mirrors every entry's two map
//! bits in SRAM — ~0.006 % of capacity (64 MB for 1 TB, which the paper
//! deems unacceptable for consumer devices but uses as the BITMAP baseline
//! of §IV-D).

use conzone_types::{Lpn, MapGranularity};

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
            bits: vec![0; capacity_slices.div_ceil(4) as usize],
            capacity: capacity_slices,
        }
    }

    /// SRAM the bitmap occupies, in bytes (the paper's overhead argument).
    #[inline]
    pub fn overhead_bytes(&self) -> u64 {
        self.bits.len() as u64
    }

    /// Records the aggregation level of one page.
    ///
    /// # Panics
    ///
    /// Panics if `lpn` is out of range.
    pub fn set(&mut self, lpn: Lpn, granularity: MapGranularity) {
        // xtask-lint: allow(hot-path-effects) — bounds invariant: an out-of-range lpn is a harness bug and aborting is the correct response
        assert!(lpn.raw() < self.capacity, "lpn {lpn} out of range");
        let idx = (lpn.raw() / 4) as usize;
        let shift = (lpn.raw() % 4) * 2;
        self.bits[idx] = (self.bits[idx] & !(0b11 << shift)) | (granularity.to_bits() << shift);
    }

    /// Records the aggregation level of a run of pages.
    pub fn set_range(&mut self, start: Lpn, count: u64, granularity: MapGranularity) {
        for i in 0..count {
            self.set(start.offset(i), granularity);
        }
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
        // xtask-lint: allow(hot-path-effects) — bounds invariant: an out-of-range lpn is a harness bug and aborting is the correct response
        assert!(lpn.raw() < self.capacity, "lpn {lpn} out of range");
        let idx = (lpn.raw() / 4) as usize;
        let shift = (lpn.raw() % 4) * 2;
        MapGranularity::from_bits((self.bits[idx] >> shift) & 0b11)
            // xtask-lint: allow(hot-path-effects) — set_range
            // rejects the reserved bit pattern, so a stored pair always decodes.
            .expect("bitmap never stores the reserved pattern")
    }

    /// Static overhead for a device of `capacity_slices` pages, without
    /// building the bitmap.
    pub fn overhead_for(capacity_slices: u64) -> u64 {
        capacity_slices.div_ceil(4)
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

    #[test]
    fn overhead_matches_paper_scale() {
        // 1 TB at 4 KiB pages = 268_435_456 pages → 64 MiB of SRAM.
        let pages = 1_u64 << 40 >> 12;
        assert_eq!(MapBitmap::overhead_for(pages), 64 * 1024 * 1024);
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
