//! Logical and physical address newtypes.
//!
//! The emulator manages space at a 4 KiB *slice* granularity — the host
//! sector unit, the SLC partial-programming unit, and the mapping-table
//! granularity all coincide at 4 KiB (paper §II-A/§III-C):
//!
//! * [`Lpn`] — logical page number, a 4 KiB logical slice index.
//! * [`Ppa`] — physical page address, a 4 KiB physical slice index
//!   (decode it with [`Geometry`](crate::Geometry)).
//! * [`ZoneId`], [`ChunkId`] — coarser logical units used by hybrid mapping:
//!   the LZA / LCA of the paper's read path.
//! * [`SuperblockId`], [`ChipId`], [`ChannelId`] — physical grouping units.

use core::fmt;

/// Bytes in one slice: the logical sector, mapping granule and SLC
/// programming unit (4 KiB).
pub const SLICE_BYTES: u64 = 4096;

/// [`SLICE_BYTES`] as a buffer length.
pub const SLICE_LEN: usize = 4096;

/// A device-side quantity (an id, a slice count, a byte length) as an index
/// or length in host memory. The one place the workspace narrows `u64` to
/// `usize`: free on a 64-bit host, and a 32-bit host stops here instead of
/// indexing with a wrapped value.
#[inline]
pub fn to_index(v: u64) -> usize {
    usize::try_from(v).expect("a table index or buffer length exceeds the host's address space")
}

/// Most slices an address space may hold, physical ([`Ppa`]) or padded
/// logical ([`Lpn`]): the FTL's per-slice tables keep an address plus one
/// in four bytes (0 is the empty entry), and the exclusive end of a
/// stored run has to fit as well. 16 TiB less 8 KiB.
pub const MAX_SLICES: u64 = u32::MAX as u64 - 1;

macro_rules! index_newtype {
    ($(#[$doc:meta])* $name:ident) => {
        $(#[$doc])*
        #[derive(Debug, Default, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
        pub struct $name(pub u64);

        impl $name {
            /// Returns the raw index value.
            #[inline]
            pub const fn raw(self) -> u64 {
                self.0
            }

            /// The raw value as an index into a per-id table (see
            /// [`to_index`]).
            #[inline]
            pub fn index(self) -> usize {
                to_index(self.0)
            }
        }

        impl From<u64> for $name {
            #[inline]
            fn from(v: u64) -> Self {
                $name(v)
            }
        }

        impl From<$name> for u64 {
            #[inline]
            fn from(v: $name) -> u64 {
                v.0
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!(stringify!($name), "({})"), self.0)
            }
        }
    };
}

index_newtype!(
    /// Logical page number: index of a 4 KiB slice in the logical address
    /// space (the LPA of the paper's read path).
    Lpn
);

index_newtype!(
    /// Physical page address: linear index of a 4 KiB slice in the flash
    /// array. Decode into (chip, block, page, slice) with
    /// [`Geometry::decode_ppa`](crate::Geometry::decode_ppa).
    Ppa
);

index_newtype!(
    /// Zone index (the LZA of the paper's read path). One zone maps onto one
    /// superblock of reserved normal flash blocks.
    ZoneId
);

index_newtype!(
    /// Logical chunk index (the LCA of the paper's read path). A chunk is a
    /// fixed-size run of logical pages — 4 MiB (1024 slices) by default.
    ChunkId
);

index_newtype!(
    /// Superblock index: flash blocks at the same per-chip offset across all
    /// chips form one superblock (paper §II-A).
    SuperblockId
);

index_newtype!(
    /// Flash chip (die) index across all channels.
    ChipId
);

index_newtype!(
    /// Flash channel index.
    ChannelId
);

impl Lpn {
    /// First byte covered by this logical page.
    #[inline]
    pub const fn byte_offset(self) -> u64 {
        self.0 * SLICE_BYTES
    }

    /// The `n`-th page after this one.
    #[inline]
    pub const fn offset(self, n: u64) -> Lpn {
        Lpn(self.0 + n)
    }
}

impl Ppa {
    /// The `n`-th physical slice after this one.
    #[inline]
    pub const fn offset(self, n: u64) -> Ppa {
        Ppa(self.0 + n)
    }
}

/// A contiguous run of logical pages `[start, start + count)`.
///
/// ```
/// use conzone_types::{Lpn, LpnRange};
///
/// let r = LpnRange::new(Lpn(4), 3);
/// assert_eq!(r.end(), Lpn(7));
/// assert_eq!(r.iter().count(), 3);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LpnRange {
    /// First logical page in the run.
    pub start: Lpn,
    /// Number of logical pages in the run.
    pub count: u64,
}

impl LpnRange {
    /// Creates a range of `count` pages starting at `start`.
    #[inline]
    pub const fn new(start: Lpn, count: u64) -> Self {
        LpnRange { start, count }
    }

    /// Builds the smallest aligned range covering `[offset, offset + len)`
    /// in bytes. Returns `None` when `len` is zero.
    pub fn covering_bytes(offset: u64, len: u64) -> Option<Self> {
        if len == 0 {
            return None;
        }
        let first = offset / SLICE_BYTES;
        let last = (offset + len - 1) / SLICE_BYTES;
        Some(LpnRange::new(Lpn(first), last - first + 1))
    }

    /// One past the last page in the range.
    #[inline]
    pub const fn end(self) -> Lpn {
        Lpn(self.start.0 + self.count)
    }

    /// Iterates over each page in the range.
    pub fn iter(self) -> impl Iterator<Item = Lpn> {
        (self.start.0..self.start.0 + self.count).map(Lpn)
    }
}

impl fmt::Display for LpnRange {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}..{})", self.start.0, self.start.0 + self.count)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lpn_byte_conversions() {
        assert_eq!(Lpn(3).byte_offset(), 3 * 4096);
    }

    #[test]
    fn indices_round_trip() {
        // MAX_SLICES fits a 32-bit usize too: every table the FTL sizes can
        // be indexed on any supported host.
        for v in [0, 1, MAX_SLICES] {
            assert_eq!(to_index(v) as u64, v);
            assert_eq!(Lpn(v).index() as u64, v);
            assert_eq!(Ppa(v).index(), to_index(v));
            assert_eq!(ZoneId(v).index(), to_index(v));
        }
        assert_eq!(SLICE_LEN as u64, SLICE_BYTES);
    }

    #[cfg(target_pointer_width = "64")]
    #[test]
    fn a_64_bit_host_indexes_the_whole_u64_range() {
        assert_eq!(to_index(u64::MAX) as u64, u64::MAX);
        assert_eq!(ZoneId(u64::MAX).index(), usize::MAX);
    }

    #[test]
    fn range_covering_bytes() {
        // 1 byte straddling nothing: one slice.
        assert_eq!(
            LpnRange::covering_bytes(0, 1),
            Some(LpnRange::new(Lpn(0), 1))
        );
        // Exactly one slice.
        assert_eq!(
            LpnRange::covering_bytes(4096, 4096),
            Some(LpnRange::new(Lpn(1), 1))
        );
        // Unaligned span crossing a boundary.
        assert_eq!(
            LpnRange::covering_bytes(4000, 200),
            Some(LpnRange::new(Lpn(0), 2))
        );
        assert_eq!(LpnRange::covering_bytes(123, 0), None);
    }

    #[test]
    fn range_iteration_and_contains() {
        let r = LpnRange::new(Lpn(10), 4);
        let pages: Vec<_> = r.iter().collect();
        assert_eq!(pages, vec![Lpn(10), Lpn(11), Lpn(12), Lpn(13)]);
        assert!(r.iter().all(|l| l >= r.start && l < r.end()));
        assert_eq!(r.end(), Lpn(14));
    }

    #[test]
    fn newtype_conversions() {
        let z: ZoneId = 7u64.into();
        assert_eq!(u64::from(z), 7);
        assert_eq!(z.raw(), 7);
        assert_eq!(z.to_string(), "ZoneId(7)");
    }

    #[test]
    fn ppa_offset() {
        assert_eq!(Ppa(5).offset(3), Ppa(8));
    }
}
