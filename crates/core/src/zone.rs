//! What a zone has on the media. Its state and write pointer live in the
//! device's [`ZoneTable`](conzone_types::ZoneTable).

use conzone_types::{Lpn, Ppa};

/// A slice of zone data staged in the SLC secondary write buffer, awaiting
/// combination into the reserved normal blocks (paper §III-B path ③).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct StagedSlice {
    /// Logical page of the staged data.
    pub lpn: Lpn,
    /// Where it currently sits in SLC.
    pub ppa: Ppa,
}

/// Media state of one zone.
#[derive(Debug, Clone)]
pub(crate) struct Zone {
    /// Slices durably placed (flashed canonically, staged in SLC, or patch),
    /// i.e. the write pointer minus whatever sits in the volatile buffer.
    pub flushed_slices: u64,
    /// Premature-flush data staged in SLC: a contiguous run ending at
    /// `flushed_slices`, beginning at a programming-unit-aligned offset.
    pub staged: Vec<StagedSlice>,
}

impl Zone {
    /// `staged_capacity` pre-sizes the staged list so steady-state writes
    /// never grow it: the run stays below one programming unit before a
    /// combine fires, and one premature flush adds at most a buffer's
    /// worth of slices on top.
    pub(crate) fn new(staged_capacity: usize) -> Zone {
        Zone {
            flushed_slices: 0,
            staged: Vec::with_capacity(staged_capacity),
        }
    }

    /// Zone-relative offset where the staged run begins.
    pub(crate) fn staged_start(&self) -> u64 {
        self.flushed_slices - self.staged.len() as u64
    }

    /// Nothing of the zone is on the media any more.
    pub(crate) fn reset(&mut self) {
        self.flushed_slices = 0;
        self.staged.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_zone_is_empty() {
        let z = Zone::new(8);
        assert_eq!(z.flushed_slices, 0);
        assert_eq!(z.staged_start(), 0);
    }

    #[test]
    fn staged_start_tracks_run() {
        let mut z = Zone::new(8);
        z.flushed_slices = 36;
        z.staged = (24..36)
            .map(|i| StagedSlice {
                lpn: Lpn(i),
                ppa: Ppa(1000 + i),
            })
            .collect();
        assert_eq!(z.staged_start(), 24);
        z.reset();
        assert_eq!(z.flushed_slices, 0);
        assert!(z.staged.is_empty());
    }
}
