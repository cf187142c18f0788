//! SLC-region bookkeeping: superblock free/used lists, the reverse
//! slice-owner map, and the write stream used for premature flushes,
//! zone-tail patches and GC destinations.

use std::collections::VecDeque;

use conzone_ftl::OwnerMap;
use conzone_types::{Geometry, SuperblockId};

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
    pub owner: OwnerMap,
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
            owner: OwnerMap::new(geometry, 0..geometry.slc_blocks_per_chip),
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
}
