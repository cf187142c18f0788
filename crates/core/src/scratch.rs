//! Reusable scratch buffers for the per-IO hot paths.
//!
//! The read, write and GC paths need short-lived lists (gathered PPAs,
//! LPN runs, chip placement orders). Allocating them per operation would
//! break the steady-state zero-allocation contract checked by
//! `tests/zero_alloc.rs`, so `ConZone` owns one set of buffers that the paths `mem::take`, clear,
//! fill and put back. Capacity grows during warmup and then stabilises.
//!
//! Fields taken concurrently must be distinct: GC (reachable from
//! `program_slc_batch`) holds the `gc_*` buffers; `chip_order` is held
//! only inside one SLC placement round, which calls nothing that places.
//! `ppas` is held by whichever of
//! an SLC combine, a conventional overwrite or a zone reset is gathering
//! slices to drop; each puts it back before anything else can run.

use conzone_types::{to_index, DeviceConfig, Lpn, Ppa};

/// The per-device scratch pool. All buffers are logically empty between
/// operations; only their capacity persists.
#[derive(Debug, Default)]
pub(crate) struct IoScratch {
    /// Read path: per-run source slots.
    pub read_slots: Vec<crate::read::Slot>,
    /// Read path: PPAs gathered for the flash data read.
    pub read_ppas: Vec<Ppa>,
    /// SLC slices about to be dropped: a combine's staged run, the old
    /// versions under a conventional overwrite, a reset zone's leftovers.
    pub ppas: Vec<Ppa>,
    /// A conventional overwrite: the previous versions, dropped once the
    /// new ones are placed.
    pub overwritten: Vec<Ppa>,
    /// SLC placement (host flushes and GC migration): idle-first chip
    /// order.
    pub chip_order: Vec<usize>,
    /// GC: the victim's live PPAs.
    pub gc_ppas: Vec<Ppa>,
    /// GC: owners of the migrating slices.
    pub gc_lpns: Vec<Lpn>,
}

impl IoScratch {
    /// Pre-sizes the buffers whose peak demand is fixed by the geometry,
    /// so their first large use (typically the first GC pass, or the first
    /// reset of a zone with a tail patch) does not allocate mid-workload. The read-path
    /// buffers scale with host request size instead and are left to grow
    /// on first use.
    pub(crate) fn for_config(cfg: &DeviceConfig) -> IoScratch {
        let g = &cfg.geometry;
        let superpage = to_index(g.slices_per_superpage());
        let superblock = to_index(g.slices_per_block()) * g.nchips();
        let patch = to_index(cfg.zone_patch_slices());
        IoScratch {
            read_slots: Vec::new(),
            read_ppas: Vec::new(),
            // A reset zone's SLC leftovers: its patch slices plus one
            // staged run (program-failure redos come on top, and grow it).
            ppas: Vec::with_capacity(patch + g.slices_per_unit() + superpage),
            overwritten: Vec::new(),
            chip_order: Vec::with_capacity(g.nchips()),
            gc_ppas: Vec::with_capacity(superblock),
            gc_lpns: Vec::with_capacity(superblock),
        }
    }
}
