//! Reusable scratch buffers for the per-IO hot paths.
//!
//! The read, write and GC paths need short-lived lists (gathered PPAs,
//! LPN runs, chip placement orders). Allocating them per operation would
//! break the steady-state zero-allocation contract checked by the
//! `hot-path-effects` lint rule and `tests/zero_alloc.rs`, so
//! `ConZone` owns one set of buffers that the paths `mem::take`, clear,
//! fill and put back. Capacity grows during warmup and then stabilises.
//!
//! Fields taken concurrently must be distinct: the write path holds
//! `lpns`/`chip_order` while GC (reachable from `program_slc_batch`)
//! holds the `gc_*` buffers, so the two never alias.

use conzone_types::{DeviceConfig, Lpn, Ppa};

/// The per-device scratch pool. All buffers are logically empty between
/// operations; only their capacity persists.
#[derive(Debug, Default)]
pub(crate) struct IoScratch {
    /// Read path: per-run source slots.
    pub read_slots: Vec<crate::read::Slot>,
    /// Read path: PPAs gathered for the flash data read.
    pub read_ppas: Vec<Ppa>,
    /// Write path: LPN runs handed to `program_slc_batch`.
    pub lpns: Vec<Lpn>,
    /// Write path: staged-slice PPAs read back for an SLC combine.
    pub ppas: Vec<Ppa>,
    /// Write path: idle-first chip placement order.
    pub chip_order: Vec<usize>,
    /// GC: the victim's live PPAs.
    pub gc_ppas: Vec<Ppa>,
    /// GC: owners of the migrating slices.
    pub gc_lpns: Vec<Lpn>,
    /// GC: idle-first chip placement order for migration.
    pub gc_chip_order: Vec<usize>,
}

impl IoScratch {
    /// Pre-sizes the buffers whose peak demand is fixed by the geometry,
    /// so their first large use (typically the first GC pass, or the first
    /// zone-tail patch) does not allocate mid-workload. The read-path
    /// buffers scale with host request size instead and are left to grow
    /// on first use.
    pub(crate) fn for_config(cfg: &DeviceConfig) -> IoScratch {
        let g = &cfg.geometry;
        let superpage = g.slices_per_superpage() as usize;
        let superblock = g.slices_per_block() as usize * g.nchips();
        let patch = cfg.zone_patch_slices() as usize;
        IoScratch {
            read_slots: Vec::new(),
            read_ppas: Vec::new(),
            lpns: Vec::with_capacity(superpage.max(patch)),
            ppas: Vec::with_capacity(g.slices_per_unit() + superpage),
            chip_order: Vec::with_capacity(g.nchips()),
            gc_ppas: Vec::with_capacity(superblock),
            gc_lpns: Vec::with_capacity(superblock),
            gc_chip_order: Vec::with_capacity(g.nchips()),
        }
    }
}
