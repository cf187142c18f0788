//! # ConZone
//!
//! A zoned flash storage emulator for consumer devices — a from-scratch
//! Rust reproduction of *ConZone: A Zoned Flash Storage Emulator for
//! Consumer Devices* (DATE 2025).
//!
//! This facade crate re-exports the whole workspace:
//!
//! * [`ConZone`] — the paper's device model: limited write buffers, SLC
//!   secondary buffering, hybrid page/chunk/zone mapping with a small L2P
//!   cache, and composite garbage collection;
//! * [`LegacyDevice`] — the traditional page-mapped consumer flash
//!   baseline with device-side GC and a prefetching L2P cache;
//! * [`FemuZns`] — the FEMU-like ZNS baseline reproducing the modelling
//!   gaps the paper identifies (VM jitter, no channel bandwidth, no FTL);
//! * [`host`] — fio-like workload generation, the multi-thread runner and
//!   the F2FS-like six-log allocator;
//! * [`flash`], [`ftl`], [`sim`], [`types`] — the substrates.
//!
//! ## Quickstart
//!
//! ```
//! use conzone::host::{run_job, AccessPattern, FioJob};
//! use conzone::types::{DeviceConfig, StorageDevice};
//! use conzone::ConZone;
//!
//! let mut device = ConZone::new(DeviceConfig::tiny_for_tests());
//! let job = FioJob::new(AccessPattern::SeqWrite, 256 * 1024)
//!     .zone_bytes(device.config().zone_size_bytes())
//!     .bytes_per_thread(2 * 1024 * 1024);
//! let report = run_job(&mut device, &job)?;
//! assert!(report.bandwidth_mibs() > 0.0);
//! # Ok::<(), conzone::host::HostError>(())
//! ```
//!
//! See `DESIGN.md` for the architecture and `EXPERIMENTS.md` for the
//! paper-versus-measured record of every table and figure.

// The facade has no `[lints]` table (its tests/ and examples/ would inherit
// it); the truncating-cast ban of the member crates is repeated here.
#![cfg_attr(not(test), warn(clippy::cast_possible_truncation))]
#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use conzone_core::{
    Arbiter, ArbiterKind, BlockHeat, ConZone, HeatmapSnapshot, QueueFrontEnd, TimeBreakdown,
    ZoneHeat,
};
pub use conzone_femu::FemuZns;
pub use conzone_legacy::LegacyDevice;

/// Shared vocabulary types: addresses, geometry, configuration, traits.
pub use conzone_types as types;

/// Discrete-event simulation kernel: clock, resources, RNG, histograms.
pub use conzone_sim as sim;

/// NAND flash media model.
pub use conzone_flash as flash;

/// FTL building blocks: mapping table, L2P cache, search strategies.
pub use conzone_ftl as ftl;

/// Host-side harness: fio-like jobs, runner, F2FS-lite.
pub use conzone_host as host;
