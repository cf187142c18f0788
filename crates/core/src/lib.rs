//! # conzone-core
//!
//! The ConZone device model: a consumer-grade zoned flash storage emulator
//! (reproduction of *ConZone: A Zoned Flash Storage Emulator for Consumer
//! Devices*, DATE 2025).
//!
//! [`ConZone`] implements the paper's §III internals on top of the
//! [`conzone_flash`] media model and [`conzone_ftl`] mapping machinery:
//!
//! * **Write path** (§III-B) — zones share a limited set of superpage-sized
//!   volatile buffers (`zone mod n` mapping); buffer conflicts flush
//!   prematurely into the SLC secondary buffer, and staged SLC fragments
//!   are combined back into the zone's reserved normal blocks once a full
//!   programming unit accumulates.
//! * **Read path** (§III-C) — hybrid page/chunk/zone mapping with a small
//!   LRU L2P cache; misses fetch mapping entries from flash using the
//!   Bitmap, Multiple or Pinned search strategy of §IV-D.
//! * **Erase path** (§III-D) — full GC inside the SLC region, direct
//!   superblock erase on zone reset.
//!
//! ```
//! use conzone_core::ConZone;
//! use conzone_types::{DeviceConfig, IoRequest, SimTime, StorageDevice, ZonedDevice, ZoneId};
//!
//! let mut dev = ConZone::new(DeviceConfig::tiny_for_tests());
//! let c = dev.submit(SimTime::ZERO, &IoRequest::write(0, 128 * 1024))?;
//! assert_eq!(dev.zone_info(ZoneId(0))?.write_pointer, 128 * 1024);
//! let c = dev.submit(c.finished, &IoRequest::read(0, 8192))?;
//! assert!(c.latency().as_nanos() > 0);
//! # Ok::<(), conzone_types::DeviceError>(())
//! ```

// Unit tests assert and cast freely; the panic-family denies and the
// truncating-cast ban (Cargo.toml `[lints]`) are meant for library code
// reachable from the simulator.
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used, clippy::panic))]
#![cfg_attr(test, allow(clippy::cast_possible_truncation))]
#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod arbiter;
mod breakdown;
mod device;
mod gc;
mod heatmap;
mod invariants;
mod lifecycle;
mod power;
mod read;
mod scratch;
mod slc;
mod write;
mod zone;

pub use arbiter::{Arbiter, ArbiterKind, QueueFrontEnd};
pub use breakdown::TimeBreakdown;
pub use device::ConZone;
pub use heatmap::{BlockHeat, HeatmapSnapshot, ZoneHeat};

#[cfg(test)]
mod proptests;
#[cfg(test)]
mod tests;
