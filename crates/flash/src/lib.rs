//! NAND flash media model for the ConZone emulator.
//!
//! This crate implements the physical substrate of paper §II-A: a flash
//! array of channels × chips × blocks × 16 KiB pages, with heterogeneous
//! cell types (the first *n* blocks of every chip are SLC), the Table-II
//! timing model, per-channel bandwidth, NAND programming rules (sequential
//! programming, whole-unit programming on multi-level cells, 4 KiB partial
//! programming on SLC), per-block wear counters, and an optional payload
//! store for read-after-write verification.
//!
//! ```
//! use conzone_flash::FlashArray;
//! use conzone_types::{ChipId, DeviceConfig, SimTime};
//!
//! let mut array = FlashArray::new(&DeviceConfig::tiny_for_tests());
//! // Program one 64 KiB unit into the first normal block of chip 0.
//! let out = array.program_unit(SimTime::ZERO, ChipId(0), 4, None)?;
//! assert_eq!(out.slices, 16);
//! # Ok::<(), conzone_flash::FlashError>(())
//! ```

// Unit tests assert and cast freely; the panic-family denies and the
// truncating-cast ban (Cargo.toml `[lints]`) are meant for library code
// reachable from the simulator.
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used, clippy::panic))]
#![cfg_attr(test, allow(clippy::cast_possible_truncation))]
#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod array;
mod bitvec;
mod block;
mod error;
mod fault;
mod store;
mod wear;

pub use array::{FlashArray, FlashStats, ProgramOutcome, ReadOutcome};
pub use block::Block;
pub use error::FlashError;
pub use store::DataStore;
pub use wear::{erase_budget, RegionWear, WearReport};
