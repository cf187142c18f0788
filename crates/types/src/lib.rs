//! Shared vocabulary types for the ConZone emulator workspace.
//!
//! This crate defines the units every other crate speaks in:
//!
//! * [`SimTime`] / [`SimDuration`] — the simulated nanosecond clock;
//! * [`Lpn`], [`Ppa`], [`ZoneId`], [`ChunkId`], … — logical and physical
//!   address newtypes at the 4 KiB slice granularity;
//! * [`Geometry`] — the physical organisation of the flash array (channels,
//!   chips, blocks, pages, programming units, superblocks);
//! * [`DeviceConfig`] — a validated device configuration; the paper's
//!   Table II media timings are constants ([`CellType::latency`]);
//! * [`StorageDevice`] / [`ZonedDevice`] — the trait all device models
//!   implement so the host harness can drive them interchangeably;
//! * [`ZoneTable`] — the zone states, write pointers and admission rules
//!   both zoned models answer with;
//! * [`Counters`] — the statistics record from which bandwidth, write
//!   amplification and cache hit rates are derived.
//!
//! ```
//! use conzone_types::{DeviceConfig, Geometry, MapGranularity};
//!
//! let cfg = DeviceConfig::builder(Geometry::tiny())
//!     .chunk_bytes(256 * 1024)
//!     .max_aggregation(MapGranularity::Chunk)
//!     .build()?;
//! assert_eq!(cfg.zone_size_bytes(), 1024 * 1024);
//! # Ok::<(), conzone_types::ConfigError>(())
//! ```

// Unit tests cast freely; the truncating-cast ban (`[workspace.lints]`) is
// meant for library code reachable from the simulator.
#![cfg_attr(test, allow(clippy::cast_possible_truncation))]
#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod addr;
mod config;
mod counters;
mod device;
mod error;
mod geometry;
mod span;
mod time;
mod trace;
mod zone;

pub use addr::{
    to_index, ChannelId, ChipId, ChunkId, Lpn, LpnRange, Ppa, SuperblockId, ZoneId, MAX_SLICES,
    SLICE_BYTES, SLICE_LEN,
};
pub use config::{
    CellType, DeviceConfig, DeviceConfigBuilder, FaultConfig, MapGranularity, MediaLatency,
    SearchStrategy, CHANNEL_BYTES_PER_SEC, HOST_OVERHEAD, L2P_ENTRY_BYTES, MAPPING_MEDIA,
};
pub use counters::Counters;
pub use device::{
    Completion, IoKind, IoRequest, RecoveryReport, StorageDevice, ZoneInfo, ZoneState, ZonedDevice,
};
pub use error::{ConfigError, DeviceError};
pub use geometry::{Geometry, PpaParts};
pub use span::{SpanKind, SpanRecord, SpanRecorder, SpanSink};
pub use time::{SimDuration, SimTime};
pub use trace::{
    DeviceEvent, FaultKind, FlushKind, L2pOutcome, MediaOp, Probe, TraceRecord, TraceSink,
};
pub use zone::ZoneTable;

#[cfg(test)]
mod proptests;
