//! Flash-translation-layer building blocks for the ConZone emulator.
//!
//! Implements the read-path machinery of paper §III-C:
//!
//! * [`MappingTable`] — the page-granularity L2P table whose two reserved
//!   *map bits* record page / chunk / zone aggregation, with the
//!   canonical-placement rule that gates aggregation;
//! * [`L2pCache`] — the limited volatile cache with LZA → LCA → LPA lookup,
//!   LRU replacement and optional pinning of aggregated entries;
//! * [`MapBitmap`] — the in-SRAM map-bit mirror of the Bitmap strategy, as
//!   a structure to size and time (no device keeps one: what a miss costs
//!   under Bitmap is [`mapping_fetches`]);
//! * [`mapping_fetches`] — the per-miss flash-fetch cost of each
//!   [`SearchStrategy`](conzone_types::SearchStrategy);
//! * [`LruCache`] — the pinned-LRU set of packed `u64` keys underlying the
//!   L2P cache (also the Legacy baseline's prefetching cache);
//! * [`OwnerMap`] — the dense reverse map (physical slice → logical page)
//!   garbage collection reads, over ConZone's SLC blocks and over the
//!   Legacy baseline's normal blocks;
//! * [`WriteBuffer`] — the superpage-sized volatile write buffer of
//!   §III-B that zones share, in ConZone and in the FEMU baseline.
//!
//! ```
//! use conzone_ftl::{L2pCache, LookupResult, MappingTable};
//! use conzone_types::{Lpn, MapGranularity, Ppa};
//!
//! let mut table = MappingTable::new(64, 4, 16);
//! let mut cache = L2pCache::new(8, 4, 16);
//! for i in 0..4 {
//!     table.set(Lpn(i), Ppa(100 + i), true);
//! }
//! assert!(table.try_aggregate_chunk(Lpn(0)));
//! cache.insert(Lpn(0), MapGranularity::Chunk, false);
//! assert_eq!(cache.lookup(Lpn(3)), LookupResult::Hit(MapGranularity::Chunk));
//! ```

// Unit tests assert and cast freely; the panic-family denies and the
// truncating-cast ban (Cargo.toml `[lints]`) are meant for library code
// reachable from the simulator.
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used, clippy::panic))]
#![cfg_attr(test, allow(clippy::cast_possible_truncation))]
#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod bitmap;
mod buffer;
mod cache;
mod lru;
mod mapping;
mod owner;
mod strategy;

pub use bitmap::MapBitmap;
pub use buffer::WriteBuffer;
pub use cache::{L2pCache, LookupResult};
pub use lru::{InsertOutcome, LruCache};
pub use mapping::{MapEntry, MappingTable};
pub use owner::{block_runs, OwnerMap};
pub use strategy::{mapping_fetches, pins_aggregates};

#[cfg(test)]
mod proptests;
