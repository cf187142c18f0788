//! Discrete-event simulation kernel for the ConZone emulator.
//!
//! The emulator is an *analytic* DES: device models compute operation
//! completion times from serially reusable [`Resource`]s (chips, channels)
//! instead of stepping through micro-events, and host workload generators
//! advance through an [`EventQueue`]. Randomness comes from the
//! deterministic [`SimRng`], and latency distributions are collected in
//! [`LatencyHistogram`]s.
//!
//! ```
//! use conzone_sim::{EventQueue, LatencyHistogram, Resource, SimRng};
//! use conzone_types::{SimDuration, SimTime};
//!
//! // A one-resource pipeline: ten 32 us reads back to back.
//! let mut chip = Resource::new();
//! let mut lat = LatencyHistogram::new();
//! for _ in 0..10 {
//!     let r = chip.acquire(SimTime::ZERO, SimDuration::from_micros(32));
//!     lat.record(r.end - SimTime::ZERO);
//! }
//! assert_eq!(lat.summary().max, SimDuration::from_micros(320));
//! ```

// Unit tests assert and cast freely; the panic-family denies and the
// truncating-cast ban (Cargo.toml `[lints]`) are meant for library code
// reachable from the simulator.
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used, clippy::panic))]
#![cfg_attr(test, allow(clippy::cast_possible_truncation))]
#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod export;
pub mod json;
mod queue;
mod resource;
mod rng;
mod span;
mod stats;
mod trace;

pub use queue::EventQueue;
pub use resource::{Reservation, Resource};
pub use rng::SimRng;
pub use span::{attribute_spans, breakdown_from_spans, KindAttribution, SpanBuffer};
pub use stats::{LatencyHistogram, LatencySummary};
pub use trace::{MetricsSample, MetricsSampler, RingBufferSink};

#[cfg(test)]
mod proptests;
