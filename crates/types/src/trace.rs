//! Device-internal event tracing (the `conzone-trace` layer).
//!
//! End-of-run aggregates ([`Counters`](crate::Counters)) say *how much*
//! happened; this module says *when*. Every device model emits typed
//! [`DeviceEvent`]s through one cheap [`Probe`] handle as it advances the
//! simulated clock, and any [`TraceSink`] implementation can collect them
//! — a bounded ring buffer for export (see `conzone_sim::trace`).
//!
//! Emission is a single `Option` test when no sink is attached
//! ([`Probe::disabled`]), so instrumented hot paths cost nothing in the
//! default configuration.

use std::fmt;
use std::sync::Arc;

use crate::addr::ZoneId;
use crate::config::CellType;
use crate::time::SimTime;

/// Why a write buffer was flushed to media.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FlushKind {
    /// A whole programming unit went to its canonical location (path ①/③).
    Full,
    /// A sub-unit remainder was evicted into SLC (path ②) — a buffer
    /// conflict, an explicit flush, or a zone close forced it out early.
    Premature,
}

/// Outcome of one L2P cache lookup.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum L2pOutcome {
    /// Hit on a zone-granularity entry.
    HitZone,
    /// Hit on a chunk-granularity entry.
    HitChunk,
    /// Hit on a page-granularity entry.
    HitPage,
    /// Miss — mapping entries must be fetched from flash.
    Miss,
}

/// What a media operation did.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MediaOp {
    /// Page/unit program.
    Program,
    /// Page read.
    Read,
    /// Superblock erase.
    Erase,
}

/// Which fault class the fault plane injected.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultKind {
    /// A program operation failed; the affected slices are burned and the
    /// data must be re-issued elsewhere.
    Program,
    /// A block erase failed; the block is retired on the spot.
    Erase,
}

/// One device-internal event, stamped by the emitting [`Probe`] with the
/// nanosecond simulation clock.
///
/// Variants mirror the paper's mechanisms (§III): write-buffer flushes and
/// conflicts, the SLC secondary buffer (combines, patches), composite GC,
/// the hybrid L2P path, the persistence log, raw media operations, and
/// zone resets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeviceEvent {
    /// A write buffer flushed `slices` slices of `zone` (full or
    /// premature).
    BufferFlush {
        /// Zone owning the flushed data.
        zone: ZoneId,
        /// Full-unit canonical flush or premature SLC eviction.
        kind: FlushKind,
        /// Slices flushed.
        slices: u64,
    },
    /// Two zones mapped to the same buffer collided; the previous owner's
    /// data is being evicted.
    BufferConflict {
        /// Zone whose incoming write triggered the eviction.
        zone: ZoneId,
    },
    /// Staged SLC fragments were read back and combined with buffered data
    /// into a full programming unit (path ③).
    SlcCombine {
        /// Zone being combined.
        zone: ZoneId,
        /// Staged slices read back from SLC.
        staged_slices: u64,
    },
    /// Zone-tail slices beyond the backing superblock were patched into
    /// reserved SLC (§III-E).
    PatchSlice {
        /// Zone being patched.
        zone: ZoneId,
        /// Patched slices.
        slices: u64,
    },
    /// An SLC garbage-collection pass started.
    GcBegin {
        /// Live slices in the victim superblock (to migrate).
        valid_slices: u64,
    },
    /// The SLC garbage-collection pass finished.
    GcEnd {
        /// Slices actually migrated.
        migrated_slices: u64,
    },
    /// An L2P cache lookup resolved.
    L2pLookup {
        /// Hit level or miss.
        outcome: L2pOutcome,
    },
    /// The L2P cache evicted entries to make room.
    L2pEviction {
        /// Entries evicted.
        count: u64,
    },
    /// The L2P persistence log reached its threshold and flushed a mapping
    /// page to flash (§III-E).
    L2pLogFlush,
    /// A raw media operation (program / read / erase) on `cell` media.
    Media {
        /// Operation kind.
        op: MediaOp,
        /// Cell type of the target media.
        cell: CellType,
        /// Bytes transferred (0 for erases).
        bytes: u64,
    },
    /// A zone was reset (direct superblock erase, §III-D).
    ZoneReset {
        /// The reset zone.
        zone: ZoneId,
    },
    /// The fault plane injected a fault into a media operation.
    FaultInjected {
        /// Fault class.
        kind: FaultKind,
        /// Chip holding the affected block.
        chip: u64,
        /// Block index within the chip.
        block: u64,
    },
    /// A block was permanently retired (failed erase, or grown bad after
    /// repeated program failures) and left its superblock's usable set.
    BlockRetired {
        /// Chip holding the retired block.
        chip: u64,
        /// Block index within the chip.
        block: u64,
    },
    /// A data page read needed read-retry: `steps` extra stepped senses.
    ReadRetry {
        /// Retry steps performed (each costs the configured step latency).
        steps: u32,
    },
    /// Power was cut: volatile write buffers dropped, `lost_slices`
    /// acknowledged-but-unflushed slices discarded.
    PowerCut {
        /// Buffered slices lost across all zones.
        lost_slices: u64,
    },
    /// Remount replayed the SLC secondary buffer and L2P log after a power
    /// cut, rebuilding the mapping of `recovered_slices` slices.
    RecoveryReplay {
        /// Slices whose mapping was recovered from non-volatile SLC.
        recovered_slices: u64,
        /// Slices confirmed lost (they only existed in volatile buffers).
        lost_slices: u64,
    },
    /// A host command entered a submission queue — the NVMe-like doorbell
    /// of the queue-pair host model.
    QueueSubmit {
        /// Submission queue the command entered.
        queue: u64,
        /// Commands waiting in that queue after this one joined.
        backlog: u64,
    },
    /// The controller's serial command-fetch stage granted one queue's
    /// head command after arbitration.
    QueueArbitrate {
        /// Queue whose head command won arbitration.
        queue: u64,
        /// Nanoseconds the command waited between doorbell and grant.
        wait_ns: u64,
    },
    /// A queued command finished and its completion was posted to the
    /// completion queue.
    QueueComplete {
        /// Queue the command belonged to.
        queue: u64,
        /// Commands still outstanding on that queue pair afterwards.
        inflight: u64,
    },
}

/// [`DeviceEvent::kind_name`] of each [`DeviceEvent::kind_index`].
const KIND_NAMES: [&str; DeviceEvent::KIND_COUNT] = [
    "buffer_flush_full",
    "buffer_flush_premature",
    "buffer_conflict",
    "slc_combine",
    "patch_slice",
    "gc_begin",
    "gc_end",
    "l2p_miss",
    "l2p_hit",
    "l2p_eviction",
    "l2p_log_flush",
    "media_program",
    "media_read",
    "media_erase",
    "zone_reset",
    "fault_injected",
    "block_retired",
    "read_retry",
    "power_cut",
    "recovery_replay",
    "queue_submit",
    "queue_arbitrate",
    "queue_complete",
];

// A `_` arm in this mapping would absorb a newly added variant instead of
// failing the build (E0004), and an exporter would silently miss it.
#[deny(clippy::wildcard_enum_match_arm)]
impl DeviceEvent {
    /// Stable short name of the event kind, used by the exporters.
    pub fn kind_name(&self) -> &'static str {
        KIND_NAMES[self.kind_index()]
    }

    /// Dense index of the event kind, in `0..KIND_COUNT`.
    pub fn kind_index(&self) -> usize {
        match self {
            DeviceEvent::BufferFlush {
                kind: FlushKind::Full,
                ..
            } => 0,
            DeviceEvent::BufferFlush {
                kind: FlushKind::Premature,
                ..
            } => 1,
            DeviceEvent::BufferConflict { .. } => 2,
            DeviceEvent::SlcCombine { .. } => 3,
            DeviceEvent::PatchSlice { .. } => 4,
            DeviceEvent::GcBegin { .. } => 5,
            DeviceEvent::GcEnd { .. } => 6,
            DeviceEvent::L2pLookup {
                outcome: L2pOutcome::Miss,
            } => 7,
            DeviceEvent::L2pLookup { .. } => 8,
            DeviceEvent::L2pEviction { .. } => 9,
            DeviceEvent::L2pLogFlush => 10,
            DeviceEvent::Media {
                op: MediaOp::Program,
                ..
            } => 11,
            DeviceEvent::Media {
                op: MediaOp::Read, ..
            } => 12,
            DeviceEvent::Media {
                op: MediaOp::Erase, ..
            } => 13,
            DeviceEvent::ZoneReset { .. } => 14,
            DeviceEvent::FaultInjected { .. } => 15,
            DeviceEvent::BlockRetired { .. } => 16,
            DeviceEvent::ReadRetry { .. } => 17,
            DeviceEvent::PowerCut { .. } => 18,
            DeviceEvent::RecoveryReplay { .. } => 19,
            DeviceEvent::QueueSubmit { .. } => 20,
            DeviceEvent::QueueArbitrate { .. } => 21,
            DeviceEvent::QueueComplete { .. } => 22,
        }
    }

    /// Number of distinct [`DeviceEvent::kind_index`] buckets.
    pub const KIND_COUNT: usize = 23;
}

/// A timestamped event as stored by collecting sinks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceRecord {
    /// Simulation time of the event (nanoseconds since run start).
    pub time: SimTime,
    /// The event.
    pub event: DeviceEvent,
}

/// Receives the event stream of one or more devices.
///
/// `record` takes `&self` so a sink can be shared between a device and the
/// harness that later drains it; implementations use interior mutability
/// (a mutex in `conzone_sim`'s collecting sinks).
pub trait TraceSink {
    /// Called once per event, in non-decreasing simulation-time order per
    /// device.
    fn record(&self, time: SimTime, event: DeviceEvent);
}

/// The handle device models emit through.
///
/// Cloning is cheap (an `Arc` bump); a disabled probe is a `None` check
/// per event. Devices hold a probe and the harness decides whether (and
/// where) events flow by attaching a sink.
#[derive(Clone, Default)]
pub struct Probe {
    sink: Option<Arc<dyn TraceSink + Send + Sync>>,
}

impl Probe {
    /// A probe with no sink: every `emit` is a branch and nothing more.
    pub fn disabled() -> Probe {
        Probe { sink: None }
    }

    /// A probe forwarding to `sink`.
    pub fn attached(sink: Arc<dyn TraceSink + Send + Sync>) -> Probe {
        Probe { sink: Some(sink) }
    }

    /// Whether a sink is attached.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.sink.is_some()
    }

    /// Emits one event at simulation time `t`.
    #[inline]
    pub fn emit(&self, t: SimTime, event: DeviceEvent) {
        if let Some(sink) = &self.sink {
            sink.record(t, event);
        }
    }
}

impl fmt::Debug for Probe {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Probe({})",
            if self.enabled() {
                "attached"
            } else {
                "disabled"
            }
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_probe_is_inert() {
        let p = Probe::disabled();
        assert!(!p.enabled());
        p.emit(
            SimTime::from_nanos(5),
            DeviceEvent::L2pLookup {
                outcome: L2pOutcome::Miss,
            },
        );
    }

    #[test]
    fn kind_names_are_distinct_for_distinct_indices() {
        let events = [
            DeviceEvent::BufferFlush {
                zone: ZoneId(0),
                kind: FlushKind::Full,
                slices: 1,
            },
            DeviceEvent::BufferFlush {
                zone: ZoneId(0),
                kind: FlushKind::Premature,
                slices: 1,
            },
            DeviceEvent::BufferConflict { zone: ZoneId(0) },
            DeviceEvent::SlcCombine {
                zone: ZoneId(0),
                staged_slices: 1,
            },
            DeviceEvent::PatchSlice {
                zone: ZoneId(0),
                slices: 1,
            },
            DeviceEvent::GcBegin { valid_slices: 1 },
            DeviceEvent::GcEnd { migrated_slices: 1 },
            DeviceEvent::L2pLookup {
                outcome: L2pOutcome::Miss,
            },
            DeviceEvent::L2pLookup {
                outcome: L2pOutcome::HitZone,
            },
            DeviceEvent::L2pEviction { count: 1 },
            DeviceEvent::L2pLogFlush,
            DeviceEvent::Media {
                op: MediaOp::Program,
                cell: CellType::Slc,
                bytes: 4096,
            },
            DeviceEvent::Media {
                op: MediaOp::Read,
                cell: CellType::Tlc,
                bytes: 4096,
            },
            DeviceEvent::Media {
                op: MediaOp::Erase,
                cell: CellType::Qlc,
                bytes: 0,
            },
            DeviceEvent::ZoneReset { zone: ZoneId(0) },
            DeviceEvent::FaultInjected {
                kind: FaultKind::Program,
                chip: 0,
                block: 3,
            },
            DeviceEvent::BlockRetired { chip: 1, block: 4 },
            DeviceEvent::ReadRetry { steps: 2 },
            DeviceEvent::PowerCut { lost_slices: 7 },
            DeviceEvent::RecoveryReplay {
                recovered_slices: 5,
                lost_slices: 7,
            },
            DeviceEvent::QueueSubmit {
                queue: 0,
                backlog: 2,
            },
            DeviceEvent::QueueArbitrate {
                queue: 1,
                wait_ns: 350,
            },
            DeviceEvent::QueueComplete {
                queue: 0,
                inflight: 3,
            },
        ];
        let mut seen_idx = std::collections::BTreeSet::new();
        let mut seen_name = std::collections::BTreeSet::new();
        for e in events {
            assert!(e.kind_index() < DeviceEvent::KIND_COUNT);
            seen_idx.insert(e.kind_index());
            seen_name.insert(e.kind_name());
        }
        assert_eq!(seen_idx.len(), DeviceEvent::KIND_COUNT);
        assert_eq!(seen_name.len(), DeviceEvent::KIND_COUNT);
    }
}
