//! The device-model interface the host harness drives.
//!
//! Every emulated device — ConZone, the Legacy baseline and the FEMU-like
//! baseline — implements [`StorageDevice`]; zoned models additionally
//! implement [`ZonedDevice`]. Devices are *analytic* discrete-event models:
//! a request submitted at simulated time `now` returns a [`Completion`]
//! carrying the simulated finish time, computed from the device's internal
//! resource reservations. The host must submit requests in non-decreasing
//! `now` order (the DES event loop guarantees this).

use bytes::Bytes;

use crate::addr::{LpnRange, ZoneId, SLICE_BYTES};
use crate::config::DeviceConfig;
use crate::counters::Counters;
use crate::error::DeviceError;
use crate::time::{SimDuration, SimTime};
use crate::trace::Probe;

/// Direction of an I/O request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IoKind {
    /// Host read.
    Read,
    /// Host write (zoned devices require it to land on a write pointer).
    Write,
    /// Zone append (NVMe ZNS): the request's offset selects the *zone*;
    /// the device picks the actual location at the write pointer and
    /// reports it in [`Completion::assigned_offset`]. Lets multiple
    /// writers share a zone without coordinating the pointer.
    Append,
}

/// One host I/O request at 4 KiB sector granularity.
#[derive(Debug, Clone)]
pub struct IoRequest {
    /// Direction.
    pub kind: IoKind,
    /// Byte offset into the logical address space; must be 4 KiB aligned.
    pub offset: u64,
    /// Length in bytes; must be a non-zero multiple of 4 KiB.
    pub len: u64,
    /// Payload for writes when the device stores data
    /// ([`DeviceConfig::data_backing`]); ignored for reads.
    pub data: Option<Bytes>,
}

impl IoRequest {
    /// Creates a read request.
    pub fn read(offset: u64, len: u64) -> IoRequest {
        IoRequest {
            kind: IoKind::Read,
            offset,
            len,
            data: None,
        }
    }

    /// Creates a write request without payload (timing-only mode).
    pub fn write(offset: u64, len: u64) -> IoRequest {
        IoRequest {
            kind: IoKind::Write,
            offset,
            len,
            data: None,
        }
    }

    /// Creates a write request carrying payload bytes.
    pub fn write_data(offset: u64, data: Bytes) -> IoRequest {
        IoRequest {
            kind: IoKind::Write,
            offset,
            len: data.len() as u64,
            data: Some(data),
        }
    }

    /// Creates a zone-append request targeting the zone containing
    /// `zone_start` (conventionally the zone's first byte).
    pub fn append(zone_start: u64, len: u64) -> IoRequest {
        IoRequest {
            kind: IoKind::Append,
            offset: zone_start,
            len,
            data: None,
        }
    }

    /// Creates a zone-append request carrying payload bytes.
    pub fn append_data(zone_start: u64, data: Bytes) -> IoRequest {
        IoRequest {
            kind: IoKind::Append,
            offset: zone_start,
            len: data.len() as u64,
            data: Some(data),
        }
    }

    /// Validates alignment, length and (for writes with payload) data size.
    ///
    /// # Errors
    ///
    /// Returns [`DeviceError::Unaligned`] or
    /// [`DeviceError::DataLengthMismatch`].
    pub fn validate(&self) -> Result<(), DeviceError> {
        if self.len == 0
            || !self.offset.is_multiple_of(SLICE_BYTES)
            || !self.len.is_multiple_of(SLICE_BYTES)
        {
            return Err(DeviceError::Unaligned {
                offset: self.offset,
                len: self.len,
            });
        }
        if let Some(data) = &self.data {
            if data.len() as u64 != self.len {
                return Err(DeviceError::DataLengthMismatch {
                    expected: self.len,
                    got: data.len() as u64,
                });
            }
        }
        Ok(())
    }

    /// The front door of every model's `submit`: validates the request
    /// and returns the logical pages it covers on a device of `capacity`
    /// bytes.
    ///
    /// # Errors
    ///
    /// What [`IoRequest::validate`] returns, then
    /// [`DeviceError::OutOfRange`] for a request that ends past
    /// `capacity` (or past the end of the `u64` byte space).
    #[inline]
    pub fn admit(&self, capacity: u64) -> Result<LpnRange, DeviceError> {
        self.validate()?;
        match self.offset.checked_add(self.len) {
            Some(end) if end <= capacity => {}
            _ => {
                return Err(DeviceError::OutOfRange {
                    offset: self.offset,
                    capacity,
                })
            }
        }
        LpnRange::covering_bytes(self.offset, self.len).ok_or_else(|| {
            DeviceError::Internal("validated request covers no logical pages".to_string())
        })
    }
}

/// Result of a completed request.
#[derive(Debug, Clone)]
pub struct Completion {
    /// When the request was submitted.
    pub submitted: SimTime,
    /// When the device finished it.
    pub finished: SimTime,
    /// Data read back, when the device stores data and the request was a
    /// read.
    pub data: Option<Bytes>,
    /// Where a zone append actually landed ([`IoKind::Append`] only).
    pub assigned_offset: Option<u64>,
}

impl Completion {
    /// A completion that carries no data and no append placement: what
    /// every command but a data-backed read and a zone append answers.
    #[inline]
    pub fn at(submitted: SimTime, finished: SimTime) -> Completion {
        Completion {
            submitted,
            finished,
            data: None,
            assigned_offset: None,
        }
    }

    /// End-to-end latency of the request.
    #[inline]
    pub fn latency(&self) -> SimDuration {
        self.finished - self.submitted
    }
}

/// Lifecycle state of a zone (a simplified NVMe ZNS state machine).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ZoneState {
    /// No data; write pointer at the start.
    Empty,
    /// Opened (implicitly by a write or explicitly); write pointer inside
    /// the zone. Counts against the open-zone limit.
    Open,
    /// Explicitly closed: holds data and a write pointer but releases its
    /// open-zone slot (and, in ConZone, its write buffer).
    Closed,
    /// Write pointer reached the zone capacity, or the zone was finished.
    Full,
}

/// Snapshot of one zone's state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ZoneInfo {
    /// The zone.
    pub id: ZoneId,
    /// Lifecycle state.
    pub state: ZoneState,
    /// Write pointer as a byte offset from the zone start.
    pub write_pointer: u64,
    /// Writable capacity in bytes (equals the zone size in this model).
    pub capacity: u64,
    /// Zone size in bytes: the backing superblock rounded up to a power of
    /// two on ConZone (paper §III-E), the bare superblock on FEMU.
    pub size: u64,
    /// Byte offset of the zone start in the logical address space.
    pub start: u64,
}

impl core::fmt::Display for ZoneInfo {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "{} {:?} wp={}/{} KiB",
            self.id,
            self.state,
            self.write_pointer >> 10,
            self.size >> 10
        )
    }
}

/// A block-interface device model driven by simulated time.
pub trait StorageDevice {
    /// The device's configuration.
    fn config(&self) -> &DeviceConfig;

    /// Total logical capacity in bytes.
    fn capacity_bytes(&self) -> u64 {
        self.config().capacity_bytes()
    }

    /// Submits one request at simulated time `now` and returns its
    /// completion. `now` must be non-decreasing across calls.
    ///
    /// # Errors
    ///
    /// Propagates [`DeviceError`] for malformed or unserviceable requests;
    /// see the error type for the full set.
    fn submit(&mut self, now: SimTime, request: &IoRequest) -> Result<Completion, DeviceError>;

    /// Flushes volatile write buffers to non-volatile media (NVMe Flush /
    /// fsync). On ConZone, sub-unit remainders take the premature path
    /// into SLC (paper §II-A: synchronous writes are what the SLC
    /// secondary buffer exists for); models without an SLC region must
    /// pad out programming units.
    ///
    /// # Errors
    ///
    /// Propagates [`DeviceError`] (e.g. out of SLC space).
    fn flush(&mut self, now: SimTime) -> Result<Completion, DeviceError>;

    /// Cumulative statistics.
    fn counters(&self) -> Counters;

    /// Short model name for reports (e.g. `"conzone"`).
    fn model_name(&self) -> &'static str;

    /// Attaches a trace probe: the model's internal events are emitted to
    /// it from now on; pass [`Probe::disabled`] to detach. The default is
    /// for a device with no events to emit (a wrapper, a test double).
    fn set_probe(&mut self, _probe: Probe) {}
}

/// A device exposing the zoned-namespace interface.
pub trait ZonedDevice: StorageDevice {
    /// Number of zones.
    fn zone_count(&self) -> usize;

    /// Zone size in bytes.
    fn zone_size(&self) -> u64;

    /// Snapshot of a zone.
    ///
    /// # Errors
    ///
    /// Returns [`DeviceError::OutOfRange`] for an invalid id.
    fn zone_info(&self, zone: ZoneId) -> Result<ZoneInfo, DeviceError>;

    /// Resets a zone: erases its backing blocks and rewinds the write
    /// pointer (paper §III-D, E.2).
    ///
    /// # Errors
    ///
    /// Returns [`DeviceError::OutOfRange`] for an invalid id.
    fn reset_zone(&mut self, now: SimTime, zone: ZoneId) -> Result<Completion, DeviceError>;

    /// Explicitly opens a zone, reserving an open-zone slot ahead of the
    /// first write.
    ///
    /// # Errors
    ///
    /// [`DeviceError::TooManyOpenZones`] at the limit,
    /// [`DeviceError::ZoneFull`] for a full zone,
    /// [`DeviceError::OutOfRange`] for an invalid id.
    fn open_zone(&mut self, now: SimTime, zone: ZoneId) -> Result<Completion, DeviceError>;

    /// Explicitly closes an open zone: buffered data is flushed (possibly
    /// prematurely, into SLC) and the open-zone slot is released. The
    /// write pointer is preserved; a later write reopens the zone.
    ///
    /// # Errors
    ///
    /// [`DeviceError::ZoneNotWritable`] unless the zone is open,
    /// [`DeviceError::OutOfRange`] for an invalid id.
    fn close_zone(&mut self, now: SimTime, zone: ZoneId) -> Result<Completion, DeviceError>;

    /// Finishes a zone: flushes buffered data and transitions it to Full
    /// without writing the remaining capacity (which stays unreadable).
    ///
    /// # Errors
    ///
    /// [`DeviceError::OutOfRange`] for an invalid id.
    fn finish_zone(&mut self, now: SimTime, zone: ZoneId) -> Result<Completion, DeviceError>;

    /// The zone containing byte `offset`.
    fn zone_of(&self, offset: u64) -> ZoneId {
        ZoneId(offset / self.zone_size())
    }
}

/// Outcome of a remount replay after an unclean power cut (ConZone's
/// `power_cut` / `remount`; the baselines model no power loss).
///
/// Recovery is reported at 4 KiB slice granularity: `recovered` lists the
/// logical pages whose latest acknowledged contents survived in non-volatile
/// media (the SLC secondary buffer) and were re-linked by the replay scan;
/// `lost` lists the pages that only existed in volatile write buffers when
/// power was cut. Both lists are coalesced into maximal runs and sorted, so
/// two deterministic runs produce identical (`PartialEq`) reports.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Simulated time the power cut happened.
    pub cut_at: SimTime,
    /// Simulated time the remount replay finished.
    pub finished: SimTime,
    /// Slices whose mapping was rebuilt from non-volatile SLC.
    pub recovered_slices: u64,
    /// Acknowledged-but-unflushed slices lost from volatile buffers.
    pub lost_slices: u64,
    /// Logical pages recovered, as coalesced sorted runs.
    pub recovered: Vec<LpnRange>,
    /// Logical pages lost, as coalesced sorted runs.
    pub lost: Vec<LpnRange>,
}

impl core::fmt::Display for RecoveryReport {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "remount at {}: recovered {} slices ({} runs), lost {} slices ({} runs)",
            self.finished,
            self.recovered_slices,
            self.recovered.len(),
            self.lost_slices,
            self.lost.len(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_constructors() {
        let r = IoRequest::read(4096, 8192);
        assert_eq!(r.kind, IoKind::Read);
        r.validate().unwrap();

        let w = IoRequest::write_data(0, Bytes::from(vec![7u8; 4096]));
        assert_eq!(w.len, 4096);
        w.validate().unwrap();
    }

    #[test]
    fn request_validation_rejects_bad_shapes() {
        assert!(IoRequest::read(1, 4096).validate().is_err());
        assert!(IoRequest::read(0, 100).validate().is_err());
        assert!(IoRequest::read(0, 0).validate().is_err());
        let mut w = IoRequest::write_data(0, Bytes::from(vec![0u8; 4096]));
        w.len = 8192;
        assert!(matches!(
            w.validate(),
            Err(DeviceError::DataLengthMismatch { .. })
        ));
    }

    #[test]
    fn admission_bounds_the_request_without_overflowing() {
        let capacity = 1 << 20;
        let r = IoRequest::read(capacity - 8192, 8192)
            .admit(capacity)
            .unwrap();
        assert_eq!(r, LpnRange::new(crate::Lpn(254), 2));
        assert!(matches!(
            IoRequest::read(1, 4096).admit(capacity),
            Err(DeviceError::Unaligned { .. })
        ));
        for offset in [capacity - 4096, u64::MAX - 4095] {
            assert_eq!(
                IoRequest::write(offset, 8192).admit(capacity),
                Err(DeviceError::OutOfRange { offset, capacity })
            );
        }
    }

    #[test]
    fn zone_info_display() {
        let info = ZoneInfo {
            id: ZoneId(3),
            state: ZoneState::Open,
            write_pointer: 64 * 1024,
            capacity: 1024 * 1024,
            size: 1024 * 1024,
            start: 3 * 1024 * 1024,
        };
        assert_eq!(info.to_string(), "ZoneId(3) Open wp=64/1024 KiB");
    }

    #[test]
    fn completion_latency() {
        let c = Completion::at(SimTime::from_nanos(100), SimTime::from_nanos(400));
        assert_eq!(c.latency(), SimDuration::from_nanos(300));
        assert!(c.data.is_none() && c.assigned_offset.is_none());
    }
}
