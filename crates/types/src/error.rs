//! Error types shared across the emulator crates.

use core::fmt;

use crate::addr::{Lpn, ZoneId};
use crate::time::SimTime;

/// An invalid emulator configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfigError {
    message: String,
}

impl ConfigError {
    /// Creates a configuration error with the given message.
    pub(crate) fn new(message: impl Into<String>) -> Self {
        ConfigError {
            message: message.into(),
        }
    }
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid configuration: {}", self.message)
    }
}

impl std::error::Error for ConfigError {}

/// Errors raised by a device model while processing I/O.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum DeviceError {
    /// The request touches bytes beyond the device capacity.
    OutOfRange {
        /// First out-of-range byte.
        offset: u64,
        /// Device capacity in bytes.
        capacity: u64,
    },
    /// The request offset or length is not aligned to the 4 KiB sector.
    Unaligned {
        /// Offending offset in bytes.
        offset: u64,
        /// Offending length in bytes.
        len: u64,
    },
    /// A zoned write did not land on the zone's write pointer.
    NotWritePointer {
        /// Zone being written.
        zone: ZoneId,
        /// Expected next logical page.
        expected: Lpn,
        /// Logical page the host attempted to write.
        got: Lpn,
    },
    /// A write crossed a zone boundary.
    ZoneBoundary {
        /// Zone where the write started.
        zone: ZoneId,
    },
    /// The zone is full (write pointer at capacity).
    ZoneFull {
        /// The full zone.
        zone: ZoneId,
    },
    /// The zone is offline or otherwise not writable.
    ZoneNotWritable {
        /// The zone in question.
        zone: ZoneId,
    },
    /// Opening one more zone would exceed the configured open-zone limit.
    TooManyOpenZones {
        /// Configured maximum number of open zones.
        limit: usize,
    },
    /// The request mixed zones or kinds in a way the device cannot service.
    Unsupported(String),
    /// A read touched logical pages that have never been written.
    UnwrittenRead {
        /// First unwritten logical page.
        lpn: Lpn,
    },
    /// The device ran out of free space (no free superblocks for the
    /// requested media).
    NoFreeSpace {
        /// Simulated time the exhaustion was detected.
        at: SimTime,
        /// Human-readable description of the exhausted resource.
        what: String,
    },
    /// Request data length does not match the request length.
    DataLengthMismatch {
        /// Length declared by the request, in bytes.
        expected: u64,
        /// Length of the attached data buffer, in bytes.
        got: u64,
    },
    /// An internal accounting invariant was violated — an FTL bug, not a
    /// host error. Device models return this instead of panicking so a
    /// long seeded run surfaces the broken state as a typed error.
    Internal(String),
}

impl fmt::Display for DeviceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DeviceError::OutOfRange { offset, capacity } => {
                write!(f, "offset {offset} beyond capacity {capacity}")
            }
            DeviceError::Unaligned { offset, len } => {
                write!(f, "offset {offset} / length {len} not 4 KiB aligned")
            }
            DeviceError::NotWritePointer {
                zone,
                expected,
                got,
            } => write!(
                f,
                "unaligned zone write in {zone}: expected {expected}, got {got}"
            ),
            DeviceError::ZoneBoundary { zone } => {
                write!(f, "write crosses the boundary of {zone}")
            }
            DeviceError::ZoneFull { zone } => write!(f, "{zone} is full"),
            DeviceError::ZoneNotWritable { zone } => write!(f, "{zone} is not writable"),
            DeviceError::TooManyOpenZones { limit } => {
                write!(f, "open zone limit {limit} exceeded")
            }
            DeviceError::Unsupported(what) => write!(f, "unsupported request: {what}"),
            DeviceError::UnwrittenRead { lpn } => {
                write!(f, "read of unwritten logical page {lpn}")
            }
            DeviceError::NoFreeSpace { at, what } => {
                write!(f, "out of free space at {at}: {what}")
            }
            DeviceError::DataLengthMismatch { expected, got } => {
                write!(f, "request declares {expected} bytes but carries {got}")
            }
            DeviceError::Internal(what) => {
                write!(f, "internal invariant violated: {what}")
            }
        }
    }
}

impl std::error::Error for DeviceError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_display_lowercase_prose() {
        let e = ConfigError::new("write_buffers must be non-zero");
        assert!(e.to_string().starts_with("invalid configuration"));
        let e = DeviceError::ZoneFull { zone: ZoneId(3) };
        assert_eq!(e.to_string(), "ZoneId(3) is full");
        let e = DeviceError::Unaligned {
            offset: 17,
            len: 100,
        };
        assert!(e.to_string().contains("17"));
    }

    #[test]
    fn errors_are_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<ConfigError>();
        assert_send_sync::<DeviceError>();
    }
}
