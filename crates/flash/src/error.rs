//! Flash-layer errors.

use core::fmt;

use conzone_types::{DeviceError, Ppa};

/// Errors raised by the flash media model. These normally indicate a bug in
/// the FTL above (programming rules violated) or a read of dead data.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum FlashError {
    /// Programming past the end of a block.
    BlockFull {
        /// Current program cursor (slices).
        cursor: usize,
        /// Slices requested.
        requested: usize,
        /// Slices per block.
        slices: usize,
    },
    /// Operating on a slice that was never programmed.
    InvalidSlice {
        /// In-block slice index.
        index: usize,
    },
    /// Reading a slice that is erased or invalidated.
    ReadDead {
        /// The offending physical address.
        ppa: Ppa,
    },
    /// Partial (sub-unit) programming attempted on a multi-level-cell block.
    PartialProgramOnMlc {
        /// Slices attempted.
        requested: usize,
        /// Slices per programming unit of the block's media.
        unit: usize,
    },
    /// Multi-level-cell programming not aligned to a programming unit.
    UnalignedUnit {
        /// Current cursor (slices).
        cursor: usize,
    },
    /// Payload length does not match the programmed extent.
    DataLength {
        /// Bytes expected.
        expected: usize,
        /// Bytes provided.
        got: usize,
    },
    /// Address component outside the geometry.
    OutOfGeometry {
        /// Description of the offending component.
        what: String,
    },
    /// The fault plane failed this program operation (transient). The
    /// targeted slices are burned (cursor advanced, marked dead); the
    /// caller must re-issue the payload elsewhere.
    ProgramFailed {
        /// Chip of the failed program.
        chip: u64,
        /// Block (in-chip index) of the failed program.
        block: u64,
    },
    /// The targeted block is permanently retired (failed erase or grown
    /// bad); the caller must place the data on another block.
    BlockRetired {
        /// Chip of the retired block.
        chip: u64,
        /// Block (in-chip index) of the retired block.
        block: u64,
    },
}

impl fmt::Display for FlashError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FlashError::BlockFull {
                cursor,
                requested,
                slices,
            } => write!(
                f,
                "program of {requested} slices at cursor {cursor} exceeds block of {slices}"
            ),
            FlashError::InvalidSlice { index } => {
                write!(f, "slice {index} was never programmed")
            }
            FlashError::ReadDead { ppa } => write!(f, "read of dead slice at {ppa}"),
            FlashError::PartialProgramOnMlc { requested, unit } => write!(
                f,
                "partial program of {requested} slices on MLC media (unit is {unit} slices)"
            ),
            FlashError::UnalignedUnit { cursor } => {
                write!(f, "unit program at unaligned cursor {cursor}")
            }
            FlashError::DataLength { expected, got } => {
                write!(f, "payload of {got} bytes, expected {expected}")
            }
            FlashError::OutOfGeometry { what } => write!(f, "address outside geometry: {what}"),
            FlashError::ProgramFailed { chip, block } => {
                write!(f, "program failed on chip {chip} block {block}")
            }
            FlashError::BlockRetired { chip, block } => {
                write!(f, "chip {chip} block {block} is retired")
            }
        }
    }
}

impl std::error::Error for FlashError {}

/// A flash-layer failure reaching a device's caller is an FTL logic
/// violation (the FTL asked the media for something its rules forbid, or
/// read a slice it still maps after killing it), never a host error.
impl From<FlashError> for DeviceError {
    fn from(e: FlashError) -> DeviceError {
        DeviceError::Internal(format!("flash: {e}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        let e = FlashError::ReadDead { ppa: Ppa(42) };
        assert!(e.to_string().contains("Ppa(42)"));
        let e = FlashError::ProgramFailed { chip: 1, block: 9 };
        assert!(e.to_string().contains("chip 1 block 9"));
        let e = FlashError::BlockRetired { chip: 2, block: 5 };
        assert!(e.to_string().contains("retired"));
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<FlashError>();
    }
}
