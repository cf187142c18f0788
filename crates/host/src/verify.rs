//! Deterministic payload generation for data-integrity verification.
//!
//! Payloads depend only on `(seed, byte offset)`, so a later read of the
//! same location can regenerate and compare the expected bytes without
//! remembering what was written — the same trick fio's `verify=` uses.

use bytes::Bytes;
use conzone_sim::SimRng;
use conzone_types::{to_index, SLICE_BYTES, SLICE_LEN};

/// Deterministic payload for the block at `offset`.
///
/// Every 4 KiB slice is generated independently from `(seed, slice
/// offset)`, so partially overlapping requests still verify.
pub(crate) fn payload_for(seed: u64, offset: u64, len: u64) -> Bytes {
    let mut v = Vec::with_capacity(to_index(len));
    let slices = len / SLICE_BYTES;
    for s in 0..slices {
        let slice_off = offset + s * SLICE_BYTES;
        let mut rng = SimRng::new(seed ^ slice_off.rotate_left(17));
        // Eight random words stamped across the slice keep generation
        // cheap while remaining collision-resistant for verification.
        let mut stamp = [0u8; 64];
        for w in 0..8 {
            stamp[w * 8..(w + 1) * 8].copy_from_slice(&rng.next_u64().to_le_bytes());
        }
        let reps = SLICE_LEN / stamp.len();
        for _ in 0..reps {
            v.extend_from_slice(&stamp);
        }
    }
    Bytes::from(v)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_and_offset_sensitive() {
        let a = payload_for(1, 0, 4096);
        let b = payload_for(1, 0, 4096);
        assert_eq!(a, b);
        let c = payload_for(1, 4096, 4096);
        assert_ne!(a, c);
        let d = payload_for(2, 0, 4096);
        assert_ne!(a, d);
    }

    #[test]
    fn composable_across_block_sizes() {
        // A 16 KiB payload equals the four 4 KiB payloads it covers.
        let big = payload_for(9, 8192, 16384);
        for s in 0..4u64 {
            let small = payload_for(9, 8192 + s * 4096, 4096);
            assert_eq!(
                &big[(s * 4096) as usize..((s + 1) * 4096) as usize],
                &small[..]
            );
        }
    }

    #[test]
    fn right_length() {
        assert_eq!(payload_for(0, 0, 512 * 1024).len(), 512 * 1024);
    }
}
