//! The limited volatile write buffers (paper §III-B; FEMU has them too,
//! Table I).
//!
//! Each buffer holds at most one superpage and is shared by all zones whose
//! index is congruent to the buffer index modulo the buffer count. Buffered
//! data is always the contiguous tail of its owner zone's accepted writes.
//! Where a flush puts the data — SLC staging in ConZone, a padded
//! programming unit in the FEMU baseline — is the model's business.

use conzone_types::{to_index, ZoneId, SLICE_BYTES, SLICE_LEN};

/// One volatile write buffer.
#[derive(Debug, Clone)]
pub struct WriteBuffer {
    /// Zone currently owning the buffer, if any.
    owner: Option<ZoneId>,
    /// Zone-relative slice offset of the first buffered slice.
    start_offset: u64,
    /// Number of buffered slices.
    slices: u64,
    /// Buffered payload, 4 KiB per slice, when data backing is enabled.
    data: Vec<u8>,
    /// Capacity in slices (one superpage).
    capacity: u64,
    /// Whether payload bytes are retained.
    backed: bool,
}

impl WriteBuffer {
    /// An unowned buffer of `capacity_slices` (one superpage); `backed`
    /// says whether payload bytes are retained.
    pub fn new(capacity_slices: u64, backed: bool) -> WriteBuffer {
        WriteBuffer {
            owner: None,
            start_offset: 0,
            slices: 0,
            data: Vec::new(),
            capacity: capacity_slices,
            backed,
        }
    }

    /// Zone currently owning the buffer, if any.
    #[inline]
    pub fn owner(&self) -> Option<ZoneId> {
        self.owner
    }

    /// Zone-relative slice offset of the first buffered slice.
    #[inline]
    pub fn start_offset(&self) -> u64 {
        self.start_offset
    }

    /// Number of buffered slices.
    #[inline]
    pub fn slices(&self) -> u64 {
        self.slices
    }

    /// Whether the slice at `offset` of `zone` sits in this buffer.
    #[inline]
    pub fn holds(&self, zone: ZoneId, offset: u64) -> bool {
        self.owner == Some(zone) && offset >= self.start_offset && offset < self.end_offset()
    }

    /// Whether a write to `zone` must first evict another zone's data:
    /// the conflicting zone-to-buffer mapping of §III-B.
    #[inline]
    pub fn conflicts_with(&self, zone: ZoneId) -> bool {
        !self.is_empty() && self.owner != Some(zone)
    }

    /// Whether the buffer holds no data.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.slices == 0
    }

    /// Whether the buffer is at capacity.
    #[inline]
    pub fn is_full(&self) -> bool {
        self.slices == self.capacity
    }

    /// Free slices remaining.
    #[inline]
    pub fn room(&self) -> u64 {
        self.capacity - self.slices
    }

    /// Takes ownership for `zone` with the next data expected at
    /// `start_offset`; the buffer must be empty.
    #[inline]
    pub fn adopt(&mut self, zone: ZoneId, start_offset: u64) {
        debug_assert!(self.is_empty(), "adopting a non-empty buffer");
        self.owner = Some(zone);
        self.start_offset = start_offset;
        self.data.clear();
    }

    /// Appends `count` slices (with optional payload) to the buffer tail.
    ///
    /// # Panics
    ///
    /// Debug-panics when overflowing capacity or appending without an owner.
    #[inline]
    pub fn append(&mut self, count: u64, payload: Option<&[u8]>) {
        debug_assert!(self.owner.is_some(), "append to unowned buffer");
        debug_assert!(self.slices + count <= self.capacity, "buffer overflow");
        if self.backed {
            match payload {
                Some(p) => {
                    debug_assert_eq!(p.len() as u64, count * SLICE_BYTES);
                    self.data.extend_from_slice(p);
                }
                // Timing-only writes buffer zeroes.
                None => self
                    .data
                    .resize(self.data.len() + to_index(count * SLICE_BYTES), 0),
            }
        }
        self.slices += count;
    }

    /// Removes `count` slices from the buffer head, returning their payload
    /// when backed.
    #[inline]
    pub fn drain_front(&mut self, count: u64) -> Option<Vec<u8>> {
        debug_assert!(count <= self.slices, "draining more than buffered");
        self.start_offset += count;
        self.slices -= count;
        if self.backed {
            let bytes = to_index(count * SLICE_BYTES);
            let tail = self.data.split_off(bytes);
            let head = std::mem::replace(&mut self.data, tail);
            Some(head)
        } else {
            None
        }
    }

    /// Clears the buffer and drops ownership.
    #[inline]
    pub fn release(&mut self) {
        self.owner = None;
        self.start_offset = 0;
        self.slices = 0;
        self.data.clear();
    }

    /// Zone-relative offset one past the last buffered slice.
    #[inline]
    pub fn end_offset(&self) -> u64 {
        self.start_offset + self.slices
    }

    /// Payload of the slice at zone-relative `offset`, when buffered and
    /// backed.
    pub fn slice_data(&self, offset: u64) -> Option<&[u8]> {
        if !self.backed || offset < self.start_offset || offset >= self.end_offset() {
            return None;
        }
        let idx = to_index((offset - self.start_offset) * SLICE_BYTES);
        Some(&self.data[idx..idx + SLICE_LEN])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn append_and_drain_with_payload() {
        let mut b = WriteBuffer::new(8, true);
        b.adopt(ZoneId(3), 16);
        b.append(2, Some(&vec![7u8; 2 * 4096]));
        b.append(1, Some(&vec![9u8; 4096]));
        assert_eq!(b.slices(), 3);
        assert_eq!(b.end_offset(), 19);
        assert_eq!(b.slice_data(18).unwrap()[0], 9);
        let head = b.drain_front(2).unwrap();
        assert_eq!(head.len(), 2 * 4096);
        assert_eq!(head[0], 7);
        assert_eq!(b.start_offset(), 18);
        assert_eq!(b.slices(), 1);
        assert!(b.holds(ZoneId(3), 18) && !b.holds(ZoneId(3), 19) && !b.holds(ZoneId(2), 18));
        assert!(b.conflicts_with(ZoneId(2)) && !b.conflicts_with(ZoneId(3)));
        assert_eq!(b.slice_data(18).unwrap()[0], 9);
    }

    #[test]
    fn unbacked_buffer_tracks_counts_only() {
        let mut b = WriteBuffer::new(4, false);
        b.adopt(ZoneId(0), 0);
        b.append(4, None);
        assert!(b.is_full());
        assert!(b.drain_front(4).is_none());
        assert!(b.is_empty());
    }

    #[test]
    fn release_clears_ownership() {
        let mut b = WriteBuffer::new(4, true);
        b.adopt(ZoneId(1), 0);
        b.append(1, None);
        b.release();
        assert!(b.owner().is_none() && !b.conflicts_with(ZoneId(2)));
        assert!(b.is_empty());
        b.adopt(ZoneId(2), 8);
        assert_eq!(b.start_offset(), 8);
    }

    #[test]
    fn room_accounting() {
        let mut b = WriteBuffer::new(6, false);
        b.adopt(ZoneId(0), 0);
        assert_eq!(b.room(), 6);
        b.append(4, None);
        assert_eq!(b.room(), 2);
    }
}
