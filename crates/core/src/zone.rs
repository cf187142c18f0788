//! What a zone has on the media. Its state and write pointer live in the
//! device's [`ZoneTable`](conzone_types::ZoneTable).

/// Media state of one zone.
#[derive(Debug, Clone, Default)]
pub(crate) struct Zone {
    /// Slices durably placed (flashed canonically, staged in SLC, or patch),
    /// i.e. the write pointer minus whatever sits in the volatile buffer.
    pub flushed_slices: u64,
    /// Length of the premature-flush run staged in SLC, awaiting
    /// combination into the reserved normal blocks (paper §III-B path ③):
    /// the last `staged` slices of the durable prefix, beginning at a
    /// programming-unit-aligned offset. Where each sits is the mapping
    /// table's entry for its page.
    pub staged: u64,
}

impl Zone {
    /// Zone-relative offset where the staged run begins.
    pub(crate) fn staged_start(&self) -> u64 {
        self.flushed_slices - self.staged
    }

    /// Nothing of the zone is on the media any more.
    pub(crate) fn reset(&mut self) {
        *self = Zone::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_zone_is_empty() {
        let z = Zone::default();
        assert_eq!(z.flushed_slices, 0);
        assert_eq!(z.staged_start(), 0);
    }

    #[test]
    fn staged_start_tracks_run() {
        let mut z = Zone {
            flushed_slices: 36,
            staged: 12,
        };
        assert_eq!(z.staged_start(), 24);
        z.reset();
        assert_eq!(z.flushed_slices, 0);
        assert_eq!(z.staged, 0);
    }
}
