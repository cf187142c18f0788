//! The zoned front door: one table of zone states and write pointers.
//!
//! Every zoned model answers the same ZNS contract — which writes a zone
//! accepts, where an append lands, what open / close / finish / reset do
//! to its state — and [`ZoneTable`] is the only code that holds it. Its
//! fields are private: a write pointer moves and a state changes through
//! the methods below or not at all. What a zone's data *costs* (buffers,
//! flash programs, erases) stays with the model; see each method for what
//! the model must do between the table's two steps.

use crate::addr::{Lpn, LpnRange, ZoneId, SLICE_BYTES};
use crate::device::{ZoneInfo, ZoneState};
use crate::error::DeviceError;

/// State and write pointer of one zone.
#[derive(Debug, Clone, Copy)]
struct Slot {
    state: ZoneState,
    /// Slices accepted so far. On a conventional zone: the written
    /// high-water mark, for inspection only.
    wp: u64,
}

/// States and write pointers of a device's zones, and the admission rules
/// of the zoned interface.
///
/// The first `conventional` zones take in-place writes anywhere, have no
/// open / close lifecycle and never count against the open limit; the
/// rest are sequential-write-required.
#[derive(Debug, Clone)]
pub struct ZoneTable {
    slots: Vec<Slot>,
    zone_slices: u64,
    open_limit: Option<usize>,
    conventional: usize,
    /// Sequential zones in [`ZoneState::Open`].
    open: usize,
}

impl ZoneTable {
    /// A table of `zones` empty zones of `zone_slices` 4 KiB slices each.
    /// `open_limit` bounds the sequential zones open at once (`None`: the
    /// model has no limit).
    pub fn new(
        zones: usize,
        zone_slices: u64,
        open_limit: Option<usize>,
        conventional: usize,
    ) -> ZoneTable {
        let empty = Slot {
            state: ZoneState::Empty,
            wp: 0,
        };
        ZoneTable {
            slots: vec![empty; zones],
            zone_slices,
            open_limit,
            conventional,
            open: 0,
        }
    }

    /// Number of zones.
    #[inline]
    pub fn zone_count(&self) -> usize {
        self.slots.len()
    }

    /// Zone size in slices.
    #[inline]
    pub fn zone_slices(&self) -> u64 {
        self.zone_slices
    }

    /// Zone size in bytes.
    #[inline]
    pub fn zone_bytes(&self) -> u64 {
        self.zone_slices * SLICE_BYTES
    }

    /// Bytes of all zones together.
    #[inline]
    pub fn capacity_bytes(&self) -> u64 {
        self.zone_bytes() * self.slots.len() as u64
    }

    /// First logical page of a zone.
    #[inline]
    pub fn start_lpn(&self, zone: ZoneId) -> Lpn {
        Lpn(zone.raw() * self.zone_slices)
    }

    /// Whether `zone` is one of the conventional (in-place) zones.
    #[inline]
    pub fn is_conventional(&self, zone: ZoneId) -> bool {
        zone.index() < self.conventional
    }

    /// Sequential zones currently open.
    #[inline]
    pub fn open_count(&self) -> usize {
        self.open
    }

    /// State of a zone the table has.
    #[inline]
    pub fn state(&self, zone: ZoneId) -> ZoneState {
        self.slots[zone.index()].state
    }

    /// Write pointer of a zone the table has, in slices from its start.
    #[inline]
    pub fn wp_slices(&self, zone: ZoneId) -> u64 {
        self.slots[zone.index()].wp
    }

    /// Slices of a zone the table has that a read may touch: up to the
    /// write pointer, or all of a conventional zone (which may be written
    /// sparsely — the model's mapping says which pages exist).
    #[inline]
    pub fn readable(&self, zone: ZoneId) -> u64 {
        if self.is_conventional(zone) {
            self.zone_slices
        } else {
            self.slots[zone.index()].wp
        }
    }

    /// The table index of a zone id taken from a zone command.
    ///
    /// # Errors
    ///
    /// The [`DeviceError::OutOfRange`] every zone command answers a zone
    /// the device does not have.
    pub fn checked(&self, zone: ZoneId) -> Result<usize, DeviceError> {
        if zone.raw() >= self.slots.len() as u64 {
            return Err(DeviceError::OutOfRange {
                offset: zone.raw().saturating_mul(self.zone_bytes()),
                capacity: self.capacity_bytes(),
            });
        }
        Ok(zone.index())
    }

    /// Snapshot of a zone.
    ///
    /// # Errors
    ///
    /// [`DeviceError::OutOfRange`] for a zone the device does not have.
    pub fn info(&self, zone: ZoneId) -> Result<ZoneInfo, DeviceError> {
        let slot = self.slots[self.checked(zone)?];
        Ok(ZoneInfo {
            id: zone,
            state: slot.state,
            write_pointer: slot.wp * SLICE_BYTES,
            capacity: self.zone_bytes(),
            size: self.zone_bytes(),
            start: zone.raw() * self.zone_bytes(),
        })
    }

    /// The zone holding the first page of `range`, and that page's offset
    /// in it.
    fn locate(&self, range: LpnRange) -> Result<(ZoneId, u64), DeviceError> {
        let zone = ZoneId(range.start.raw() / self.zone_slices);
        if zone.raw() >= self.slots.len() as u64 {
            return Err(DeviceError::OutOfRange {
                offset: range.start.byte_offset(),
                capacity: self.capacity_bytes(),
            });
        }
        Ok((zone, range.start.raw() % self.zone_slices))
    }

    /// Changes a zone's state, keeping the open count.
    fn transition(&mut self, idx: usize, to: ZoneState) {
        let slot = &mut self.slots[idx];
        if idx >= self.conventional {
            self.open -= usize::from(slot.state == ZoneState::Open);
            self.open += usize::from(to == ZoneState::Open);
        }
        slot.state = to;
    }

    /// Admits a write of `range`: returns its zone and the offset of its
    /// first slice, and opens the zone (a closed zone reopens implicitly,
    /// like an empty one). The write pointer does not move: the model
    /// calls [`ZoneTable::advance`] as it takes the data in — or, for a
    /// conventional zone, [`ZoneTable::mark_written`] once the write
    /// landed. A conventional zone admits any range inside it.
    ///
    /// # Errors
    ///
    /// In this order: [`DeviceError::OutOfRange`] (no such zone),
    /// [`DeviceError::ZoneBoundary`] (the range leaves its zone),
    /// [`DeviceError::ZoneFull`], [`DeviceError::TooManyOpenZones`] (the
    /// zone is not open and the limit is reached),
    /// [`DeviceError::NotWritePointer`]. A rejected write changes nothing.
    #[inline]
    pub fn admit_write(&mut self, range: LpnRange) -> Result<(ZoneId, u64), DeviceError> {
        let (zone, offset) = self.locate(range)?;
        if offset + range.count > self.zone_slices {
            return Err(DeviceError::ZoneBoundary { zone });
        }
        let idx = zone.index();
        if idx < self.conventional {
            self.slots[idx].state = ZoneState::Open;
            return Ok((zone, offset));
        }
        let slot = self.slots[idx];
        let opens = slot.state != ZoneState::Open;
        if opens {
            if slot.state == ZoneState::Full {
                return Err(DeviceError::ZoneFull { zone });
            }
            self.check_open_limit()?;
        }
        if offset != slot.wp {
            return Err(DeviceError::NotWritePointer {
                zone,
                expected: self.start_lpn(zone).offset(slot.wp),
                got: range.start,
            });
        }
        if opens {
            self.transition(idx, ZoneState::Open);
        }
        Ok((zone, offset))
    }

    fn check_open_limit(&self) -> Result<(), DeviceError> {
        match self.open_limit {
            Some(limit) if self.open >= limit => Err(DeviceError::TooManyOpenZones { limit }),
            _ => Ok(()),
        }
    }

    /// Where a zone append of `range.count` slices to the zone holding
    /// `range.start` lands: at that zone's write pointer. The landed range
    /// still goes through [`ZoneTable::admit_write`].
    ///
    /// # Errors
    ///
    /// [`DeviceError::OutOfRange`] (no such zone), then
    /// [`DeviceError::Unsupported`] (a conventional zone has no write
    /// pointer), then [`DeviceError::ZoneBoundary`] (the zone has not
    /// that much room left).
    pub fn append_target(&self, range: LpnRange) -> Result<LpnRange, DeviceError> {
        let (zone, _) = self.locate(range)?;
        if self.is_conventional(zone) {
            return Err(DeviceError::Unsupported(
                "zone append targets a conventional zone".to_string(),
            ));
        }
        let wp = self.slots[zone.index()].wp;
        if wp + range.count > self.zone_slices {
            return Err(DeviceError::ZoneBoundary { zone });
        }
        Ok(LpnRange::new(self.start_lpn(zone).offset(wp), range.count))
    }

    /// Moves the write pointer of a sequential zone over `count` more
    /// admitted slices. Returns whether the zone is now written to its
    /// end — the model then makes the data durable and calls
    /// [`ZoneTable::seal`].
    #[inline]
    pub fn advance(&mut self, zone: ZoneId, count: u64) -> bool {
        let slot = &mut self.slots[zone.index()];
        slot.wp += count;
        debug_assert!(slot.wp <= self.zone_slices, "write pointer left {zone}");
        slot.wp == self.zone_slices
    }

    /// Raises the written high-water mark of a conventional zone to
    /// `end` slices, once a write up to there landed; returns the mark.
    pub fn mark_written(&mut self, zone: ZoneId, end: u64) -> u64 {
        debug_assert!(self.is_conventional(zone), "{zone} is sequential");
        let slot = &mut self.slots[zone.index()];
        slot.wp = slot.wp.max(end);
        slot.wp
    }

    /// Explicitly opens a zone. An open zone stays open; a conventional
    /// zone has no lifecycle and is left alone.
    ///
    /// # Errors
    ///
    /// [`DeviceError::OutOfRange`], [`DeviceError::ZoneFull`],
    /// [`DeviceError::TooManyOpenZones`].
    pub fn open(&mut self, zone: ZoneId) -> Result<(), DeviceError> {
        let idx = self.checked(zone)?;
        if idx < self.conventional {
            return Ok(());
        }
        match self.slots[idx].state {
            ZoneState::Open => {}
            ZoneState::Full => return Err(DeviceError::ZoneFull { zone }),
            ZoneState::Empty | ZoneState::Closed => {
                self.check_open_limit()?;
                self.transition(idx, ZoneState::Open);
            }
        }
        Ok(())
    }

    /// First step of a close: checks that `zone` can close. The model
    /// then makes the zone's buffered data durable and, if that worked,
    /// calls [`ZoneTable::close`]; a failed flush leaves the zone open.
    ///
    /// # Errors
    ///
    /// [`DeviceError::OutOfRange`], or [`DeviceError::ZoneNotWritable`]
    /// unless the zone is sequential and open.
    pub fn closable(&self, zone: ZoneId) -> Result<(), DeviceError> {
        let idx = self.checked(zone)?;
        if idx < self.conventional || self.slots[idx].state != ZoneState::Open {
            return Err(DeviceError::ZoneNotWritable { zone });
        }
        Ok(())
    }

    /// Second step of a close: the zone keeps its write pointer and gives
    /// up its open slot.
    pub fn close(&mut self, zone: ZoneId) {
        self.transition(zone.index(), ZoneState::Closed);
    }

    /// First step of a finish: whether `zone` still has to become full
    /// (`false`: it already is, and the command is a no-op). The model
    /// then makes the zone's buffered data durable and, if that worked,
    /// calls [`ZoneTable::seal`].
    ///
    /// # Errors
    ///
    /// [`DeviceError::OutOfRange`], or [`DeviceError::ZoneNotWritable`]
    /// for a conventional zone.
    pub fn finishable(&self, zone: ZoneId) -> Result<bool, DeviceError> {
        let idx = self.checked(zone)?;
        if idx < self.conventional {
            return Err(DeviceError::ZoneNotWritable { zone });
        }
        Ok(self.slots[idx].state != ZoneState::Full)
    }

    /// Makes a zone full, wherever its write pointer stands: the second
    /// step of a finish, and what follows a write that reached the zone's
    /// end. The rest of a finished zone stays unreadable.
    pub fn seal(&mut self, zone: ZoneId) {
        self.transition(zone.index(), ZoneState::Full);
    }

    /// Puts a zone back in `state`, write pointer unchanged: undoes the
    /// opening [`ZoneTable::admit_write`] did for a write the model then
    /// refused.
    pub fn restore(&mut self, zone: ZoneId, state: ZoneState) {
        self.transition(zone.index(), state);
    }

    /// Returns a zone to empty, write pointer at its start. The model
    /// drops the zone's buffered data and erases its blocks.
    pub fn reset(&mut self, zone: ZoneId) {
        self.transition(zone.index(), ZoneState::Empty);
        self.slots[zone.index()].wp = 0;
    }

    /// A power cut took the slices of `zone` above `durable`: the write
    /// pointer falls back there, and the host may write them again.
    pub fn rewind(&mut self, zone: ZoneId, durable: u64) {
        let slot = &mut self.slots[zone.index()];
        debug_assert!(durable <= slot.wp, "rewinding {zone} forwards");
        slot.wp = durable;
    }

    /// No zone survives a power cycle open: every open zone comes back
    /// closed, or empty if nothing of it was durable.
    pub fn close_open_zones(&mut self) {
        for slot in &mut self.slots {
            if slot.state == ZoneState::Open {
                slot.state = if slot.wp == 0 {
                    ZoneState::Empty
                } else {
                    ZoneState::Closed
                };
            }
        }
        self.open = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const ZS: u64 = 16;

    fn range(zone: u64, offset: u64, count: u64) -> LpnRange {
        LpnRange::new(Lpn(zone * ZS + offset), count)
    }

    #[test]
    fn write_admission_rejects_in_the_documented_order() {
        let mut t = ZoneTable::new(4, ZS, Some(1), 0);
        // Past the last zone, and leaving the zone: before anything else.
        assert!(matches!(
            t.admit_write(range(4, 0, 1)),
            Err(DeviceError::OutOfRange { offset, capacity })
                if offset == 4 * ZS * SLICE_BYTES && capacity == 4 * ZS * SLICE_BYTES
        ));
        assert_eq!(
            t.admit_write(range(0, 8, 9)),
            Err(DeviceError::ZoneBoundary { zone: ZoneId(0) })
        );
        assert_eq!(t.admit_write(range(0, 0, 4)), Ok((ZoneId(0), 0)));
        assert!(!t.advance(ZoneId(0), 4));
        // Zone 1 is off its pointer *and* over the limit: the limit wins.
        assert_eq!(
            t.admit_write(range(1, 3, 1)),
            Err(DeviceError::TooManyOpenZones { limit: 1 })
        );
        assert_eq!(
            t.admit_write(range(0, 5, 1)),
            Err(DeviceError::NotWritePointer {
                zone: ZoneId(0),
                expected: Lpn(4),
                got: Lpn(5),
            })
        );
        // A full zone says so even for a write that is off its pointer.
        t.seal(ZoneId(0));
        assert_eq!(
            t.admit_write(range(0, 9, 1)),
            Err(DeviceError::ZoneFull { zone: ZoneId(0) })
        );
        assert_eq!(t.open_count(), 0);
    }

    #[test]
    fn a_rejected_write_changes_nothing() {
        let mut t = ZoneTable::new(2, ZS, None, 0);
        assert!(t.admit_write(range(0, 1, 1)).is_err());
        assert_eq!(t.state(ZoneId(0)), ZoneState::Empty);
        assert_eq!((t.open_count(), t.wp_slices(ZoneId(0))), (0, 0));
    }

    #[test]
    fn lifecycle_keeps_the_open_count() {
        let mut t = ZoneTable::new(4, ZS, Some(2), 0);
        t.open(ZoneId(0)).unwrap();
        t.open(ZoneId(0)).unwrap();
        t.admit_write(range(1, 0, 2)).unwrap();
        t.advance(ZoneId(1), 2);
        assert_eq!(t.open_count(), 2);
        assert_eq!(
            t.open(ZoneId(2)),
            Err(DeviceError::TooManyOpenZones { limit: 2 })
        );
        t.closable(ZoneId(1)).unwrap();
        t.close(ZoneId(1));
        assert_eq!(
            t.closable(ZoneId(1)),
            Err(DeviceError::ZoneNotWritable { zone: ZoneId(1) })
        );
        assert_eq!(t.open_count(), 1);
        t.open(ZoneId(2)).unwrap();
        assert_eq!(t.finishable(ZoneId(2)), Ok(true));
        t.seal(ZoneId(2));
        assert_eq!(t.finishable(ZoneId(2)), Ok(false));
        assert_eq!(
            t.open(ZoneId(2)),
            Err(DeviceError::ZoneFull { zone: ZoneId(2) })
        );
        t.reset(ZoneId(0));
        assert_eq!(t.open_count(), 0);
        // The closed zone kept its pointer and reopens on a write there.
        assert_eq!(t.admit_write(range(1, 2, 1)), Ok((ZoneId(1), 2)));
        assert_eq!(t.state(ZoneId(1)), ZoneState::Open);
    }

    #[test]
    fn append_lands_on_the_pointer_or_not_at_all() {
        let mut t = ZoneTable::new(3, ZS, None, 1);
        assert!(matches!(
            t.append_target(range(3, 0, 1)),
            Err(DeviceError::OutOfRange { .. })
        ));
        assert!(matches!(
            t.append_target(range(0, 0, 1)),
            Err(DeviceError::Unsupported(_))
        ));
        t.admit_write(range(1, 0, 10)).unwrap();
        t.advance(ZoneId(1), 10);
        // The offset inside the zone does not matter, only the zone.
        assert_eq!(t.append_target(range(1, 3, 6)), Ok(range(1, 10, 6)));
        assert_eq!(
            t.append_target(range(1, 0, 7)),
            Err(DeviceError::ZoneBoundary { zone: ZoneId(1) })
        );
    }

    #[test]
    fn conventional_zones_stay_outside_the_lifecycle() {
        let mut t = ZoneTable::new(3, ZS, Some(1), 1);
        assert_eq!(t.admit_write(range(0, 7, 2)), Ok((ZoneId(0), 7)));
        assert_eq!(t.mark_written(ZoneId(0), 9), 9);
        assert_eq!(t.mark_written(ZoneId(0), 4), 9);
        assert_eq!(
            (t.open_count(), t.readable(ZoneId(0)), t.readable(ZoneId(1))),
            (0, ZS, 0)
        );
        t.open(ZoneId(0)).unwrap();
        assert!(t.closable(ZoneId(0)).is_err() && t.finishable(ZoneId(0)).is_err());
        t.open(ZoneId(1)).unwrap();
        assert_eq!(t.open_count(), 1);
    }

    #[test]
    fn a_power_cycle_rewinds_and_closes() {
        let mut t = ZoneTable::new(3, ZS, Some(2), 0);
        for zone in 0..2 {
            t.admit_write(range(zone, 0, 6)).unwrap();
            t.advance(ZoneId(zone), 6);
        }
        t.rewind(ZoneId(0), 0);
        t.rewind(ZoneId(1), 4);
        t.close_open_zones();
        let info = |z| t.info(ZoneId(z)).unwrap();
        assert_eq!(
            (info(0).state, info(0).write_pointer),
            (ZoneState::Empty, 0)
        );
        assert_eq!(
            (info(1).state, info(1).write_pointer),
            (ZoneState::Closed, 4 * SLICE_BYTES)
        );
        assert_eq!(t.open_count(), 0);
    }
}
