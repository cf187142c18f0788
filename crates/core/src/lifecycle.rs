//! Explicit zone lifecycle commands: open, close and finish.
//!
//! Writes open zones implicitly; these commands complete the NVMe ZNS
//! state machine. *Close* is especially meaningful on a consumer device:
//! it flushes the zone's share of the limited write buffers (prematurely,
//! into SLC, if less than a programming unit accumulated) and releases
//! both the open-zone slot and the buffer — the host-side tool for
//! avoiding the Fig. 6(b) conflicts.

use conzone_types::{DeviceError, SimTime, ZoneId, HOST_OVERHEAD};

use crate::device::ConZone;

impl ConZone {
    /// Explicitly opens a zone (see [`ZonedDevice::open_zone`]).
    ///
    /// [`ZonedDevice::open_zone`]: conzone_types::ZonedDevice::open_zone
    pub(crate) fn open_zone_inner(
        &mut self,
        now: SimTime,
        zone: ZoneId,
    ) -> Result<SimTime, DeviceError> {
        self.zones.open(zone)?;
        Ok(now + HOST_OVERHEAD)
    }

    /// Explicitly closes a zone (see [`ZonedDevice::close_zone`]).
    ///
    /// [`ZonedDevice::close_zone`]: conzone_types::ZonedDevice::close_zone
    pub(crate) fn close_zone_inner(
        &mut self,
        now: SimTime,
        zone: ZoneId,
    ) -> Result<SimTime, DeviceError> {
        self.zones.closable(zone)?;
        // Release the zone's buffer: drain it (prematurely if sub-unit).
        let t = self.drain_buffer_of(now, zone)?;
        self.zones.close(zone);
        Ok(t + HOST_OVERHEAD)
    }

    /// Finishes a zone (see [`ZonedDevice::finish_zone`]).
    ///
    /// [`ZonedDevice::finish_zone`]: conzone_types::ZonedDevice::finish_zone
    pub(crate) fn finish_zone_inner(
        &mut self,
        now: SimTime,
        zone: ZoneId,
    ) -> Result<SimTime, DeviceError> {
        let mut t = now;
        if self.zones.finishable(zone)? {
            t = self.drain_buffer_of(now, zone)?;
            self.zones.seal(zone);
        }
        Ok(t + HOST_OVERHEAD)
    }

    /// Drains the write buffer `zone` maps to, if the zone owns it.
    fn drain_buffer_of(&mut self, now: SimTime, zone: ZoneId) -> Result<SimTime, DeviceError> {
        let buf_idx = zone.index() % self.buffers.len();
        if self.buffers[buf_idx].owner() == Some(zone) {
            return self.flush_buffer(now, buf_idx, true);
        }
        Ok(now)
    }
}
