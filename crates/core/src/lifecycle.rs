//! Explicit zone lifecycle commands: open, close and finish.
//!
//! Writes open zones implicitly; these commands complete the NVMe ZNS
//! state machine. *Close* is especially meaningful on a consumer device:
//! it flushes the zone's share of the limited write buffers (prematurely,
//! into SLC, if less than a programming unit accumulated) and releases
//! both the open-zone slot and the buffer — the host-side tool for
//! avoiding the Fig. 6(b) conflicts.

use conzone_types::{DeviceError, SimTime, ZoneId, ZoneState};

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
        let idx = self.checked_zone(zone)?;
        if self.is_conventional(zone) {
            // Conventional zones have no open/close lifecycle.
            return Ok(now + self.cfg.host_overhead);
        }
        match self.zones[idx].state {
            ZoneState::Open => {}
            ZoneState::Full => return Err(DeviceError::ZoneFull { zone }),
            ZoneState::Empty | ZoneState::Closed => {
                if self.open_zone_count() >= self.cfg.max_open_zones {
                    return Err(DeviceError::TooManyOpenZones {
                        limit: self.cfg.max_open_zones,
                    });
                }
                self.zones[idx].state = ZoneState::Open;
            }
        }
        Ok(now + self.cfg.host_overhead)
    }

    /// Explicitly closes a zone (see [`ZonedDevice::close_zone`]).
    ///
    /// [`ZonedDevice::close_zone`]: conzone_types::ZonedDevice::close_zone
    pub(crate) fn close_zone_inner(
        &mut self,
        now: SimTime,
        zone: ZoneId,
    ) -> Result<SimTime, DeviceError> {
        let idx = self.checked_zone(zone)?;
        if self.is_conventional(zone) || self.zones[idx].state != ZoneState::Open {
            return Err(DeviceError::ZoneNotWritable { zone });
        }
        // Release the zone's buffer: drain it (prematurely if sub-unit).
        let buf_idx = idx % self.buffers.len();
        let mut t = now;
        if self.buffers[buf_idx].owner == Some(zone) {
            t = self.flush_buffer(t, buf_idx, true)?;
        }
        self.zones[idx].state = ZoneState::Closed;
        Ok(t + self.cfg.host_overhead)
    }

    /// Finishes a zone (see [`ZonedDevice::finish_zone`]).
    ///
    /// [`ZonedDevice::finish_zone`]: conzone_types::ZonedDevice::finish_zone
    pub(crate) fn finish_zone_inner(
        &mut self,
        now: SimTime,
        zone: ZoneId,
    ) -> Result<SimTime, DeviceError> {
        let idx = self.checked_zone(zone)?;
        if self.is_conventional(zone) {
            return Err(DeviceError::ZoneNotWritable { zone });
        }
        let mut t = now;
        if self.zones[idx].state != ZoneState::Full {
            let buf_idx = idx % self.buffers.len();
            if self.buffers[buf_idx].owner == Some(zone) {
                t = self.flush_buffer(t, buf_idx, true)?;
            }
            self.zones[idx].state = ZoneState::Full;
        }
        Ok(t + self.cfg.host_overhead)
    }
}
