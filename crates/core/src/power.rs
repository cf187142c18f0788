//! Unclean power loss and remount recovery.
//!
//! `power_cut` models yanking the plug: the volatile write buffers — and
//! every acknowledged slice above each zone's durable prefix — vanish, the
//! zones' write pointers rewind to that prefix, and the unsynced tail of
//! the L2P persistence log is dropped. Everything already in flash (the
//! canonical zone layout, the SLC secondary buffer with its staged /
//! patch / conventional slices, persisted mapping pages) survives.
//!
//! `remount` models the next power-on: the controller scans the written
//! pages of the SLC secondary buffer to rebuild the slice owner map and
//! re-reads the persisted L2P log, paying the corresponding media time.
//! The resulting [`RecoveryReport`] states exactly which logical pages
//! came back and which were lost, as coalesced sorted runs — the numbers
//! the crash-consistency proptest balances against the in-flight count at
//! the cut.

use conzone_types::{
    CellType, ChipId, DeviceError, DeviceEvent, Lpn, LpnRange, RecoveryReport, SimTime,
    SuperblockId, ZoneId,
};

use crate::device::ConZone;

/// What a power cut destroyed, held until the matching `remount`.
#[derive(Debug, Clone)]
pub(crate) struct CutState {
    /// Simulated time of the cut.
    pub cut_at: SimTime,
    /// Logical pages lost from volatile buffers, coalesced and sorted.
    pub lost: Vec<LpnRange>,
    /// Total lost slices.
    pub lost_slices: u64,
}

/// Sorts, dedups and coalesces logical pages into maximal runs.
fn coalesce(mut lpns: Vec<Lpn>) -> Vec<LpnRange> {
    lpns.sort();
    lpns.dedup();
    let mut out: Vec<LpnRange> = Vec::new();
    for lpn in lpns {
        match out.last_mut() {
            Some(r) if r.start.raw() + r.count == lpn.raw() => r.count += 1,
            _ => out.push(LpnRange::new(lpn, 1)),
        }
    }
    out
}

impl ConZone {
    /// Rejects operations while power is cut.
    pub(crate) fn ensure_powered(&self) -> Result<(), DeviceError> {
        if self.cut_state.is_some() {
            return Err(DeviceError::Unsupported(
                "power is cut; remount the device first".to_string(),
            ));
        }
        Ok(())
    }

    /// Cuts power at `now`: everything volatile (write buffers, L2P cache,
    /// unsynced mapping-log entries) is discarded instantly and the device
    /// rejects every command until [`remount`](Self::remount). Returns the
    /// number of acknowledged slices lost from volatile buffers (also
    /// recorded in [`Counters::lost_slices`](conzone_types::Counters::lost_slices)).
    ///
    /// # Errors
    ///
    /// [`DeviceError::Unsupported`] if power is already cut.
    pub fn power_cut(&mut self, now: SimTime) -> Result<u64, DeviceError> {
        if self.cut_state.is_some() {
            return Err(DeviceError::Unsupported("power is already cut".to_string()));
        }
        let mut lost_lpns: Vec<Lpn> = Vec::new();
        for (media, z) in self.media.iter().zip(0..) {
            let zone = ZoneId(z);
            let wp = self.zones.wp_slices(zone);
            let flushed = media.flushed_slices;
            if wp > flushed {
                let base = self.zones.start_lpn(zone);
                lost_lpns.extend((flushed..wp).map(|o| base.offset(o)));
                // The write pointer rewinds to the durable prefix: the
                // host may rewrite the lost range after remount.
                self.zones.rewind(zone, flushed);
            }
        }
        for buf in &mut self.buffers {
            buf.release();
        }
        // The unsynced tail of the L2P persistence log is volatile too.
        self.l2p_log_pending = 0;
        let lost_slices = lost_lpns.len() as u64;
        self.counters.lost_slices += lost_slices;
        self.probe.emit(now, DeviceEvent::PowerCut { lost_slices });
        self.cut_state = Some(CutState {
            cut_at: now,
            lost: coalesce(lost_lpns),
            lost_slices,
        });
        Ok(lost_slices)
    }

    /// Remounts the device after [`power_cut`](Self::power_cut), replaying
    /// the SLC secondary buffer and the persisted L2P log at media cost, and
    /// reports exactly which logical pages came back and which were lost.
    ///
    /// # Errors
    ///
    /// [`DeviceError::Unsupported`] if power was never cut.
    pub fn remount(&mut self, now: SimTime) -> Result<RecoveryReport, DeviceError> {
        let cut = self.cut_state.take().ok_or_else(|| {
            DeviceError::Unsupported("remount without a preceding power cut".to_string())
        })?;
        // The volatile L2P cache is gone (its eviction total survives as a
        // lifetime statistic).
        self.cache.clear();

        // Replay scan: sense every written page of the SLC secondary
        // buffer to rebuild the slice owner map, in parallel across chips.
        let spp = self.cfg.geometry.slices_per_page();
        let page_bytes = self.cfg.geometry.page_bytes as u64;
        let mut finish = now;
        let scan: Vec<SuperblockId> = self
            .slc
            .used
            .iter()
            .copied()
            .chain(self.slc.active)
            .collect();
        for sb in scan {
            for c in 0..self.cfg.geometry.nchips() {
                let chip = ChipId(c as u64);
                let pages = self.flash.block(chip, sb.index()).cursor().div_ceil(spp);
                for _ in 0..pages {
                    let r = self
                        .flash
                        .timed_page_read(now, chip, CellType::Slc, page_bytes);
                    finish = finish.max(r.end);
                }
            }
        }
        // Re-read the persisted L2P log head from the mapping media.
        finish = finish.max(self.flash.read_mapping_page(now));

        let recovered_lpns: Vec<Lpn> = self.slc.owner.iter().map(|(_, lpn)| lpn).collect();
        let recovered_slices = recovered_lpns.len() as u64;
        self.counters.recovered_slices += recovered_slices;

        self.zones.close_open_zones();

        self.probe.emit(
            finish,
            DeviceEvent::RecoveryReplay {
                recovered_slices,
                lost_slices: cut.lost_slices,
            },
        );
        self.debug_assert_invariants("after power-cycle remount");
        Ok(RecoveryReport {
            cut_at: cut.cut_at,
            finished: finish,
            recovered_slices,
            lost_slices: cut.lost_slices,
            recovered: coalesce(recovered_lpns),
            lost: cut.lost,
        })
    }

    /// Acknowledged slices currently at risk from a power cut: volatile
    /// buffered slices (would be lost) plus live SLC secondary-buffer
    /// slices (would need replay). A remount's `recovered_slices +
    /// lost_slices` balances against this value at the cut.
    pub fn in_flight_slices(&self) -> u64 {
        let buffered: u64 = (self.media.iter().zip(0..))
            .map(|(media, z)| self.zones.wp_slices(ZoneId(z)) - media.flushed_slices)
            .sum();
        self.slc.owner.len() as u64 + buffered
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coalesce_merges_runs() {
        let lpns = vec![Lpn(9), Lpn(3), Lpn(4), Lpn(5), Lpn(4), Lpn(11), Lpn(10)];
        assert_eq!(
            coalesce(lpns),
            vec![LpnRange::new(Lpn(3), 3), LpnRange::new(Lpn(9), 3)]
        );
        assert!(coalesce(Vec::new()).is_empty());
    }
}
