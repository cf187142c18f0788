//! [`FlashArray::read_slices`] as it was before it grouped by per-chip
//! cursor, kept as the reference of the differential property in
//! `proptests.rs`: one address decode and two bit tests per slice of a
//! run, and a group search that scans every group from the newest as soon
//! as one run starts below the end of the one before it. Model behaviour
//! is the old code's line for line; only its scratch list is a local
//! `Vec` instead of the array's reused buffer.

use conzone_types::{ChipId, DeviceEvent, MediaOp, Ppa, SimTime, SLICE_BYTES, SLICE_LEN};

use super::{FlashArray, ReadOutcome};
use crate::error::FlashError;

impl FlashArray {
    pub(super) fn read_slices_reference(
        &mut self,
        now: SimTime,
        ppas: &[Ppa],
    ) -> Result<ReadOutcome, FlashError> {
        let mut order: Vec<(ChipId, usize, usize, u64)> = Vec::new();
        let spp = self.geometry.slices_per_page();
        let mut dead: Option<Ppa> = None;
        let mut rest = ppas;
        let mut ascending = true;
        let mut seen_end = Ppa(0);
        'runs: while let Some(&first) = rest.first() {
            let parts = self.geometry.decode_ppa(first);
            let blk = self.block(parts.chip, parts.block);
            let in_block = parts.page * spp + parts.slice;
            let mut n = 0;
            while n < spp - parts.slice && rest.get(n) == Some(&first.offset(n as u64)) {
                if !blk.is_written(in_block + n) || !blk.is_valid(in_block + n) {
                    dead = Some(rest[n]);
                    break 'runs;
                }
                n += 1;
            }
            let bytes = n as u64 * SLICE_BYTES;
            let key = (parts.chip, parts.block, parts.page);
            ascending &= first >= seen_end;
            seen_end = first.offset(n as u64);
            let same_page = |g: &&mut (ChipId, usize, usize, u64)| (g.0, g.1, g.2) == key;
            let group = if ascending {
                order.last_mut().filter(same_page)
            } else {
                order.iter_mut().rev().find(same_page)
            };
            match group {
                Some(g) => g.3 += bytes,
                None => order.push((parts.chip, parts.block, parts.page, bytes)),
            }
            rest = &rest[n..];
        }
        if let Some(ppa) = dead {
            return Err(FlashError::ReadDead { ppa });
        }
        let mut finish = now;
        for &(chip, block, _page, bytes) in &order {
            let cell = self.cell_of_block(block);
            let plane = self.geometry.plane_of(chip, block);
            let mut sense_lat = cell.latency().read;
            let steps = self.fault.read_retry_steps();
            if steps > 0 {
                sense_lat += self.fault.retry_penalty(steps);
                self.stats.read_retries += u64::from(steps);
                self.probe.emit(now, DeviceEvent::ReadRetry { steps });
            }
            let sense = self.planes[plane].acquire(now, sense_lat);
            let channel = self.geometry.channel_of(chip).index();
            let transfer = self.transfer_time(bytes);
            let xfer = self.channels[channel].acquire(sense.end, transfer);
            finish = finish.max(xfer.end);
            self.stats.page_reads += 1;
            self.probe.emit(
                now,
                DeviceEvent::Media {
                    op: MediaOp::Read,
                    cell,
                    bytes,
                },
            );
        }
        let data = if self.store.is_enabled() {
            let mut buf = Vec::with_capacity(ppas.len() * SLICE_LEN);
            for &ppa in ppas {
                match self.store.get(ppa) {
                    Some(slice) => buf.extend_from_slice(slice),
                    None => buf.resize(buf.len() + SLICE_LEN, 0),
                }
            }
            Some(buf)
        } else {
            None
        };
        Ok(ReadOutcome { finish, data })
    }
}
