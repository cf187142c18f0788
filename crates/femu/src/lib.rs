//! FEMU-like ZNS emulator baseline (paper §II-C, §IV-B).
//!
//! The paper identifies three modelling gaps that make FEMU's ZNS mode
//! deviate from consumer zoned flash storage, and this baseline reproduces
//! exactly those gaps:
//!
//! 1. **Virtualization latency** — FEMU runs inside QEMU/KVM; every I/O
//!    pays a host/guest switch of tens of microseconds with large
//!    fluctuations, which swamps flash read latencies. We model it as a
//!    seeded log-normal jitter added to every request.
//! 2. **No channel bandwidth** — "FEMU can not simulate the channel
//!    bandwidth of the UFS interface", which is why its write bandwidth
//!    comes out *above* real hardware. Channel transfer time is zero here.
//! 3. **No FTL internals in ZNS mode** — no L2P cache, no hybrid mapping,
//!    no heterogeneous media: zones map directly onto homogeneous
//!    superblocks and reads never pay mapping fetches.
//!
//! Everything else is ConZone's own: the zoned interface is the same
//! [`ZoneTable`] (with no open-zone limit and no conventional zones), and
//! FEMU does support write buffers (Table I), so zone writes aggregate in
//! the same per-buffer superpage [`WriteBuffer`]s — but a premature
//! eviction must pad out a whole programming unit on the normal media
//! because there is no SLC region to absorb sub-unit flushes.
//!
//! ```
//! use conzone_femu::FemuZns;
//! use conzone_types::{DeviceConfig, IoRequest, SimTime, StorageDevice};
//!
//! let mut dev = FemuZns::new(DeviceConfig::tiny_for_tests());
//! let c = dev.submit(SimTime::ZERO, &IoRequest::write(0, 64 * 1024))?;
//! assert!(c.latency().as_nanos() > 0);
//! # Ok::<(), conzone_types::DeviceError>(())
//! ```

// Unit tests cast freely; the truncating-cast ban (`[workspace.lints]`) is
// meant for library code reachable from the simulator.
#![cfg_attr(test, allow(clippy::cast_possible_truncation))]
#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

use std::collections::BTreeMap;

use bytes::Bytes;
use conzone_flash::{DataStore, FlashArray};
use conzone_ftl::WriteBuffer;
use conzone_sim::SimRng;
use conzone_types::{
    to_index, ChipId, Completion, Counters, DeviceConfig, DeviceError, DeviceEvent, FlushKind,
    IoKind, IoRequest, LpnRange, Ppa, Probe, SimDuration, SimTime, StorageDevice, ZoneId, ZoneInfo,
    ZoneTable, ZonedDevice, HOST_OVERHEAD, SLICE_BYTES, SLICE_LEN,
};

#[cfg(test)]
mod proptests;
#[cfg(test)]
mod reference;

/// Median host/guest switch latency per I/O (µ of the log-normal), ns.
/// "Tens of microseconds" per the paper's §IV-B discussion of KVM exits.
const VM_JITTER_MEDIAN_NS: f64 = 25_000.0;
/// Log-normal sigma: large fluctuations that "are difficult to simulate
/// the read latency of flash, which is in the tens of microseconds".
const VM_JITTER_SIGMA: f64 = 0.6;
/// Keeps the FEMU RNG stream distinct from other seeded components.
const FEMU_SEED_MIX: u64 = 0xFE50_1D5E_ED00_0001;

/// The FEMU-like ZNS device model.
#[derive(Debug)]
pub struct FemuZns {
    cfg: DeviceConfig,
    flash: FlashArray,
    zones: ZoneTable,
    buffers: Vec<WriteBuffer>,
    counters: Counters,
    rng: SimRng,
    probe: Probe,
    /// Payloads by canonical physical slice (zones map 1:1 to media, so
    /// there is no indirection to follow); holds nothing without
    /// `data_backing`.
    store: DataStore,
}

impl FemuZns {
    /// Builds the baseline. The configuration's SLC region, L2P cache,
    /// search strategy, open-zone limit, conventional zones and channel
    /// bandwidth are ignored (that is the point of this model); the normal
    /// media, geometry and write-buffer count are honoured. Zones span
    /// whole superblocks without padding: FEMU exposes the raw superblock
    /// capacity.
    pub fn new(cfg: DeviceConfig) -> FemuZns {
        let mut cfg = cfg;
        // FEMU does not model the UFS channel, and its ZNS mode has no
        // fault plane either.
        cfg.model_channel_bandwidth = false;
        cfg.fault = conzone_types::FaultConfig::default();
        let g = &cfg.geometry;
        FemuZns {
            flash: FlashArray::new(&cfg),
            zones: ZoneTable::new(cfg.zone_count(), g.slices_per_superblock(), None, 0),
            buffers: (0..cfg.write_buffers)
                .map(|_| WriteBuffer::new(g.slices_per_superpage(), cfg.data_backing))
                .collect(),
            counters: Counters::new(),
            rng: SimRng::new(cfg.seed ^ FEMU_SEED_MIX),
            probe: Probe::disabled(),
            store: DataStore::new(cfg.data_backing),
            cfg,
        }
    }

    #[expect(
        clippy::disallowed_methods,
        reason = "jitter model parameter, sampled through the seeded rng and quantised to integer \
                  ns; a last-bit libm difference across platforms is accepted"
    )]
    #[expect(
        clippy::cast_possible_truncation,
        reason = "a float-to-int `as` saturates; dropping the sub-ns fraction is the quantisation"
    )]
    fn jitter(&mut self) -> SimDuration {
        let ns = self
            .rng
            .lognormal(VM_JITTER_MEDIAN_NS.ln(), VM_JITTER_SIGMA);
        SimDuration::from_nanos(ns as u64)
    }

    /// Canonical physical slice for a zone offset (zones map directly to
    /// superblocks; there is no indirection in FEMU's ZNS mode).
    fn slice_ppa(&self, zone: ZoneId, offset: u64) -> Ppa {
        let sb = self.cfg.geometry.zone_superblock(zone);
        self.cfg.geometry.superblock_slice(sb, offset)
    }

    /// Flushes a buffer: whole units program as-is; with `drain`, the
    /// sub-unit remainder is padded to a full programming unit (no SLC to
    /// absorb it — the padding is wasted media bandwidth) and the buffer
    /// is released.
    fn flush_buffer(&mut self, now: SimTime, buf: usize, drain: bool) -> SimTime {
        let mut finish = now;
        if let Some(zone) = self.buffers[buf].owner() {
            let unit = self.cfg.geometry.slices_per_unit() as u64;
            let end = self.buffers[buf].end_offset();
            let flush_end = if drain { end } else { end / unit * unit };
            // The buffer may start mid-unit after a padded eviction, so walk
            // the flushed range in spans that end at unit boundaries: one
            // program per unit a span touches, all issued at `now`.
            while self.buffers[buf].start_offset() < flush_end {
                let at = self.buffers[buf].start_offset();
                let slices = ((at / unit + 1) * unit).min(flush_end) - at;
                // FEMU emulates per-operation delays without a real FTL:
                // each unit charges one transfer-free program on its
                // canonical chip (FEMU ACKs after the emulated latency
                // completes), and block state is not tracked.
                let chip = self.cfg.geometry.decode_ppa(self.slice_ppa(zone, at)).chip;
                let cell = self.cfg.normal_cell;
                let (_buffer_free, programmed) =
                    self.flash
                        .timed_program(now, chip, cell, unit * SLICE_BYTES, 1);
                finish = finish.max(programmed);
                if let Some(data) = self.buffers[buf].drain_front(slices) {
                    for (offset, slice) in (at..).zip(data.chunks_exact(SLICE_LEN)) {
                        self.store.put(self.slice_ppa(zone, offset), slice);
                    }
                }
                // A trailing partial span on drain is the padded premature
                // flush.
                let kind = if drain && slices < unit {
                    self.counters.premature_flushes += 1;
                    FlushKind::Premature
                } else {
                    self.counters.full_flushes += 1;
                    FlushKind::Full
                };
                self.probe
                    .emit(now, DeviceEvent::BufferFlush { zone, kind, slices });
            }
        }
        if drain {
            self.buffers[buf].release();
        }
        finish
    }

    /// Drains the write buffer `zone` maps to, if the zone owns it.
    fn drain_buffer_of(&mut self, now: SimTime, zone: ZoneId) -> SimTime {
        let buf = zone.index() % self.buffers.len();
        if self.buffers[buf].owner() == Some(zone) {
            return self.flush_buffer(now, buf, true);
        }
        now
    }

    fn write_range(
        &mut self,
        now: SimTime,
        range: LpnRange,
        payload: Option<&[u8]>,
    ) -> Result<SimTime, DeviceError> {
        let (zone, offset) = self.zones.admit_write(range)?;
        let buf = zone.index() % self.buffers.len();
        let mut t = now;
        if self.buffers[buf].conflicts_with(zone) {
            self.counters.buffer_conflicts += 1;
            self.probe.emit(t, DeviceEvent::BufferConflict { zone });
            t = self.flush_buffer(t, buf, true);
        }
        if self.buffers[buf].owner() != Some(zone) {
            self.buffers[buf].release();
            self.buffers[buf].adopt(zone, offset);
        }

        let mut remaining = range.count;
        let mut pay_off = 0usize;
        let mut zone_complete = false;
        while remaining > 0 {
            let take = remaining.min(self.buffers[buf].room());
            let chunk = payload.map(|p| &p[pay_off..pay_off + to_index(take * SLICE_BYTES)]);
            self.buffers[buf].append(take, chunk);
            zone_complete = self.zones.advance(zone, take);
            pay_off += to_index(take * SLICE_BYTES);
            remaining -= take;
            if self.buffers[buf].is_full() {
                t = self.flush_buffer(t, buf, false);
            }
        }
        if zone_complete {
            t = self.flush_buffer(t, buf, true);
            self.zones.seal(zone);
        }
        let jitter = self.jitter();
        Ok(t + HOST_OVERHEAD + jitter)
    }

    fn read_range(
        &mut self,
        now: SimTime,
        range: LpnRange,
    ) -> Result<(SimTime, Option<Vec<u8>>), DeviceError> {
        let zs = self.zones.zone_slices();
        let backed = self.cfg.data_backing;
        let mut data = Vec::with_capacity(if backed {
            to_index(range.count * SLICE_BYTES)
        } else {
            0
        });
        // A slice nobody stored reads back as zeroes (a timing-only write).
        let mut push = |slice: Option<&[u8]>| match slice {
            _ if !backed => {}
            Some(s) => data.extend_from_slice(s),
            None => data.resize(data.len() + SLICE_LEN, 0),
        };
        // Page senses in first-appearance order, each with the bytes the
        // request wants of it.
        let mut senses: Vec<(ChipId, u64)> = Vec::new();
        let mut seen = BTreeMap::new();
        for lpn in range.iter() {
            let (zone, offset) = (ZoneId(lpn.raw() / zs), lpn.raw() % zs);
            if offset >= self.zones.readable(zone) {
                return Err(DeviceError::UnwrittenRead { lpn });
            }
            let b = &self.buffers[zone.index() % self.buffers.len()];
            if b.holds(zone, offset) {
                push(b.slice_data(offset));
                continue;
            }
            let ppa = self.slice_ppa(zone, offset);
            let parts = self.cfg.geometry.decode_ppa(ppa);
            let sense = *seen
                .entry((parts.chip, parts.block, parts.page))
                .or_insert_with(|| {
                    senses.push((parts.chip, 0));
                    senses.len() - 1
                });
            senses[sense].1 += SLICE_BYTES;
            push(self.store.get(ppa));
        }
        let mut finish = now;
        for &(chip, bytes) in &senses {
            let read = self
                .flash
                .timed_page_read(now, chip, self.cfg.normal_cell, bytes);
            finish = finish.max(read.end);
        }
        // Every emulated page operation crosses the KVM host/guest
        // boundary, so the switching jitter accumulates per page — this is
        // what buries flash-scale read latencies (paper §IV-B). A read
        // served from the buffers alone still pays one switch.
        for _ in 0..senses.len().max(1) {
            finish += self.jitter();
        }
        Ok((finish + HOST_OVERHEAD, backed.then_some(data)))
    }
}

impl StorageDevice for FemuZns {
    fn config(&self) -> &DeviceConfig {
        &self.cfg
    }

    /// Buffer flushes, conflicts, zone resets and media operations go to
    /// `probe`.
    fn set_probe(&mut self, probe: Probe) {
        self.flash.set_probe(probe.clone());
        self.probe = probe;
    }

    fn capacity_bytes(&self) -> u64 {
        self.zones.capacity_bytes()
    }

    fn submit(&mut self, now: SimTime, request: &IoRequest) -> Result<Completion, DeviceError> {
        let range = request.admit(self.capacity_bytes())?;
        match request.kind {
            IoKind::Write => {
                let finished = self.write_range(now, range, request.data.as_deref())?;
                self.counters.book_host(request);
                Ok(Completion::at(now, finished))
            }
            IoKind::Append => {
                let landed = self.zones.append_target(range)?;
                let finished = self.write_range(now, landed, request.data.as_deref())?;
                self.counters.book_host(request);
                Ok(Completion {
                    assigned_offset: Some(landed.start.byte_offset()),
                    ..Completion::at(now, finished)
                })
            }
            IoKind::Read => {
                let (finished, data) = self.read_range(now, range)?;
                self.counters.book_host(request);
                Ok(Completion {
                    data: data.map(Bytes::from),
                    ..Completion::at(now, finished)
                })
            }
        }
    }

    fn flush(&mut self, now: SimTime) -> Result<Completion, DeviceError> {
        let mut t = now;
        for buf in 0..self.buffers.len() {
            t = self.flush_buffer(t, buf, true);
        }
        let jitter = self.jitter();
        Ok(Completion::at(now, t + HOST_OVERHEAD + jitter))
    }

    fn counters(&self) -> Counters {
        let mut c = self.counters;
        self.flash.stats().fold_into(&mut c);
        c
    }

    fn model_name(&self) -> &'static str {
        "femu"
    }
}

impl ZonedDevice for FemuZns {
    fn zone_count(&self) -> usize {
        self.zones.zone_count()
    }

    fn zone_size(&self) -> u64 {
        self.zones.zone_bytes()
    }

    fn zone_info(&self, zone: ZoneId) -> Result<ZoneInfo, DeviceError> {
        self.zones.info(zone)
    }

    fn reset_zone(&mut self, now: SimTime, zone: ZoneId) -> Result<Completion, DeviceError> {
        let buf = self.zones.checked(zone)? % self.buffers.len();
        if self.buffers[buf].owner() == Some(zone) {
            self.buffers[buf].release();
        }
        let mut t = now;
        if self.zones.wp_slices(zone) > 0 {
            let g = &self.cfg.geometry;
            let sb = g.zone_superblock(zone);
            t = self.flash.erase_superblock(now, sb);
            for chip in 0..g.nchips() as u64 {
                let block = self.flash.block_base(ChipId(chip), sb.index());
                self.store.remove_range(block, g.slices_per_block());
            }
        }
        self.zones.reset(zone);
        self.counters.zone_resets += 1;
        self.probe.emit(t, DeviceEvent::ZoneReset { zone });
        let jitter = self.jitter();
        Ok(Completion::at(now, t + jitter))
    }

    fn open_zone(&mut self, now: SimTime, zone: ZoneId) -> Result<Completion, DeviceError> {
        self.zones.open(zone)?;
        let jitter = self.jitter();
        Ok(Completion::at(now, now + jitter))
    }

    fn close_zone(&mut self, now: SimTime, zone: ZoneId) -> Result<Completion, DeviceError> {
        self.zones.closable(zone)?;
        let t = self.drain_buffer_of(now, zone);
        self.zones.close(zone);
        let jitter = self.jitter();
        Ok(Completion::at(now, t + jitter))
    }

    fn finish_zone(&mut self, now: SimTime, zone: ZoneId) -> Result<Completion, DeviceError> {
        let mut t = now;
        if self.zones.finishable(zone)? {
            t = self.drain_buffer_of(now, zone);
            self.zones.seal(zone);
        }
        let jitter = self.jitter();
        Ok(Completion::at(now, t + jitter))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use conzone_types::ZoneState;

    fn dev() -> FemuZns {
        FemuZns::new(DeviceConfig::tiny_for_tests())
    }

    fn patt(len: usize, seed: u8) -> Bytes {
        Bytes::from(
            (0..len)
                .map(|i| (i as u8).wrapping_mul(17).wrapping_add(seed))
                .collect::<Vec<u8>>(),
        )
    }

    #[test]
    fn write_read_roundtrip() {
        let mut d = dev();
        let data = patt(128 * 1024, 1);
        let c = d
            .submit(SimTime::ZERO, &IoRequest::write_data(0, data.clone()))
            .unwrap();
        let r = d
            .submit(c.finished, &IoRequest::read(0, 128 * 1024))
            .unwrap();
        assert_eq!(r.data.unwrap(), data);
    }

    #[test]
    fn jitter_dominates_latency() {
        let mut d = dev();
        let zone = d.zone_size();
        let c = d
            .submit(
                SimTime::ZERO,
                &IoRequest::write_data(0, patt(zone as usize, 2)),
            )
            .unwrap();
        // Reads pay tens-of-microseconds jitter on top of the flash read.
        let mut total = SimDuration::ZERO;
        let mut t = c.finished;
        for i in 0..50u64 {
            let r = d.submit(t, &IoRequest::read(i * 4096, 4096)).unwrap();
            total += r.latency();
            t = r.finished;
        }
        let mean_us = total.as_micros_f64() / 50.0;
        assert!(
            mean_us > 40.0,
            "vm jitter should push 4 KiB reads past the bare 32 us TLC read; got {mean_us:.1}"
        );
    }

    #[test]
    fn no_channel_bandwidth_model() {
        let d = dev();
        assert!(!d.cfg.model_channel_bandwidth);
    }

    #[test]
    fn premature_eviction_pads_units() {
        let mut d = dev();
        let mut t = SimTime::ZERO;
        let zone = d.zone_size();
        // Conflicting zones 0 and 2 (shared buffer), 8 KiB each.
        t = d
            .submit(t, &IoRequest::write_data(0, patt(8192, 3)))
            .unwrap()
            .finished;
        t = d
            .submit(t, &IoRequest::write_data(2 * zone, patt(8192, 4)))
            .unwrap()
            .finished;
        let _ = t;
        let c = d.counters();
        assert_eq!(c.buffer_conflicts, 1);
        assert_eq!(c.premature_flushes, 1);
        // The 8 KiB eviction programmed a whole 64 KiB unit.
        assert_eq!(c.flash_program_bytes_tlc, 64 * 1024);
        assert_eq!(c.flash_program_bytes_slc, 0, "no SLC in FEMU");
    }

    #[test]
    fn write_pointer_enforced_and_reset_clears() {
        let mut d = dev();
        let c = d
            .submit(SimTime::ZERO, &IoRequest::write_data(0, patt(4096, 5)))
            .unwrap();
        assert!(matches!(
            d.submit(c.finished, &IoRequest::write_data(65536, patt(4096, 6))),
            Err(DeviceError::NotWritePointer { .. })
        ));
        let r = d.reset_zone(c.finished, ZoneId(0)).unwrap();
        assert_eq!(d.zone_info(ZoneId(0)).unwrap().state, ZoneState::Empty);
        d.submit(r.finished, &IoRequest::write_data(0, patt(4096, 7)))
            .unwrap();
    }

    #[test]
    fn deterministic_per_seed() {
        let run = || {
            let mut d = dev();
            let mut t = SimTime::ZERO;
            for i in 0..10u64 {
                t = d
                    .submit(t, &IoRequest::write_data(i * 65536, patt(65536, i as u8)))
                    .unwrap()
                    .finished;
            }
            t
        };
        assert_eq!(run(), run());
    }
}

#[cfg(test)]
mod lifecycle_tests {
    use super::*;
    use conzone_types::ZoneState;

    #[test]
    fn femu_zone_lifecycle() {
        let mut d = FemuZns::new(DeviceConfig::tiny_for_tests());
        let mut t = SimTime::ZERO;
        t = d.open_zone(t, ZoneId(0)).unwrap().finished;
        assert_eq!(d.zone_info(ZoneId(0)).unwrap().state, ZoneState::Open);
        // Sub-unit write, then close: FEMU pads the eviction to a full
        // unit on the normal media (no SLC to absorb it).
        t = d.submit(t, &IoRequest::write(0, 8192)).unwrap().finished;
        let before = d.counters();
        t = d.close_zone(t, ZoneId(0)).unwrap().finished;
        assert_eq!(d.zone_info(ZoneId(0)).unwrap().state, ZoneState::Closed);
        let after = d.counters();
        assert_eq!(after.premature_flushes, before.premature_flushes + 1);
        assert!(after.flash_program_bytes_tlc >= before.flash_program_bytes_tlc + 64 * 1024);
        // Reopen implicitly by writing at the pointer; then finish.
        t = d.submit(t, &IoRequest::write(8192, 4096)).unwrap().finished;
        t = d.finish_zone(t, ZoneId(0)).unwrap().finished;
        assert_eq!(d.zone_info(ZoneId(0)).unwrap().state, ZoneState::Full);
        assert!(matches!(
            d.submit(t, &IoRequest::write(12288, 4096)),
            Err(DeviceError::ZoneFull { .. })
        ));
        // Close of a non-open zone errors; open of a full zone errors.
        assert!(matches!(
            d.close_zone(t, ZoneId(1)),
            Err(DeviceError::ZoneNotWritable { .. })
        ));
        assert!(matches!(
            d.open_zone(t, ZoneId(0)),
            Err(DeviceError::ZoneFull { .. })
        ));
    }
}

#[cfg(test)]
mod more_femu_tests {
    use super::*;

    #[test]
    fn buffered_tail_readable_before_flush() {
        let mut d = FemuZns::new(DeviceConfig::tiny_for_tests());
        let data = Bytes::from(vec![0x42u8; 8192]);
        let c = d
            .submit(SimTime::ZERO, &IoRequest::write_data(0, data.clone()))
            .unwrap();
        assert_eq!(d.counters().flash_program_bytes(), 0, "still buffered");
        let r = d.submit(c.finished, &IoRequest::read(0, 8192)).unwrap();
        assert_eq!(r.data.unwrap(), data);
    }

    /// Every flash page a read senses is a data-page read: reads of
    /// flushed data count one per distinct 16 KiB page they touch, however
    /// the range is aligned.
    #[test]
    fn reads_of_flushed_data_count_each_page_they_sense() {
        let mut d = FemuZns::new(DeviceConfig::tiny_for_tests());
        let page = d.cfg.geometry.page_bytes as u64;
        let w = d
            .submit(SimTime::ZERO, &IoRequest::write(0, 8 * page))
            .unwrap();
        let mut t = d.flush(w.finished).unwrap().finished;
        assert_eq!(d.counters().flash_data_reads, 0);
        for (offset, len, pages) in [(0, 8 * page, 8), (4096, 4096, 1), (page - 4096, 8192, 2)] {
            let before = d.counters().flash_data_reads;
            t = d.submit(t, &IoRequest::read(offset, len)).unwrap().finished;
            let sensed = d.counters().flash_data_reads - before;
            assert_eq!(sensed, pages, "{len} bytes at {offset}");
        }
    }

    #[test]
    fn flush_drains_every_buffer() {
        let mut d = FemuZns::new(DeviceConfig::tiny_for_tests());
        let mut t = SimTime::ZERO;
        let zone = d.zone_size();
        // Two zones on different buffers, both with sub-unit tails.
        t = d.submit(t, &IoRequest::write(0, 8192)).unwrap().finished;
        t = d
            .submit(t, &IoRequest::write(zone, 12288))
            .unwrap()
            .finished;
        assert_eq!(d.counters().flash_program_bytes(), 0);
        let f = d.flush(t).unwrap();
        let c = d.counters();
        // Both tails padded to whole 64 KiB units.
        assert_eq!(c.flash_program_bytes_tlc, 2 * 64 * 1024);
        assert_eq!(c.premature_flushes, 2);
        // Data survives the padding.
        let r = d.submit(f.finished, &IoRequest::read(zone, 4096)).unwrap();
        assert!(r.finished > f.finished);
    }

    /// The last 16 KiB of a zone, written after a padded eviction, go out
    /// as a padded unit of their own: the padding has no address, and in
    /// particular not the first slices of the next zone.
    #[test]
    fn padding_at_the_end_of_a_zone_stays_out_of_the_next() {
        let mut d = FemuZns::new(DeviceConfig::tiny_for_tests());
        let zone = d.zone_size();
        let fill = |byte: u8, slices: usize| Bytes::from(vec![byte; slices * SLICE_LEN]);
        let mut t = SimTime::ZERO;
        t = d
            .submit(t, &IoRequest::write_data(zone, fill(0x11, 16)))
            .unwrap()
            .finished;
        t = d.flush(t).unwrap().finished;
        t = d
            .submit(t, &IoRequest::write_data(0, fill(0x22, 252)))
            .unwrap()
            .finished;
        t = d.close_zone(t, ZoneId(0)).unwrap().finished;
        let last = IoRequest::write_data(252 * SLICE_BYTES, fill(0x33, 4));
        t = d.submit(t, &last).unwrap().finished;
        let r = d.submit(t, &IoRequest::read(zone - 4096, 8192)).unwrap();
        let data = r.data.unwrap();
        assert_eq!((data[0], data[4096]), (0x33, 0x11));
    }

    #[test]
    fn jitter_streams_are_independent_of_payload() {
        // The RNG draws depend only on the op sequence, not payloads.
        let run = |byte: u8| {
            let mut d = FemuZns::new(DeviceConfig::tiny_for_tests());
            let data = Bytes::from(vec![byte; 65536]);
            let c = d
                .submit(SimTime::ZERO, &IoRequest::write_data(0, data))
                .unwrap();
            d.submit(c.finished, &IoRequest::read(0, 4096))
                .unwrap()
                .finished
        };
        assert_eq!(run(1), run(2));
    }
}
