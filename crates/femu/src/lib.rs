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
//! FEMU does support write buffers (Table I), so zone writes aggregate
//! into per-buffer superpages exactly as in ConZone — but a premature
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

use bytes::Bytes;
use conzone_flash::FlashArray;
use conzone_sim::SimRng;
use conzone_types::{
    to_index, Completion, Counters, DeviceConfig, DeviceError, DeviceEvent, FlushKind, IoKind,
    IoRequest, LpnRange, Ppa, Probe, SimDuration, SimTime, StorageDevice, ZoneId, ZoneInfo,
    ZoneState, ZonedDevice, SLICE_BYTES, SLICE_LEN,
};

/// Median host/guest switch latency per I/O (µ of the log-normal), ns.
/// "Tens of microseconds" per the paper's §IV-B discussion of KVM exits.
const VM_JITTER_MEDIAN_NS: f64 = 25_000.0;
/// Log-normal sigma: large fluctuations that "are difficult to simulate
/// the read latency of flash, which is in the tens of microseconds".
const VM_JITTER_SIGMA: f64 = 0.6;

#[derive(Debug, Clone)]
struct FemuZone {
    state: ZoneState,
    wp_slices: u64,
}

#[derive(Debug, Clone)]
struct FemuBuffer {
    owner: Option<ZoneId>,
    start_offset: u64,
    slices: u64,
    data: Vec<u8>,
}

/// The FEMU-like ZNS device model.
#[derive(Debug)]
pub struct FemuZns {
    cfg: DeviceConfig,
    flash: FlashArray,
    zones: Vec<FemuZone>,
    buffers: Vec<FemuBuffer>,
    counters: Counters,
    rng: SimRng,
    zone_size_slices: u64,
    probe: Probe,
    /// Payload store keyed by logical slice (zones map 1:1 to media, so
    /// no physical indirection is needed); populated only with
    /// `data_backing`.
    store: std::collections::BTreeMap<u64, Box<[u8]>>,
}

impl FemuZns {
    /// Builds the baseline. The configuration's SLC region, L2P cache,
    /// search strategy and channel bandwidth are ignored (that is the
    /// point of this model); the normal media, geometry and write-buffer
    /// count are honoured. Zones span whole superblocks without padding:
    /// FEMU exposes the raw superblock capacity.
    pub fn new(cfg: DeviceConfig) -> FemuZns {
        let zones = (0..cfg.zone_count())
            .map(|_| FemuZone {
                state: ZoneState::Empty,
                wp_slices: 0,
            })
            .collect();
        let buffers = (0..cfg.write_buffers)
            .map(|_| FemuBuffer {
                owner: None,
                start_offset: 0,
                slices: 0,
                data: Vec::new(),
            })
            .collect();
        let zone_size_slices = cfg.geometry.superblock_bytes() / SLICE_BYTES;
        let mut femu_cfg = cfg;
        // FEMU does not model the UFS channel, and its ZNS mode has no
        // fault plane either.
        femu_cfg.model_channel_bandwidth = false;
        femu_cfg.fault = conzone_types::FaultConfig::default();
        let seed = femu_cfg.seed;
        FemuZns {
            flash: FlashArray::new(&femu_cfg),
            zones,
            buffers,
            counters: Counters::new(),
            rng: SimRng::new(seed ^ FEMU_SEED_MIX),
            zone_size_slices,
            probe: Probe::disabled(),
            store: std::collections::BTreeMap::new(),
            cfg: femu_cfg,
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

    /// The table index of a zone id taken from a zone command, or the
    /// `OutOfRange` all five commands answer a zone the device does not have.
    fn checked_zone(&self, zone: ZoneId) -> Result<usize, DeviceError> {
        if zone.raw() >= self.zones.len() as u64 {
            return Err(DeviceError::OutOfRange {
                offset: zone.raw().saturating_mul(self.zone_size()),
                capacity: self.capacity_bytes(),
            });
        }
        Ok(zone.index())
    }

    fn unit_slices(&self) -> u64 {
        self.cfg.geometry.slices_per_unit() as u64
    }

    /// Canonical physical slice for a zone offset (zones map directly to
    /// superblocks; there is no indirection in FEMU's ZNS mode).
    fn slice_ppa(&self, zone: ZoneId, offset: u64) -> Ppa {
        let sb = self.cfg.geometry.zone_superblock(zone);
        self.cfg.geometry.superblock_slice(sb, offset)
    }

    /// Flushes a buffer: whole units program as-is; with `drain`, the
    /// sub-unit remainder is padded to a full programming unit (no SLC to
    /// absorb it — the padding is wasted media bandwidth).
    fn flush_buffer(
        &mut self,
        now: SimTime,
        buf: usize,
        drain: bool,
    ) -> Result<SimTime, DeviceError> {
        if self.buffers[buf].slices == 0 {
            if drain {
                self.buffers[buf].owner = None;
            }
            return Ok(now);
        }
        let zone = self.buffers[buf].owner.expect("non-empty buffer has owner");
        let unit = self.unit_slices();
        let start = self.buffers[buf].start_offset;
        let len = self.buffers[buf].slices;
        // The buffer may start mid-unit after a padded eviction; flush
        // whole-unit *spans* (each span charges one unit program — FEMU
        // does not track NAND block state, only timing).
        let end = start + len;
        let flush_end = if drain { end } else { (end / unit) * unit };
        let full = flush_end.saturating_sub(start);
        let mut t = now;
        let mut finish = t;
        let backed = self.cfg.data_backing;

        // FEMU emulates per-operation delays without a real FTL: each unit
        // charges one transfer-free program on its canonical chip (FEMU
        // ACKs after the emulated latency completes), and block state is
        // not tracked. Payloads go into the device's own slice store.
        let zs = self.zone_size_slices;
        let program =
            |dev: &mut Self, t: SimTime, off: u64, bytes: u64, data: Option<&[u8]>| -> SimTime {
                let first = dev.slice_ppa(zone, off);
                let parts = dev.cfg.geometry.decode_ppa(first);
                let cell = dev.cfg.normal_cell;
                let (_buffer_free, fin) = dev.flash.timed_program(t, parts.chip, cell, bytes, 1);
                if let Some(d) = data {
                    for (i, chunk) in d.chunks_exact(SLICE_LEN).enumerate() {
                        let lpn = zone.raw() * zs + off + i as u64;
                        dev.store.insert(lpn, chunk.into());
                    }
                }
                fin
            };

        // One unit program per unit index the flushed span overlaps; a
        // trailing partial span on drain is the padded premature flush.
        if flush_end > start {
            let first_unit = start / unit;
            let last_unit = (flush_end - 1) / unit;
            for u in first_unit..=last_unit {
                let span_start = (u * unit).max(start);
                let span_end = ((u + 1) * unit).min(flush_end);
                let data = if backed {
                    let at = to_index((span_start - start) * SLICE_BYTES);
                    let len_b = to_index((span_end - span_start) * SLICE_BYTES);
                    let mut v = self.buffers[buf].data[at..at + len_b].to_vec();
                    v.resize(to_index(unit * SLICE_BYTES), 0);
                    Some(v)
                } else {
                    None
                };
                let end_t = program(self, t, span_start, unit * SLICE_BYTES, data.as_deref());
                finish = finish.max(end_t);
                let kind = if drain && span_end - span_start < unit {
                    self.counters.premature_flushes += 1;
                    FlushKind::Premature
                } else {
                    self.counters.full_flushes += 1;
                    FlushKind::Full
                };
                self.probe.emit(
                    t,
                    DeviceEvent::BufferFlush {
                        zone,
                        kind,
                        slices: span_end - span_start,
                    },
                );
            }
        }
        t = finish;

        // Advance the buffer.
        let consumed = if drain { len } else { full };
        self.buffers[buf].start_offset += consumed;
        self.buffers[buf].slices -= consumed;
        if backed {
            let bytes = to_index(consumed * SLICE_BYTES);
            let cut = bytes.min(self.buffers[buf].data.len());
            let tail = self.buffers[buf].data.split_off(cut);
            self.buffers[buf].data = tail;
        }
        if drain {
            self.buffers[buf].owner = None;
            self.buffers[buf].slices = 0;
            self.buffers[buf].data.clear();
        }
        Ok(t)
    }

    fn write_range(
        &mut self,
        now: SimTime,
        range: LpnRange,
        payload: Option<&[u8]>,
    ) -> Result<SimTime, DeviceError> {
        let zs = self.zone_size_slices;
        let zone = ZoneId(range.start.raw() / zs);
        let offset = range.start.raw() % zs;
        if zone.raw() >= self.zones.len() as u64 {
            return Err(DeviceError::OutOfRange {
                offset: range.start.byte_offset(),
                capacity: self.capacity_bytes(),
            });
        }
        if offset + range.count > zs {
            return Err(DeviceError::ZoneBoundary { zone });
        }
        let zidx = zone.index();
        if self.zones[zidx].state == ZoneState::Full {
            return Err(DeviceError::ZoneFull { zone });
        }
        // Closed zones reopen implicitly on write.
        if offset != self.zones[zidx].wp_slices {
            return Err(DeviceError::NotWritePointer {
                zone,
                expected: conzone_types::Lpn(zone.raw() * zs + self.zones[zidx].wp_slices),
                got: range.start,
            });
        }
        self.zones[zidx].state = ZoneState::Open;

        let buf = zidx % self.buffers.len();
        let mut t = now;
        let conflicting = match self.buffers[buf].owner {
            Some(o) => o != zone && self.buffers[buf].slices > 0,
            None => false,
        };
        if conflicting {
            self.counters.buffer_conflicts += 1;
            self.probe.emit(t, DeviceEvent::BufferConflict { zone });
            t = self.flush_buffer(t, buf, true)?;
        }
        if self.buffers[buf].owner != Some(zone) {
            self.buffers[buf].owner = Some(zone);
            self.buffers[buf].start_offset = offset;
            self.buffers[buf].slices = 0;
            self.buffers[buf].data.clear();
        }

        let capacity = self.cfg.geometry.slices_per_superpage();
        let mut remaining = range.count;
        let mut pay_off = 0usize;
        while remaining > 0 {
            let room = capacity - self.buffers[buf].slices;
            let take = remaining.min(room);
            if self.cfg.data_backing {
                match payload {
                    Some(p) => self.buffers[buf]
                        .data
                        .extend_from_slice(&p[pay_off..pay_off + to_index(take * SLICE_BYTES)]),
                    None => {
                        let new_len = self.buffers[buf].data.len() + to_index(take * SLICE_BYTES);
                        self.buffers[buf].data.resize(new_len, 0);
                    }
                }
            }
            self.buffers[buf].slices += take;
            self.zones[zidx].wp_slices += take;
            pay_off += to_index(take * SLICE_BYTES);
            remaining -= take;
            if self.buffers[buf].slices == capacity {
                t = self.flush_buffer(t, buf, false)?;
            }
        }
        if self.zones[zidx].wp_slices == zs {
            t = self.flush_buffer(t, buf, true)?;
            self.zones[zidx].state = ZoneState::Full;
        }
        let jitter = self.jitter();
        Ok(t + self.cfg.host_overhead + jitter)
    }

    fn read_range(
        &mut self,
        now: SimTime,
        range: LpnRange,
    ) -> Result<(SimTime, Option<Vec<u8>>), DeviceError> {
        let zs = self.zone_size_slices;
        let mut ppas = Vec::new();
        let mut buffered: Vec<(usize, u64)> = Vec::new(); // (slot index, byte at)
        let mut slots: Vec<Option<usize>> = Vec::with_capacity(to_index(range.count));
        for lpn in range.iter() {
            let zone = ZoneId(lpn.raw() / zs);
            let offset = lpn.raw() % zs;
            let zidx = zone.index();
            if zidx >= self.zones.len() || offset >= self.zones[zidx].wp_slices {
                return Err(DeviceError::UnwrittenRead { lpn });
            }
            let buf = zidx % self.buffers.len();
            let b = &self.buffers[buf];
            if b.owner == Some(zone)
                && offset >= b.start_offset
                && offset < b.start_offset + b.slices
            {
                buffered.push((slots.len(), (offset - b.start_offset) * SLICE_BYTES));
                slots.push(None);
                continue;
            }
            slots.push(Some(ppas.len()));
            ppas.push(self.slice_ppa(zone, offset));
        }
        let mut finish = now;
        if !ppas.is_empty() {
            // Group into page senses (deterministic first-appearance order).
            let mut order: Vec<(conzone_types::ChipId, u64)> = Vec::new();
            let mut seen = std::collections::BTreeMap::new();
            for &ppa in &ppas {
                let parts = self.cfg.geometry.decode_ppa(ppa);
                let key = (parts.chip.raw(), parts.block, parts.page);
                match seen.get(&key) {
                    Some(&i) => {
                        let entry: &mut (conzone_types::ChipId, u64) = &mut order[i];
                        entry.1 += SLICE_BYTES;
                    }
                    None => {
                        seen.insert(key, order.len());
                        order.push((parts.chip, SLICE_BYTES));
                    }
                }
            }
            let cell = self.cfg.normal_cell;
            // Every emulated page operation crosses the KVM host/guest
            // boundary, so the switching jitter accumulates per page — this
            // is what buries flash-scale read latencies (paper §IV-B).
            let mut exit_cost = SimDuration::ZERO;
            for (chip, bytes) in order {
                let r = self.flash.timed_page_read(now, chip, cell, bytes);
                finish = finish.max(r.end);
                exit_cost += self.jitter();
            }
            finish += exit_cost;
        }
        let data = if self.cfg.data_backing {
            let mut v = Vec::with_capacity(to_index(range.count * SLICE_BYTES));
            for (i, slot) in slots.iter().enumerate() {
                match slot {
                    Some(_) => {
                        let lpn = range.start.raw() + i as u64;
                        match self.store.get(&lpn) {
                            Some(d) => v.extend_from_slice(d),
                            None => v.resize(v.len() + SLICE_LEN, 0),
                        }
                    }
                    None => {
                        let (_, at) = buffered
                            .iter()
                            .find(|(s, _)| *s == i)
                            .expect("buffered slot recorded");
                        // Identify the buffer again via the lpn's zone.
                        let lpn = range.start.raw() + i as u64;
                        let zone = lpn / zs;
                        let buf = to_index(zone) % self.buffers.len();
                        let b = &self.buffers[buf];
                        let at = to_index(*at);
                        if b.data.len() >= at + SLICE_LEN {
                            v.extend_from_slice(&b.data[at..at + SLICE_LEN]);
                        } else {
                            v.resize(v.len() + SLICE_LEN, 0);
                        }
                    }
                }
            }
            Some(v)
        } else {
            None
        };
        // Buffer-served reads still pay one switch.
        let jitter = if ppas.is_empty() {
            self.jitter()
        } else {
            SimDuration::ZERO
        };
        Ok((finish + self.cfg.host_overhead + jitter, data))
    }
}

/// Keeps the FEMU RNG stream distinct from other seeded components.
const FEMU_SEED_MIX: u64 = 0xFE50_1D5E_ED00_0001;

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
        self.zone_size_slices * SLICE_BYTES * self.zones.len() as u64
    }

    fn submit(&mut self, now: SimTime, request: &IoRequest) -> Result<Completion, DeviceError> {
        request.validate()?;
        if request.offset + request.len > self.capacity_bytes() {
            return Err(DeviceError::OutOfRange {
                offset: request.offset,
                capacity: self.capacity_bytes(),
            });
        }
        let range = LpnRange::covering_bytes(request.offset, request.len)
            .expect("validated request is non-empty");
        match request.kind {
            IoKind::Write => {
                self.counters.host_write_ops += 1;
                self.counters.host_write_bytes += request.len;
                let finished = self.write_range(now, range, request.data.as_deref())?;
                Ok(Completion {
                    submitted: now,
                    finished,
                    data: None,
                    assigned_offset: None,
                })
            }
            IoKind::Append => {
                self.counters.host_write_ops += 1;
                self.counters.host_write_bytes += request.len;
                let zs = self.zone_size_slices;
                let zone = range.start.raw() / zs;
                let wp = self
                    .zones
                    .get(to_index(zone))
                    .ok_or(DeviceError::OutOfRange {
                        offset: request.offset,
                        capacity: self.capacity_bytes(),
                    })?
                    .wp_slices;
                if wp + range.count > zs {
                    return Err(DeviceError::ZoneBoundary {
                        zone: conzone_types::ZoneId(zone),
                    });
                }
                let landed = LpnRange::new(conzone_types::Lpn(zone * zs + wp), range.count);
                let assigned = landed.start.byte_offset();
                let finished = self.write_range(now, landed, request.data.as_deref())?;
                Ok(Completion {
                    submitted: now,
                    finished,
                    data: None,
                    assigned_offset: Some(assigned),
                })
            }
            IoKind::Read => {
                self.counters.host_read_ops += 1;
                self.counters.host_read_bytes += request.len;
                let (finished, data) = self.read_range(now, range)?;
                Ok(Completion {
                    submitted: now,
                    finished,
                    data: data.map(Bytes::from),
                    assigned_offset: None,
                })
            }
        }
    }

    fn flush(&mut self, now: SimTime) -> Result<Completion, DeviceError> {
        let mut t = now;
        for buf in 0..self.buffers.len() {
            t = self.flush_buffer(t, buf, true)?;
        }
        let jitter = self.jitter();
        Ok(Completion {
            submitted: now,
            finished: t + self.cfg.host_overhead + jitter,
            data: None,
            assigned_offset: None,
        })
    }

    fn counters(&self) -> Counters {
        let mut c = self.counters;
        let stats = self.flash.stats();
        c.flash_program_bytes_slc = stats.program_bytes_slc;
        c.flash_program_bytes_tlc = stats.program_bytes_tlc;
        c.flash_program_bytes_qlc = stats.program_bytes_qlc;
        c.flash_data_reads = stats.page_reads;
        c.erases_slc = stats.erases_slc;
        c.erases_normal = stats.erases_normal;
        c
    }

    fn model_name(&self) -> &'static str {
        "femu"
    }
}

impl ZonedDevice for FemuZns {
    fn zone_count(&self) -> usize {
        self.zones.len()
    }

    fn zone_size(&self) -> u64 {
        self.zone_size_slices * SLICE_BYTES
    }

    fn zone_info(&self, zone: ZoneId) -> Result<ZoneInfo, DeviceError> {
        let z = &self.zones[self.checked_zone(zone)?];
        Ok(ZoneInfo {
            id: zone,
            state: z.state,
            write_pointer: z.wp_slices * SLICE_BYTES,
            capacity: self.zone_size(),
            size: self.zone_size(),
            start: zone.raw() * self.zone_size(),
        })
    }

    fn reset_zone(&mut self, now: SimTime, zone: ZoneId) -> Result<Completion, DeviceError> {
        let zidx = self.checked_zone(zone)?;
        let buf = zidx % self.buffers.len();
        if self.buffers[buf].owner == Some(zone) {
            self.buffers[buf].owner = None;
            self.buffers[buf].slices = 0;
            self.buffers[buf].data.clear();
        }
        let sb = self.cfg.geometry.zone_superblock(zone);
        let mut t = now;
        if self.zones[zidx].wp_slices > 0 {
            t = self.flash.erase_superblock(now, sb);
            let zs = self.zone_size_slices;
            for lpn in zone.raw() * zs..(zone.raw() + 1) * zs {
                self.store.remove(&lpn);
            }
        }
        self.zones[zidx].state = ZoneState::Empty;
        self.zones[zidx].wp_slices = 0;
        self.counters.zone_resets += 1;
        self.probe.emit(t, DeviceEvent::ZoneReset { zone });
        let jitter = self.jitter();
        Ok(Completion {
            submitted: now,
            finished: t + jitter,
            data: None,
            assigned_offset: None,
        })
    }

    fn open_zone(&mut self, now: SimTime, zone: ZoneId) -> Result<Completion, DeviceError> {
        let zidx = self.checked_zone(zone)?;
        let z = &mut self.zones[zidx];
        match z.state {
            ZoneState::Full => return Err(DeviceError::ZoneFull { zone }),
            _ => z.state = ZoneState::Open,
        }
        let jitter = self.jitter();
        Ok(Completion {
            submitted: now,
            finished: now + jitter,
            data: None,
            assigned_offset: None,
        })
    }

    fn close_zone(&mut self, now: SimTime, zone: ZoneId) -> Result<Completion, DeviceError> {
        let zidx = self.checked_zone(zone)?;
        if self.zones[zidx].state != ZoneState::Open {
            return Err(DeviceError::ZoneNotWritable { zone });
        }
        let buf = zidx % self.buffers.len();
        let mut t = now;
        if self.buffers[buf].owner == Some(zone) {
            t = self.flush_buffer(t, buf, true)?;
        }
        self.zones[zidx].state = ZoneState::Closed;
        let jitter = self.jitter();
        Ok(Completion {
            submitted: now,
            finished: t + jitter,
            data: None,
            assigned_offset: None,
        })
    }

    fn finish_zone(&mut self, now: SimTime, zone: ZoneId) -> Result<Completion, DeviceError> {
        let zidx = self.checked_zone(zone)?;
        let mut t = now;
        if self.zones[zidx].state != ZoneState::Full {
            let buf = zidx % self.buffers.len();
            if self.buffers[buf].owner == Some(zone) {
                t = self.flush_buffer(t, buf, true)?;
            }
            self.zones[zidx].state = ZoneState::Full;
        }
        let jitter = self.jitter();
        Ok(Completion {
            submitted: now,
            finished: t + jitter,
            data: None,
            assigned_offset: None,
        })
    }
}

impl conzone_types::PowerCycle for FemuZns {
    fn power_cut(&mut self, _now: SimTime) -> Result<u64, DeviceError> {
        Err(DeviceError::Unsupported(
            "femu baseline does not model power loss".to_string(),
        ))
    }

    fn remount(&mut self, _now: SimTime) -> Result<conzone_types::RecoveryReport, DeviceError> {
        Err(DeviceError::Unsupported(
            "femu baseline does not model power loss".to_string(),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
