//! The hand-written FEMU baseline that [`FemuZns`](crate::FemuZns) was
//! before it moved onto `ZoneTable`, `WriteBuffer` and `DataStore`, kept as
//! the reference of the differential property in `proptests.rs`: its own
//! zone state machine, write-pointer admission and append placement, its
//! own buffer struct, a `BTreeMap` payload store keyed by logical slice
//! with a per-slice reset loop. Model behaviour is the old code's line for
//! line, the probe included; only the power-cycle stub is gone, and one
//! line of `flush_buffer` differs (see `STORED PADDING` there).

use bytes::Bytes;
use conzone_flash::FlashArray;
use conzone_sim::SimRng;
use conzone_types::{
    to_index, Completion, Counters, DeviceConfig, DeviceError, DeviceEvent, FlushKind, IoKind,
    IoRequest, LpnRange, Ppa, Probe, SimDuration, SimTime, StorageDevice, ZoneId, ZoneInfo,
    ZoneState, ZonedDevice, HOST_OVERHEAD, SLICE_BYTES, SLICE_LEN,
};

use crate::{FEMU_SEED_MIX, VM_JITTER_MEDIAN_NS, VM_JITTER_SIGMA};

#[derive(Debug, Clone)]
struct RefZone {
    state: ZoneState,
    wp_slices: u64,
}

#[derive(Debug, Clone)]
struct RefBuffer {
    owner: Option<ZoneId>,
    start_offset: u64,
    slices: u64,
    data: Vec<u8>,
}

#[derive(Debug)]
pub(crate) struct ReferenceFemu {
    cfg: DeviceConfig,
    flash: FlashArray,
    zones: Vec<RefZone>,
    buffers: Vec<RefBuffer>,
    counters: Counters,
    rng: SimRng,
    zone_size_slices: u64,
    probe: Probe,
    /// Payload store keyed by logical slice (zones map 1:1 to media, so
    /// no physical indirection is needed); populated only with
    /// `data_backing`.
    store: std::collections::BTreeMap<u64, Box<[u8]>>,
}

impl ReferenceFemu {
    pub(crate) fn new(cfg: DeviceConfig) -> ReferenceFemu {
        let zones = (0..cfg.zone_count())
            .map(|_| RefZone {
                state: ZoneState::Empty,
                wp_slices: 0,
            })
            .collect();
        let buffers = (0..cfg.write_buffers)
            .map(|_| RefBuffer {
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
        ReferenceFemu {
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
    fn checked(&self, zone: ZoneId) -> Result<usize, DeviceError> {
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
                    // STORED PADDING: the old code went on
                    // `v.resize(to_index(unit * SLICE_BYTES), 0)` and stored
                    // the padding too — a unit's worth of zeroes from a
                    // span that starts mid-unit, which at the end of a zone
                    // overwrote the first slices of the next one. Timing
                    // never looked at `v` (the program charges `bytes`).
                    Some(self.buffers[buf].data[at..at + len_b].to_vec())
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
        Ok(t + HOST_OVERHEAD + jitter)
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
        Ok((finish + HOST_OVERHEAD + jitter, data))
    }
}

impl StorageDevice for ReferenceFemu {
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
                let finished = self.write_range(now, range, request.data.as_deref())?;
                self.counters.book_host(request);
                Ok(Completion {
                    submitted: now,
                    finished,
                    data: None,
                    assigned_offset: None,
                })
            }
            IoKind::Append => {
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
                self.counters.book_host(request);
                Ok(Completion {
                    submitted: now,
                    finished,
                    data: None,
                    assigned_offset: Some(assigned),
                })
            }
            IoKind::Read => {
                let (finished, data) = self.read_range(now, range)?;
                self.counters.book_host(request);
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
            finished: t + HOST_OVERHEAD + jitter,
            data: None,
            assigned_offset: None,
        })
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

impl ZonedDevice for ReferenceFemu {
    fn zone_count(&self) -> usize {
        self.zones.len()
    }

    fn zone_size(&self) -> u64 {
        self.zone_size_slices * SLICE_BYTES
    }

    fn zone_info(&self, zone: ZoneId) -> Result<ZoneInfo, DeviceError> {
        let z = &self.zones[self.checked(zone)?];
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
        let zidx = self.checked(zone)?;
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
        let zidx = self.checked(zone)?;
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
        let zidx = self.checked(zone)?;
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
        let zidx = self.checked(zone)?;
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
