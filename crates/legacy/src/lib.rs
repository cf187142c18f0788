//! Legacy consumer flash storage baseline (paper §IV-A "Legacy").
//!
//! The paper compares ConZone against a traditional consumer flash device
//! implemented "based on descriptions from" ZMS \[ATC'24]: the host may
//! write any 4 KiB sector in place, the device maps pages out-of-place into
//! an append stream, reclaims dead space with device-side garbage
//! collection, and caches L2P entries on demand — with *sequential
//! prefetch* of a whole chunk's worth of entries per miss (the paper's
//! Fig. 6(a) run uses a 1023-entry prefetch window).
//!
//! The contrast with ConZone's hybrid mapping is capacity: Legacy's
//! prefetched chunk occupies 1024 cache slots where ConZone's aggregated
//! chunk entry occupies one.
//!
//! ```
//! use conzone_legacy::LegacyDevice;
//! use conzone_types::{DeviceConfig, IoRequest, SimTime, StorageDevice};
//!
//! let mut dev = LegacyDevice::new(DeviceConfig::tiny_for_tests());
//! let c = dev.submit(SimTime::ZERO, &IoRequest::write(0, 64 * 1024))?;
//! // Legacy allows in-place updates: rewrite the same sectors.
//! dev.submit(c.finished, &IoRequest::write(0, 64 * 1024))?;
//! # Ok::<(), conzone_types::DeviceError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

use std::collections::VecDeque;

use bytes::Bytes;
use conzone_flash::{FlashArray, FlashError};
use conzone_ftl::{LruCache, MappingTable};
use conzone_types::{
    ChipId, Completion, Counters, DeviceConfig, DeviceError, DeviceEvent, FaultConfig, FlushKind,
    IoKind, IoRequest, L2pOutcome, Lpn, LpnRange, PowerCycle, Ppa, Probe, RecoveryReport, SimTime,
    StorageDevice, SuperblockId, ZoneId, SLICE_BYTES,
};

/// Fraction of normal superblocks held back as GC over-provisioning.
const OVERPROVISION_DIVISOR: usize = 16; // ~6 %

fn internal(e: FlashError) -> DeviceError {
    DeviceError::Unsupported(format!("internal flash error: {e}"))
}

/// A buffered, not-yet-flushed host write of one slice.
#[derive(Debug, Clone)]
struct PendingSlice {
    lpn: Lpn,
    data: Option<Vec<u8>>,
}

/// The Legacy page-mapping device.
#[derive(Debug)]
pub struct LegacyDevice {
    cfg: DeviceConfig,
    flash: FlashArray,
    table: MappingTable,
    /// Page-granularity L2P cache (key = lpn).
    cache: LruCache<u64, ()>,
    /// Entries (the missed one plus the rest of its window) fetched per
    /// L2P miss. 1024 = the paper's 1023-entry prefetch window plus the
    /// missed entry, covering one 4 MiB chunk.
    prefetch_window: u64,
    /// Aggregation buffer for incoming writes (one superpage).
    pending: VecDeque<PendingSlice>,
    /// Append point: the open superblock and its next programming unit.
    open_sb: Option<SuperblockId>,
    next_unit: usize,
    free: VecDeque<SuperblockId>,
    used: Vec<SuperblockId>,
    /// Reverse map ppa → lpn for GC migration (dense vector over slices).
    owner: std::collections::BTreeMap<u64, Lpn>,
    counters: Counters,
    next_mapping_chip: u64,
    logical_slices: u64,
    /// Guards against recursive GC while GC's own flushes allocate space.
    in_gc: bool,
    probe: Probe,
}

impl LegacyDevice {
    /// Builds a Legacy device from the same configuration vocabulary as
    /// ConZone. `write_buffers`, zone padding and SLC settings are ignored
    /// (Legacy has a single append stream and no zones); the geometry's SLC
    /// blocks are simply unused spare area.
    pub fn new(cfg: DeviceConfig) -> LegacyDevice {
        let mut cfg = cfg;
        // The Legacy baseline does not reproduce the fault plane.
        cfg.fault = FaultConfig::default();
        let g = cfg.geometry;
        let normal: Vec<SuperblockId> = (g.slc_blocks_per_chip as u64..g.blocks_per_chip as u64)
            .map(SuperblockId)
            .collect();
        // At least three spare superblocks: one GC destination, one in
        // flight as the open block, one slack — so the append stream never
        // deadlocks even when every victim is still fully valid.
        let reserve = (normal.len() / OVERPROVISION_DIVISOR).max(3);
        let logical_sbs = normal.len() - reserve;
        let logical_slices = logical_sbs as u64 * g.slices_per_superblock();
        let prefetch_window = cfg.chunk_slices();
        LegacyDevice {
            flash: FlashArray::new(&cfg),
            table: MappingTable::new(logical_slices, cfg.chunk_slices(), cfg.zone_size_slices()),
            cache: LruCache::new(cfg.l2p_cache_entries()),
            prefetch_window,
            pending: VecDeque::new(),
            open_sb: None,
            next_unit: 0,
            free: normal.into_iter().collect(),
            used: Vec::new(),
            owner: std::collections::BTreeMap::new(),
            counters: Counters::new(),
            next_mapping_chip: 0,
            logical_slices,
            in_gc: false,
            probe: Probe::disabled(),
            cfg,
        }
    }

    /// Attaches a trace probe; flushes, GC passes, L2P lookups and media
    /// operations are emitted to it from now on. Legacy has no zones, so
    /// zone-tagged events use zone 0.
    pub fn set_probe(&mut self, probe: Probe) {
        self.flash.set_probe(probe.clone());
        self.probe = probe;
    }

    /// Logical capacity in slices (physical minus over-provisioning).
    pub fn logical_slices(&self) -> u64 {
        self.logical_slices
    }

    /// Discards (trims) a 4 KiB-aligned byte range: mappings are dropped
    /// and the physical slices invalidated immediately, so GC never moves
    /// them. This is exactly the signal whose *absence* creates the
    /// paper's §I "time gap"; see the `lifespan` bench for the effect.
    ///
    /// # Errors
    ///
    /// [`DeviceError::Unaligned`] or [`DeviceError::OutOfRange`] for a bad
    /// range. Trimming unwritten sectors is a no-op.
    pub fn trim(&mut self, now: SimTime, offset: u64, len: u64) -> Result<Completion, DeviceError> {
        if len == 0 || !offset.is_multiple_of(SLICE_BYTES) || !len.is_multiple_of(SLICE_BYTES) {
            return Err(DeviceError::Unaligned { offset, len });
        }
        if offset + len > self.capacity_bytes() {
            return Err(DeviceError::OutOfRange {
                offset,
                capacity: self.capacity_bytes(),
            });
        }
        let range = LpnRange::covering_bytes(offset, len).expect("non-empty");
        for lpn in range.iter() {
            // Pending (still-buffered) copies stay queued; they will map
            // and then be superseded only if rewritten — acceptable for a
            // trim model. Mapped copies die right away.
            if let Some(entry) = self.table.get(lpn) {
                self.flash.invalidate(entry.ppa).map_err(internal)?;
                self.owner.remove(&entry.ppa.raw());
                self.table.unmap(lpn);
                self.cache.remove(&lpn.raw());
            }
        }
        Ok(Completion {
            submitted: now,
            finished: now + self.cfg.host_overhead,
            data: None,
            assigned_offset: None,
        })
    }

    /// Wear and lifespan report (the paper's §I trim-gap argument shows
    /// up here as extra erases from GC moving dead data).
    pub fn wear_report(&self) -> conzone_flash::WearReport {
        let mut report = self.flash.wear_report();
        report.host_bytes_written = self.counters.host_write_bytes;
        report
    }

    fn unit_slices(&self) -> usize {
        self.cfg.geometry.slices_per_unit()
    }

    fn units_per_superblock(&self) -> usize {
        self.cfg.geometry.units_per_block() * self.cfg.geometry.nchips()
    }

    fn mapping_chip(&mut self) -> ChipId {
        let chip = self.next_mapping_chip % self.cfg.geometry.nchips() as u64;
        self.next_mapping_chip += 1;
        ChipId(chip)
    }

    /// Ensures an open superblock with a free unit, running GC if the free
    /// list is exhausted. Re-checks the open block after every GC pass:
    /// GC's own flushes may have opened (or filled) one.
    fn ensure_append_point(
        &mut self,
        now: SimTime,
    ) -> Result<(SimTime, SuperblockId), DeviceError> {
        let mut t = now;
        let mut passes = 0;
        loop {
            if let Some(sb) = self.open_sb {
                if self.next_unit < self.units_per_superblock() {
                    return Ok((t, sb));
                }
                self.used.push(sb);
                self.open_sb = None;
            }
            // The host may never consume the last free superblock — GC
            // needs a destination. Collect until two are free (each pass
            // on a nearly all-valid device nets only a sliver, so this
            // may take several).
            if self.free.len() < 2 && !self.in_gc && passes < 64 {
                t = self.run_gc(t)?;
                passes += 1;
                continue; // GC may have opened a fresh superblock
            }
            let min_free = if self.in_gc { 1 } else { 2 };
            if self.free.len() < min_free {
                return Err(DeviceError::NoFreeSpace {
                    at: t,
                    what: "no free superblock in the legacy append stream".to_string(),
                });
            }
            let sb = self.free.pop_front().expect("checked above");
            self.open_sb = Some(sb);
            self.next_unit = 0;
            return Ok((t, sb));
        }
    }

    /// Programs one full unit of pending slices at the append point.
    fn flush_unit(&mut self, now: SimTime) -> Result<SimTime, DeviceError> {
        let unit = self.unit_slices();
        debug_assert!(self.pending.len() >= unit);
        let (mut t, sb) = self.ensure_append_point(now)?;
        // ensure_append_point may have run GC, whose own flushes drain the
        // shared pending queue — including the slices this call was about
        // to program. Nothing left to do in that case.
        if self.pending.len() < unit {
            return Ok(t);
        }
        let g = self.cfg.geometry;
        let chip = ChipId((self.next_unit % g.nchips()) as u64);
        self.next_unit += 1;

        let slices: Vec<PendingSlice> = self.pending.drain(..unit).collect();
        let payload: Option<Vec<u8>> = if self.cfg.data_backing {
            let mut v = Vec::with_capacity(unit * SLICE_BYTES as usize);
            for s in &slices {
                match &s.data {
                    Some(d) => v.extend_from_slice(d),
                    None => v.resize(v.len() + SLICE_BYTES as usize, 0),
                }
            }
            Some(v)
        } else {
            None
        };
        let out = self
            .flash
            .program_unit(t, chip, sb.raw() as usize, payload.as_deref())
            .map_err(internal)?;
        // Buffer frees after the transfer; tPROG runs in the background.
        t = out.buffer_free;
        self.counters.full_flushes += 1;
        self.probe.emit(
            t,
            DeviceEvent::BufferFlush {
                zone: ZoneId(0),
                kind: FlushKind::Full,
                slices: unit as u64,
            },
        );
        for (i, s) in slices.iter().enumerate() {
            let ppa = out.first.offset(i as u64);
            if s.lpn == Lpn(u64::MAX) {
                // Flush padding: dead on arrival, or GC would later try to
                // migrate an ownerless slice.
                self.flash.invalidate(ppa).map_err(internal)?;
                continue;
            }
            self.remap(s.lpn, ppa)?;
        }
        Ok(t)
    }

    /// Points `lpn` at `ppa`, invalidating any previous location.
    fn remap(&mut self, lpn: Lpn, ppa: Ppa) -> Result<(), DeviceError> {
        if let Some(old) = self.table.get(lpn) {
            self.flash.invalidate(old.ppa).map_err(internal)?;
            self.owner.remove(&old.ppa.raw());
        }
        self.table.set(lpn, ppa, false);
        self.owner.insert(ppa.raw(), lpn);
        Ok(())
    }

    /// Device-side greedy garbage collection: move the valid pages of the
    /// emptiest used superblock to the append point, then erase it.
    fn run_gc(&mut self, now: SimTime) -> Result<SimTime, DeviceError> {
        let victim = self
            .used
            .iter()
            .copied()
            .min_by_key(|&sb| self.flash.superblock_valid_slices(sb))
            .ok_or_else(|| DeviceError::NoFreeSpace {
                at: now,
                what: "no used superblock eligible for legacy GC".to_string(),
            })?;
        self.counters.gc_runs += 1;
        self.in_gc = true;
        let ppas = self.flash.superblock_valid_ppas(victim);
        self.probe.emit(
            now,
            DeviceEvent::GcBegin {
                valid_slices: ppas.len() as u64,
            },
        );
        let mut t = now;
        if !ppas.is_empty() {
            let out = self.flash.read_slices(t, &ppas).map_err(internal)?;
            t = out.finish;
            // Re-queue valid slices through the pending buffer and flush
            // them in units; they land on the (different) open superblock.
            // Their old mappings are dropped immediately — the victim is
            // about to be erased, and until the flush remaps them the
            // pending queue is the authoritative copy.
            for (i, &ppa) in ppas.iter().enumerate() {
                let lpn = *self
                    .owner
                    .get(&ppa.raw())
                    .expect("valid legacy slice has an owner");
                let data = out
                    .data
                    .as_ref()
                    .map(|d| d[i * SLICE_BYTES as usize..(i + 1) * SLICE_BYTES as usize].to_vec());
                self.pending.push_back(PendingSlice { lpn, data });
                self.table.unmap(lpn);
                self.owner.remove(&ppa.raw());
                self.cache.remove(&lpn.raw());
            }
            self.counters.gc_migrated_slices += ppas.len() as u64;
            while self.pending.len() >= self.unit_slices() {
                t = self.flush_unit(t)?;
            }
            // A sub-unit GC tail is padded out (programmed as a short unit
            // worth of real slices on the next host flush); keep it pending.
        }
        t = self.flash.erase_superblock(t, victim);
        self.used.retain(|&s| s != victim);
        self.free.push_back(victim);
        self.in_gc = false;
        self.probe.emit(
            t,
            DeviceEvent::GcEnd {
                migrated_slices: ppas.len() as u64,
            },
        );
        Ok(t)
    }

    fn write_range(
        &mut self,
        now: SimTime,
        range: LpnRange,
        payload: Option<&[u8]>,
    ) -> Result<SimTime, DeviceError> {
        let mut t = now;
        for (i, lpn) in range.iter().enumerate() {
            let data = payload
                .map(|p| p[i * SLICE_BYTES as usize..(i + 1) * SLICE_BYTES as usize].to_vec());
            self.pending.push_back(PendingSlice { lpn, data });
            // Invalidate the cache entry of an in-place update; the fresh
            // mapping is installed at flush time.
            self.cache.remove(&lpn.raw());
            if self.pending.len() >= self.unit_slices() {
                t = self.flush_unit(t)?;
            }
        }
        Ok(t + self.cfg.host_overhead)
    }

    fn read_range(
        &mut self,
        now: SimTime,
        range: LpnRange,
    ) -> Result<(SimTime, Option<Vec<u8>>), DeviceError> {
        #[derive(Clone, Copy)]
        enum Slot {
            Pending(usize),
            Flash(usize),
        }
        let mut t_map = now;
        let mut ppas: Vec<Ppa> = Vec::new();
        let mut slots: Vec<Slot> = Vec::with_capacity(range.count as usize);
        for lpn in range.iter() {
            // Data still aggregating in the buffer is served from RAM.
            if let Some(pos) = self.pending.iter().rposition(|p| p.lpn == lpn) {
                slots.push(Slot::Pending(pos));
                continue;
            }
            let entry = self
                .table
                .get(lpn)
                .ok_or(DeviceError::UnwrittenRead { lpn })?;
            if self.cache.get(&lpn.raw()).is_some() {
                self.counters.l2p_hits_page += 1;
                self.probe.emit(
                    t_map,
                    DeviceEvent::L2pLookup {
                        outcome: L2pOutcome::HitPage,
                    },
                );
            } else {
                self.counters.l2p_misses += 1;
                self.counters.flash_mapping_reads += 1;
                self.probe.emit(
                    t_map,
                    DeviceEvent::L2pLookup {
                        outcome: L2pOutcome::Miss,
                    },
                );
                let chip = self.mapping_chip();
                let r = self.flash.timed_page_read(
                    t_map,
                    chip,
                    self.cfg.mapping_media,
                    self.cfg.geometry.page_bytes as u64,
                );
                t_map = r.end;
                // Sequential prefetch: pull the whole window of entries
                // from the same mapping page into the cache.
                let window_start = lpn.raw() / self.prefetch_window * self.prefetch_window;
                for w in
                    window_start..(window_start + self.prefetch_window).min(self.logical_slices)
                {
                    if self.table.get(Lpn(w)).is_some() {
                        self.cache.insert(w, (), false);
                    }
                }
            }
            slots.push(Slot::Flash(ppas.len()));
            ppas.push(entry.ppa);
        }
        let mut finish = t_map;
        let mut flash_data: Option<Vec<u8>> = None;
        if !ppas.is_empty() {
            let out = self.flash.read_slices(t_map, &ppas).map_err(internal)?;
            finish = out.finish;
            flash_data = out.data;
        }
        let data = if self.cfg.data_backing {
            let mut v = Vec::with_capacity((range.count * SLICE_BYTES) as usize);
            for slot in &slots {
                match *slot {
                    Slot::Pending(pos) => match &self.pending[pos].data {
                        Some(d) => v.extend_from_slice(d),
                        None => v.resize(v.len() + SLICE_BYTES as usize, 0),
                    },
                    Slot::Flash(i) => {
                        let d = flash_data.as_ref().expect("backed flash read");
                        v.extend_from_slice(
                            &d[i * SLICE_BYTES as usize..(i + 1) * SLICE_BYTES as usize],
                        );
                    }
                }
            }
            Some(v)
        } else {
            None
        };
        Ok((finish + self.cfg.host_overhead, data))
    }
}

impl StorageDevice for LegacyDevice {
    fn config(&self) -> &DeviceConfig {
        &self.cfg
    }

    fn capacity_bytes(&self) -> u64 {
        self.logical_slices * SLICE_BYTES
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
            IoKind::Append => Err(DeviceError::Unsupported(
                "legacy devices have no zones to append to".to_string(),
            )),
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
        while self.pending.len() >= self.unit_slices() {
            t = self.flush_unit(t)?;
        }
        if !self.pending.is_empty() {
            let real = self.pending.len() as u64;
            // No SLC secondary buffer: pad the remainder out to a whole
            // programming unit (the §II-A cost Legacy pays for sync I/O).
            while self.pending.len() < self.unit_slices() {
                self.pending.push_back(PendingSlice {
                    lpn: Lpn(u64::MAX),
                    data: None,
                });
            }
            self.counters.premature_flushes += 1;
            self.probe.emit(
                t,
                DeviceEvent::BufferFlush {
                    zone: ZoneId(0),
                    kind: FlushKind::Premature,
                    slices: real,
                },
            );
            t = self.flush_unit(t)?;
        }
        Ok(Completion {
            submitted: now,
            finished: t + self.cfg.host_overhead,
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
        c.l2p_evictions = self.cache.evictions();
        c
    }

    fn model_name(&self) -> &'static str {
        "legacy"
    }
}

impl PowerCycle for LegacyDevice {
    fn power_cut(&mut self, _now: SimTime) -> Result<u64, DeviceError> {
        Err(DeviceError::Unsupported(
            "legacy baseline does not model power loss".to_string(),
        ))
    }

    fn remount(&mut self, _now: SimTime) -> Result<RecoveryReport, DeviceError> {
        Err(DeviceError::Unsupported(
            "legacy baseline does not model power loss".to_string(),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dev() -> LegacyDevice {
        LegacyDevice::new(DeviceConfig::tiny_for_tests())
    }

    fn patt(len: usize, seed: u8) -> Bytes {
        Bytes::from(
            (0..len)
                .map(|i| (i as u8).wrapping_mul(13).wrapping_add(seed))
                .collect::<Vec<u8>>(),
        )
    }

    #[test]
    fn write_read_roundtrip() {
        let mut d = dev();
        let data = patt(256 * 1024, 1);
        let c = d
            .submit(SimTime::ZERO, &IoRequest::write_data(0, data.clone()))
            .unwrap();
        let r = d
            .submit(c.finished, &IoRequest::read(0, 256 * 1024))
            .unwrap();
        assert_eq!(r.data.unwrap(), data);
    }

    #[test]
    fn in_place_update_supported() {
        let mut d = dev();
        let mut t = SimTime::ZERO;
        t = d
            .submit(t, &IoRequest::write_data(0, patt(64 * 1024, 1)))
            .unwrap()
            .finished;
        t = d
            .submit(t, &IoRequest::write_data(0, patt(64 * 1024, 2)))
            .unwrap()
            .finished;
        let r = d.submit(t, &IoRequest::read(0, 64 * 1024)).unwrap();
        assert_eq!(r.data.unwrap(), patt(64 * 1024, 2));
        // Out-of-place: the old unit is now invalid, host wrote 128 KiB
        // and flash holds 128 KiB programmed.
        let c = d.counters();
        assert_eq!(c.host_write_bytes, 128 * 1024);
        assert_eq!(c.flash_program_bytes(), 128 * 1024);
    }

    #[test]
    fn prefetch_window_fills_cache() {
        let mut d = dev();
        let mut t = SimTime::ZERO;
        // Write two chunks' worth (chunk = 64 slices in the tiny config).
        t = d
            .submit(t, &IoRequest::write_data(0, patt(512 * 1024, 3)))
            .unwrap()
            .finished;
        // First read of chunk 0 misses and prefetches the window.
        t = d.submit(t, &IoRequest::read(0, 4096)).unwrap().finished;
        assert_eq!(d.counters().l2p_misses, 1);
        // Subsequent reads inside the window hit.
        for i in 1..10u64 {
            t = d
                .submit(t, &IoRequest::read(i * 4096, 4096))
                .unwrap()
                .finished;
        }
        let c = d.counters();
        assert_eq!(c.l2p_misses, 1);
        assert_eq!(c.l2p_hits_page, 9);
    }

    #[test]
    fn gc_reclaims_overwritten_space() {
        let mut d = dev();
        let mut t = SimTime::ZERO;
        // Overwrite a 2 MiB region enough times to exceed physical free
        // space and force GC (logical capacity is 14 superblocks of 1 MiB).
        for round in 0..12u8 {
            for off in (0..2 * 1024 * 1024u64).step_by(256 * 1024) {
                t = d
                    .submit(t, &IoRequest::write_data(off, patt(256 * 1024, round)))
                    .unwrap()
                    .finished;
            }
        }
        let c = d.counters();
        assert!(c.gc_runs > 0, "GC ran: {c:?}");
        assert!(c.erases_normal > 0);
        // Integrity: last round's data survives GC.
        let r = d.submit(t, &IoRequest::read(0, 256 * 1024)).unwrap();
        assert_eq!(r.data.unwrap(), patt(256 * 1024, 11));
    }

    #[test]
    fn capacity_excludes_overprovisioning() {
        let d = dev();
        let physical =
            d.cfg.geometry.normal_superblocks() as u64 * d.cfg.geometry.superblock_bytes();
        assert!(d.capacity_bytes() < physical);
        let mut d = dev();
        let cap = d.capacity_bytes();
        assert!(matches!(
            d.submit(SimTime::ZERO, &IoRequest::write(cap, 4096)),
            Err(DeviceError::OutOfRange { .. })
        ));
    }

    #[test]
    fn unwritten_read_fails() {
        let mut d = dev();
        assert!(matches!(
            d.submit(SimTime::ZERO, &IoRequest::read(0, 4096)),
            Err(DeviceError::UnwrittenRead { .. })
        ));
    }

    #[test]
    fn buffered_tail_readable() {
        let mut d = dev();
        // 8 KiB pending (unit is 64 KiB): served from the buffer.
        let c = d
            .submit(SimTime::ZERO, &IoRequest::write_data(0, patt(8192, 9)))
            .unwrap();
        assert_eq!(d.counters().flash_program_bytes(), 0);
        let r = d.submit(c.finished, &IoRequest::read(0, 8192)).unwrap();
        assert_eq!(r.data.unwrap(), patt(8192, 9));
    }
}

#[cfg(test)]
mod trim_tests {
    use super::*;

    #[test]
    fn trim_unmaps_and_invalidates() {
        let mut d = LegacyDevice::new(DeviceConfig::tiny_for_tests());
        let data = bytes::Bytes::from(vec![5u8; 128 * 1024]);
        let c = d
            .submit(SimTime::ZERO, &IoRequest::write_data(0, data))
            .unwrap();
        let t = d.trim(c.finished, 0, 64 * 1024).unwrap().finished;
        // Trimmed sectors read as unwritten; the rest survives.
        assert!(matches!(
            d.submit(t, &IoRequest::read(0, 4096)),
            Err(DeviceError::UnwrittenRead { .. })
        ));
        let r = d.submit(t, &IoRequest::read(64 * 1024, 4096)).unwrap();
        assert_eq!(r.data.unwrap()[0], 5);
        // Bad ranges rejected.
        assert!(d.trim(t, 3, 4096).is_err());
        let cap = d.capacity_bytes();
        assert!(d.trim(t, cap, 4096).is_err());
        // Re-trimming is a no-op.
        d.trim(t, 0, 64 * 1024).unwrap();
    }

    #[test]
    fn trim_lets_gc_skip_dead_data() {
        // Fill, trim half, then overwrite: GC migrates far less than the
        // no-trim equivalent.
        let run = |do_trim: bool| {
            let mut d = LegacyDevice::new(DeviceConfig::tiny_for_tests());
            let cap = d.capacity_bytes();
            let mut t = SimTime::ZERO;
            for round in 0..3u64 {
                for off in (0..cap).step_by(256 * 1024) {
                    t = d
                        .submit(t, &IoRequest::write(off, 256 * 1024))
                        .unwrap()
                        .finished;
                    let _ = round;
                }
                if do_trim {
                    // The host deletes everything before rewriting.
                    t = d.trim(t, 0, cap).unwrap().finished;
                }
            }
            d.counters().gc_migrated_slices
        };
        let with_trim = run(true);
        let without = run(false);
        assert!(
            with_trim <= without,
            "trim reduces GC migration: {with_trim} vs {without}"
        );
    }
}

#[cfg(test)]
mod prefetch_edge_tests {
    use super::*;

    #[test]
    fn prefetch_stops_at_capacity_edge() {
        // A miss in the last (partial) window must not reach past the
        // logical capacity.
        let mut d = LegacyDevice::new(DeviceConfig::tiny_for_tests());
        let cap = d.capacity_bytes();
        let window_bytes = d.cfg.chunk_bytes;
        let tail_start = cap - window_bytes / 2; // inside the final window
        let mut t = SimTime::ZERO;
        t = d
            .submit(t, &IoRequest::write(tail_start, window_bytes / 2))
            .unwrap()
            .finished;
        t = d.flush(t).unwrap().finished;
        let r = d.submit(t, &IoRequest::read(tail_start, 4096)).unwrap();
        assert!(r.finished > t);
        assert_eq!(d.counters().l2p_misses, 1);
        // Neighbours in the same window now hit.
        d.submit(r.finished, &IoRequest::read(tail_start + 4096, 4096))
            .unwrap();
        assert_eq!(d.counters().l2p_misses, 1);
        assert_eq!(d.counters().l2p_hits_page, 1);
    }

    #[test]
    fn prefetch_skips_unwritten_entries() {
        // Sparse data: only every other window slot written; the prefetch
        // inserts only mapped entries so cache capacity is not wasted.
        let mut d = LegacyDevice::new(DeviceConfig::tiny_for_tests());
        let mut t = SimTime::ZERO;
        for i in 0..8u64 {
            t = d
                .submit(t, &IoRequest::write(i * 128 * 1024, 4096))
                .unwrap()
                .finished;
        }
        t = d.flush(t).unwrap().finished;
        let before = d.counters();
        t = d.submit(t, &IoRequest::read(0, 4096)).unwrap().finished;
        // Second sparse slot hits via the same window prefetch (all eight
        // live in the first 1 MiB window = chunk 0 of the tiny config’s
        // 256 KiB chunks? chunk = 64 slices = 256 KiB → only slots 0,1
        // share window 0; slot 2 is window 2).
        let _ = t;
        let after = d.counters();
        assert_eq!(after.l2p_misses - before.l2p_misses, 1);
    }

    #[test]
    fn capacity_boundary_writes_rejected_cleanly() {
        let mut d = LegacyDevice::new(DeviceConfig::tiny_for_tests());
        let cap = d.capacity_bytes();
        assert!(matches!(
            d.submit(SimTime::ZERO, &IoRequest::write(cap - 4096, 8192)),
            Err(DeviceError::OutOfRange { .. })
        ));
        d.submit(SimTime::ZERO, &IoRequest::write(cap - 4096, 4096))
            .unwrap();
    }
}
