//! The per-slice Legacy device the run-granular one replaced, kept as the
//! reference of the differential property in `proptests.rs`: a `BTreeMap`
//! reverse map taking an insert and a remove per remapped slice, a pending
//! queue of single slices each with its own payload, one `invalidate`,
//! `set` and `cache.remove` per 4 KiB. Model behaviour is the old code's
//! line for line (including what it leaves behind after `NoFreeSpace`);
//! only the probe and the power-cycle stubs are gone.

use std::collections::{BTreeMap, VecDeque};

use bytes::Bytes;
use conzone_flash::FlashArray;
use conzone_ftl::{LruCache, MappingTable};
use conzone_types::{
    ChipId, Completion, Counters, DeviceConfig, DeviceError, FaultConfig, IoKind, IoRequest, Lpn,
    LpnRange, Ppa, SimTime, StorageDevice, SuperblockId, HOST_OVERHEAD, SLICE_BYTES,
};

use crate::OVERPROVISION_DIVISOR;

#[derive(Debug, Clone)]
struct PendingSlice {
    lpn: Lpn,
    data: Option<Vec<u8>>,
}

#[derive(Debug)]
pub(crate) struct ReferenceLegacy {
    cfg: DeviceConfig,
    flash: FlashArray,
    table: MappingTable,
    cache: LruCache,
    prefetch_window: u64,
    pending: VecDeque<PendingSlice>,
    open_sb: Option<SuperblockId>,
    next_unit: usize,
    /// Crate-visible so the starvation property can cut it short.
    pub(crate) free: VecDeque<SuperblockId>,
    used: Vec<SuperblockId>,
    owner: BTreeMap<u64, Lpn>,
    counters: Counters,
    logical_slices: u64,
    in_gc: bool,
}

impl ReferenceLegacy {
    pub(crate) fn new(cfg: DeviceConfig) -> ReferenceLegacy {
        let mut cfg = cfg;
        cfg.fault = FaultConfig::default();
        let g = cfg.geometry;
        let normal: Vec<SuperblockId> = (g.slc_blocks_per_chip as u64..g.blocks_per_chip as u64)
            .map(SuperblockId)
            .collect();
        let reserve = (normal.len() / OVERPROVISION_DIVISOR).max(3);
        let logical_sbs = normal.len() - reserve;
        let logical_slices = logical_sbs as u64 * g.slices_per_superblock();
        let prefetch_window = cfg.chunk_slices();
        ReferenceLegacy {
            flash: FlashArray::new(&cfg),
            table: MappingTable::new(logical_slices, cfg.chunk_slices(), cfg.zone_size_slices()),
            cache: LruCache::new(cfg.l2p_cache_entries()),
            prefetch_window,
            pending: VecDeque::new(),
            open_sb: None,
            next_unit: 0,
            free: normal.into_iter().collect(),
            used: Vec::new(),
            owner: BTreeMap::new(),
            counters: Counters::new(),
            logical_slices,
            in_gc: false,
            cfg,
        }
    }

    pub(crate) fn trim(
        &mut self,
        now: SimTime,
        offset: u64,
        len: u64,
    ) -> Result<Completion, DeviceError> {
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
            if let Some(entry) = self.table.get(lpn) {
                self.flash.invalidate(entry.ppa)?;
                self.owner.remove(&entry.ppa.raw());
                self.table.unmap(lpn);
                self.cache.remove(lpn.raw());
            }
        }
        Ok(Completion {
            submitted: now,
            finished: now + HOST_OVERHEAD,
            data: None,
            assigned_offset: None,
        })
    }

    pub(crate) fn wear_report(&self) -> conzone_flash::WearReport {
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
            if self.free.len() < 2 && !self.in_gc && passes < 64 {
                t = self.run_gc(t)?;
                passes += 1;
                continue;
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

    fn flush_unit(&mut self, now: SimTime) -> Result<SimTime, DeviceError> {
        let unit = self.unit_slices();
        debug_assert!(self.pending.len() >= unit);
        let (mut t, sb) = self.ensure_append_point(now)?;
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
            .program_unit(t, chip, sb.raw() as usize, payload.as_deref())?;
        t = out.buffer_free;
        self.counters.full_flushes += 1;
        for (i, s) in slices.iter().enumerate() {
            let ppa = out.first.offset(i as u64);
            if s.lpn == Lpn(u64::MAX) {
                self.flash.invalidate(ppa)?;
                continue;
            }
            self.remap(s.lpn, ppa)?;
        }
        Ok(t)
    }

    fn remap(&mut self, lpn: Lpn, ppa: Ppa) -> Result<(), DeviceError> {
        if let Some(old) = self.table.get(lpn) {
            self.flash.invalidate(old.ppa)?;
            self.owner.remove(&old.ppa.raw());
        }
        self.table.set(lpn, ppa, false);
        self.owner.insert(ppa.raw(), lpn);
        Ok(())
    }

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
        let queued = self.pending.len();
        let mut t = now;
        if !ppas.is_empty() {
            let out = self.flash.read_slices(t, &ppas)?;
            t = out.finish;
            for (i, &ppa) in ppas.iter().enumerate() {
                let lpn = *self
                    .owner
                    .get(&ppa.raw())
                    .expect("valid legacy slice has an owner");
                let data = out
                    .data
                    .as_ref()
                    .map(|d| d[i * SLICE_BYTES as usize..(i + 1) * SLICE_BYTES as usize].to_vec());
                // A page the host has written again since lands dead.
                let superseded = self.pending.iter().take(queued).any(|p| p.lpn == lpn);
                let to = if superseded { Lpn(u64::MAX) } else { lpn };
                self.pending.push_back(PendingSlice { lpn: to, data });
                self.table.unmap(lpn);
                self.owner.remove(&ppa.raw());
                self.cache.remove(lpn.raw());
            }
            self.counters.gc_migrated_slices += ppas.len() as u64;
            while self.pending.len() >= self.unit_slices() {
                t = self.flush_unit(t)?;
            }
        }
        t = self.flash.erase_superblock(t, victim);
        self.used.retain(|&s| s != victim);
        self.free.push_back(victim);
        self.in_gc = false;
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
            self.cache.remove(lpn.raw());
            if self.pending.len() >= self.unit_slices() {
                t = self.flush_unit(t)?;
            }
        }
        Ok(t + HOST_OVERHEAD)
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
            if let Some(pos) = self.pending.iter().rposition(|p| p.lpn == lpn) {
                slots.push(Slot::Pending(pos));
                continue;
            }
            let entry = self
                .table
                .get(lpn)
                .ok_or(DeviceError::UnwrittenRead { lpn })?;
            if self.cache.touch(lpn.raw()) {
                self.counters.l2p_hits_page += 1;
            } else {
                self.counters.l2p_misses += 1;
                t_map = self.flash.read_mapping_page(t_map);
                let window_start = lpn.raw() / self.prefetch_window * self.prefetch_window;
                for w in
                    window_start..(window_start + self.prefetch_window).min(self.logical_slices)
                {
                    if self.table.get(Lpn(w)).is_some() {
                        self.cache.insert(w, false);
                    }
                }
            }
            slots.push(Slot::Flash(ppas.len()));
            ppas.push(entry.ppa);
        }
        let mut finish = t_map;
        let mut flash_data: Option<Vec<u8>> = None;
        if !ppas.is_empty() {
            let out = self.flash.read_slices(t_map, &ppas)?;
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
        Ok((finish + HOST_OVERHEAD, data))
    }
}

impl StorageDevice for ReferenceLegacy {
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
                let finished = self.write_range(now, range, request.data.as_deref())?;
                self.counters.book_host(request);
                Ok(Completion {
                    submitted: now,
                    finished,
                    data: None,
                    assigned_offset: None,
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
        while self.pending.len() >= self.unit_slices() {
            t = self.flush_unit(t)?;
        }
        if !self.pending.is_empty() {
            while self.pending.len() < self.unit_slices() {
                self.pending.push_back(PendingSlice {
                    lpn: Lpn(u64::MAX),
                    data: None,
                });
            }
            self.counters.premature_flushes += 1;
            t = self.flush_unit(t)?;
        }
        Ok(Completion {
            submitted: now,
            finished: t + HOST_OVERHEAD,
            data: None,
            assigned_offset: None,
        })
    }

    fn counters(&self) -> Counters {
        let mut c = self.counters;
        self.flash.stats().fold_into(&mut c);
        c.l2p_evictions = self.cache.evictions();
        c
    }

    fn model_name(&self) -> &'static str {
        "legacy-reference"
    }
}
