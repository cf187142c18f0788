//! The write path (paper §III-B, Fig. 3).
//!
//! Writes land in the owner zone's shared volatile buffer. A buffer flush
//! takes one of three paths:
//!
//! 1. data reaching a whole programming unit is programmed directly into
//!    the zone's reserved normal blocks at its canonical location (①);
//! 2. a premature flush (buffer conflict) partial-programs the sub-unit
//!    remainder into the SLC secondary buffer (②);
//! 3. when staged SLC data plus newly buffered data reach a programming
//!    unit, the staged slices are read back, invalidated and programmed
//!    together into the normal block (③).
//!
//! Zone tails beyond the backing superblock (the §III-E non-power-of-two
//! patch) are partial-programmed into *reserved* SLC slices that still
//! count as canonical for aggregation.

use conzone_flash::{FlashError, ProgramOutcome};
use conzone_types::{
    to_index, ChipId, DeviceError, DeviceEvent, FlushKind, LpnRange, MapGranularity, SimTime,
    SpanKind, SuperblockId, ZoneId, SLICE_BYTES, SLICE_LEN,
};

use crate::device::ConZone;
use crate::zone::StagedSlice;

/// Wraps a flash-layer failure (an FTL logic violation) into a device error.
pub(crate) fn internal(e: FlashError) -> DeviceError {
    DeviceError::Unsupported(format!("internal flash error: {e}"))
}

impl ConZone {
    /// Services one host write. Returns the completion time (before host
    /// overhead is added by the caller's caller — overhead is added here).
    pub(crate) fn write_range(
        &mut self,
        now: SimTime,
        range: LpnRange,
        payload: Option<&[u8]>,
    ) -> Result<SimTime, DeviceError> {
        let (zone_id, offset) = self.zones.admit_write(range)?;
        if self.zones.is_conventional(zone_id) {
            return self.conventional_write(now, zone_id, offset, range, payload);
        }
        let zidx = zone_id.index();

        // Snapshot sub-activity attribution so write_path stays exclusive
        // of the combine / GC / log time accumulated inside the flushes.
        // The WritePath span mirrors the same exclusivity: the combine /
        // GC / log work nests as children, so its *self time* is exactly
        // this function's write_path charge.
        let sub_before = self.breakdown.combine_read + self.breakdown.gc + self.breakdown.l2p_log;
        self.spans.open(now, SpanKind::WritePath);

        let buf_idx = zidx % self.buffers.len();
        let mut t = now;

        // Conflicting zone-write-buffer mapping: evict the other zone's
        // data (prematurely, if it is less than a programming unit).
        if self.buffers[buf_idx].conflicts_with(zone_id) {
            self.counters.buffer_conflicts += 1;
            self.probe
                .emit(t, DeviceEvent::BufferConflict { zone: zone_id });
            t = self.flush_buffer(t, buf_idx, true)?;
        }
        if self.buffers[buf_idx].owner() != Some(zone_id) {
            self.buffers[buf_idx].release();
            self.buffers[buf_idx].adopt(zone_id, offset);
        }

        // Append, flushing full superpages as they accumulate.
        let mut remaining = range.count;
        let mut pay_off = 0usize;
        let mut zone_complete = false;
        while remaining > 0 {
            let take = remaining.min(self.buffers[buf_idx].room());
            let chunk = payload.map(|p| &p[pay_off..pay_off + to_index(take * SLICE_BYTES)]);
            self.buffers[buf_idx].append(take, chunk);
            zone_complete = self.zones.advance(zone_id, take);
            pay_off += to_index(take * SLICE_BYTES);
            remaining -= take;
            if self.buffers[buf_idx].is_full() {
                t = self.flush_buffer(t, buf_idx, false)?;
            }
        }

        // Zone completed: drain everything and seal it.
        if zone_complete {
            t = self.flush_buffer(t, buf_idx, true)?;
            self.buffers[buf_idx].release();
            self.zones.seal(zone_id);
        }
        // Exclusive write-path attribution: the combine / GC / log time
        // accumulated inside the flushes is already charged elsewhere.
        let sub_delta =
            self.breakdown.combine_read + self.breakdown.gc + self.breakdown.l2p_log - sub_before;
        self.breakdown.write_path += (t - now) - (t - now).min(sub_delta);
        self.spans.close(t);
        Ok(t + self.cfg.host_overhead)
    }

    /// Services a write to a conventional zone (paper §III-E): in-place
    /// updates are allowed anywhere in the zone; data is page-mapped into
    /// the SLC region, superseding any previous version.
    fn conventional_write(
        &mut self,
        now: SimTime,
        zone_id: ZoneId,
        offset: u64,
        range: LpnRange,
        payload: Option<&[u8]>,
    ) -> Result<SimTime, DeviceError> {
        // Supersede previous versions: gather the mapped pages' slices,
        // then drop them a physical run at a time. (The cache is keyed per
        // page, so its invalidation has no run form.)
        self.scratch.ppas.clear();
        for (lpn, slot) in range.iter().zip(self.table.ppas(range)) {
            if let Some(ppa) = slot {
                self.scratch.ppas.push(ppa);
                self.cache.invalidate_page(lpn);
            }
        }
        self.drop_gathered_slc_slices()?;
        let mut t = self.program_slc_batch(now, range, payload, false, None)?;
        self.counters.conventional_updates += range.count;
        self.note_l2p_updates(range.count);
        t = self.maybe_flush_l2p_log(t);
        // The "write pointer" of a conventional zone reports the written
        // high-water mark for inspection only.
        self.media[zone_id.index()].flushed_slices =
            self.zones.mark_written(zone_id, offset + range.count);
        Ok(t + self.cfg.host_overhead)
    }

    /// Services a zone append (NVMe ZNS): the device places the data at
    /// the zone's current write pointer and returns `(finish, assigned
    /// byte offset)`. Conventional zones reject appends (they have no
    /// write pointer).
    pub(crate) fn append_range(
        &mut self,
        now: SimTime,
        range: LpnRange,
        payload: Option<&[u8]>,
    ) -> Result<(SimTime, u64), DeviceError> {
        let landed = self.zones.append_target(range)?;
        let finished = self.write_range(now, landed, payload)?;
        Ok((finished, landed.start.byte_offset()))
    }

    /// Flushes a write buffer. With `drain`, any sub-unit remainder is
    /// premature-flushed to SLC and the buffer is released; otherwise the
    /// remainder stays buffered.
    pub(crate) fn flush_buffer(
        &mut self,
        now: SimTime,
        buf_idx: usize,
        drain: bool,
    ) -> Result<SimTime, DeviceError> {
        if self.buffers[buf_idx].is_empty() {
            if drain {
                self.buffers[buf_idx].release();
            }
            return Ok(now);
        }
        let zone_id = self.buffers[buf_idx].owner().ok_or_else(|| {
            DeviceError::Internal(format!("non-empty write buffer {buf_idx} has no owner"))
        })?;
        let zidx = zone_id.index();
        let zone_base = self.zones.start_lpn(zone_id);
        let unit = self.unit_slices();
        let backing = self.backing_slices();
        let sb = self.cfg.geometry.zone_superblock(zone_id);

        debug_assert_eq!(
            self.buffers[buf_idx].start_offset(),
            self.media[zidx].flushed_slices,
            "buffer must continue the zone's durable prefix"
        );
        let staged_len = self.media[zidx].staged.len() as u64;
        let run_start = self.media[zidx].staged_start();
        let run_end = self.buffers[buf_idx].end_offset();
        // (A host flush inside the tail patch leaves the durable prefix
        // mid-unit; nothing is ever staged there.)
        debug_assert!(
            run_start >= backing || run_start.is_multiple_of(unit),
            "staged run starts unit-aligned"
        );

        let mut t = now;

        // ── Path ① / ③: full canonical units below the backing boundary ──
        let canon_end = run_end.min(backing);
        let full_end = if canon_end > run_start {
            run_start + ((canon_end - run_start) / unit) * unit
        } else {
            run_start
        };
        if full_end > run_start {
            let mut staged_data: Option<Vec<u8>> = None;
            if staged_len > 0 {
                // Path ③: read the staged fragments out of SLC and
                // invalidate them (striped blocks of Fig. 3).
                self.scratch.ppas.clear();
                self.scratch
                    .ppas
                    .extend(self.media[zidx].staged.iter().map(|s| s.ppa));
                let read_start = t;
                let out = self
                    .flash
                    .read_slices(t, &self.scratch.ppas)
                    .map_err(internal)?;
                t = out.finish;
                self.charge(SpanKind::CombineRead, read_start, t);
                staged_data = out.data;
                self.drop_gathered_slc_slices()?;
                self.media[zidx].staged.clear();
                self.counters.slc_combines += 1;
                self.probe.emit(
                    t,
                    DeviceEvent::SlcCombine {
                        zone: zone_id,
                        staged_slices: staged_len,
                    },
                );
            }
            let from_buffer = full_end - self.buffers[buf_idx].start_offset();
            let buf_data = self.buffers[buf_idx].drain_front(from_buffer);
            let payload: Option<Vec<u8>> = if self.cfg.data_backing {
                let mut v = staged_data.unwrap_or_default();
                v.extend_from_slice(&buf_data.unwrap_or_default());
                Some(v)
            } else {
                None
            };

            let nunits = (full_end - run_start) / unit;
            self.counters.full_flushes += nunits;
            self.probe.emit(
                t,
                DeviceEvent::BufferFlush {
                    zone: zone_id,
                    kind: FlushKind::Full,
                    slices: full_end - run_start,
                },
            );
            let mut finish = t;
            for u in 0..nunits {
                let off = run_start + u * unit;
                let first_ppa = self.cfg.geometry.superblock_slice(sb, off);
                let parts = self.cfg.geometry.decode_ppa(first_ppa);
                let data_slice = payload.as_ref().map(|p| {
                    &p[to_index(u * unit * SLICE_BYTES)..to_index((u + 1) * unit * SLICE_BYTES)]
                });
                match self
                    .flash
                    .program_unit(t, parts.chip, parts.block, data_slice)
                {
                    Ok(out) => {
                        debug_assert_eq!(
                            out.first, first_ppa,
                            "write pointer must match the reserved layout"
                        );
                        // Host-visible: the buffer frees once the transfer
                        // lands in the chip register; tPROG continues in
                        // the background.
                        finish = finish.max(out.buffer_free);
                        self.table
                            .set_extent(zone_base.offset(off), first_ppa, unit, true);
                        self.note_bits(zone_base.offset(off), unit, MapGranularity::Page);
                        self.note_l2p_updates(unit);
                    }
                    Err(
                        e @ (FlashError::ProgramFailed { .. } | FlashError::BlockRetired { .. }),
                    ) => {
                        // The reserved slices are burned (the cursor still
                        // advanced, keeping the fixed layout intact); the
                        // unit's payload is re-issued into the SLC
                        // secondary buffer, which page-maps it outside the
                        // canonical layout.
                        if matches!(e, FlashError::ProgramFailed { .. }) {
                            self.counters.program_failures += 1;
                        }
                        let lpns = LpnRange::new(zone_base.offset(off), unit);
                        let redo = self.program_slc_batch(t, lpns, data_slice, false, None)?;
                        finish = finish.max(redo);
                    }
                    Err(e) => return Err(internal(e)),
                }
            }
            t = finish;
            self.media[zidx].flushed_slices = full_end;
            self.maybe_aggregate(zone_id, run_start, full_end);
            t = self.maybe_flush_l2p_log(t);
        }

        // ── §III-E: zone-tail patch into reserved SLC slices ──
        if run_end > backing && !self.buffers[buf_idx].is_empty() {
            let patch_start = self.buffers[buf_idx].start_offset();
            debug_assert!(
                patch_start >= backing,
                "canonical region fully flushed first"
            );
            let count = run_end - patch_start;
            let pay = self.buffers[buf_idx].drain_front(count);
            let lpns = LpnRange::new(zone_base.offset(patch_start), count);
            self.probe.emit(
                t,
                DeviceEvent::PatchSlice {
                    zone: zone_id,
                    slices: count,
                },
            );
            t = self.program_slc_batch(t, lpns, pay.as_deref(), true, None)?;
            self.counters.patch_slices += count;
            self.media[zidx].flushed_slices = run_end;
            self.maybe_aggregate(zone_id, patch_start, run_end);
        }

        // ── Path ②: premature flush of the sub-unit remainder ──
        if drain && !self.buffers[buf_idx].is_empty() {
            let start = self.buffers[buf_idx].start_offset();
            let count = self.buffers[buf_idx].slices();
            let pay = self.buffers[buf_idx].drain_front(count);
            let lpns = LpnRange::new(zone_base.offset(start), count);
            self.counters.premature_flushes += 1;
            self.probe.emit(
                t,
                DeviceEvent::BufferFlush {
                    zone: zone_id,
                    kind: FlushKind::Premature,
                    slices: count,
                },
            );
            t = self.program_slc_batch(t, lpns, pay.as_deref(), false, Some(zidx))?;
            self.media[zidx].flushed_slices = start + count;
        }

        if drain {
            self.buffers[buf_idx].release();
        }
        Ok(t)
    }

    /// Partial-programs the logical run `lpns` into the SLC write stream,
    /// striping across chips. Each partial program lands a physical run;
    /// the mapping table (`canonical` flag as given), the SLC owner map
    /// and — for premature flushes — the zone's staged list are updated
    /// once per such run.
    pub(crate) fn program_slc_batch(
        &mut self,
        now: SimTime,
        lpns: LpnRange,
        payload: Option<&[u8]>,
        canonical: bool,
        staged_zone: Option<usize>,
    ) -> Result<SimTime, DeviceError> {
        let mut t = now;
        let mut finish = t;
        let total = to_index(lpns.count);
        let mut idx = 0usize;
        // Reused chip-order scratch; GC (reachable below) uses the
        // separate `gc_chip_order` buffer, so the two never alias.
        let mut order = std::mem::take(&mut self.scratch.chip_order);
        while idx < total {
            let sb = match self.slc.active {
                Some(sb) => sb,
                None => {
                    if self.slc.free.len() <= self.cfg.slc_gc_threshold && !self.slc.used.is_empty()
                    {
                        t = self.run_slc_gc(t)?;
                        finish = finish.max(t);
                    }
                    // GC's own migration may already have opened a fresh
                    // superblock; reuse it instead of double-activating.
                    match self.slc.active {
                        Some(sb) => sb,
                        None => {
                            self.slc
                                .activate_next()
                                .ok_or_else(|| DeviceError::NoFreeSpace {
                                    at: t,
                                    what: "slc secondary buffer superblocks".to_string(),
                                })?
                        }
                    }
                }
            };
            let pending = idx..total;
            idx =
                self.slc_placement_round(t, sb, pending, &mut order, payload, |dev, at, out| {
                    // Host-visible: the buffer frees at the end of the transfer.
                    finish = finish.max(out.buffer_free);
                    let lpn = lpns.start.offset(at as u64);
                    dev.table.set_extent(lpn, out.first, out.slices, canonical);
                    dev.slc
                        .owner
                        .insert_run(out.first, lpn, to_index(out.slices));
                    if let Some(z) = staged_zone {
                        dev.media[z]
                            .staged
                            .extend((0..out.slices).map(|i| StagedSlice {
                                lpn: lpn.offset(i),
                                ppa: out.first.offset(i),
                            }));
                    }
                    dev.note_bits(lpn, out.slices, MapGranularity::Page);
                    dev.note_l2p_updates(out.slices);
                })?;
        }
        self.scratch.chip_order = order;
        let finish = self.maybe_flush_l2p_log(finish);
        Ok(finish)
    }

    /// One placement round of the SLC write stream, shared by host
    /// flushes and GC migration: offers every chip's block of superblock
    /// `sb`, least busy chip first, up to a flash page of the slices
    /// `pending` (indices into the caller's batch, and into `payload`),
    /// and calls `placed(self, index of the first slice, outcome)` for
    /// every partial program that lands — a physical run. Retires `sb`
    /// when it is exhausted on every chip. Returns the index of the
    /// first slice still unplaced.
    pub(crate) fn slc_placement_round(
        &mut self,
        t: SimTime,
        sb: SuperblockId,
        pending: std::ops::Range<usize>,
        order: &mut Vec<usize>,
        payload: Option<&[u8]>,
        mut placed: impl FnMut(&mut ConZone, usize, &ProgramOutcome),
    ) -> Result<usize, DeviceError> {
        let spb = to_index(self.cfg.geometry.slices_per_block());
        let spp = self.cfg.geometry.slices_per_page();
        // Preferring idle chips keeps premature flushes from stalling
        // behind a long tPROG on a die that happens to be programming
        // TLC. Stable sort: equally idle chips keep ascending order
        // across reruns.
        order.clear();
        order.extend(0..self.cfg.geometry.nchips());
        order.sort_by_key(|&c| self.flash.chip_free_at(ChipId(c as u64)));
        let mut idx = pending.start;
        let mut any = false;
        for &c in order.iter() {
            if idx >= pending.end {
                break;
            }
            let chip = ChipId(c as u64);
            let avail = spb - self.flash.block(chip, sb.index()).cursor();
            let n = spp.min(avail).min(pending.end - idx);
            if n == 0 {
                continue;
            }
            let pay = payload.map(|p| &p[idx * SLICE_LEN..(idx + n) * SLICE_LEN]);
            let out = match self.flash.program_slc(t, chip, sb.index(), n, pay) {
                Ok(out) => out,
                Err(FlashError::ProgramFailed { .. }) => {
                    // The claimed slices are burned; count the failure
                    // as progress (the block filled a little) and
                    // re-place the same slices on the next round.
                    self.counters.program_failures += 1;
                    any = true;
                    continue;
                }
                Err(FlashError::BlockRetired { .. }) => {
                    // This chip's block left the usable set: skip it.
                    continue;
                }
                Err(e) => return Err(internal(e)),
            };
            any = true;
            placed(self, idx, &out);
            idx += n;
        }
        if !any {
            // Active superblock exhausted on every chip.
            self.slc.retire_active();
        }
        Ok(idx)
    }

    /// Attempts chunk aggregation for every chunk completed in
    /// `[from, to)`, and zone aggregation when the zone is fully durable
    /// (paper §III-C ②, capped by `max_aggregation`).
    pub(crate) fn maybe_aggregate(&mut self, zone_id: ZoneId, from: u64, to: u64) {
        if self.cfg.max_aggregation == MapGranularity::Page {
            return;
        }
        let zone_base = self.zones.start_lpn(zone_id);
        let chunk = self.cfg.chunk_slices();
        let flushed = self.media[zone_id.index()].flushed_slices;
        let pinned = conzone_ftl::pins_aggregates(self.cfg.search_strategy);
        let first = from / chunk;
        let last = (to - 1) / chunk;
        for c in first..=last {
            if (c + 1) * chunk <= flushed {
                let lpn = zone_base.offset(c * chunk);
                if self.table.try_aggregate_chunk(lpn) {
                    self.note_bits(zone_base.offset(c * chunk), chunk, MapGranularity::Chunk);
                    if pinned {
                        self.cache.insert(lpn, MapGranularity::Chunk, true);
                    }
                }
            }
        }
        if self.cfg.max_aggregation == MapGranularity::Zone
            && flushed == self.zones.zone_slices()
            && self.table.try_aggregate_zone(zone_base)
        {
            self.note_bits(zone_base, self.zones.zone_slices(), MapGranularity::Zone);
            if pinned {
                self.cache.insert(zone_base, MapGranularity::Zone, true);
            }
        }
    }
}
