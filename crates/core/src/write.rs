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
    SpanKind, SuperblockId, ZoneId, ZoneState, SLICE_BYTES, SLICE_LEN,
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
        // What admission changes (it opens the zone) a refused write must
        // undo.
        let found = self
            .zones
            .info(ZoneId(range.start.raw() / self.zones.zone_slices()));
        let state = found.ok().map(|info| info.state);
        let (zone_id, offset) = self.zones.admit_write(range)?;
        if self.zones.is_conventional(zone_id) {
            let done = self.conventional_write(now, zone_id, offset, range, payload);
            if let (Err(_), Some(state)) = (&done, state) {
                self.zones.restore(zone_id, state);
            }
            return done;
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
            match self.flush_buffer(t, buf_idx, true) {
                Ok(done) => t = done,
                Err(e) => {
                    if let Some(state) = state {
                        self.zones.restore(zone_id, state);
                    }
                    return Err(e);
                }
            }
        }
        if self.buffers[buf_idx].owner() != Some(zone_id) {
            self.buffers[buf_idx].release();
            self.buffers[buf_idx].adopt(zone_id, offset);
        }

        t = match self.fill_buffer(t, buf_idx, zone_id, range.count, payload) {
            Ok(done) => done,
            Err(e) => {
                self.refuse_write(zone_id, buf_idx, offset, state)?;
                return Err(e);
            }
        };
        // Exclusive write-path attribution: the combine / GC / log time
        // accumulated inside the flushes is already charged elsewhere.
        let sub_delta =
            self.breakdown.combine_read + self.breakdown.gc + self.breakdown.l2p_log - sub_before;
        self.breakdown.write_path += (t - now) - (t - now).min(sub_delta);
        self.spans.close(t);
        Ok(t + self.cfg.host_overhead)
    }

    /// Appends a write's `count` slices to its zone's buffer `buf_idx`,
    /// flushing full superpages as they accumulate; a write that completes
    /// the zone drains the buffer and seals the zone.
    fn fill_buffer(
        &mut self,
        now: SimTime,
        buf_idx: usize,
        zone_id: ZoneId,
        count: u64,
        payload: Option<&[u8]>,
    ) -> Result<SimTime, DeviceError> {
        let mut t = now;
        let mut remaining = count;
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
        if zone_complete {
            t = self.flush_buffer(t, buf_idx, true)?;
            self.buffers[buf_idx].release();
            self.zones.seal(zone_id);
        }
        Ok(t)
    }

    /// Takes back a write to `zone_id` that a flush refused part-way: the
    /// zone returns to `w0` slices and to `state` (what it was before
    /// admission), and nothing the write carried stays readable. What of
    /// it is still buffered is dropped; what reached the media is unmapped
    /// and its slices invalidated. A unit whose canonical slot the write
    /// used stays used: the zone's next flush of it goes to SLC.
    fn refuse_write(
        &mut self,
        zone_id: ZoneId,
        buf_idx: usize,
        w0: u64,
        state: Option<ZoneState>,
    ) -> Result<(), DeviceError> {
        let zidx = zone_id.index();
        let durable = self.media[zidx].flushed_slices;
        if durable <= w0 {
            self.buffers[buf_idx].truncate(w0 - durable);
        } else {
            let from = self.zones.start_lpn(zone_id).offset(w0);
            self.unmap_and_drop(LpnRange::new(from, durable - w0))?;
            self.media[zidx].staged.retain(|s| s.lpn < from);
            self.media[zidx].flushed_slices = w0;
            self.buffers[buf_idx].release();
            self.buffers[buf_idx].adopt(zone_id, w0);
        }
        self.zones.rewind(zone_id, w0);
        if let Some(state) = state {
            self.zones.restore(zone_id, state);
        }
        Ok(())
    }

    /// Services a write to a conventional zone (paper §III-E): in-place
    /// updates are allowed anywhere in the zone; data is page-mapped into
    /// the SLC region, superseding any previous version once it is placed.
    fn conventional_write(
        &mut self,
        now: SimTime,
        zone_id: ZoneId,
        offset: u64,
        range: LpnRange,
        payload: Option<&[u8]>,
    ) -> Result<SimTime, DeviceError> {
        // Make room first: the placement below runs no GC, so the previous
        // versions stay live where they are until the new ones are placed,
        // and a refused overwrite leaves them mapped.
        let mut t = now;
        let mut room = self.slc_room();
        while room < range.count && !self.slc.used.is_empty() {
            t = self.run_slc_gc(t)?;
            let grown = self.slc_room();
            if grown <= room {
                break;
            }
            room = grown;
        }
        // The previous versions. (The cache is keyed per page, so its
        // invalidation has no run form.)
        let mut old = std::mem::take(&mut self.scratch.overwritten);
        old.clear();
        for (lpn, slot) in range.iter().zip(self.table.ppas(range)) {
            if let Some(ppa) = slot {
                old.push(ppa);
                self.cache.invalidate_page(lpn);
            }
        }
        match self.program_slc_batch(t, range, payload, false, None, false) {
            Ok(done) => t = done,
            Err(e) => {
                // Refused: the previous versions are mapped again.
                for &ppa in &old {
                    if let Some(lpn) = self.slc.owner.get(ppa) {
                        self.table.set_extent(lpn, ppa, 1, false);
                    }
                }
                self.scratch.overwritten = old;
                return Err(e);
            }
        }
        // Supersede the previous versions, a physical run at a time.
        self.scratch.ppas.clear();
        self.scratch.ppas.extend_from_slice(&old);
        self.scratch.overwritten = old;
        self.drop_gathered_slc_slices()?;
        self.counters.conventional_updates += range.count;
        self.note_l2p_updates(range.count);
        t = self.maybe_flush_l2p_log(t);
        // The "write pointer" of a conventional zone reports the written
        // high-water mark for inspection only.
        self.media[zone_id.index()].flushed_slices =
            self.zones.mark_written(zone_id, offset + range.count);
        Ok(t + self.cfg.host_overhead)
    }

    /// Slices the SLC write stream can place without garbage collection:
    /// what is left of the active superblock, and the free superblocks
    /// above the GC threshold. Retired blocks count as usable, so under
    /// faults this may promise more than a placement finds; that
    /// placement is then refused whole.
    fn slc_room(&self) -> u64 {
        let g = &self.cfg.geometry;
        let spb = g.slices_per_block();
        let chips = (0..g.nchips()).map(|c| ChipId(c as u64));
        let active = self.slc.active.map_or(0, |sb| {
            chips
                .map(|chip| spb - self.flash.block(chip, sb.index()).cursor() as u64)
                .sum()
        });
        let spare = self
            .slc
            .free
            .len()
            .saturating_sub(self.cfg.slc_gc_threshold);
        active + spare as u64 * spb * g.nchips() as u64
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
        // Units are aligned to the zone. (A host flush inside the tail
        // patch leaves the durable prefix mid-unit; nothing is ever staged
        // there. A refused write may leave it mid-unit in a unit whose
        // canonical slot it used; see `refuse_write`.)
        let first = run_start / unit * unit;
        debug_assert!(
            run_start >= backing
                || run_start == first
                || (staged_len == 0 && self.slot_used(sb, first)),
            "staged run starts unit-aligned"
        );

        let mut t = now;

        // ── Path ① / ③: full canonical units below the backing boundary ──
        let canon_end = run_end.min(backing);
        let full_end = if canon_end > first {
            first + ((canon_end - first) / unit) * unit
        } else {
            first
        };
        if full_end > run_start {
            let flushed = self.media[zidx].flushed_slices;
            let mut staged_data: Option<Vec<u8>> = None;
            if staged_len > 0 {
                // Path ③: read the staged fragments out of SLC (striped
                // blocks of Fig. 3); they are invalidated once their unit
                // is programmed.
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
            // The run's data from `run_start`.
            let payload: Option<Vec<u8>> = if self.cfg.data_backing {
                let mut v = staged_data.unwrap_or_default();
                v.extend_from_slice(&buf_data.unwrap_or_default());
                Some(v)
            } else {
                None
            };
            // Where zone offset `off` sits in the payload.
            let at = |off: u64| to_index((off - run_start) * SLICE_BYTES);

            let nunits = (full_end - first) / unit;
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
                let off = first + u * unit;
                let first_ppa = self.cfg.geometry.superblock_slice(sb, off);
                let parts = self.cfg.geometry.decode_ppa(first_ppa);
                let programmed = if self.slot_used(sb, off) {
                    Err(None)
                } else {
                    let data = payload.as_ref().map(|p| &p[at(off)..at(off + unit)]);
                    let out = self.flash.program_unit(t, parts.chip, parts.block, data);
                    out.map_err(Some)
                };
                match programmed {
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
                        if off < flushed {
                            // The staged fragments now live in the unit.
                            self.scratch.ppas.clear();
                            self.scratch
                                .ppas
                                .extend(self.media[zidx].staged.iter().map(|s| s.ppa));
                            self.drop_gathered_slc_slices()?;
                            self.media[zidx].staged.clear();
                        }
                    }
                    Err(
                        failed @ (None
                        | Some(
                            FlashError::ProgramFailed { .. } | FlashError::BlockRetired { .. },
                        )),
                    ) => {
                        // The unit's slot is used up: by this failure (the
                        // cursor still advanced, keeping the fixed layout
                        // intact) or by a write refused since. Its data is
                        // re-issued into the SLC secondary buffer, which
                        // page-maps it outside the canonical layout; staged
                        // fragments stay where they are.
                        if matches!(failed, Some(FlashError::ProgramFailed { .. })) {
                            self.counters.program_failures += 1;
                        }
                        let from = off.max(flushed);
                        let lpns = LpnRange::new(zone_base.offset(from), off + unit - from);
                        let data = payload.as_ref().map(|p| &p[at(from)..at(off + unit)]);
                        match self.program_slc_batch(t, lpns, data, false, None, true) {
                            Ok(redo) => finish = finish.max(redo),
                            Err(e) => {
                                // Refused: the units before this one are
                                // durable, the rest goes back to the buffer.
                                let rest = payload.map(|mut p| p.split_off(at(from)));
                                self.buffers[buf_idx].undrain_front(full_end - from, rest);
                                self.media[zidx].flushed_slices = from;
                                if from > run_start {
                                    self.maybe_aggregate(zone_id, run_start, from);
                                }
                                return Err(e);
                            }
                        }
                        self.media[zidx].staged.clear();
                    }
                    Err(Some(e)) => return Err(internal(e)),
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
            t = self
                .program_slc_batch(t, lpns, pay.as_deref(), true, None, true)
                .inspect_err(|_| self.buffers[buf_idx].undrain_front(count, pay))?;
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
            t = self
                .program_slc_batch(t, lpns, pay.as_deref(), false, Some(zidx), true)
                .inspect_err(|_| self.buffers[buf_idx].undrain_front(count, pay))?;
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
    ///
    /// Without `gc`, a batch that would need garbage collection runs out
    /// of space instead. A batch that runs out of SLC space part-way is
    /// refused whole: what it placed is taken back (see
    /// [`ConZone::unplace_slc_batch`]), so the caller's data is still only
    /// where it was before.
    pub(crate) fn program_slc_batch(
        &mut self,
        now: SimTime,
        lpns: LpnRange,
        payload: Option<&[u8]>,
        canonical: bool,
        staged_zone: Option<usize>,
        gc: bool,
    ) -> Result<SimTime, DeviceError> {
        let mut t = now;
        let mut finish = t;
        let total = to_index(lpns.count);
        let staged = staged_zone.map(|z| (z, self.media[z].staged.len()));
        let out_of_space = |at| DeviceError::NoFreeSpace {
            at,
            what: "slc secondary buffer superblocks".to_string(),
        };
        // Slices of `lpns` placed so far.
        let mut placed = 0;
        // Whether GC ran and nothing was placed since: a second pass then
        // would free no more room (the region is full of live data).
        let mut gc_idle = false;
        let outcome = loop {
            if placed == total {
                break Ok(());
            }
            if self.slc.active.is_none()
                && self.slc.free.len() <= self.cfg.slc_gc_threshold
                && !self.slc.used.is_empty()
            {
                if gc_idle || !gc {
                    break Err(out_of_space(t));
                }
                match self.run_slc_gc(t) {
                    Ok(done) => t = done,
                    Err(e) => break Err(e),
                }
                finish = finish.max(t);
                gc_idle = true;
            }
            // GC's own migration may already have opened a fresh
            // superblock; reuse it instead of double-activating.
            let Some(sb) = self.slc.active.or_else(|| self.slc.activate_next()) else {
                break Err(out_of_space(t));
            };
            let before = placed;
            let round = self.slc_placement_round(t, sb, placed..total, payload, |dev, at, out| {
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
            });
            match round {
                Ok(next) => placed = next,
                Err(e) => break Err(e),
            }
            gc_idle &= placed == before;
        };
        match outcome {
            Ok(()) => Ok(self.maybe_flush_l2p_log(finish)),
            Err(e) => {
                self.unplace_slc_batch(lpns, placed, staged)?;
                Err(e)
            }
        }
    }

    /// Whether the canonical slot of the unit at zone offset `off` in
    /// superblock `sb` is used: its block's cursor is past it.
    fn slot_used(&self, sb: SuperblockId, off: u64) -> bool {
        let g = &self.cfg.geometry;
        let parts = g.decode_ppa(g.superblock_slice(sb, off));
        let at = parts.page * g.slices_per_page() + parts.slice;
        self.flash.block(parts.chip, parts.block).cursor() > at
    }

    /// Unmaps `range` and invalidates the slices it mapped, wherever they
    /// are (SLC copies leave the owner map too), as a failed program
    /// leaves them.
    fn unmap_and_drop(&mut self, range: LpnRange) -> Result<(), DeviceError> {
        self.scratch.ppas.clear();
        for (lpn, slot) in range.iter().zip(self.table.ppas(range)) {
            if let Some(ppa) = slot {
                self.scratch.ppas.push(ppa);
                self.cache.invalidate_page(lpn);
            }
        }
        self.drop_gathered_slc_slices()?;
        self.table.unmap_extent(range.start, range.count);
        Ok(())
    }

    /// Takes back the first `placed` slices of a refused SLC batch over
    /// `lpns`: they are unmapped and their copies (wherever GC has moved
    /// them since) become dead, unowned slices, as a failed program leaves
    /// them; and a staged list `(zone, length)` is cut back to its length
    /// before the batch.
    fn unplace_slc_batch(
        &mut self,
        lpns: LpnRange,
        placed: usize,
        staged: Option<(usize, usize)>,
    ) -> Result<(), DeviceError> {
        self.unmap_and_drop(LpnRange::new(lpns.start, placed as u64))?;
        if let Some((zone, len)) = staged {
            self.media[zone].staged.truncate(len);
        }
        Ok(())
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
        payload: Option<&[u8]>,
        mut placed: impl FnMut(&mut ConZone, usize, &ProgramOutcome),
    ) -> Result<usize, DeviceError> {
        let spb = to_index(self.cfg.geometry.slices_per_block());
        let spp = self.cfg.geometry.slices_per_page();
        // Preferring idle chips keeps premature flushes from stalling
        // behind a long tPROG on a die that happens to be programming
        // TLC. Stable sort: equally idle chips keep ascending order
        // across reruns.
        let mut order = std::mem::take(&mut self.scratch.chip_order);
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
                Err(e) => {
                    self.scratch.chip_order = order;
                    return Err(internal(e));
                }
            };
            any = true;
            placed(self, idx, &out);
            idx += n;
        }
        self.scratch.chip_order = order;
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
