//! The erase path: composite garbage collection (paper §III-D).
//!
//! SLC superblocks get the full GC treatment — greedy victim selection by
//! valid-slice count, migration of live slices within the SLC region,
//! erase, and return to the free list. Zoned normal superblocks skip GC
//! entirely: a zone reset erases them directly and invalidates any zone
//! data still lingering in SLC.

use conzone_types::{
    ChipId, DeviceError, DeviceEvent, Lpn, Ppa, SimTime, SpanKind, SuperblockId, ZoneId,
    SLICE_BYTES,
};

use crate::device::ConZone;
use crate::write::internal;

impl ConZone {
    /// Runs one SLC garbage-collection pass: selects the victim with the
    /// fewest valid slices, migrates its live data within SLC, erases it
    /// and returns it to the free list. Returns when the pass completes.
    pub(crate) fn run_slc_gc(&mut self, now: SimTime) -> Result<SimTime, DeviceError> {
        // Greedy victim by valid count; erase-count tie-break spreads wear
        // across the SLC region (it absorbs every premature flush, so it
        // wears fastest — the paper's lifespan concern, §I).
        let victim = self
            .slc
            .used
            .iter()
            .copied()
            .min_by_key(|&sb| {
                let wear: u64 = (0..self.cfg.geometry.nchips())
                    .map(|c| {
                        self.flash
                            .block(conzone_types::ChipId(c as u64), sb.raw() as usize)
                            .erase_count()
                    })
                    .sum();
                (self.flash.superblock_valid_slices(sb), wear, sb.raw())
            })
            .ok_or_else(|| DeviceError::NoFreeSpace {
                at: now,
                // xtask-lint: allow(hot-path-effects) — device-full error path, not steady state
                what: "no SLC superblock eligible for garbage collection".to_string(),
            })?;
        self.counters.gc_runs += 1;

        // GC runs inside the steady-state write path (live tail-patch
        // slices keep migrating), so it reuses scratch like the hot IO
        // paths instead of allocating per pass.
        let mut ppas = std::mem::take(&mut self.scratch.gc_ppas);
        ppas.clear();
        self.flash.superblock_valid_ppas_into(victim, &mut ppas);
        let live = ppas.len() as u64;
        self.probe
            .emit(now, DeviceEvent::GcBegin { valid_slices: live });
        let mut t = now;
        let mut outcome: Result<(), DeviceError> = Ok(());
        if !ppas.is_empty() {
            match self.flash.read_slices(t, &ppas).map_err(internal) {
                Ok(out) => match self.migrate_slc_slices(out.finish, &ppas, out.data.as_deref()) {
                    Ok(end) => {
                        t = end;
                        self.counters.gc_migrated_slices += live;
                    }
                    Err(e) => outcome = Err(e),
                },
                Err(e) => outcome = Err(e),
            }
        }
        self.scratch.gc_ppas = ppas;
        outcome?;
        let t_erase = self.flash.erase_superblock(t, victim);
        self.slc.reclaim(victim);
        self.breakdown.gc += t_erase.saturating_since(now);
        // Retroactive emission: the stall window is only known here, and
        // the early error returns above must not leave an open span.
        if t_erase > now {
            self.spans.open(now, SpanKind::GcStall);
            self.spans.close(t_erase);
        }
        self.probe.emit(
            t_erase,
            DeviceEvent::GcEnd {
                migrated_slices: live,
            },
        );
        self.debug_assert_invariants_during_io("after SLC garbage collection");
        Ok(t_erase)
    }

    /// Re-programs live SLC slices at fresh SLC locations, updating the
    /// mapping table in place (map bits preserved), the SLC owner map and
    /// any zone staged-list references.
    fn migrate_slc_slices(
        &mut self,
        now: SimTime,
        old_ppas: &[Ppa],
        data: Option<&[u8]>,
    ) -> Result<SimTime, DeviceError> {
        let mut lpns = std::mem::take(&mut self.scratch.gc_lpns);
        lpns.clear();
        for ppa in old_ppas {
            match self.slc.owner.get(ppa) {
                Some(&lpn) => lpns.push(lpn),
                None => {
                    self.scratch.gc_lpns = lpns;
                    // xtask-lint: allow(hot-path-effects) — error construction on the ownerless-slice path; never runs on the success path
                    return Err(DeviceError::Internal(format!(
                        "live SLC slice {ppa} has no owner"
                    )));
                }
            }
        }

        // Program into the SLC stream without recursive GC: the free-list
        // threshold guarantees a destination superblock is available.
        let nchips = self.cfg.geometry.nchips();
        let spb = self.cfg.geometry.slices_per_block() as usize;
        let spp = self.cfg.geometry.slices_per_page();
        let mut t = now;
        let mut finish = t;
        let mut idx = 0usize;
        let mut order = std::mem::take(&mut self.scratch.gc_chip_order);
        while idx < lpns.len() {
            let sb = match self.slc.active {
                Some(sb) => sb,
                None => match self.slc.activate_next() {
                    Some(sb) => sb,
                    None => {
                        self.scratch.gc_lpns = lpns;
                        self.scratch.gc_chip_order = order;
                        return Err(DeviceError::NoFreeSpace {
                            at: t,
                            // xtask-lint: allow(hot-path-effects) — device-full error path, not steady state
                            what: "no free SLC superblock for GC destination".to_string(),
                        });
                    }
                },
            };
            order.clear();
            order.extend(0..nchips);
            order.sort_by_key(|&c| self.flash.chip_free_at(ChipId(c as u64)));
            let mut any = false;
            for &c in &order {
                if idx >= lpns.len() {
                    break;
                }
                let chip = ChipId(c as u64);
                let avail = spb - self.flash.block(chip, sb.raw() as usize).cursor();
                let n = spp.min(avail).min(lpns.len() - idx);
                if n == 0 {
                    continue;
                }
                let pay =
                    data.map(|p| &p[idx * SLICE_BYTES as usize..(idx + n) * SLICE_BYTES as usize]);
                let out = match self.flash.program_slc(t, chip, sb.raw() as usize, n, pay) {
                    Ok(out) => out,
                    Err(conzone_flash::FlashError::ProgramFailed { .. }) => {
                        // Burned slices count as progress; retry the same
                        // live data on the next placement round.
                        self.counters.program_failures += 1;
                        any = true;
                        continue;
                    }
                    Err(conzone_flash::FlashError::BlockRetired { .. }) => continue,
                    Err(e) => return Err(internal(e)),
                };
                any = true;
                finish = finish.max(out.finish);
                for i in 0..n {
                    let lpn = lpns[idx + i];
                    let old = old_ppas[idx + i];
                    let new = out.first.offset(i as u64);
                    self.table.relocate(lpn, new);
                    self.slc.owner.remove(&old);
                    self.slc.owner.insert(new, lpn);
                    self.fix_staged_reference(lpn, new);
                }
                idx += n;
            }
            if !any {
                self.slc.retire_active();
            }
        }
        self.scratch.gc_lpns = lpns;
        self.scratch.gc_chip_order = order;
        t = finish;
        Ok(t)
    }

    /// Updates a zone's staged-slice record after GC moved the slice.
    fn fix_staged_reference(&mut self, lpn: Lpn, new_ppa: Ppa) {
        let zidx = (lpn.raw() / self.zone_slices()) as usize;
        if let Some(s) = self.zones[zidx].staged.iter_mut().find(|s| s.lpn == lpn) {
            s.ppa = new_ppa;
        }
    }

    /// Handles a zone reset (paper §III-D, E.2): releases the zone's
    /// buffer, invalidates its SLC-resident slices (staged remainders and
    /// §III-E patch slices), erases the reserved superblock and clears all
    /// mapping state.
    pub(crate) fn reset_zone_inner(
        &mut self,
        now: SimTime,
        zone_id: ZoneId,
    ) -> Result<SimTime, DeviceError> {
        let zidx = zone_id.raw() as usize;
        if zidx >= self.zones.len() {
            return Err(DeviceError::OutOfRange {
                offset: zone_id.raw() * self.cfg.zone_size_bytes(),
                capacity: self.cfg.capacity_bytes(),
            });
        }
        let zone_base = self.zone_start(zone_id);
        let zs = self.zone_slices();

        // Drop buffered data (host discards the zone's contents).
        let buf_idx = zone_id.raw() as usize % self.buffers.len();
        if self.buffers[buf_idx].owner == Some(zone_id) {
            self.buffers[buf_idx].release();
        }

        // Invalidate SLC-resident slices belonging to this zone.
        let doomed: Vec<Ppa> = self
            .slc
            .owner
            .iter()
            .filter(|(_, lpn)| lpn.raw() / zs == zone_id.raw())
            .map(|(ppa, _)| ppa)
            .collect();
        for ppa in doomed {
            self.flash.invalidate(ppa).map_err(internal)?;
            self.slc.owner.remove(&ppa);
        }
        self.zones[zidx].staged.clear();

        // Directly erase the reserved normal blocks.
        let sb = self.cfg.geometry.zone_superblock(zone_id);
        let mut t = now;
        if !self.flash.superblock_erased(sb) {
            t = self.flash.erase_superblock(now, sb);
            self.breakdown.erase += t.saturating_since(now);
            if t > now {
                self.spans.open(now, SpanKind::Erase);
                self.spans.close(t);
            }
        }

        self.table.unmap_zone(zone_id);
        self.cache.invalidate_zone(zone_base);
        self.note_bits(zone_base, zs, conzone_types::MapGranularity::Page);
        self.zones[zidx].reset();
        self.counters.zone_resets += 1;
        self.probe.emit(t, DeviceEvent::ZoneReset { zone: zone_id });
        self.debug_assert_invariants("after zone reset");
        Ok(t + self.cfg.host_overhead)
    }

    /// Superblocks currently on the SLC used (GC-eligible) list, for tests.
    pub fn slc_used_superblocks(&self) -> Vec<SuperblockId> {
        self.slc.used.clone()
    }
}
