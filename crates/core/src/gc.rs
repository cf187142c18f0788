//! The erase path: composite garbage collection (paper §III-D).
//!
//! SLC superblocks get the full GC treatment — greedy victim selection by
//! valid-slice count, migration of live slices within the SLC region,
//! erase, and return to the free list. Zoned normal superblocks skip GC
//! entirely: a zone reset erases them directly and invalidates any zone
//! data still lingering in SLC.

use conzone_ftl::block_runs;
use conzone_types::{
    to_index, ChipId, DeviceError, DeviceEvent, Lpn, LpnRange, Ppa, SimTime, SpanKind, ZoneId,
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
                    .map(|c| self.flash.block(ChipId(c as u64), sb.index()).erase_count())
                    .sum();
                (self.flash.superblock_valid_slices(sb), wear, sb.raw())
            })
            .ok_or_else(|| DeviceError::NoFreeSpace {
                at: now,
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
                    Err(e) => {
                        // Out of room part-way: the victim stays in use,
                        // and the copies already moved out of it are dead.
                        outcome = Err(e);
                        for &ppa in &ppas {
                            if self.slc.owner.get(ppa).is_none() {
                                if let Err(e) = self.flash.invalidate_run(ppa, 1) {
                                    outcome = Err(internal(e));
                                    break;
                                }
                            }
                        }
                    }
                },
                Err(e) => outcome = Err(e),
            }
        }
        self.scratch.gc_ppas = ppas;
        outcome?;
        let t_erase = self.flash.erase_superblock(t, victim);
        self.slc.reclaim(victim);
        self.charge(SpanKind::GcStall, now, t_erase);
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
            match self.slc.owner.get(*ppa) {
                Some(lpn) => lpns.push(lpn),
                None => {
                    self.scratch.gc_lpns = lpns;
                    return Err(DeviceError::Internal(format!(
                        "live SLC slice {ppa} has no owner"
                    )));
                }
            }
        }

        // Program into the SLC stream without recursive GC: the free-list
        // threshold guarantees a destination superblock is available.
        let mut finish = now;
        let mut idx = 0usize;
        while idx < lpns.len() {
            let sb = match self.slc.active {
                Some(sb) => sb,
                None => match self.slc.activate_next() {
                    Some(sb) => sb,
                    None => {
                        self.scratch.gc_lpns = lpns;
                        return Err(DeviceError::NoFreeSpace {
                            at: now,
                            what: "no free SLC superblock for GC destination".to_string(),
                        });
                    }
                },
            };
            let pending = idx..lpns.len();
            idx = self.slc_placement_round(now, sb, pending, data, |dev, at, out| {
                // GC completes when the data is in the cells, not when the
                // transfer ends: the victim is erased next.
                finish = finish.max(out.finish);
                // The batch landed as one physical run; its sources split
                // into runs that were consecutive both logically and
                // physically (a staged or patch fragment moves as one).
                let n = to_index(out.slices);
                let (moved_lpns, moved_from) = (&lpns[at..at + n], &old_ppas[at..at + n]);
                let mut k = 0;
                while k < n {
                    let (lpn, old) = (moved_lpns[k], moved_from[k]);
                    let len = 1
                        + (1..n - k)
                            .take_while(|&d| {
                                moved_lpns[k + d] == lpn.offset(d as u64)
                                    && moved_from[k + d] == old.offset(d as u64)
                            })
                            .count();
                    let new = out.first.offset(k as u64);
                    dev.table.relocate_extent(lpn, new, len as u64);
                    dev.slc.owner.remove_run(old, len);
                    dev.slc.owner.insert_run(new, lpn, len);
                    dev.fix_staged_references(lpn, new, len as u64);
                    k += len;
                }
            })?;
        }
        self.scratch.gc_lpns = lpns;
        Ok(finish)
    }

    /// Updates the zones' staged-slice records after GC moved the logical
    /// run `[lpn, lpn + len)` to the physical run starting at `new_ppa`.
    fn fix_staged_references(&mut self, lpn: Lpn, new_ppa: Ppa, len: u64) {
        let zs = self.zones.zone_slices();
        let (first, last) = (lpn.raw() / zs, (lpn.raw() + len - 1) / zs);
        for zone in &mut self.media[to_index(first)..=to_index(last)] {
            for s in &mut zone.staged {
                let d = s.lpn.raw().wrapping_sub(lpn.raw());
                if d < len {
                    s.ppa = new_ppa.offset(d);
                }
            }
        }
    }

    /// Invalidates the SLC-resident slices gathered in `scratch.ppas` and
    /// forgets their owners: one flash and one owner-map operation per run
    /// of physically consecutive slices of one block (staged and patch
    /// data sits in page-sized runs), not per slice.
    pub(crate) fn drop_gathered_slc_slices(&mut self) -> Result<(), DeviceError> {
        let spb = self.cfg.geometry.slices_per_block();
        let ppas = std::mem::take(&mut self.scratch.ppas);
        let mut outcome = Ok(());
        for (first, n) in block_runs(ppas.iter().copied().map(Some), spb) {
            if let Err(e) = self.flash.invalidate_run(first, n) {
                outcome = Err(internal(e));
                break;
            }
            self.slc.owner.remove_run(first, n);
        }
        self.scratch.ppas = ppas;
        outcome
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
        let zidx = self.zones.checked(zone_id)?;
        let zone_base = self.zones.start_lpn(zone_id);
        let zs = self.zones.zone_slices();

        // Drop buffered data (host discards the zone's contents).
        let buf_idx = zidx % self.buffers.len();
        if self.buffers[buf_idx].owner() == Some(zone_id) {
            self.buffers[buf_idx].release();
        }

        // Invalidate SLC-resident slices belonging to this zone, found from
        // the zone's own mapping entries (the owner map and the table
        // agree, invariant 3; no scan of the SLC region). Path ① is the
        // only writer of canonical entries below the backing boundary and
        // places them in the reserved superblock; every other mapped page
        // — staged, redone after a program failure, conventional, tail
        // patch — lives in SLC, where GC keeps it, flags unchanged.
        let backing = self.backing_slices().min(zs);
        let doomed = &mut self.scratch.ppas;
        doomed.clear();
        doomed.extend(
            self.table
                .non_canonical_ppas(LpnRange::new(zone_base, backing)),
        );
        let tail = LpnRange::new(zone_base.offset(backing), zs - backing);
        doomed.extend(self.table.ppas(tail).flatten());
        #[cfg(any(test, debug_assertions))]
        self.debug_assert_reset_walk(zone_id);
        self.drop_gathered_slc_slices()?;
        self.media[zidx].staged.clear();

        // Directly erase the reserved normal blocks.
        let sb = self.cfg.geometry.zone_superblock(zone_id);
        let mut t = now;
        if !self.flash.superblock_erased(sb) {
            t = self.flash.erase_superblock(now, sb);
            self.charge(SpanKind::Erase, now, t);
        }

        self.table.unmap_zone(zone_id);
        self.cache.invalidate_zone(zone_base);
        self.note_bits(zone_base, zs, conzone_types::MapGranularity::Page);
        self.zones.reset(zone_id);
        self.media[zidx].reset();
        self.counters.zone_resets += 1;
        self.probe.emit(t, DeviceEvent::ZoneReset { zone: zone_id });
        self.debug_assert_invariants("after zone reset");
        Ok(t + self.cfg.host_overhead)
    }

    /// The scan the reset walk replaced, kept as its reference: every
    /// owner-map entry of the whole SLC region whose page lies in `zone`,
    /// in ascending physical order.
    #[cfg(any(test, debug_assertions))]
    pub(crate) fn reset_reference(&self, zone: ZoneId) -> Vec<Ppa> {
        let zs = self.zones.zone_slices();
        self.slc
            .owner
            .iter()
            .filter(|(_, lpn)| lpn.raw() / zs == zone.raw())
            .map(|(ppa, _)| ppa)
            .collect()
    }

    /// Every debug-profile reset cross-checks the walk against
    /// [`ConZone::reset_reference`].
    #[cfg(any(test, debug_assertions))]
    fn debug_assert_reset_walk(&self, zone: ZoneId) {
        let mut walked = self.scratch.ppas.clone();
        walked.sort_unstable();
        debug_assert_eq!(
            walked,
            self.reset_reference(zone),
            "reset walk of zone {zone} disagrees with the SLC owner scan"
        );
    }
}
