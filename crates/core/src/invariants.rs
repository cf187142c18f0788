//! Debug-mode structural invariant checker.
//!
//! The emulator's correctness rests on a handful of cross-structure
//! agreements — the L2P table, the flash validity bitmaps, the SLC owner
//! map and the per-zone write-pointer bookkeeping must all describe the
//! same device state. `ConZone::check_invariants` walks the full state
//! and returns every disagreement it finds; the `debug_assert_invariants`
//! hooks run it after every SLC garbage-collection pass and every
//! power-cycle remount in debug and test builds. Release builds compile
//! neither the hooks nor the checker (it is `O(capacity)` per call).
//!
//! The invariants, and the corruption each one catches:
//!
//! 1. **L2P ↔ flash bijection.** Every mapped logical page points at a
//!    distinct physical slice that the flash array marks valid, and the
//!    total number of valid slices equals the mapped-entry count. A
//!    duplicate PPA means two logical pages alias one slice (a botched
//!    relocate); an unmapped valid slice is leaked flash space (an
//!    invalidate forgotten on the overwrite path).
//! 2. **Zone write-pointer ordering.** Per zone, `staged ≤
//!    flushed_slices ≤ wp_slices ≤ zone_slices`; each page of the staged
//!    run (the last `staged` pages of the durable prefix) is mapped by the
//!    table to an SLC slice the owner map gives back to it — a run GC
//!    moved without the table, or a refused write left too long; any gap
//!    between `wp` and `flushed` is exactly the data sitting in the zone's
//!    volatile buffer. The zone table's open count is the number of open
//!    sequential zones.
//! 3. **SLC owner bijection.** The owner map covers exactly the valid
//!    slices of the SLC region, and every entry agrees with the mapping
//!    table. A dangling owner entry (pointing at an invalid slice) is the
//!    GC-migration bug class; a valid SLC slice missing from the owner map
//!    would be lost by zone reset and remount, which iterate the owner.
//! 4. **No dangling references into retired blocks.** A grown-bad block
//!    may legitimately hold live data until GC migrates it out, but an
//!    owner entry pointing at an *erased* slice of a retired block means a
//!    migration skipped the block and forgot the entry.
//! 5. **SLC free-list hygiene.** The free/used/active superblock lists
//!    partition the SLC region with no duplicates, and every free
//!    superblock is fully erased.

#[cfg(any(test, debug_assertions))]
use std::collections::{BTreeMap, BTreeSet};
#[cfg(any(test, debug_assertions))]
use std::fmt;

#[cfg(any(test, debug_assertions))]
use conzone_types::{ChipId, Lpn, Ppa, ZoneId, ZoneState};

use crate::device::ConZone;

/// Which structural invariant a violation breaks.
#[cfg(any(test, debug_assertions))]
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) enum InvariantKind {
    /// Two mapped logical pages share one physical slice.
    MappingDuplicatePpa,
    /// A mapped logical page points at a slice the flash marks invalid.
    MappingInvalidSlice,
    /// Valid-slice total disagrees with the mapped-entry count.
    MappingCountMismatch,
    /// A zone's write-pointer ordering or buffer linkage is inconsistent.
    ZoneAccounting,
    /// A zone's staged run is longer than its durable prefix, or one of
    /// its pages is not mapped to an SLC slice the owner map gives it.
    StagedRun,
    /// An SLC owner entry points outside the SLC region.
    OwnerOutsideSlc,
    /// An SLC owner entry points at an invalid (erased or superseded)
    /// slice of a healthy block.
    OwnerDangling,
    /// An SLC owner entry disagrees with the mapping table.
    OwnerTableMismatch,
    /// A valid SLC slice has no owner entry (would be lost on remount).
    OwnerMissing,
    /// An owner entry references an erased slice of a retired block.
    RetiredReference,
    /// The SLC free/used/active lists do not partition the region, or a
    /// free superblock is not erased.
    SlcPartition,
}

#[cfg(any(test, debug_assertions))]
impl fmt::Display for InvariantKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            InvariantKind::MappingDuplicatePpa => "mapping-duplicate-ppa",
            InvariantKind::MappingInvalidSlice => "mapping-invalid-slice",
            InvariantKind::MappingCountMismatch => "mapping-count-mismatch",
            InvariantKind::ZoneAccounting => "zone-accounting",
            InvariantKind::StagedRun => "staged-run",
            InvariantKind::OwnerOutsideSlc => "owner-outside-slc",
            InvariantKind::OwnerDangling => "owner-dangling",
            InvariantKind::OwnerTableMismatch => "owner-table-mismatch",
            InvariantKind::OwnerMissing => "owner-missing",
            InvariantKind::RetiredReference => "retired-reference",
            InvariantKind::SlcPartition => "slc-partition",
        };
        f.write_str(name)
    }
}

/// One structural disagreement found by [`ConZone::check_invariants`].
#[cfg(any(test, debug_assertions))]
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct InvariantViolation {
    /// Which invariant broke.
    pub(crate) kind: InvariantKind,
    /// Human-readable description naming the offending addresses.
    pub(crate) detail: String,
}

#[cfg(any(test, debug_assertions))]
impl fmt::Display for InvariantViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] {}", self.kind, self.detail)
    }
}

#[cfg(any(test, debug_assertions))]
fn violation(out: &mut Vec<InvariantViolation>, kind: InvariantKind, detail: String) {
    out.push(InvariantViolation { kind, detail });
}

#[cfg(debug_assertions)]
#[track_caller]
#[allow(
    clippy::panic,
    reason = "debug-build checker, compiled out of release: a violated device invariant must abort loudly"
)]
fn panic_on_violations(violations: Vec<InvariantViolation>, context: &str) {
    if !violations.is_empty() {
        let list: Vec<String> = violations.iter().map(|v| v.to_string()).collect();
        panic!(
            "device invariants violated {context}:\n  {}",
            list.join("\n  ")
        );
    }
}

impl ConZone {
    /// Panics with the violation list if any invariant is broken.
    /// Compiled out entirely in release builds.
    #[cfg(debug_assertions)]
    #[track_caller]
    pub(crate) fn debug_assert_invariants(&self, context: &str) {
        panic_on_violations(self.check_invariants(), context);
    }

    #[cfg(not(debug_assertions))]
    #[inline(always)]
    pub(crate) fn debug_assert_invariants(&self, _context: &str) {}

    /// Mid-IO variant of [`ConZone::debug_assert_invariants`] for hooks
    /// that fire nested inside a host request (the GC step).
    #[cfg(debug_assertions)]
    #[track_caller]
    pub(crate) fn debug_assert_invariants_during_io(&self, context: &str) {
        panic_on_violations(self.check_invariants_during_io(), context);
    }

    #[cfg(not(debug_assertions))]
    #[inline(always)]
    pub(crate) fn debug_assert_invariants_during_io(&self, _context: &str) {}
}

#[cfg(any(test, debug_assertions))]
impl ConZone {
    /// Walks the full device state and returns every structural invariant
    /// violation found (empty when the device is consistent). Tests assert
    /// on the returned list directly; the `debug_assert_invariants` hooks
    /// call it in debug builds.
    pub(crate) fn check_invariants(&self) -> Vec<InvariantViolation> {
        self.check_invariants_inner(true)
    }

    /// Like [`ConZone::check_invariants`], but restricted to the subset
    /// that holds *mid-request* — GC runs nested inside the write path,
    /// where a buffer may have drained before `flushed_slices` advanced
    /// and a superseded mapping may await its `table.set` to the fresh
    /// location. The L2P ↔ flash bijection and the buffer-linkage
    /// equality are quiescent-only; the SLC owner, SLC partition,
    /// write-pointer ordering and staged-run checks always apply.
    #[cfg(debug_assertions)]
    fn check_invariants_during_io(&self) -> Vec<InvariantViolation> {
        self.check_invariants_inner(false)
    }

    fn check_invariants_inner(&self, quiescent: bool) -> Vec<InvariantViolation> {
        let mut out = Vec::new();
        if quiescent {
            self.check_mapping_bijection(&mut out);
        }
        self.check_zone_accounting(&mut out, quiescent);
        self.check_slc_owner(&mut out);
        self.check_slc_partition(&mut out);
        out
    }

    /// Invariant 1: the mapping table is injective onto the valid slices
    /// of the flash array, and covers all of them.
    fn check_mapping_bijection(&self, out: &mut Vec<InvariantViolation>) {
        let mut seen: BTreeMap<Ppa, Lpn> = BTreeMap::new();
        let mut mapped = 0u64;
        for (lpn, entry) in self.table.iter_mapped() {
            mapped += 1;
            if let Some(prev) = seen.insert(entry.ppa, lpn) {
                violation(
                    out,
                    InvariantKind::MappingDuplicatePpa,
                    format!("{prev} and {lpn} both map to {}", entry.ppa),
                );
            }
            if !self.slice_valid(entry.ppa) {
                violation(
                    out,
                    InvariantKind::MappingInvalidSlice,
                    format!("{lpn} maps to invalid slice {}", entry.ppa),
                );
            }
        }
        let valid = self.total_valid_slices();
        if valid != mapped {
            violation(
                out,
                InvariantKind::MappingCountMismatch,
                format!("{valid} valid flash slices but {mapped} mapped entries"),
            );
        }
    }

    /// Invariant 2: per-zone write-pointer ordering, buffer linkage and
    /// the staged run's pages. The buffer-linkage equality only holds
    /// between host requests (`quiescent`).
    fn check_zone_accounting(&self, out: &mut Vec<InvariantViolation>, quiescent: bool) {
        let zs = self.zones.zone_slices();
        let mut open = 0;
        for (zidx, zone) in self.media.iter().enumerate() {
            let id = ZoneId(zidx as u64);
            let (state, wp) = (self.zones.state(id), self.zones.wp_slices(id));
            open += usize::from(state == ZoneState::Open && !self.zones.is_conventional(id));
            let flushed = zone.flushed_slices;
            let staged = zone.staged;
            if !(flushed <= wp && wp <= zs) {
                violation(
                    out,
                    InvariantKind::ZoneAccounting,
                    format!(
                        "zone {zidx}: flushed {flushed} / wp {wp} \
                         violate flushed <= wp <= {zs}"
                    ),
                );
                continue;
            }
            if staged > flushed {
                violation(
                    out,
                    InvariantKind::StagedRun,
                    format!("zone {zidx}: {staged} staged slices exceed durable prefix {flushed}"),
                );
                continue;
            }
            // The gap between wp and the durable prefix is exactly the
            // data sitting in the zone's volatile buffer.
            if quiescent {
                let buf = &self.buffers[zidx % self.buffers.len()];
                let buffered = if buf.owner() == Some(id) {
                    if !buf.is_empty() && buf.start_offset() != flushed {
                        violation(
                            out,
                            InvariantKind::ZoneAccounting,
                            format!(
                                "zone {zidx}: buffer starts at {} but durable prefix is {flushed}",
                                buf.start_offset()
                            ),
                        );
                    }
                    buf.slices()
                } else {
                    0
                };
                if wp != flushed + buffered {
                    violation(
                        out,
                        InvariantKind::ZoneAccounting,
                        format!("zone {zidx}: wp {wp} != flushed {flushed} + buffered {buffered}"),
                    );
                }
            }
            if state == ZoneState::Empty && wp != 0 {
                violation(
                    out,
                    InvariantKind::ZoneAccounting,
                    format!("zone {zidx}: Empty with wp {wp}"),
                );
            }
            // Each page of the staged run, the tail of the durable prefix,
            // is mapped to an SLC slice the owner map gives back to it.
            let base = zidx as u64 * zs;
            for lpn in (base + flushed - staged..base + flushed).map(Lpn) {
                match self.table.get(lpn) {
                    Some(e) if self.slc.owner.get(e.ppa) == Some(lpn) => {}
                    Some(e) => violation(
                        out,
                        InvariantKind::StagedRun,
                        format!(
                            "zone {zidx}: staged {lpn} maps to {}, which the SLC owner map \
                             does not give it",
                            e.ppa
                        ),
                    ),
                    None => violation(
                        out,
                        InvariantKind::StagedRun,
                        format!("zone {zidx}: staged {lpn} is unmapped"),
                    ),
                }
            }
        }
        if open != self.zones.open_count() {
            violation(
                out,
                InvariantKind::ZoneAccounting,
                format!(
                    "{open} sequential zones are open but the table counts {}",
                    self.zones.open_count()
                ),
            );
        }
    }

    /// Invariants 3 and 4: the SLC owner map covers exactly the valid SLC
    /// slices, agrees with the mapping table, and never dangles into an
    /// erased slice of a retired block.
    fn check_slc_owner(&self, out: &mut Vec<InvariantViolation>) {
        let geometry = self.flash.geometry();
        for (ppa, lpn) in self.slc.owner.iter() {
            if !geometry.is_slc(ppa) {
                violation(
                    out,
                    InvariantKind::OwnerOutsideSlc,
                    format!("owner entry {ppa} -> {lpn} is outside the SLC region"),
                );
                continue;
            }
            if !self.slice_valid(ppa) {
                let parts = geometry.decode_ppa(ppa);
                if self.flash.is_block_retired(parts.chip, parts.block) {
                    violation(
                        out,
                        InvariantKind::RetiredReference,
                        format!(
                            "owner entry {ppa} -> {lpn} references an erased slice of \
                             retired block {} on chip {}",
                            parts.block, parts.chip
                        ),
                    );
                } else {
                    violation(
                        out,
                        InvariantKind::OwnerDangling,
                        format!("owner entry {ppa} -> {lpn} points at an invalid slice"),
                    );
                }
            }
            match self.table.get(lpn) {
                Some(e) if e.ppa == ppa => {}
                Some(e) => violation(
                    out,
                    InvariantKind::OwnerTableMismatch,
                    format!(
                        "owner says {lpn} lives at {ppa} but the table says {}",
                        e.ppa
                    ),
                ),
                None => violation(
                    out,
                    InvariantKind::OwnerTableMismatch,
                    format!("owner entry {ppa} -> {lpn} but {lpn} is unmapped"),
                ),
            }
        }
        // Reverse direction: every valid SLC slice must be owned, or zone
        // reset and remount (which iterate the owner map) would miss it.
        let slc_blocks = self.cfg.geometry.slc_blocks_per_chip;
        for chip in 0..self.cfg.geometry.nchips() {
            let chip = ChipId(chip as u64);
            for block in 0..slc_blocks {
                let base = self.flash.block_base(chip, block);
                for idx in self.flash.block(chip, block).iter_valid() {
                    let ppa = base.offset(idx as u64);
                    if !self.slc.owner.contains_key(ppa) {
                        violation(
                            out,
                            InvariantKind::OwnerMissing,
                            format!("valid SLC slice {ppa} has no owner entry"),
                        );
                    }
                }
            }
        }
    }

    /// Invariant 5: the free/used/active lists partition the SLC region,
    /// and free superblocks are erased.
    fn check_slc_partition(&self, out: &mut Vec<InvariantViolation>) {
        let total = self.cfg.geometry.slc_superblocks() as u64;
        let mut seen: BTreeSet<u64> = BTreeSet::new();
        let all = self
            .slc
            .free
            .iter()
            .chain(self.slc.used.iter())
            .chain(self.slc.active.iter());
        for sb in all {
            if sb.raw() >= total {
                violation(
                    out,
                    InvariantKind::SlcPartition,
                    format!("superblock {sb} is outside the {total}-superblock SLC region"),
                );
            }
            if !seen.insert(sb.raw()) {
                violation(
                    out,
                    InvariantKind::SlcPartition,
                    format!("superblock {sb} appears on more than one SLC list"),
                );
            }
        }
        if seen.len() as u64 != total {
            violation(
                out,
                InvariantKind::SlcPartition,
                format!(
                    "SLC lists track {} superblocks but the region has {total}",
                    seen.len()
                ),
            );
        }
        for &sb in &self.slc.free {
            if !self.flash.superblock_erased(sb) {
                violation(
                    out,
                    InvariantKind::SlcPartition,
                    format!("free superblock {sb} is not erased"),
                );
            }
        }
    }

    /// Whether the flash array marks `ppa` as holding live data.
    fn slice_valid(&self, ppa: Ppa) -> bool {
        let parts = self.cfg.geometry.decode_ppa(ppa);
        let in_block = parts.page * self.cfg.geometry.slices_per_page() + parts.slice;
        self.flash.block(parts.chip, parts.block).is_valid(in_block)
    }

    /// Total valid slices across the whole array.
    fn total_valid_slices(&self) -> u64 {
        let mut total = 0u64;
        for chip in 0..self.cfg.geometry.nchips() {
            let chip = ChipId(chip as u64);
            for block in 0..self.cfg.geometry.blocks_per_chip {
                total += self.flash.block(chip, block).valid_count() as u64;
            }
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use conzone_types::{DeviceConfig, IoRequest, SimTime, StorageDevice};

    use crate::device::ConZone;

    fn kinds(violations: &[InvariantViolation]) -> Vec<InvariantKind> {
        violations.iter().map(|v| v.kind).collect()
    }

    /// A device with both canonical zone data and SLC-staged slices: one
    /// full programming unit plus a 3-slice remainder, drained by a host
    /// flush (premature flush into the SLC secondary buffer).
    fn seeded() -> ConZone {
        let mut dev = ConZone::new(DeviceConfig::tiny_for_tests());
        let unit = dev.cfg.geometry.program_unit_bytes as u64;
        let t = dev
            .submit(SimTime::ZERO, &IoRequest::write(0, unit + 3 * 4096))
            .expect("seed write")
            .finished;
        dev.flush(t).expect("seed flush");
        dev
    }

    #[test]
    fn seeded_device_is_consistent() {
        let dev = seeded();
        assert!(dev.slc.owner.len() >= 3, "remainder staged in SLC");
        assert_eq!(dev.check_invariants(), Vec::new());
    }

    #[test]
    fn duplicate_ppa_is_detected() {
        let mut dev = seeded();
        let mapped: Vec<(Lpn, conzone_ftl::MapEntry)> = dev.table.iter_mapped().collect();
        let (_, first) = mapped[0];
        let (second_lpn, _) = mapped[1];
        dev.table.relocate(second_lpn, first.ppa);
        let v = dev.check_invariants();
        assert!(
            kinds(&v).contains(&InvariantKind::MappingDuplicatePpa),
            "expected duplicate-ppa violation, got {v:?}"
        );
    }

    #[test]
    fn mapping_to_unwritten_slice_is_detected() {
        let mut dev = seeded();
        let (lpn, _) = dev.table.iter_mapped().next().expect("mapped entry");
        // Last normal block of chip 0 is untouched by the seed workload.
        let bogus = dev
            .flash
            .block_base(ChipId(0), dev.cfg.geometry.blocks_per_chip - 1);
        dev.table.relocate(lpn, bogus);
        let v = dev.check_invariants();
        assert!(
            kinds(&v).contains(&InvariantKind::MappingInvalidSlice),
            "expected invalid-slice violation, got {v:?}"
        );
    }

    #[test]
    fn valid_slice_without_owner_is_detected() {
        let mut dev = seeded();
        let (ppa, _) = dev.slc.owner.iter().next().expect("slc-resident slice");
        dev.slc.owner.remove(ppa);
        let v = dev.check_invariants();
        assert!(
            kinds(&v).contains(&InvariantKind::OwnerMissing),
            "expected owner-missing violation, got {v:?}"
        );
    }

    #[test]
    fn dangling_owner_entry_is_detected() {
        let mut dev = seeded();
        // An SLC slice far past the write stream: in-region but unwritten.
        let dangling = dev
            .flash
            .block_base(ChipId(1), dev.cfg.geometry.slc_blocks_per_chip - 1)
            .offset(5);
        dev.slc.owner.insert(dangling, Lpn(0));
        let v = dev.check_invariants();
        assert!(
            kinds(&v).contains(&InvariantKind::OwnerDangling),
            "expected owner-dangling violation, got {v:?}"
        );
    }

    #[test]
    fn owner_entry_outside_slc_is_detected() {
        let mut dev = seeded();
        let outside = dev
            .flash
            .block_base(ChipId(0), dev.cfg.geometry.blocks_per_chip - 1);
        dev.slc.owner.insert(outside, Lpn(0));
        let v = dev.check_invariants();
        assert!(
            kinds(&v).contains(&InvariantKind::OwnerOutsideSlc),
            "expected owner-outside-slc violation, got {v:?}"
        );
    }

    #[test]
    fn write_pointer_corruption_is_detected() {
        let mut dev = seeded();
        // Below the durable prefix: what a lost write-pointer update is.
        dev.zones.rewind(ZoneId(0), 0);
        let v = dev.check_invariants();
        assert!(
            kinds(&v).contains(&InvariantKind::ZoneAccounting),
            "expected zone-accounting violation, got {v:?}"
        );
    }

    #[test]
    fn staged_reference_corruption_is_detected() {
        // The seed stages zone 0's remainder in SLC; each corruption is
        // made on a fresh seed.
        fn detected(what: &str, corrupt: impl FnOnce(&mut ConZone, Lpn)) {
            let mut dev = seeded();
            assert!(dev.media[0].staged > 1, "seed leaves a staged run");
            let first = Lpn(dev.media[0].staged_start());
            corrupt(&mut dev, first);
            let v = dev.check_invariants();
            assert!(
                kinds(&v).contains(&InvariantKind::StagedRun),
                "{what}: expected staged-run violation, got {v:?}"
            );
        }
        detected("a staged page unmapped", |dev, lpn| dev.table.unmap(lpn));
        detected("a staged page on another page's slice", |dev, lpn| {
            let other = dev.table.get(lpn.offset(1)).expect("staged page mapped");
            dev.table.relocate(lpn, other.ppa);
        });
        detected("a run longer than the durable prefix", |dev, _| {
            dev.media[0].staged = dev.media[0].flushed_slices + 1;
        });
    }

    #[test]
    fn slc_list_duplicate_is_detected() {
        let mut dev = seeded();
        let dup = dev.slc.free.front().copied().expect("free superblock");
        dev.slc.free.push_back(dup);
        let v = dev.check_invariants();
        assert!(
            kinds(&v).contains(&InvariantKind::SlcPartition),
            "expected slc-partition violation, got {v:?}"
        );
    }

    // Release builds compile the hook to a no-op, so the panic only
    // exists under debug_assertions — which is also the property under
    // test: zero release-mode cost.
    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "device invariants violated")]
    fn debug_hook_panics_on_corruption() {
        let mut dev = seeded();
        let (ppa, _) = dev.slc.owner.iter().next().expect("slc-resident slice");
        dev.slc.owner.remove(ppa);
        dev.debug_assert_invariants("in a corruption test");
    }
}
