//! The timed flash array: chips, channels, blocks and Table-II latencies.
//!
//! [`FlashArray`] owns every block's state plus one [`Resource`] per die
//! plane and per channel. Operations reserve those resources in submission
//! order, so queueing delay and parallelism fall out of the reservation
//! times. Three private steps make every reservation:
//!
//! * **sense** (every page read, data or mapping table): the plane senses
//!   one flash page (media read latency), then the channel transfers the
//!   requested bytes to the controller;
//! * **program round**: the channel transfers the payload to the chip's
//!   page buffer, then the plane programs (media program latency);
//! * **erase**: the plane is busy for the media erase latency.
//!
//! SLC blocks partial-program one 4 KiB slice per program operation;
//! multi-level-cell blocks program whole multi-page programming units
//! (paper §II-A).

use conzone_sim::{Reservation, Resource};
use conzone_types::{
    to_index, CellType, ChipId, Counters, DeviceConfig, DeviceEvent, FaultKind, Geometry, MediaOp,
    Ppa, PpaParts, Probe, SimDuration, SimTime, SuperblockId, CHANNEL_BYTES_PER_SEC, MAPPING_MEDIA,
    SLICE_BYTES, SLICE_LEN,
};

use crate::block::Block;
use crate::error::FlashError;
use crate::fault::FaultPlane;
use crate::store::DataStore;

#[cfg(test)]
mod proptests;
#[cfg(test)]
mod reference;

/// Cumulative media-level statistics.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct FlashStats {
    /// Bytes programmed into SLC blocks.
    pub program_bytes_slc: u64,
    /// Bytes programmed into TLC blocks.
    pub program_bytes_tlc: u64,
    /// Bytes programmed into QLC blocks.
    pub program_bytes_qlc: u64,
    /// Data-page senses: every page [`FlashArray::read_slices`] and
    /// [`FlashArray::timed_page_read`] sense.
    pub page_reads: u64,
    /// Mapping-table page senses ([`FlashArray::read_mapping_page`]).
    pub mapping_reads: u64,
    /// Block erases in the SLC region.
    pub erases_slc: u64,
    /// Block erases in the normal region.
    pub erases_normal: u64,
    /// Read-retry steps paid across all page senses.
    pub read_retries: u64,
    /// Blocks permanently retired (failed erases + grown bad blocks).
    pub blocks_retired: u64,
}

impl FlashStats {
    /// Books the media statistics in a device's counters: the one place
    /// the two records meet, for every model built on a [`FlashArray`].
    #[inline]
    pub fn fold_into(&self, c: &mut Counters) {
        c.flash_program_bytes_slc = self.program_bytes_slc;
        c.flash_program_bytes_tlc = self.program_bytes_tlc;
        c.flash_program_bytes_qlc = self.program_bytes_qlc;
        c.flash_data_reads = self.page_reads;
        c.flash_mapping_reads = self.mapping_reads;
        c.erases_slc = self.erases_slc;
        c.erases_normal = self.erases_normal;
        c.read_retries = self.read_retries;
        c.blocks_retired = self.blocks_retired;
    }
}

/// Result of a program operation.
///
/// Real controllers free the volatile buffer once the payload has been
/// transferred into the chip's page register; the cell programming itself
/// (`tPROG`) continues in the background while the chip stays busy. The
/// two timestamps expose that distinction: host-visible write completion
/// follows `buffer_free`, while subsequent operations on the same chip
/// queue behind `finish`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProgramOutcome {
    /// Physical address of the first programmed slice; the programmed run
    /// is linear (`first`, `first + 1`, …).
    pub first: Ppa,
    /// Number of slices programmed.
    pub slices: u64,
    /// When the channel transfer ends and the source buffer is reusable.
    pub buffer_free: SimTime,
    /// When the cell programming completes (chip becomes free).
    pub finish: SimTime,
}

/// Result of a read operation.
#[derive(Debug, Clone)]
pub struct ReadOutcome {
    /// When the last page's data arrives at the controller.
    pub finish: SimTime,
    /// Payload in request order, when the data store is enabled.
    pub data: Option<Vec<u8>>,
}

/// The flash media model.
#[derive(Debug)]
pub struct FlashArray {
    geometry: Geometry,
    normal_cell: CellType,
    model_channel_bandwidth: bool,
    /// `slice_transfer[n]`: channel time of `n` slices, for every count up
    /// to a programming unit — what each page read, SLC program and unit
    /// program moves — so the 128-bit division of `for_transfer` is paid
    /// here, once.
    slice_transfer: Vec<SimDuration>,
    /// Blocks in chip-major order: `blocks[chip * blocks_per_chip + block]`.
    blocks: Vec<Block>,
    /// One resource per plane (`chip * planes + block % planes`):
    /// operations on different planes of a die overlap; within a plane
    /// they serialise.
    planes: Vec<Resource>,
    channels: Vec<Resource>,
    /// Per chip, its first plane and its channel; per block of a chip, its
    /// plane within the chip: [`Geometry::plane_of`] and
    /// [`Geometry::channel_of`] looked up rather than divided out for every
    /// page sense and every program round.
    chip_lanes: Vec<(usize, usize)>,
    block_planes: Vec<usize>,
    store: DataStore,
    stats: FlashStats,
    probe: Probe,
    fault: FaultPlane,
    /// Scratch for `read_slices` page grouping — one entry per flash-page
    /// sense — reused across calls so the per-IO read path performs no
    /// heap allocation in steady state.
    read_scratch: Vec<PageRead>,
    /// `read_slices`' per-chip grouping cursors, indexed by chip. An entry
    /// belongs to the call whose number is in its `call` field, so a new
    /// call starts with every cursor empty without touching the table.
    read_cursors: Vec<ChipCursor>,
    /// Number of the latest `read_slices` call.
    read_calls: u64,
    /// Mapping-table pages rotate over the chips: the next one goes to
    /// chip `mapping_pages % nchips`.
    mapping_pages: u64,
}

/// One flash-page sense of a `read_slices` call.
#[derive(Debug, Clone, Copy)]
struct PageRead {
    /// Address of the page's first slice: the grouping key.
    page: Ppa,
    chip: ChipId,
    block: usize,
    /// Bytes of the page the request reads.
    bytes: u64,
}

/// Adds `slices` slices of `page` (decoded as `parts`) to group `found`, or
/// to a new group at the end of `order`, and returns the group's index.
#[inline]
fn add_to_group(
    order: &mut Vec<PageRead>,
    found: Option<usize>,
    page: Ppa,
    parts: PpaParts,
    slices: usize,
) -> usize {
    let bytes = slices as u64 * SLICE_BYTES;
    match found {
        Some(i) => {
            order[i].bytes += bytes;
            i
        }
        None => {
            order.push(PageRead {
                page,
                chip: parts.chip,
                block: parts.block,
                bytes,
            });
            order.len() - 1
        }
    }
}

/// Where one chip's runs of a `read_slices` call have got to: every run of
/// the call on that chip ends at or below `end`, and the page holding the
/// address before `end` is group `group`.
#[derive(Debug, Clone, Copy, Default)]
struct ChipCursor {
    call: u64,
    end: Ppa,
    group: usize,
}

impl FlashArray {
    /// Builds an erased array from a validated configuration.
    pub fn new(cfg: &DeviceConfig) -> FlashArray {
        let g = cfg.geometry;
        let slices = to_index(g.slices_per_block());
        let mut blocks = Vec::with_capacity(g.nchips() * g.blocks_per_chip);
        for _chip in 0..g.nchips() {
            for block in 0..g.blocks_per_chip {
                let cell = if block < g.slc_blocks_per_chip {
                    CellType::Slc
                } else {
                    cfg.normal_cell
                };
                blocks.push(Block::new(cell, slices));
            }
        }
        FlashArray {
            geometry: g,
            normal_cell: cfg.normal_cell,
            model_channel_bandwidth: cfg.model_channel_bandwidth,
            slice_transfer: (0..=g.slices_per_unit() as u64)
                .map(|n| SimDuration::for_transfer(n * SLICE_BYTES, CHANNEL_BYTES_PER_SEC))
                .collect(),
            blocks,
            planes: vec![Resource::new(); g.nplanes()],
            channels: vec![Resource::new(); g.channels],
            chip_lanes: (0..g.nchips() as u64)
                .map(|c| (g.plane_of(ChipId(c), 0), g.channel_of(ChipId(c)).index()))
                .collect(),
            block_planes: (0..g.blocks_per_chip)
                .map(|b| b % g.planes_per_chip)
                .collect(),
            store: DataStore::new(cfg.data_backing),
            stats: FlashStats::default(),
            probe: Probe::disabled(),
            fault: FaultPlane::new(cfg.fault, g.nchips() * g.blocks_per_chip),
            // One group per touched (chip, block, page); a whole-superblock
            // GC read is the largest caller, so pre-size to its page count
            // rather than growing mid-workload.
            read_scratch: Vec::with_capacity(g.nchips() * g.pages_per_block),
            read_cursors: vec![ChipCursor::default(); g.nchips()],
            read_calls: 0,
            mapping_pages: 0,
        }
    }

    /// Attaches a trace probe that receives every media program / read /
    /// erase as a [`DeviceEvent::Media`]. Disabled by default.
    pub fn set_probe(&mut self, probe: Probe) {
        self.probe = probe;
    }

    /// The array geometry.
    #[inline]
    pub fn geometry(&self) -> &Geometry {
        &self.geometry
    }

    /// Media statistics so far.
    #[inline]
    pub fn stats(&self) -> FlashStats {
        self.stats
    }

    /// Cell technology of a block index (same on every chip).
    #[inline]
    pub(crate) fn cell_of_block(&self, block: usize) -> CellType {
        if block < self.geometry.slc_blocks_per_chip {
            CellType::Slc
        } else {
            self.normal_cell
        }
    }

    /// `(plane, channel)` a page read or a program of `block` on `chip`
    /// reserves.
    #[inline]
    fn lanes(&self, chip: ChipId, block: usize) -> (usize, usize) {
        let (first_plane, channel) = self.chip_lanes[chip.index()];
        (first_plane + self.block_planes[block], channel)
    }

    /// Index into `blocks` of the block holding `ppa`, and the slice's
    /// offset in it. Blocks are stored in address order, so one division
    /// by the block size finds both.
    #[inline]
    fn slice_home(&self, ppa: Ppa) -> (usize, usize) {
        let spb = self.geometry.slices_per_block();
        let idx = ppa.raw() / spb;
        (to_index(idx), to_index(ppa.raw() - idx * spb))
    }

    fn block_index(&self, chip: ChipId, block: usize) -> usize {
        debug_assert!(chip.index() < self.geometry.nchips());
        debug_assert!(block < self.geometry.blocks_per_chip);
        chip.index() * self.geometry.blocks_per_chip + block
    }

    /// Immutable view of one block's state.
    pub fn block(&self, chip: ChipId, block: usize) -> &Block {
        &self.blocks[self.block_index(chip, block)]
    }

    /// Physical address of in-block slice 0 of a block. Slices within a
    /// block are linear from this base.
    pub fn block_base(&self, chip: ChipId, block: usize) -> Ppa {
        self.geometry.encode_ppa(chip, block, 0, 0)
    }

    fn transfer_time(&self, bytes: u64) -> SimDuration {
        if !self.model_channel_bandwidth {
            return SimDuration::ZERO;
        }
        let slices = (bytes / SLICE_BYTES) as usize;
        match self.slice_transfer.get(slices) {
            Some(&time) if bytes.is_multiple_of(SLICE_BYTES) => time,
            _ => SimDuration::for_transfer(bytes, CHANNEL_BYTES_PER_SEC),
        }
    }

    fn count_program(&mut self, now: SimTime, cell: CellType, bytes: u64) {
        match cell {
            CellType::Slc => self.stats.program_bytes_slc += bytes,
            CellType::Tlc => self.stats.program_bytes_tlc += bytes,
            CellType::Qlc => self.stats.program_bytes_qlc += bytes,
        }
        self.probe.emit(
            now,
            DeviceEvent::Media {
                op: MediaOp::Program,
                cell,
                bytes,
            },
        );
    }

    /// Programs one full programming unit at the block's cursor on a
    /// multi-level-cell block.
    ///
    /// # Errors
    ///
    /// * [`FlashError::PartialProgramOnMlc`] if called on an SLC block,
    /// * [`FlashError::UnalignedUnit`] if the cursor is mid-unit (cannot
    ///   happen when all programming goes through this method),
    /// * [`FlashError::BlockFull`] when the block has no room,
    /// * [`FlashError::DataLength`] when a payload of the wrong size is
    ///   given.
    pub fn program_unit(
        &mut self,
        now: SimTime,
        chip: ChipId,
        block: usize,
        data: Option<&[u8]>,
    ) -> Result<ProgramOutcome, FlashError> {
        let cell = self.cell_of_block(block);
        let unit_slices = self.geometry.slices_per_unit();
        if cell == CellType::Slc {
            return Err(FlashError::PartialProgramOnMlc {
                requested: unit_slices,
                unit: 1,
            });
        }
        let unit_bytes = self.geometry.program_unit_bytes;
        if let Some(d) = data {
            if d.len() != unit_bytes {
                return Err(FlashError::DataLength {
                    expected: unit_bytes,
                    got: d.len(),
                });
            }
        }
        let idx = self.block_index(chip, block);
        if !self.blocks[idx].cursor().is_multiple_of(unit_slices) {
            return Err(FlashError::UnalignedUnit {
                cursor: self.blocks[idx].cursor(),
            });
        }
        if self.fault.is_retired(idx) {
            // The zone's fixed LPN→PPA mapping still owns these slices, so
            // the cursor advances (burning them) even though nothing lands.
            self.burn_slices(idx, unit_slices)?;
            return Err(FlashError::BlockRetired {
                chip: chip.raw(),
                block: block as u64,
            });
        }
        if self.fault.program_fails() {
            self.burn_slices(idx, unit_slices)?;
            // The chip still pays transfer + tPROG for the failed attempt.
            let lanes = self.lanes(chip, block);
            self.schedule_program(now, lanes, unit_bytes as u64, cell, 1);
            self.note_program_failure(now, chip, block, idx);
            return Err(FlashError::ProgramFailed {
                chip: chip.raw(),
                block: block as u64,
            });
        }
        let start_slice = self.blocks[idx].program(unit_slices)?;
        let first = self.block_base(chip, block).offset(start_slice as u64);
        if let Some(d) = data {
            for (i, chunk) in d.chunks_exact(SLICE_LEN).enumerate() {
                self.store.put(first.offset(i as u64), chunk);
            }
        }
        self.count_program(now, cell, unit_bytes as u64);
        let lanes = self.lanes(chip, block);
        let (buffer_free, finish) = self.schedule_program(now, lanes, unit_bytes as u64, cell, 1);
        Ok(ProgramOutcome {
            first,
            slices: unit_slices as u64,
            buffer_free,
            finish,
        })
    }

    /// Partial-programs `count` 4 KiB slices at the cursor of an SLC block
    /// (paper §II-A: SLC programs partially with a 4 KiB unit). Slices
    /// arriving together that share a flash page are programmed in one
    /// operation, so the chip pays one `tPROG` per *page touched*, not per
    /// slice.
    ///
    /// # Errors
    ///
    /// * [`FlashError::OutOfGeometry`] for a program of zero slices, which
    ///   would hold a chip for a transfer and a `tPROG` of nothing,
    /// * [`FlashError::PartialProgramOnMlc`] if the block is not SLC,
    /// * [`FlashError::BlockFull`] when fewer than `count` slices remain,
    /// * [`FlashError::DataLength`] for a mis-sized payload.
    ///
    /// Each leaves the array unchanged.
    pub fn program_slc(
        &mut self,
        now: SimTime,
        chip: ChipId,
        block: usize,
        count: usize,
        data: Option<&[u8]>,
    ) -> Result<ProgramOutcome, FlashError> {
        if count == 0 {
            return Err(FlashError::OutOfGeometry {
                what: "SLC program of zero slices".to_string(),
            });
        }
        if self.cell_of_block(block) != CellType::Slc {
            return Err(FlashError::PartialProgramOnMlc {
                requested: count,
                unit: self.geometry.slices_per_unit(),
            });
        }
        let bytes = count as u64 * SLICE_BYTES;
        if let Some(d) = data {
            if d.len() as u64 != bytes {
                return Err(FlashError::DataLength {
                    expected: count * SLICE_LEN,
                    got: d.len(),
                });
            }
        }
        let idx = self.block_index(chip, block);
        if self.fault.is_retired(idx) {
            // SLC placement is flexible: no burn, the caller just picks
            // another block.
            return Err(FlashError::BlockRetired {
                chip: chip.raw(),
                block: block as u64,
            });
        }
        let start_slice = self.blocks[idx].program(count)?;
        let first = self.block_base(chip, block).offset(start_slice as u64);
        // One program operation per flash page covered by the run: the
        // pages from the one `start_slice` lies in, found with one division
        // and, for a run reaching past that page, a second.
        let spp = self.geometry.slices_per_page();
        let reach = start_slice % spp + count;
        let ops = if reach <= spp {
            1
        } else {
            reach.div_ceil(spp) as u64
        };
        if self.fault.program_fails() {
            // Burn the just-claimed slices; the chip still pays the
            // transfer + tPROG of the failed attempt.
            self.blocks[idx].invalidate_run(start_slice, count)?;
            let lanes = self.lanes(chip, block);
            self.schedule_program(now, lanes, bytes, CellType::Slc, ops);
            self.note_program_failure(now, chip, block, idx);
            return Err(FlashError::ProgramFailed {
                chip: chip.raw(),
                block: block as u64,
            });
        }
        if let Some(d) = data {
            for (i, chunk) in d.chunks_exact(SLICE_LEN).enumerate() {
                self.store.put(first.offset(i as u64), chunk);
            }
        }
        self.count_program(now, CellType::Slc, bytes);
        let lanes = self.lanes(chip, block);
        let (buffer_free, finish) = self.schedule_program(now, lanes, bytes, CellType::Slc, ops);
        Ok(ProgramOutcome {
            first,
            slices: count as u64,
            buffer_free,
            finish,
        })
    }

    /// Advances a block's cursor by `count` slices and marks them dead.
    /// The fixed zone→block mapping requires failed unit programs to
    /// consume their slices so later units still land at the expected
    /// physical addresses.
    fn burn_slices(&mut self, idx: usize, count: usize) -> Result<(), FlashError> {
        let start = self.blocks[idx].program(count)?;
        self.blocks[idx].invalidate_run(start, count)
    }

    /// Bookkeeping for one injected program failure: trace event plus
    /// grown-bad promotion when the block's failure count crosses the
    /// configured threshold.
    fn note_program_failure(&mut self, now: SimTime, chip: ChipId, block: usize, idx: usize) {
        self.probe.emit(
            now,
            DeviceEvent::FaultInjected {
                kind: FaultKind::Program,
                chip: chip.raw(),
                block: block as u64,
            },
        );
        if self.fault.record_program_failure(idx) {
            self.stats.blocks_retired += 1;
            self.probe.emit(
                now,
                DeviceEvent::BlockRetired {
                    chip: chip.raw(),
                    block: block as u64,
                },
            );
        }
    }

    /// Whether a block is permanently retired (failed erase or grown bad).
    #[inline]
    pub fn is_block_retired(&self, chip: ChipId, block: usize) -> bool {
        self.fault.is_retired(self.block_index(chip, block))
    }

    /// Reserves `ops` transfer-then-program rounds on a block's plane and
    /// its chip's channel, `lanes` (one round per partial program for
    /// SLC, a single round for a whole unit).
    /// Transfers wait for the chip's page register — i.e. for the previous
    /// program on that chip to complete. Returns `(last transfer end, last
    /// program end)`.
    fn schedule_program(
        &mut self,
        now: SimTime,
        (plane, channel): (usize, usize),
        bytes: u64,
        cell: CellType,
        ops: u64,
    ) -> (SimTime, SimTime) {
        // A whole unit, and most SLC programs, are one round: no division.
        let per_op = self.transfer_time(if ops == 1 { bytes } else { bytes / ops });
        let prog = cell.latency().program;
        let mut cursor = now;
        let mut buffer_free = now;
        let mut finish = now;
        for _ in 0..ops {
            let register_free = self.planes[plane].free_at();
            let xfer = self.channels[channel].acquire(cursor.max(register_free), per_op);
            cursor = xfer.end;
            buffer_free = xfer.end;
            finish = self.planes[plane].acquire(xfer.end, prog).end;
        }
        (buffer_free, finish)
    }

    /// Reads the given slices, grouping them into flash-page senses, and
    /// returns the completion time (and payload when the store is enabled).
    ///
    /// Each flash page the request touches is sensed once and transferred
    /// once, with the bytes of all its requested slices, in the order the
    /// pages first appear in `ppas`; read-retry draws follow that order.
    /// Slices must hold live data.
    ///
    /// # Errors
    ///
    /// [`FlashError::ReadDead`] naming the first slice of `ppas` that is
    /// unwritten or invalidated; nothing is reserved or counted then.
    pub fn read_slices(&mut self, now: SimTime, ppas: &[Ppa]) -> Result<ReadOutcome, FlashError> {
        // The request is walked in runs of consecutive addresses inside one
        // block, each paying one address decode, one liveness test and one
        // cursor check; each page of a run then costs one group entry
        // (docs/internals.md, "The read path, page by page"). The group
        // list is a reused scratch buffer — the hot read path must not
        // allocate.
        let mut order = std::mem::take(&mut self.read_scratch);
        order.clear();
        self.read_calls += 1;
        let call = self.read_calls;
        let g = &self.geometry;
        let spp = g.slices_per_page();
        let slices_per_block = spp * g.pages_per_block;
        let mut rest = ppas;
        // Where the previous run ended, and the decoded address of its last
        // page. A run stops short of the end of its block only where the
        // next address does not follow it, so a run starting where the
        // previous one ended starts the next block: stepped to, not decoded.
        let mut prev: Option<(Ppa, PpaParts)> = None;
        while let Some(&first) = rest.first() {
            let mut parts = match prev {
                Some((end, last)) if end == first => g.next_page(last),
                _ => g.decode_ppa(first),
            };
            // The run: consecutive addresses from `first` inside one block.
            let in_block = parts.page * spp + parts.slice;
            let room = (slices_per_block - in_block).min(rest.len());
            let mut n = 1;
            while n < room && rest[n] == first.offset(n as u64) {
                n += 1;
            }
            let block = &self.blocks[parts.chip.index() * g.blocks_per_chip + parts.block];
            if let Some(i) = block.first_dead(in_block, n) {
                self.read_scratch = order;
                return Err(FlashError::ReadDead {
                    ppa: first.offset(i as u64),
                });
            }
            let end = first.offset(n as u64);
            // Runs of one chip usually arrive in address order (a zone's
            // units rotate over the chips, a GC victim's slices are sorted).
            // Then the chip's groups all lie below the run, and only the
            // one holding the chip's highest address so far can be the
            // run's first page; its later pages are new. A run starting
            // below that address searches every group, page by page. (The
            // first run of a call has nothing to look for.)
            let chip = parts.chip.index();
            let seen = if order.is_empty() {
                None
            } else {
                Some(self.read_cursors[chip]).filter(|c| c.call == call)
            };
            let ascending = seen.is_none_or(|c| first >= c.end);
            let take = (spp - parts.slice).min(n);
            let page = Ppa(first.raw() - parts.slice as u64);
            let found = match seen {
                None => None,
                Some(c) if ascending => Some(c.group).filter(|&i| order[i].page == page),
                Some(_) => order.iter().rposition(|r| r.page == page),
            };
            let mut group = add_to_group(&mut order, found, page, parts, take);
            let (mut at, mut left) = (page, n - take);
            while left > 0 {
                at = at.offset(spp as u64);
                parts = PpaParts {
                    page: parts.page + 1,
                    slice: 0,
                    ..parts
                };
                let take = spp.min(left);
                let found = if ascending {
                    None
                } else {
                    order.iter().rposition(|r| r.page == at)
                };
                group = add_to_group(&mut order, found, at, parts, take);
                left -= take;
            }
            rest = &rest[n..];
            if rest.is_empty() {
                break;
            }
            if seen.is_none_or(|c| end > c.end) {
                self.read_cursors[chip] = ChipCursor { call, end, group };
            }
            prev = Some((end, parts));
        }
        let mut finish = now;
        for &PageRead {
            chip, block, bytes, ..
        } in &order
        {
            let cell = self.cell_of_block(block);
            let mut sense_lat = cell.latency().read;
            let steps = self.fault.read_retry_steps();
            if steps > 0 {
                // Each retry step re-senses at a shifted reference
                // voltage, stretching this page's chip occupancy.
                sense_lat += self.fault.retry_penalty(steps);
                self.stats.read_retries += u64::from(steps);
                self.probe.emit(now, DeviceEvent::ReadRetry { steps });
            }
            self.stats.page_reads += 1;
            let lanes = self.lanes(chip, block);
            finish = finish.max(self.sense(now, lanes, cell, sense_lat, bytes).end);
        }
        self.read_scratch = order;
        let data = if self.store.is_enabled() {
            // Allocates on a hot path: the returned payload buffer, which is
            // built only with data backing on (`tests/zero_alloc.rs` and the
            // reference workloads run timing-only).
            let mut buf = Vec::with_capacity(ppas.len() * SLICE_LEN);
            for &ppa in ppas {
                match self.store.get(ppa) {
                    Some(slice) => buf.extend_from_slice(slice),
                    // Programmed without a payload (timing-only write):
                    // reads back as zeroes.
                    None => buf.resize(buf.len() + SLICE_LEN, 0),
                }
            }
            Some(buf)
        } else {
            None
        };
        Ok(ReadOutcome { finish, data })
    }

    /// A timing-only program of `bytes` on `chip` with `cell` latency,
    /// split into `ops` transfer-then-program rounds. Counts programmed
    /// bytes but touches no block state — for baseline models without a
    /// real FTL (FEMU's ZNS mode). Returns `(buffer_free, finish)`.
    ///
    /// # Panics
    ///
    /// Panics if `ops` is zero.
    pub fn timed_program(
        &mut self,
        now: SimTime,
        chip: ChipId,
        cell: CellType,
        bytes: u64,
        ops: u64,
    ) -> (SimTime, SimTime) {
        assert!(ops > 0, "at least one program operation");
        self.count_program(now, cell, bytes);
        let lanes = self.chip_lanes[chip.index()];
        self.schedule_program(now, lanes, bytes, cell, ops)
    }

    /// A timing-only data-page read of `bytes` on `chip` with `cell`
    /// latency that touches no block state, for callers that located the
    /// page themselves (FEMU's reads, a remount's SLC scan). Counted as a
    /// data-page read.
    pub fn timed_page_read(
        &mut self,
        now: SimTime,
        chip: ChipId,
        cell: CellType,
        bytes: u64,
    ) -> Reservation {
        self.stats.page_reads += 1;
        let lanes = self.chip_lanes[chip.index()];
        self.sense(now, lanes, cell, cell.latency().read, bytes)
    }

    /// Reads one mapping-table page from the mapping media on the next
    /// chip in round-robin order; returns when its data reaches the
    /// controller. Counted as a mapping read.
    pub fn read_mapping_page(&mut self, now: SimTime) -> SimTime {
        let (chip, cell) = (self.next_mapping_chip(), MAPPING_MEDIA);
        let lanes = self.chip_lanes[chip.index()];
        let bytes = self.geometry.page_bytes as u64;
        self.stats.mapping_reads += 1;
        self.sense(now, lanes, cell, cell.latency().read, bytes).end
    }

    /// Programs one mapping-table page to the mapping media on the next
    /// chip in round-robin order; returns when the program completes.
    pub fn program_mapping_page(&mut self, now: SimTime) -> SimTime {
        let chip = self.next_mapping_chip();
        let bytes = self.geometry.page_bytes as u64;
        self.timed_program(now, chip, MAPPING_MEDIA, bytes, 1).1
    }

    fn next_mapping_chip(&mut self) -> ChipId {
        let chip = ChipId(self.mapping_pages % self.geometry.nchips() as u64);
        self.mapping_pages += 1;
        chip
    }

    /// The one page sense every read makes: `lanes.0` (a plane) senses for
    /// `latency`, then `lanes.1` (a channel) transfers `bytes`, traced as a
    /// `Media { Read }` of `cell`. The caller counts it.
    #[inline]
    fn sense(
        &mut self,
        now: SimTime,
        (plane, channel): (usize, usize),
        cell: CellType,
        latency: SimDuration,
        bytes: u64,
    ) -> Reservation {
        let sense = self.planes[plane].acquire(now, latency);
        let transfer = self.transfer_time(bytes);
        let xfer = self.channels[channel].acquire(sense.end, transfer);
        self.probe.emit(
            now,
            DeviceEvent::Media {
                op: MediaOp::Read,
                cell,
                bytes,
            },
        );
        xfer
    }

    /// Marks one slice dead.
    ///
    /// # Errors
    ///
    /// [`FlashError::InvalidSlice`] if the slice was never programmed.
    pub fn invalidate(&mut self, ppa: Ppa) -> Result<(), FlashError> {
        self.invalidate_run(ppa, 1)
    }

    /// Marks `count` physically consecutive slices of one block dead.
    ///
    /// # Errors
    ///
    /// [`FlashError::InvalidSlice`] if the run reaches a slice that was
    /// never programmed — which includes running past the end of `first`'s
    /// block; nothing is changed then.
    pub fn invalidate_run(&mut self, first: Ppa, count: usize) -> Result<(), FlashError> {
        let (idx, in_block) = self.slice_home(first);
        self.blocks[idx].invalidate_run(in_block, count)?;
        self.store.remove_range(first, count as u64);
        Ok(())
    }

    /// Fetches the retained payload of a slice, if any (the tests' window
    /// on erase dropping payloads).
    #[cfg(test)]
    fn data_of(&self, ppa: Ppa) -> Option<&[u8]> {
        self.store.get(ppa)
    }

    /// Erases one block; live data (if any) is destroyed.
    ///
    /// Erases of retired blocks are zero-time no-ops (the controller skips
    /// them: the one reservation is of zero length, nothing is counted or
    /// traced), though the block state is still reset so superblock erase
    /// accounting stays consistent. A failed erase retires the block
    /// permanently — it drops out of its superblock's usable set — but
    /// still occupies the chip for the full erase latency.
    pub fn erase_block(&mut self, now: SimTime, chip: ChipId, block: usize) -> Reservation {
        let cell = self.cell_of_block(block);
        let idx = self.block_index(chip, block);
        let plane = self.geometry.plane_of(chip, block);
        self.blocks[idx].erase();
        self.store.remove_range(
            self.block_base(chip, block),
            self.geometry.slices_per_block(),
        );
        let latency = if self.fault.is_retired(idx) {
            SimDuration::ZERO
        } else {
            if self.fault.erase_fails() {
                self.fault.retire(idx);
                self.stats.blocks_retired += 1;
                self.probe.emit(
                    now,
                    DeviceEvent::FaultInjected {
                        kind: FaultKind::Erase,
                        chip: chip.raw(),
                        block: block as u64,
                    },
                );
                self.probe.emit(
                    now,
                    DeviceEvent::BlockRetired {
                        chip: chip.raw(),
                        block: block as u64,
                    },
                );
            }
            if cell == CellType::Slc {
                self.stats.erases_slc += 1;
            } else {
                self.stats.erases_normal += 1;
            }
            self.probe.emit(
                now,
                DeviceEvent::Media {
                    op: MediaOp::Erase,
                    cell,
                    bytes: 0,
                },
            );
            cell.latency().erase
        };
        self.planes[plane].acquire(now, latency)
    }

    /// Erases one superblock (the same block on every chip, in parallel)
    /// and returns when the last chip finishes.
    pub fn erase_superblock(&mut self, now: SimTime, sb: SuperblockId) -> SimTime {
        let mut finish = now;
        for chip in 0..self.geometry.nchips() {
            let r = self.erase_block(now, ChipId(chip as u64), sb.index());
            finish = finish.max(r.end);
        }
        finish
    }

    /// Live slices in a superblock, summed over all chips.
    pub fn superblock_valid_slices(&self, sb: SuperblockId) -> usize {
        (0..self.geometry.nchips())
            .map(|c| self.block(ChipId(c as u64), sb.index()).valid_count())
            .sum()
    }

    /// Whether every chip's block of this superblock is erased.
    pub fn superblock_erased(&self, sb: SuperblockId) -> bool {
        (0..self.geometry.nchips()).all(|c| self.block(ChipId(c as u64), sb.index()).is_erased())
    }

    /// Physical addresses of all live slices in a superblock, chip-major.
    pub fn superblock_valid_ppas(&self, sb: SuperblockId) -> Vec<Ppa> {
        let mut out = Vec::new();
        self.superblock_valid_ppas_into(sb, &mut out);
        out
    }

    /// Appends all live slice addresses of a superblock to `out`,
    /// chip-major — the allocation-free variant GC uses with a reused
    /// scratch buffer.
    pub fn superblock_valid_ppas_into(&self, sb: SuperblockId, out: &mut Vec<Ppa>) {
        for c in 0..self.geometry.nchips() {
            let chip = ChipId(c as u64);
            let base = self.block_base(chip, sb.index());
            for idx in self.block(chip, sb.index()).iter_valid() {
                out.push(base.offset(idx as u64));
            }
        }
    }

    /// Per-region wear snapshot (the device model fills in host bytes).
    pub fn wear_report(&self) -> crate::WearReport {
        let g = &self.geometry;
        let region = |range: std::ops::Range<usize>, cell: CellType| {
            let mut max = 0u64;
            let mut sum = 0u64;
            let mut blocks = 0u64;
            for chip in 0..g.nchips() {
                for block in range.clone() {
                    let e = self.block(ChipId(chip as u64), block).erase_count();
                    max = max.max(e);
                    sum += e;
                    blocks += 1;
                }
            }
            crate::RegionWear {
                cell,
                blocks,
                max_erases: max,
                mean_erases: if blocks == 0 {
                    0.0
                } else {
                    sum as f64 / blocks as f64
                },
                budget: crate::erase_budget(cell),
            }
        };
        crate::WearReport {
            slc: region(0..g.slc_blocks_per_chip, CellType::Slc),
            normal: region(g.slc_blocks_per_chip..g.blocks_per_chip, self.normal_cell),
            host_bytes_written: 0,
        }
    }

    /// When every plane and channel has drained.
    pub fn all_idle_at(&self) -> SimTime {
        self.planes
            .iter()
            .chain(&self.channels)
            .map(Resource::free_at)
            .fold(SimTime::ZERO, SimTime::max)
    }

    /// When the chip's earliest-free plane becomes available (used by
    /// placement policies that prefer idle dies).
    #[allow(
        clippy::expect_used,
        reason = "Geometry::validate rejects planes_per_chip == 0, so the range is never empty"
    )]
    pub fn chip_free_at(&self, chip: ChipId) -> SimTime {
        let planes = self.geometry.planes_per_chip;
        let base = chip.index() * planes;
        self.planes[base..base + planes]
            .iter()
            .map(Resource::free_at)
            .min()
            .expect("chip has at least one plane")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use conzone_types::DeviceConfig;

    fn array() -> FlashArray {
        FlashArray::new(&DeviceConfig::tiny_for_tests())
    }

    #[test]
    fn cell_layout_matches_config() {
        let a = array();
        assert_eq!(a.cell_of_block(0), CellType::Slc);
        assert_eq!(a.cell_of_block(3), CellType::Slc);
        assert_eq!(a.cell_of_block(4), CellType::Tlc);
    }

    #[test]
    fn program_unit_timing_is_transfer_plus_program() {
        let mut a = array();
        let out = a.program_unit(SimTime::ZERO, ChipId(0), 4, None).unwrap();
        // 64 KiB over 3200 MiB/s ≈ 19.5 us, plus 937.5 us TLC program.
        let xfer = SimDuration::for_transfer(64 * 1024, 3200 * 1024 * 1024);
        let expect = SimTime::ZERO + xfer + SimDuration::from_nanos(937_500);
        assert_eq!(out.finish, expect);
        assert_eq!(out.slices, 16);
        assert_eq!(a.stats().program_bytes_tlc, 64 * 1024);
    }

    /// The precomputed slice transfer times are `for_transfer`'s, for both
    /// presets' page sizes; any other size still goes through
    /// `for_transfer`.
    #[test]
    fn transfer_time_equals_for_transfer() {
        for cfg in [
            DeviceConfig::paper_evaluation(),
            DeviceConfig::tiny_for_tests(),
        ] {
            let a = FlashArray::new(&cfg);
            let page = cfg.geometry.page_bytes as u64;
            let sizes = (0..=page + SLICE_BYTES)
                .step_by(SLICE_BYTES as usize)
                .chain([1, SLICE_BYTES - 1, SLICE_BYTES + 1, 96 * 1024, u64::MAX / 2]);
            for bytes in sizes {
                assert_eq!(
                    a.transfer_time(bytes),
                    SimDuration::for_transfer(bytes, CHANNEL_BYTES_PER_SEC),
                    "{bytes} bytes"
                );
            }
        }
    }

    /// The one-division lookup of `invalidate_run` is the decode and
    /// `block_index` it replaced, for every slice of the array.
    #[test]
    fn slice_home_equals_decoding_the_address() {
        let a = array();
        let spp = a.geometry.slices_per_page();
        for ppa in (0..a.geometry.total_slices()).map(Ppa) {
            let parts = a.geometry.decode_ppa(ppa);
            let want = (
                a.block_index(parts.chip, parts.block),
                parts.page * spp + parts.slice,
            );
            assert_eq!(a.slice_home(ppa), want, "{ppa}");
        }
    }

    /// The transfer table holds `for_transfer` of every slice count up to
    /// a programming unit, on the three evaluation geometries.
    #[test]
    fn slice_transfer_table_equals_for_transfer() {
        let mut small = Geometry::consumer_1p5gb();
        small.blocks_per_chip = 32;
        for g in [Geometry::tiny(), Geometry::consumer_1p5gb(), small] {
            let cfg = DeviceConfig::builder(g)
                .chunk_bytes(256 * 1024)
                .build()
                .unwrap();
            let a = FlashArray::new(&cfg);
            assert_eq!(a.slice_transfer.len(), g.slices_per_unit() + 1);
            for (n, &time) in (0u64..).zip(&a.slice_transfer) {
                let want = SimDuration::for_transfer(n * SLICE_BYTES, CHANNEL_BYTES_PER_SEC);
                assert_eq!(time, want, "{n} slices of {g:?}");
            }
        }
    }

    /// The lane tables, which every page sense and program round reserves
    /// through, hold `Geometry::{plane_of, channel_of}` for every block of
    /// every chip, planes and channels dividing evenly or not.
    #[test]
    fn read_lanes_equal_the_geometry() {
        for (planes, channels) in [(1, 2), (2, 2), (3, 3)] {
            let g = Geometry {
                planes_per_chip: planes,
                channels,
                ..Geometry::tiny()
            };
            let cfg = DeviceConfig::builder(g)
                .chunk_bytes(256 * 1024)
                .build()
                .unwrap();
            let a = FlashArray::new(&cfg);
            for chip in (0..g.nchips() as u64).map(ChipId) {
                for block in 0..g.blocks_per_chip {
                    let want = (g.plane_of(chip, block), g.channel_of(chip).index());
                    assert_eq!(a.lanes(chip, block), want, "{chip:?} block {block}");
                }
            }
        }
    }

    #[test]
    fn slc_partial_program_costs_per_page_touched() {
        let mut a = array();
        // One slice: one partial-program op (75 us chip time).
        let one = a.program_slc(SimTime::ZERO, ChipId(1), 0, 1, None).unwrap();
        assert!(one.finish - SimTime::ZERO >= SimDuration::from_micros(75));
        assert!(one.buffer_free < one.finish, "buffer frees before tPROG");
        // Three more slices complete page 0: still a single op, but it
        // queues behind the first program on the chip.
        let three = a.program_slc(one.finish, ChipId(1), 0, 3, None).unwrap();
        let busy = three.finish - one.finish;
        assert!(
            busy >= SimDuration::from_micros(75) && busy < SimDuration::from_micros(160),
            "{busy}"
        );
        // Eight slices spanning two pages: two ops back to back.
        let eight = a.program_slc(three.finish, ChipId(1), 0, 8, None).unwrap();
        let busy = eight.finish - three.finish;
        assert!(busy >= SimDuration::from_micros(150), "{busy}");
        assert_eq!(a.stats().program_bytes_slc, 12 * 4096);
    }

    #[test]
    fn zero_slice_slc_program_is_refused_unchanged() {
        let mut a = array();
        let first = a.program_slc(SimTime::ZERO, ChipId(1), 0, 3, None).unwrap();
        let (stats, idle) = (a.stats(), a.all_idle_at());
        let chips = a.geometry().nchips() as u64;
        let free: Vec<SimTime> = (0..chips).map(|c| a.chip_free_at(ChipId(c))).collect();
        assert!(matches!(
            a.program_slc(first.finish, ChipId(1), 0, 0, None),
            Err(FlashError::OutOfGeometry { .. })
        ));
        assert_eq!(a.block(ChipId(1), 0).cursor(), 3);
        assert_eq!(a.stats(), stats);
        assert_eq!(a.all_idle_at(), idle);
        for (c, &at) in free.iter().enumerate() {
            assert_eq!(a.chip_free_at(ChipId(c as u64)), at, "chip {c}");
        }
    }

    #[test]
    fn mlc_partial_program_rejected_and_vice_versa() {
        let mut a = array();
        assert!(matches!(
            a.program_slc(SimTime::ZERO, ChipId(0), 5, 1, None),
            Err(FlashError::PartialProgramOnMlc { .. })
        ));
        assert!(matches!(
            a.program_unit(SimTime::ZERO, ChipId(0), 0, None),
            Err(FlashError::PartialProgramOnMlc { .. })
        ));
    }

    #[test]
    fn read_after_program_returns_data() {
        let mut a = array();
        let payload: Vec<u8> = (0..64 * 1024).map(|i| (i % 251) as u8).collect();
        let out = a
            .program_unit(SimTime::ZERO, ChipId(2), 6, Some(&payload))
            .unwrap();
        let ppas: Vec<Ppa> = (0..out.slices).map(|i| out.first.offset(i)).collect();
        let read = a.read_slices(out.finish, &ppas).unwrap();
        assert_eq!(read.data.as_deref(), Some(&payload[..]));
        assert!(read.finish > out.finish);
    }

    /// Data-backed erase: the block's payloads go with it (and only
    /// those), and a re-programmed slice reads back the new bytes.
    #[test]
    fn erase_drops_the_blocks_payloads_and_reprogram_reads_new_bytes() {
        let mut a = array();
        let old = vec![0xAAu8; 64 * 1024];
        let new = vec![0x55u8; 64 * 1024];
        let kept = a
            .program_unit(SimTime::ZERO, ChipId(2), 7, Some(&old))
            .unwrap();
        let first = a
            .program_unit(SimTime::ZERO, ChipId(2), 6, Some(&old))
            .unwrap();
        let erased = a.erase_block(first.finish, ChipId(2), 6).end;
        assert!(a.data_of(first.first).is_none(), "payload outlived erase");
        assert_eq!(a.data_of(kept.first).map(|d| d[0]), Some(0xAA));
        let again = a.program_unit(erased, ChipId(2), 6, Some(&new)).unwrap();
        assert_eq!(again.first, first.first, "same physical slices");
        let ppas: Vec<Ppa> = (0..again.slices).map(|i| again.first.offset(i)).collect();
        let read = a.read_slices(again.finish, &ppas).unwrap();
        assert_eq!(read.data.as_deref(), Some(&new[..]));
    }

    /// `invalidate_run` is `count` × `invalidate`: same validity, same
    /// payloads dropped; a run leaving its block is refused whole.
    #[test]
    fn invalidate_run_equals_per_slice_invalidate() {
        let payload = vec![7u8; 4 * SLICE_BYTES as usize];
        let (mut bulk, mut looped) = (array(), array());
        let mut first = Ppa(0);
        for a in [&mut bulk, &mut looped] {
            first = a
                .program_slc(SimTime::ZERO, ChipId(1), 2, 4, Some(&payload))
                .unwrap()
                .first;
        }
        bulk.invalidate_run(first.offset(1), 2).unwrap();
        for i in 1..3 {
            looped.invalidate(first.offset(i)).unwrap();
        }
        for i in 0..4 {
            let ppa = first.offset(i);
            assert_eq!(bulk.data_of(ppa).is_some(), looped.data_of(ppa).is_some());
            assert_eq!(bulk.data_of(ppa).is_some(), i == 0 || i == 3);
        }
        assert_eq!(
            bulk.superblock_valid_ppas(SuperblockId(2)),
            looped.superblock_valid_ppas(SuperblockId(2))
        );
        assert!(matches!(
            bulk.invalidate_run(first, 5),
            Err(FlashError::InvalidSlice { index: 4 })
        ));
        assert_eq!(bulk.superblock_valid_slices(SuperblockId(2)), 2);
    }

    #[test]
    fn read_of_dead_slice_fails() {
        let mut a = array();
        let out = a.program_slc(SimTime::ZERO, ChipId(0), 1, 2, None).unwrap();
        a.invalidate(out.first).unwrap();
        assert!(matches!(
            a.read_slices(out.finish, &[out.first]),
            Err(FlashError::ReadDead { .. })
        ));
        // The sibling slice is still readable.
        a.read_slices(out.finish, &[out.first.offset(1)]).unwrap();
    }

    #[test]
    fn reads_of_same_page_sense_once() {
        let mut a = array();
        let out = a.program_slc(SimTime::ZERO, ChipId(0), 2, 4, None).unwrap();
        let before = a.stats().page_reads;
        let ppas: Vec<Ppa> = (0..4).map(|i| out.first.offset(i)).collect();
        a.read_slices(out.finish, &ppas).unwrap();
        assert_eq!(a.stats().page_reads, before + 1);
    }

    /// Attaches an event ring and returns it; `media_reads` then lists the
    /// `(cell, bytes)` of every page sense in reservation order.
    fn traced(a: &mut FlashArray) -> std::sync::Arc<conzone_sim::RingBufferSink> {
        let sink = std::sync::Arc::new(conzone_sim::RingBufferSink::new());
        a.set_probe(Probe::attached(sink.clone()));
        sink
    }

    fn media_reads(sink: &conzone_sim::RingBufferSink) -> Vec<(CellType, u64)> {
        sink.drain()
            .into_iter()
            .filter_map(|r| match r.event {
                DeviceEvent::Media {
                    op: MediaOp::Read,
                    cell,
                    bytes,
                } => Some((cell, bytes)),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn interleaved_pages_keep_first_appearance_order_and_byte_totals() {
        let mut a = array();
        let out = a.program_slc(SimTime::ZERO, ChipId(0), 2, 8, None).unwrap();
        let sink = traced(&mut a);
        // Page A (slices 0..4) twice around page B (slices 4..8): A, B, A.
        let ppas: Vec<Ppa> = [0, 1, 4, 5, 2].map(|i| out.first.offset(i)).into();
        let before = a.stats().page_reads;
        a.read_slices(out.finish, &ppas).unwrap();
        // One sense per page, A first, each with all of its slices' bytes.
        assert_eq!(a.stats().page_reads, before + 2);
        assert_eq!(
            media_reads(&sink),
            [
                (CellType::Slc, 3 * SLICE_BYTES),
                (CellType::Slc, 2 * SLICE_BYTES)
            ]
        );
        let sink = traced(&mut a);
        let ppas: Vec<Ppa> = [5, 0, 1, 4, 3].map(|i| out.first.offset(i)).into();
        a.read_slices(out.finish, &ppas).unwrap();
        assert_eq!(
            media_reads(&sink),
            [
                (CellType::Slc, 2 * SLICE_BYTES),
                (CellType::Slc, 3 * SLICE_BYTES)
            ],
            "B appeared first"
        );
        // Ascending with gaps (the chip cursor's group only): A, A, B, B.
        let sink = traced(&mut a);
        let ppas: Vec<Ppa> = [0, 2, 5, 7].map(|i| out.first.offset(i)).into();
        let before = a.stats().page_reads;
        a.read_slices(out.finish, &ppas).unwrap();
        assert_eq!(a.stats().page_reads, before + 2);
        assert_eq!(
            media_reads(&sink),
            [
                (CellType::Slc, 2 * SLICE_BYTES),
                (CellType::Slc, 2 * SLICE_BYTES)
            ]
        );
        // Ascending until the last slice, which revisits A behind B: below
        // the chip's highest address so far, so every group is searched.
        let sink = traced(&mut a);
        let ppas: Vec<Ppa> = [1, 3, 4, 6, 2].map(|i| out.first.offset(i)).into();
        a.read_slices(out.finish, &ppas).unwrap();
        assert_eq!(
            media_reads(&sink),
            [
                (CellType::Slc, 3 * SLICE_BYTES),
                (CellType::Slc, 2 * SLICE_BYTES)
            ]
        );
    }

    #[test]
    fn dead_slice_mid_run_names_its_ppa_and_reserves_nothing() {
        let mut a = array();
        let out = a.program_slc(SimTime::ZERO, ChipId(0), 1, 8, None).unwrap();
        let dead = out.first.offset(6);
        a.invalidate(dead).unwrap();
        let (idle, stats) = (a.all_idle_at(), a.stats());
        let ppas: Vec<Ppa> = (0..8).map(|i| out.first.offset(i)).collect();
        let later = out.finish + SimDuration::from_millis(1);
        let err = a.read_slices(later, &ppas).unwrap_err();
        assert!(
            matches!(err, FlashError::ReadDead { ppa } if ppa == dead),
            "{err:?}"
        );
        // The whole live first page came before it, and still nothing ran.
        assert_eq!(a.all_idle_at(), idle, "no plane or channel time reserved");
        assert_eq!(a.stats(), stats);
    }

    #[test]
    fn runs_split_at_page_block_and_chip_boundaries() {
        let mut a = array();
        let g = *a.geometry();
        let per_block = g.slices_per_block();
        // Chip 0: SLC block 0 full, one slice of SLC block 1, the last
        // normal block full; chip 1: one slice of SLC block 0.
        let last_block = g.blocks_per_chip - 1;
        a.program_slc(SimTime::ZERO, ChipId(0), 0, per_block as usize, None)
            .unwrap();
        a.program_slc(SimTime::ZERO, ChipId(0), 1, 1, None).unwrap();
        for _ in 0..g.units_per_block() {
            a.program_unit(SimTime::ZERO, ChipId(0), last_block, None)
                .unwrap();
        }
        a.program_slc(SimTime::ZERO, ChipId(1), 0, 1, None).unwrap();
        // Three numerically consecutive stretches, each crossing one kind
        // of boundary.
        let b0 = a.block_base(ChipId(0), 0);
        let tail = a.block_base(ChipId(0), last_block).offset(per_block - 1);
        let mut ppas: Vec<Ppa> = (0..8).map(|i| b0.offset(i)).collect(); // page 0 | page 1
        ppas.extend([b0.offset(per_block - 1), b0.offset(per_block)]); // block 0 | block 1
        ppas.extend([tail, tail.offset(1)]); // chip 0 | chip 1
        assert_eq!(tail.offset(1), a.block_base(ChipId(1), 0));

        // The obviously-correct grouping: decode every slice on its own.
        let mut expect: Vec<(conzone_types::PpaParts, u64)> = Vec::new();
        for &ppa in &ppas {
            let parts = conzone_types::PpaParts {
                slice: 0,
                ..g.decode_ppa(ppa)
            };
            match expect.iter_mut().find(|e| e.0 == parts) {
                Some(e) => e.1 += SLICE_BYTES,
                None => expect.push((parts, SLICE_BYTES)),
            }
        }
        assert_eq!(expect.len(), 6);
        let expect: Vec<(CellType, u64)> = expect
            .iter()
            .map(|(parts, bytes)| (a.cell_of_block(parts.block), *bytes))
            .collect();

        let sink = traced(&mut a);
        let t = SimTime::ZERO + SimDuration::from_millis(10);
        a.read_slices(t, &ppas).unwrap();
        assert_eq!(media_reads(&sink), expect);
        assert_eq!(expect[4], (CellType::Tlc, SLICE_BYTES));
        assert_eq!(expect[5], (CellType::Slc, SLICE_BYTES));
    }

    #[test]
    fn erase_superblock_clears_all_chips() {
        let mut a = array();
        for chip in 0..4 {
            a.program_unit(SimTime::ZERO, ChipId(chip), 7, None)
                .unwrap();
        }
        assert!(!a.superblock_erased(SuperblockId(7)));
        let t = a.erase_superblock(SimTime::ZERO, SuperblockId(7));
        assert!(a.superblock_erased(SuperblockId(7)));
        assert!(t >= SimTime::ZERO + SimDuration::from_millis(3));
        assert_eq!(a.stats().erases_normal, 4);
        assert_eq!(a.block(ChipId(0), 7).erase_count(), 1);
    }

    #[test]
    fn superblock_valid_accounting() {
        let mut a = array();
        let sb = SuperblockId(1); // SLC superblock
        a.program_slc(SimTime::ZERO, ChipId(0), 1, 3, None).unwrap();
        a.program_slc(SimTime::ZERO, ChipId(2), 1, 2, None).unwrap();
        assert_eq!(a.superblock_valid_slices(sb), 5);
        let ppas = a.superblock_valid_ppas(sb);
        assert_eq!(ppas.len(), 5);
        a.invalidate(ppas[0]).unwrap();
        assert_eq!(a.superblock_valid_slices(sb), 4);
    }

    #[test]
    fn channel_contention_serializes_transfers() {
        let mut a = array();
        // Chips 0 and 2 share channel 0 in the tiny geometry.
        let r1 = a.timed_page_read(SimTime::ZERO, ChipId(0), CellType::Slc, 16 * 1024);
        let r2 = a.timed_page_read(SimTime::ZERO, ChipId(2), CellType::Slc, 16 * 1024);
        // Both sense in parallel (different chips) but the second transfer
        // queues behind the first on the shared channel.
        assert_eq!(r2.start, r1.end);
    }

    #[test]
    fn planes_overlap_programs_on_one_die() {
        let mut g = conzone_types::Geometry::tiny();
        g.planes_per_chip = 2;
        let cfg = conzone_types::DeviceConfig::builder(g)
            .chunk_bytes(256 * 1024)
            .build()
            .unwrap();
        let mut a = FlashArray::new(&cfg);
        // Blocks 4 and 5 sit on different planes of chip 0: their unit
        // programs overlap in time.
        let p1 = a.program_unit(SimTime::ZERO, ChipId(0), 4, None).unwrap();
        let p2 = a.program_unit(SimTime::ZERO, ChipId(0), 5, None).unwrap();
        assert!(
            p2.finish < p1.finish + SimDuration::from_micros(500),
            "overlapped"
        );
        // Blocks 4 and 6 share plane 0: they serialise.
        let mut a = FlashArray::new(&cfg);
        let p1 = a.program_unit(SimTime::ZERO, ChipId(0), 4, None).unwrap();
        let p3 = a.program_unit(SimTime::ZERO, ChipId(0), 6, None).unwrap();
        assert!(p3.finish >= p1.finish + SimDuration::from_nanos(937_500));
    }

    fn faulty_array(program: f64, erase: f64, retry: f64) -> FlashArray {
        let cfg = conzone_types::DeviceConfig::builder(conzone_types::Geometry::tiny())
            .chunk_bytes(256 * 1024)
            .fault(conzone_types::FaultConfig::with_rates(
                program, erase, retry,
            ))
            .build()
            .unwrap();
        FlashArray::new(&cfg)
    }

    #[test]
    fn program_failure_burns_the_unit_and_reports() {
        let mut a = faulty_array(1.0, 0.0, 0.0);
        let err = a
            .program_unit(SimTime::ZERO, ChipId(0), 4, None)
            .unwrap_err();
        assert!(matches!(
            err,
            FlashError::ProgramFailed { chip: 0, block: 4 }
        ));
        // The cursor advanced past the burned unit; nothing is live.
        let blk = a.block(ChipId(0), 4);
        assert_eq!(blk.cursor(), a.geometry().slices_per_unit());
        assert_eq!(blk.valid_count(), 0);
        // The chip was still occupied by the failed attempt.
        assert!(a.chip_free_at(ChipId(0)) > SimTime::ZERO);
        // No bytes counted as durably programmed.
        assert_eq!(a.stats().program_bytes_tlc, 0);
    }

    #[test]
    fn grown_bad_block_retires_after_threshold_failures() {
        let mut a = faulty_array(1.0, 0.0, 0.0); // the plane retires at 2 failures
        assert!(a.program_unit(SimTime::ZERO, ChipId(0), 4, None).is_err());
        assert!(!a.is_block_retired(ChipId(0), 4));
        assert!(a.program_unit(SimTime::ZERO, ChipId(0), 4, None).is_err());
        assert!(a.is_block_retired(ChipId(0), 4));
        assert_eq!(a.stats().blocks_retired, 1);
        // Further programs hit the retirement bitmap, still burning slices.
        let err = a
            .program_unit(SimTime::ZERO, ChipId(0), 4, None)
            .unwrap_err();
        assert!(matches!(err, FlashError::BlockRetired { .. }));
        assert_eq!(
            a.block(ChipId(0), 4).cursor(),
            3 * a.geometry().slices_per_unit()
        );
    }

    #[test]
    fn slc_program_failure_burns_only_claimed_slices() {
        let mut a = faulty_array(1.0, 0.0, 0.0);
        let err = a
            .program_slc(SimTime::ZERO, ChipId(1), 0, 3, None)
            .unwrap_err();
        assert!(matches!(
            err,
            FlashError::ProgramFailed { chip: 1, block: 0 }
        ));
        let blk = a.block(ChipId(1), 0);
        assert_eq!(blk.cursor(), 3);
        assert_eq!(blk.valid_count(), 0);
        assert_eq!(a.stats().program_bytes_slc, 0);
    }

    #[test]
    fn erase_failure_retires_block_and_next_erase_is_free() {
        let mut a = faulty_array(0.0, 1.0, 0.0);
        let r = a.erase_block(SimTime::ZERO, ChipId(0), 4);
        assert!(r.end > SimTime::ZERO, "failed erase still takes time");
        assert!(a.is_block_retired(ChipId(0), 4));
        assert_eq!(a.stats().blocks_retired, 1);
        let before = a.stats().erases_normal;
        let r = a.erase_block(r.end, ChipId(0), 4);
        assert_eq!(r.end, r.start, "retired block erases are no-ops");
        assert_eq!(a.stats().erases_normal, before);
    }

    #[test]
    fn read_retry_stretches_the_sense() {
        let mut clean = faulty_array(0.0, 0.0, 0.0);
        let mut faulty = faulty_array(0.0, 0.0, 1.0);
        for a in [&mut clean, &mut faulty] {
            a.program_slc(SimTime::ZERO, ChipId(0), 0, 2, None).unwrap();
        }
        let t = SimTime::ZERO + SimDuration::from_millis(10);
        let base = clean
            .read_slices(t, &[clean.block_base(ChipId(0), 0)])
            .unwrap();
        let slow = faulty
            .read_slices(t, &[faulty.block_base(ChipId(0), 0)])
            .unwrap();
        // Every sense retries (rate 1.0) by 1..=3 steps of 25 us.
        assert!(slow.finish >= base.finish + SimDuration::from_micros(25));
        let retries = faulty.stats().read_retries;
        assert!((1..=3).contains(&retries), "{retries}");
        assert_eq!(clean.stats().read_retries, 0);
    }

    #[test]
    fn fault_schedule_is_deterministic() {
        let run = || {
            let mut a = faulty_array(0.3, 0.3, 0.3);
            let mut log = Vec::new();
            for i in 0..12 {
                let chip = ChipId(i % 4);
                log.push(a.program_unit(SimTime::ZERO, chip, 4, None).is_err());
                log.push(a.program_slc(SimTime::ZERO, chip, 0, 2, None).is_err());
            }
            (log, a.stats())
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn zero_rates_never_draw_from_the_fault_rng() {
        // With all-zero rates every fault check early-outs before touching
        // the RNG, so the fault seed cannot influence state or timing —
        // a default-configured array is bit-identical to a fault-free one.
        let run = |seed: u64| {
            let fault = conzone_types::FaultConfig {
                seed,
                ..Default::default()
            };
            let cfg = conzone_types::DeviceConfig::builder(conzone_types::Geometry::tiny())
                .chunk_bytes(256 * 1024)
                .fault(fault)
                .build()
                .unwrap();
            let mut a = FlashArray::new(&cfg);
            let mut log = Vec::new();
            let mut t = SimTime::ZERO;
            for i in 0..8 {
                let chip = ChipId(i % 4);
                let p = a.program_unit(t, chip, 4, None).unwrap();
                log.push(p.finish);
                let r = a.read_slices(p.finish, &[a.block_base(chip, 4)]).unwrap();
                log.push(r.finish);
                t = r.finish;
                let e = a.erase_block(t, chip, 5);
                log.push(e.end);
            }
            (log, a.stats())
        };
        assert_eq!(run(1), run(0xdead_beef));
        let (_, stats) = run(7);
        assert_eq!(stats.read_retries, 0);
        assert_eq!(stats.blocks_retired, 0);
    }

    #[test]
    fn bandwidth_model_can_be_disabled() {
        let cfg = conzone_types::DeviceConfig::builder(conzone_types::Geometry::tiny())
            .chunk_bytes(256 * 1024)
            .model_channel_bandwidth(false)
            .build()
            .unwrap();
        let mut a = FlashArray::new(&cfg);
        let r = a.timed_page_read(SimTime::ZERO, ChipId(0), CellType::Slc, 1 << 20);
        // Only the 20 us sense remains.
        assert_eq!(r.end, SimTime::ZERO + SimDuration::from_micros(20));
    }
}
