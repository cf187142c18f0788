//! The read path (paper §III-C, Fig. 4).
//!
//! A request is resolved run by run, in logical order. A run is a maximal
//! stretch of pages in one zone, below its write pointer, that either sits
//! wholly in the zone's volatile write buffer (served from RAM) or is
//! covered by one L2P cache entry found by querying LZA → LCA → LPA. A
//! miss is a run of one page: it fetches mapping entries from flash with
//! the configured search strategy (one to three fetches), inserts the entry
//! at its actual aggregation level, and may evict by LRU. Data slices are
//! then read from flash in one [`FlashArray::read_slices`] call, which
//! senses each physical page once.
//!
//! The model still performs one lookup per 4 KiB page — counters and trace
//! events say so. The host only skips repeating it: every page of a hit's
//! span would find the same entry, which the first lookup already made the
//! most recently used one, so the cache ends in the same state. The run's
//! physical addresses are gathered with one copy of the mapping table's
//! mapped prefix, and the flash array pays per flash page, not per slice
//! (`docs/internals.md`, "The read path, page by page").
//!
//! [`FlashArray::read_slices`]: conzone_flash::FlashArray::read_slices

use conzone_ftl::{InsertOutcome, LookupResult};
use conzone_types::{
    to_index, DeviceError, DeviceEvent, L2pOutcome, Lpn, LpnRange, MapGranularity, SimTime,
    SpanKind, ZoneId, HOST_OVERHEAD, SLICE_BYTES, SLICE_LEN,
};

use crate::device::ConZone;

/// Where one run of a read's slices comes from, in request order.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Slot {
    /// `n` slices of write buffer `buf` from zone-relative `offset`.
    Buffer { buf: usize, offset: u64, n: u64 },
    /// The next `n` slices of the gathered PPA list.
    Flash { n: u64 },
}

impl ConZone {
    /// Services one host read: returns the completion time and, when data
    /// backing is enabled, the payload.
    pub(crate) fn read_range(
        &mut self,
        now: SimTime,
        range: LpnRange,
    ) -> Result<(SimTime, Option<Vec<u8>>), DeviceError> {
        let zs = self.zones.zone_slices();
        let mut t_map = now;
        // Reused scratch: error returns drop the buffers (re-allocated on
        // the next op — errors are cold); the success path puts them back.
        let mut slots = std::mem::take(&mut self.scratch.read_slots);
        let mut ppas = std::mem::take(&mut self.scratch.read_ppas);
        slots.clear();
        ppas.clear();

        let end = range.end().raw();
        let mut at = range.start.raw();
        while at < end {
            let lpn = Lpn(at);
            let zone_id = ZoneId(at / zs);
            let offset = at % zs;
            let zone_start = at - offset;
            // Conventional zones may be sparsely written: presence in the
            // mapping table is the ground truth, checked page by page as
            // the run's PPAs are gathered below.
            let readable = self.zones.readable(zone_id);
            if offset >= readable
                || (self.zones.is_conventional(zone_id) && self.table.get(lpn).is_none())
            {
                return Err(DeviceError::UnwrittenRead { lpn });
            }
            let mut stop = end.min(zone_start + readable);

            // Data still in the volatile buffer never touches flash
            // (conventional zones never own a buffer).
            let buf = zone_id.index() % self.buffers.len();
            let b = &self.buffers[buf];
            if b.holds(zone_id, offset) {
                let n = stop.min(zone_start + b.end_offset()) - at;
                slots.push(Slot::Buffer { buf, offset, n });
                at += n;
                continue;
            }
            if b.owner() == Some(zone_id) && offset < b.start_offset() {
                stop = stop.min(zone_start + b.start_offset());
            }

            // L2P cache: LZA, then LCA, then LPA (Fig. 4 Ⅰ/Ⅱ).
            let n = match self.cache.lookup(lpn) {
                LookupResult::Hit(g) => {
                    let stop = stop.min(self.cache.span(lpn, g).1.raw());
                    let run = self.table.mapped_prefix(LpnRange::new(lpn, stop - at));
                    let n = run.len() as u64;
                    ppas.extend(run);
                    // An unmapped page is found only after its lookup.
                    let lookups = n.max(1);
                    let (hits, outcome) = match g {
                        MapGranularity::Zone => {
                            (&mut self.counters.l2p_hits_zone, L2pOutcome::HitZone)
                        }
                        MapGranularity::Chunk => {
                            (&mut self.counters.l2p_hits_chunk, L2pOutcome::HitChunk)
                        }
                        MapGranularity::Page => {
                            (&mut self.counters.l2p_hits_page, L2pOutcome::HitPage)
                        }
                    };
                    *hits += lookups;
                    if self.probe.enabled() {
                        for _ in 0..lookups {
                            self.probe.emit(t_map, DeviceEvent::L2pLookup { outcome });
                        }
                    }
                    n
                }
                // A miss resolves one page; the next page is looked up for
                // real, because the insert may have been rejected (a cache
                // full of pinned entries) or landed at any level.
                LookupResult::Miss => {
                    self.counters.l2p_misses += 1;
                    self.probe.emit(
                        t_map,
                        DeviceEvent::L2pLookup {
                            outcome: L2pOutcome::Miss,
                        },
                    );
                    if let Some(entry) = self.table.get(lpn) {
                        let actual = entry.granularity;
                        let fetches =
                            conzone_ftl::mapping_fetches(self.cfg.search_strategy, actual);
                        for _ in 0..fetches {
                            t_map = self.flash.read_mapping_page(t_map);
                        }
                        let pinned = conzone_ftl::pins_aggregates(self.cfg.search_strategy)
                            && actual > MapGranularity::Page;
                        if let InsertOutcome::Evicted(_) = self.cache.insert(lpn, actual, pinned) {
                            self.probe
                                .emit(t_map, DeviceEvent::L2pEviction { count: 1 });
                        }
                        ppas.push(entry.ppa);
                        1
                    } else {
                        0
                    }
                }
            };
            if n == 0 {
                return Err(DeviceError::Internal(format!(
                    "durable {lpn} below the write pointer is unmapped"
                )));
            }
            slots.push(Slot::Flash { n });
            at += n;
        }

        // Data reads start after mapping resolution completes (Fig. 4 ③).
        // Both spans are emitted retroactively once their windows are
        // known, so a failed read never leaves phases dangling.
        self.charge(SpanKind::MapFetch, now, t_map);
        let mut finish = t_map;
        let mut flash_data: Option<Vec<u8>> = None;
        if !ppas.is_empty() {
            let out = self.flash.read_slices(t_map, &ppas)?;
            finish = out.finish;
            flash_data = out.data;
            self.charge(SpanKind::DataRead, t_map, finish);
        }

        let data = if self.cfg.data_backing {
            // Allocates on a hot path: the returned payload buffer, which is
            // built only with data backing on (`tests/zero_alloc.rs` and the
            // reference workloads run timing-only).
            let mut v = Vec::with_capacity(to_index(range.count * SLICE_BYTES));
            let mut from_flash = flash_data.as_deref().unwrap_or_default();
            for slot in &slots {
                match *slot {
                    Slot::Buffer { buf, offset, n } => {
                        for o in offset..offset + n {
                            match self.buffers[buf].slice_data(o) {
                                Some(s) => v.extend_from_slice(s),
                                None => v.resize(v.len() + SLICE_LEN, 0),
                            }
                        }
                    }
                    Slot::Flash { n } => {
                        let bytes = to_index(n * SLICE_BYTES);
                        let (run, rest) = from_flash.split_at_checked(bytes).ok_or_else(|| {
                            DeviceError::Internal(
                                "flash read returned no payload with data backing on".to_string(),
                            )
                        })?;
                        v.extend_from_slice(run);
                        from_flash = rest;
                    }
                }
            }
            Some(v)
        } else {
            None
        };
        self.scratch.read_slots = slots;
        self.scratch.read_ppas = ppas;
        Ok((finish + HOST_OVERHEAD, data))
    }
}
