//! The read path (paper §III-C, Fig. 4).
//!
//! Each slice is resolved in order: data still in a volatile write buffer
//! is served from RAM; otherwise the L2P cache is queried LZA → LCA → LPA.
//! A miss fetches mapping entries from flash with the configured search
//! strategy (one to three fetches), inserts the entry at its actual
//! aggregation level, and may evict by LRU. Data slices are then read from
//! flash, grouping by physical page.

use conzone_types::{
    DeviceError, DeviceEvent, L2pOutcome, LpnRange, MapGranularity, SimTime, SpanKind, ZoneId,
    SLICE_BYTES,
};

use crate::device::ConZone;
use crate::write::internal;

#[derive(Debug, Clone, Copy)]
pub(crate) enum Slot {
    /// Served from write buffer `buf` at zone-relative `offset`.
    Buffer(usize, u64),
    /// Served from flash; index into the gathered PPA list.
    Flash(usize),
}

impl ConZone {
    /// Services one host read: returns the completion time and, when data
    /// backing is enabled, the payload.
    // xtask-effect: hot_path
    pub(crate) fn read_range(
        &mut self,
        now: SimTime,
        range: LpnRange,
    ) -> Result<(SimTime, Option<Vec<u8>>), DeviceError> {
        let zs = self.zone_slices();
        let mut t_map = now;
        // Reused scratch: error returns drop the buffers (re-allocated on
        // the next op — errors are cold); the success path puts them back.
        let mut slots = std::mem::take(&mut self.scratch.read_slots);
        let mut ppas = std::mem::take(&mut self.scratch.read_ppas);
        slots.clear();
        ppas.clear();

        for lpn in range.iter() {
            let zone_id = ZoneId(lpn.raw() / zs);
            let offset = lpn.raw() % zs;
            let zone = &self.zones[zone_id.raw() as usize];
            if self.is_conventional(zone_id) {
                // Conventional zones may be sparsely written: presence in
                // the mapping table is the ground truth.
                if self.table.get(lpn).is_none() {
                    return Err(DeviceError::UnwrittenRead { lpn });
                }
            } else if offset >= zone.wp_slices {
                return Err(DeviceError::UnwrittenRead { lpn });
            }

            // Data still in the volatile buffer never touches flash
            // (conventional zones never own a buffer).
            let buf_idx = zone_id.raw() as usize % self.buffers.len();
            let b = &self.buffers[buf_idx];
            if b.owner == Some(zone_id) && offset >= b.start_offset && offset < b.end_offset() {
                slots.push(Slot::Buffer(buf_idx, offset));
                continue;
            }

            // L2P cache: LZA, then LCA, then LPA (Fig. 4 Ⅰ/Ⅱ).
            match self.cache.lookup(lpn) {
                conzone_ftl::LookupResult::Hit(g) => {
                    let outcome = match g {
                        MapGranularity::Zone => {
                            self.counters.l2p_hits_zone += 1;
                            L2pOutcome::HitZone
                        }
                        MapGranularity::Chunk => {
                            self.counters.l2p_hits_chunk += 1;
                            L2pOutcome::HitChunk
                        }
                        MapGranularity::Page => {
                            self.counters.l2p_hits_page += 1;
                            L2pOutcome::HitPage
                        }
                    };
                    self.probe.emit(t_map, DeviceEvent::L2pLookup { outcome });
                }
                conzone_ftl::LookupResult::Miss => {
                    self.counters.l2p_misses += 1;
                    self.probe.emit(
                        t_map,
                        DeviceEvent::L2pLookup {
                            outcome: L2pOutcome::Miss,
                        },
                    );
                    let actual = self.table.granularity_of(lpn).ok_or_else(|| {
                        // xtask-lint: allow(hot-path-effects) — error construction inside ok_or_else; never runs on the success path
                        DeviceError::Internal(format!(
                            "durable {lpn} below the write pointer is unmapped"
                        ))
                    })?;
                    let fetches = conzone_ftl::mapping_fetches(self.cfg.search_strategy, actual);
                    let page_bytes = self.cfg.geometry.page_bytes as u64;
                    let media = self.cfg.mapping_media;
                    for _ in 0..fetches {
                        let chip = self.mapping_chip();
                        let r = self.flash.timed_page_read(t_map, chip, media, page_bytes);
                        t_map = r.end;
                        self.counters.flash_mapping_reads += 1;
                    }
                    let pinned = conzone_ftl::pins_aggregates(self.cfg.search_strategy)
                        && actual > MapGranularity::Page;
                    if self.cache.insert(lpn, actual, pinned) == conzone_ftl::InsertOutcome::Evicted
                    {
                        self.probe
                            .emit(t_map, DeviceEvent::L2pEviction { count: 1 });
                    }
                }
            }
            let entry = self.table.get(lpn).ok_or_else(|| {
                // xtask-lint: allow(hot-path-effects) — error construction inside ok_or_else; never runs on the success path
                DeviceError::Internal(format!("durable {lpn} below the write pointer is unmapped"))
            })?;
            slots.push(Slot::Flash(ppas.len()));
            ppas.push(entry.ppa);
        }

        // Data reads start after mapping resolution completes (Fig. 4 ③).
        // Both spans are emitted retroactively once their windows are
        // known, so a failed read never leaves phases dangling.
        self.breakdown.mapping_fetch += t_map - now;
        if t_map > now {
            self.spans.open(now, SpanKind::MapFetch);
            self.spans.close(t_map);
        }
        let mut finish = t_map;
        let mut flash_data: Option<Vec<u8>> = None;
        if !ppas.is_empty() {
            let out = self.flash.read_slices(t_map, &ppas).map_err(internal)?;
            finish = out.finish;
            flash_data = out.data;
            self.breakdown.data_read += finish.saturating_since(t_map);
            if finish > t_map {
                self.spans.open(t_map, SpanKind::DataRead);
                self.spans.close(finish);
            }
        }

        let data = if self.cfg.data_backing {
            // xtask-lint: allow(hot-path-effects) — returned payload buffer, only built with data backing enabled; the reference workloads run timing-only and the steady-state guard holds there
            let mut v = Vec::with_capacity((range.count * SLICE_BYTES) as usize);
            for slot in &slots {
                match *slot {
                    Slot::Buffer(buf, offset) => match self.buffers[buf].slice_data(offset) {
                        Some(s) => v.extend_from_slice(s),
                        None => v.resize(v.len() + SLICE_BYTES as usize, 0),
                    },
                    Slot::Flash(i) => {
                        let d = flash_data.as_ref().ok_or_else(|| {
                            DeviceError::Internal(
                                // xtask-lint: allow(hot-path-effects) — error construction inside ok_or_else; never runs on the success path
                                "flash read returned no payload with data backing on".to_string(),
                            )
                        })?;
                        let at = i * SLICE_BYTES as usize;
                        v.extend_from_slice(&d[at..at + SLICE_BYTES as usize]);
                    }
                }
            }
            Some(v)
        } else {
            None
        };
        self.scratch.read_slots = slots;
        self.scratch.read_ppas = ppas;
        Ok((finish + self.cfg.host_overhead, data))
    }
}
