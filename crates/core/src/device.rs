//! The `ConZone` device: construction, shared helpers and the
//! [`StorageDevice`] / [`ZonedDevice`] trait implementations. The write,
//! read and erase paths live in the sibling modules.

use bytes::Bytes;
use conzone_flash::FlashArray;
use conzone_ftl::{L2pCache, MappingTable, WriteBuffer};
use conzone_types::{
    Completion, Counters, DeviceConfig, DeviceError, IoKind, IoRequest, Probe, SimTime, SpanKind,
    SpanRecorder, SpanSink, StorageDevice, ZoneId, ZoneInfo, ZoneTable, ZonedDevice, HOST_OVERHEAD,
};

use crate::breakdown::TimeBreakdown;
use crate::scratch::IoScratch;
use crate::slc::SlcRegion;
use crate::zone::Zone;

/// The consumer-grade zoned flash storage emulator (paper §III).
///
/// `ConZone` combines:
///
/// * zones bound one-to-one to reserved normal superblocks, with write
///   pointers iterating the fixed striping rule (§III-B);
/// * a configurable number of shared volatile write buffers, mapped to
///   zones by `zone mod n` (§III-B);
/// * an SLC secondary write buffer absorbing premature flushes and
///   zone-tail alignment patches (§III-B, §III-E);
/// * a hybrid page/chunk/zone mapping table with a limited LRU L2P cache
///   and configurable miss-path search strategy (§III-C, §IV-D);
/// * composite garbage collection: full GC inside the SLC region, direct
///   erase on zone reset (§III-D).
///
/// ```
/// use conzone_core::ConZone;
/// use conzone_types::{DeviceConfig, IoRequest, SimTime, StorageDevice};
///
/// let mut dev = ConZone::new(DeviceConfig::tiny_for_tests());
/// let write = IoRequest::write(0, 64 * 1024);
/// let done = dev.submit(SimTime::ZERO, &write)?;
/// let read = IoRequest::read(0, 4096);
/// let c = dev.submit(done.finished, &read)?;
/// assert!(c.finished > done.finished);
/// # Ok::<(), conzone_types::DeviceError>(())
/// ```
#[derive(Debug)]
pub struct ConZone {
    pub(crate) cfg: DeviceConfig,
    pub(crate) flash: FlashArray,
    pub(crate) table: MappingTable,
    pub(crate) cache: L2pCache,
    /// Zone states and write pointers: the zoned interface's front door.
    pub(crate) zones: ZoneTable,
    /// What each zone has on the media, by zone index.
    pub(crate) media: Vec<Zone>,
    pub(crate) buffers: Vec<WriteBuffer>,
    pub(crate) slc: SlcRegion,
    pub(crate) counters: Counters,
    /// Accumulated L2P mapping updates not yet persisted (paper §III-E).
    pub(crate) l2p_log_pending: u64,
    pub(crate) breakdown: TimeBreakdown,
    /// Trace probe; disabled by default (a no-op on the hot paths).
    pub(crate) probe: Probe,
    /// Causal IO-span recorder; disabled by default (a branch per phase).
    pub(crate) spans: SpanRecorder,
    /// `Some` between `power_cut()` and `remount()`: what was lost at the
    /// cut, awaiting the recovery report.
    pub(crate) cut_state: Option<crate::power::CutState>,
    /// Reusable hot-path buffers (see [`IoScratch`]).
    pub(crate) scratch: IoScratch,
}

impl ConZone {
    /// Builds a device from a validated configuration.
    pub fn new(cfg: DeviceConfig) -> ConZone {
        let capacity = cfg.capacity_slices();
        let chunk = cfg.chunk_slices();
        let zone = cfg.zone_size_slices();
        let buffers = (0..cfg.write_buffers)
            .map(|_| WriteBuffer::new(cfg.geometry.slices_per_superpage(), cfg.data_backing))
            .collect();
        ConZone {
            flash: FlashArray::new(&cfg),
            table: MappingTable::new(capacity, chunk, zone),
            cache: L2pCache::new(cfg.l2p_cache_entries(), chunk, zone),
            zones: ZoneTable::new(
                cfg.zone_count(),
                zone,
                Some(cfg.max_open_zones),
                cfg.conventional_zones,
            ),
            media: vec![Zone::default(); cfg.zone_count()],
            buffers,
            slc: SlcRegion::new(&cfg.geometry),
            counters: Counters::new(),
            l2p_log_pending: 0,
            breakdown: TimeBreakdown::default(),
            probe: Probe::disabled(),
            spans: SpanRecorder::disabled(),
            cut_state: None,
            scratch: IoScratch::for_config(&cfg),
            cfg,
        }
    }

    /// Attaches a span sink: every host command from now on opens a root
    /// span child-scoped into the phases it blocked on (see
    /// [`conzone_types::SpanKind`]).
    pub fn set_span_sink(&mut self, sink: std::sync::Arc<dyn SpanSink + Send + Sync>) {
        self.spans = SpanRecorder::attached(sink);
    }

    /// Where host-visible device time has gone so far.
    pub fn time_breakdown(&self) -> TimeBreakdown {
        self.breakdown
    }

    /// Books the request-blocking window from `start` to `end` once: in
    /// the breakdown category of the phase `kind` and, unless it is empty,
    /// as a span. Emitted retroactively, when the window is known, so a
    /// command that fails inside it leaves no phase dangling.
    #[inline]
    pub(crate) fn charge(&mut self, kind: SpanKind, start: SimTime, end: SimTime) {
        let b = &mut self.breakdown;
        let category = match kind {
            SpanKind::MapFetch => &mut b.mapping_fetch,
            SpanKind::DataRead => &mut b.data_read,
            SpanKind::CombineRead => &mut b.combine_read,
            SpanKind::GcStall => &mut b.gc,
            SpanKind::L2pLog => &mut b.l2p_log,
            SpanKind::Erase => &mut b.erase,
            // The write path charges its exclusive time itself; roots and
            // queue spans have no breakdown category.
            _ => {
                debug_assert!(false, "{kind:?} is not a phase the device charges");
                return;
            }
        };
        *category += end.saturating_since(start);
        if end > start {
            self.spans.open(start, kind);
            self.spans.close(end);
        }
    }

    /// Records `n` L2P mapping-table updates in the persistence log.
    #[inline]
    pub(crate) fn note_l2p_updates(&mut self, n: u64) {
        if self.cfg.l2p_log_entries > 0 {
            self.l2p_log_pending += n;
        }
    }

    /// Flushes the L2P update log to flash whenever it reaches the
    /// configured threshold. The flush programs one mapping page on the
    /// mapping media and blocks the current host request (paper §III-E:
    /// "the flushing back of the L2P log may block host requests").
    pub(crate) fn maybe_flush_l2p_log(&mut self, now: SimTime) -> SimTime {
        let threshold = self.cfg.l2p_log_entries;
        if threshold == 0 || self.l2p_log_pending < threshold {
            return now;
        }
        let mut t = now;
        while self.l2p_log_pending >= threshold {
            self.l2p_log_pending -= threshold;
            self.counters.l2p_log_flushes += 1;
            self.probe.emit(t, conzone_types::DeviceEvent::L2pLogFlush);
            t = self.flash.program_mapping_page(t);
        }
        self.charge(SpanKind::L2pLog, now, t);
        t
    }

    /// Slices of a zone backed by the reserved superblock (the rest is the
    /// SLC alignment patch).
    #[inline]
    pub(crate) fn backing_slices(&self) -> u64 {
        self.cfg.zone_backing_bytes() / conzone_types::SLICE_BYTES
    }

    /// Slices per programming unit of the normal media.
    #[inline]
    pub(crate) fn unit_slices(&self) -> u64 {
        self.cfg.geometry.slices_per_unit() as u64
    }

    /// Wear and lifespan report (paper §I's lifespan motivation).
    pub fn wear_report(&self) -> conzone_flash::WearReport {
        let mut report = self.flash.wear_report();
        report.host_bytes_written = self.counters.host_write_bytes;
        report
    }
}

impl StorageDevice for ConZone {
    fn config(&self) -> &DeviceConfig {
        &self.cfg
    }

    /// Every internal event — FTL decisions here, media operations in the
    /// flash layer — goes to `probe`.
    fn set_probe(&mut self, probe: Probe) {
        self.flash.set_probe(probe.clone());
        self.probe = probe;
    }

    fn submit(&mut self, now: SimTime, request: &IoRequest) -> Result<Completion, DeviceError> {
        self.ensure_powered()?;
        let range = request.admit(self.zones.capacity_bytes())?;
        // The root span covers submit to completion; error paths roll the
        // stack back so an aborted command never leaves phases dangling.
        // Each arm books its command on success: one booking after the
        // match tests the kind again, which measured slower on 4 KiB reads.
        let depth = self.spans.depth();
        let result = match request.kind {
            IoKind::Write => {
                self.spans.open(now, SpanKind::IoWrite);
                self.write_range(now, range, request.data.as_deref())
                    .map(|finished| Completion::at(now, finished))
                    .inspect(|_| self.counters.book_host(request))
            }
            IoKind::Append => {
                self.spans.open(now, SpanKind::IoAppend);
                self.append_range(now, range, request.data.as_deref())
                    .map(|(finished, assigned)| Completion {
                        assigned_offset: Some(assigned),
                        ..Completion::at(now, finished)
                    })
                    .inspect(|_| self.counters.book_host(request))
            }
            IoKind::Read => {
                self.spans.open(now, SpanKind::IoRead);
                self.read_range(now, range)
                    .map(|(finished, data)| Completion {
                        data: data.map(Bytes::from),
                        ..Completion::at(now, finished)
                    })
                    .inspect(|_| self.counters.book_host(request))
            }
        };
        match result {
            Ok(c) => {
                self.spans.close(c.finished);
                Ok(c)
            }
            Err(e) => {
                self.spans.cancel_to(depth);
                Err(e)
            }
        }
    }

    fn flush(&mut self, now: SimTime) -> Result<Completion, DeviceError> {
        self.ensure_powered()?;
        let depth = self.spans.depth();
        self.spans.open(now, SpanKind::IoFlush);
        let mut t = now;
        for buf in 0..self.buffers.len() {
            match self.flush_buffer(t, buf, true) {
                Ok(next) => t = next,
                Err(e) => {
                    self.spans.cancel_to(depth);
                    return Err(e);
                }
            }
        }
        t = self.maybe_flush_l2p_log(t);
        self.debug_assert_invariants("after host flush");
        let finished = t + HOST_OVERHEAD;
        self.spans.close(finished);
        Ok(Completion::at(now, finished))
    }

    fn counters(&self) -> Counters {
        let mut c = self.counters;
        self.flash.stats().fold_into(&mut c);
        c.l2p_evictions = self.cache.evictions();
        c
    }

    fn model_name(&self) -> &'static str {
        "conzone"
    }
}

impl ZonedDevice for ConZone {
    fn zone_count(&self) -> usize {
        self.zones.zone_count()
    }

    fn zone_size(&self) -> u64 {
        self.zones.zone_bytes()
    }

    fn zone_info(&self, zone: ZoneId) -> Result<ZoneInfo, DeviceError> {
        self.zones.info(zone)
    }

    fn reset_zone(&mut self, now: SimTime, zone: ZoneId) -> Result<Completion, DeviceError> {
        self.ensure_powered()?;
        let depth = self.spans.depth();
        self.spans.open(now, SpanKind::ZoneReset);
        match self.reset_zone_inner(now, zone) {
            Ok(finished) => {
                self.spans.close(finished);
                Ok(Completion::at(now, finished))
            }
            Err(e) => {
                self.spans.cancel_to(depth);
                Err(e)
            }
        }
    }

    fn open_zone(&mut self, now: SimTime, zone: ZoneId) -> Result<Completion, DeviceError> {
        let finished = self.open_zone_inner(now, zone)?;
        Ok(Completion::at(now, finished))
    }

    fn close_zone(&mut self, now: SimTime, zone: ZoneId) -> Result<Completion, DeviceError> {
        let finished = self.close_zone_inner(now, zone)?;
        Ok(Completion::at(now, finished))
    }

    fn finish_zone(&mut self, now: SimTime, zone: ZoneId) -> Result<Completion, DeviceError> {
        let finished = self.finish_zone_inner(now, zone)?;
        Ok(Completion::at(now, finished))
    }
}
