//! Property-based test: the structural invariants stay green under random
//! workloads that exercise every path — sequential and conventional
//! writes, flushes, zone close / finish / reset, SLC garbage collection,
//! fault injection and power cycles. Each operation sequence ends with a
//! full [`ConZone::check_invariants`] sweep; the in-path debug hooks fire
//! along the way via `debug_assert_invariants`, and every reset
//! cross-checks its mapping-entry walk against the whole-region owner
//! scan it replaced ([`ConZone::reset_reference`]).

use conzone_check::{check, Rng, Simpler};
use conzone_types::{
    DeviceConfig, DeviceError, FaultConfig, Geometry, IoRequest, SimTime, StorageDevice, ZoneId,
    ZonedDevice, SLICE_BYTES,
};

use crate::ConZone;

#[derive(Debug, Clone, PartialEq)]
enum Op {
    /// Append `slices` at a sequential zone's write pointer.
    Write { zone: u8, slices: u8 },
    /// Overwrite `slices` at `offset` inside the conventional zone.
    Conventional { offset: u8, slices: u8 },
    /// Drain every write buffer.
    Flush,
    /// Reset a sequential zone.
    Reset { zone: u8 },
    /// Close a sequential zone (drains its buffer share into SLC).
    Close { zone: u8 },
    /// Finish a sequential zone.
    Finish { zone: u8 },
    /// Power-cut and immediately remount.
    PowerCutRemount,
}

fn op(rng: &mut Rng) -> Op {
    let byte = |rng: &mut Rng| rng.next_u64() as u8;
    match rng.below(22) {
        0..10 => Op::Write {
            zone: byte(rng),
            slices: rng.range(1..48),
        },
        10..14 => Op::Conventional {
            offset: byte(rng),
            slices: rng.range(1..16),
        },
        14..16 => Op::Flush,
        16..18 => Op::Reset { zone: byte(rng) },
        18 => Op::Close { zone: byte(rng) },
        19 => Op::Finish { zone: byte(rng) },
        _ => Op::PowerCutRemount,
    }
}

impl Simpler for Op {}

/// The tiny geometry (power-of-two zones, no tail), or with `tail` a
/// 384 KiB superblock padded to 512 KiB zones: a 128 KiB SLC patch each
/// (and an SLC region roomy enough for five patches, the conventional
/// zone and the staged runs at once).
fn device(faults: bool, tail: bool) -> ConZone {
    let geometry = if tail {
        Geometry {
            channels: 1,
            chips_per_channel: 2,
            blocks_per_chip: 14,
            slc_blocks_per_chip: 8,
            pages_per_block: 12,
            page_bytes: 16 * 1024,
            program_unit_bytes: 64 * 1024,
            planes_per_chip: 1,
        }
    } else {
        Geometry::tiny()
    };
    // Collect garbage as soon as one SLC superblock has filled, so that
    // streams of a hundred ops reach GC at all.
    let gc_threshold = geometry.slc_superblocks() - 1;
    let mut b = DeviceConfig::builder(geometry)
        .slc_gc_threshold(gc_threshold)
        .chunk_bytes(if tail { 128 * 1024 } else { 256 * 1024 })
        .conventional_zones(1);
    if faults {
        b = b.fault(FaultConfig::with_rates(0.05, 0.02, 0.1));
    }
    ConZone::new(b.build().expect("proptest config"))
}

/// Applies one op, treating well-formed rejections (zone full, open-zone
/// limit, not writable, out of SLC space) as no-ops: the property is that
/// no operation, accepted or refused, corrupts structural state.
fn apply(dev: &mut ConZone, t: SimTime, op: &Op) -> Result<SimTime, DeviceError> {
    let zone_bytes = dev.config().zone_size_bytes();
    let zones = dev.zone_count() as u64;
    let r = match *op {
        Op::Write { zone, slices } => {
            // Sequential zones start after the conventional zone 0.
            let zone = 1 + (u64::from(zone) % (zones - 1));
            let wp = dev
                .zone_info(ZoneId(zone))
                .expect("zone info")
                .write_pointer;
            let len = (u64::from(slices) * SLICE_BYTES).min(zone_bytes - wp);
            if len == 0 {
                return Ok(t);
            }
            dev.submit(t, &IoRequest::write(zone * zone_bytes + wp, len))
                .map(|c| c.finished)
        }
        Op::Conventional { offset, slices } => {
            let zone_slices = zone_bytes / SLICE_BYTES;
            let offset = u64::from(offset) % zone_slices;
            let len = u64::from(slices).min(zone_slices - offset) * SLICE_BYTES;
            dev.submit(t, &IoRequest::write(offset * SLICE_BYTES, len))
                .map(|c| c.finished)
        }
        Op::Flush => dev.flush(t).map(|c| c.finished),
        Op::Reset { zone } => {
            let zone = 1 + (u64::from(zone) % (zones - 1));
            dev.reset_zone(t, ZoneId(zone)).map(|c| c.finished)
        }
        Op::Close { zone } => {
            let zone = 1 + (u64::from(zone) % (zones - 1));
            dev.close_zone(t, ZoneId(zone)).map(|c| c.finished)
        }
        Op::Finish { zone } => {
            let zone = 1 + (u64::from(zone) % (zones - 1));
            dev.finish_zone(t, ZoneId(zone)).map(|c| c.finished)
        }
        Op::PowerCutRemount => {
            dev.power_cut(t).expect("power cut");
            dev.remount(t).map(|r| r.finished)
        }
    };
    match r {
        Ok(finish) => Ok(finish),
        Err(
            DeviceError::ZoneFull { .. }
            | DeviceError::TooManyOpenZones { .. }
            | DeviceError::NotWritePointer { .. }
            | DeviceError::ZoneBoundary { .. }
            | DeviceError::ZoneNotWritable { .. }
            | DeviceError::NoFreeSpace { .. },
        ) => Ok(t),
        Err(e) => Err(e),
    }
}

/// Random workloads — with and without fault injection — leave the
/// device structurally consistent after every operation sequence.
#[test]
fn invariants_hold_under_random_workload() {
    let path = concat!(module_path!(), "::invariants_hold_under_random_workload");
    let generate = |rng: &mut Rng| (rng.bool(), rng.vec(1..60, op));
    check(path, 48, generate, |&faults, ops| {
        let mut dev = device(faults, false);
        let mut t = SimTime::ZERO;
        for op in ops {
            match apply(&mut dev, t, op) {
                Ok(finish) => t = finish,
                Err(e) => panic!("op {op:?} failed: {e}"),
            }
        }
        let violations = dev.check_invariants();
        assert!(
            violations.is_empty(),
            "violations after {} ops: {violations:?}",
            ops.len()
        );
    });
}

/// Write / close / finish / reset / GC streams under fault injection
/// (program-failure redos put non-canonical entries below the backing
/// boundary; power cycles strand staged runs), with and without a
/// zone tail, each ended by resetting every sequential zone: the walk
/// over the zones' own mapping entries must leave no SLC slice owned
/// by a reset zone and nothing mapped in one.
#[test]
fn resetting_every_zone_leaves_no_slc_leftovers() {
    let path = concat!(
        module_path!(),
        "::resetting_every_zone_leaves_no_slc_leftovers"
    );
    let generate = |rng: &mut Rng| (rng.bool(), rng.vec(1..120, op));
    check(path, 48, generate, |&tail, ops| {
        let mut dev = device(true, tail);
        let mut t = SimTime::ZERO;
        for op in ops {
            match apply(&mut dev, t, op) {
                Ok(finish) => t = finish,
                Err(e) => panic!("op {op:?} failed: {e}"),
            }
        }
        let zs = dev.zones.zone_slices();
        for zone in (1..dev.zone_count() as u64).map(ZoneId) {
            t = dev.reset_zone(t, zone).expect("reset").finished;
            assert!(
                dev.reset_reference(zone).is_empty(),
                "{zone} keeps SLC slices"
            );
            assert_eq!(dev.table.zone_mapped_slices(zone), 0);
        }
        if let Some((ppa, lpn)) = dev.slc.owner.iter().find(|(_, lpn)| lpn.raw() >= zs) {
            panic!("{ppa} still owned by {lpn}, outside the conventional zone");
        }
        let violations = dev.check_invariants();
        assert!(
            violations.is_empty(),
            "violations after the resets: {violations:?}"
        );
    });
}

// ---------------------------------------------------------------------
// Differential test of the run-granular read path against a per-slice
// reference (the first "obviously-correct reference" of ROADMAP item 4c).

mod read_reference {
    use std::sync::Arc;

    use bytes::Bytes;
    use conzone_check::{check, Rng};

    use conzone_ftl::{InsertOutcome, LookupResult};
    use conzone_sim::{RingBufferSink, SpanBuffer};
    use conzone_types::{
        Completion, Counters, DeviceConfig, DeviceError, DeviceEvent, FaultConfig, Geometry,
        IoRequest, L2pOutcome, Lpn, LpnRange, MapGranularity, Probe, SearchStrategy, SimTime,
        SpanKind, StorageDevice, ZoneId, SLICE_BYTES,
    };

    use crate::write::internal;
    use crate::{ConZone, TimeBreakdown};

    /// The read path before it walked runs: every 4 KiB slice is resolved
    /// on its own — zone, write pointer, buffer window, a full L2P lookup,
    /// a table read — and nothing is carried from one slice to the next.
    /// Deliberately naive; `ConZone::read_range` must be indistinguishable
    /// from it in every simulated result.
    fn read_range_per_slice(
        dev: &mut ConZone,
        now: SimTime,
        range: LpnRange,
    ) -> Result<(SimTime, Option<Vec<u8>>), DeviceError> {
        enum Slot {
            Buffer(usize, u64),
            Flash(usize),
        }
        let unmapped = |lpn: Lpn| {
            DeviceError::Internal(format!("durable {lpn} below the write pointer is unmapped"))
        };
        let zs = dev.zones.zone_slices();
        let mut t_map = now;
        let mut slots = Vec::new();
        let mut ppas = Vec::new();

        for lpn in range.iter() {
            let zone_id = ZoneId(lpn.raw() / zs);
            let offset = lpn.raw() % zs;
            if dev.zones.is_conventional(zone_id) {
                if dev.table.get(lpn).is_none() {
                    return Err(DeviceError::UnwrittenRead { lpn });
                }
            } else if offset >= dev.zones.wp_slices(zone_id) {
                return Err(DeviceError::UnwrittenRead { lpn });
            }

            let buf_idx = zone_id.raw() as usize % dev.buffers.len();
            let b = &dev.buffers[buf_idx];
            if b.owner() == Some(zone_id) && offset >= b.start_offset() && offset < b.end_offset() {
                slots.push(Slot::Buffer(buf_idx, offset));
                continue;
            }

            match dev.cache.lookup(lpn) {
                LookupResult::Hit(g) => {
                    let outcome = match g {
                        MapGranularity::Zone => {
                            dev.counters.l2p_hits_zone += 1;
                            L2pOutcome::HitZone
                        }
                        MapGranularity::Chunk => {
                            dev.counters.l2p_hits_chunk += 1;
                            L2pOutcome::HitChunk
                        }
                        MapGranularity::Page => {
                            dev.counters.l2p_hits_page += 1;
                            L2pOutcome::HitPage
                        }
                    };
                    dev.probe.emit(t_map, DeviceEvent::L2pLookup { outcome });
                }
                LookupResult::Miss => {
                    dev.counters.l2p_misses += 1;
                    dev.probe.emit(
                        t_map,
                        DeviceEvent::L2pLookup {
                            outcome: L2pOutcome::Miss,
                        },
                    );
                    let actual = dev.table.granularity_of(lpn).ok_or_else(|| unmapped(lpn))?;
                    let fetches = conzone_ftl::mapping_fetches(dev.cfg.search_strategy, actual);
                    let page_bytes = dev.cfg.geometry.page_bytes as u64;
                    let media = dev.cfg.mapping_media;
                    for _ in 0..fetches {
                        let chip = dev.mapping_chip();
                        let r = dev.flash.timed_page_read(t_map, chip, media, page_bytes);
                        t_map = r.end;
                        dev.counters.flash_mapping_reads += 1;
                    }
                    let pinned = conzone_ftl::pins_aggregates(dev.cfg.search_strategy)
                        && actual > MapGranularity::Page;
                    if let InsertOutcome::Evicted(_) = dev.cache.insert(lpn, actual, pinned) {
                        dev.probe.emit(t_map, DeviceEvent::L2pEviction { count: 1 });
                    }
                }
            }
            let entry = dev.table.get(lpn).ok_or_else(|| unmapped(lpn))?;
            slots.push(Slot::Flash(ppas.len()));
            ppas.push(entry.ppa);
        }

        dev.breakdown.mapping_fetch += t_map - now;
        if t_map > now {
            dev.spans.open(now, SpanKind::MapFetch);
            dev.spans.close(t_map);
        }
        let mut finish = t_map;
        let mut flash_data: Option<Vec<u8>> = None;
        if !ppas.is_empty() {
            let out = dev.flash.read_slices(t_map, &ppas).map_err(internal)?;
            finish = out.finish;
            flash_data = out.data;
            dev.breakdown.data_read += finish.saturating_since(t_map);
            if finish > t_map {
                dev.spans.open(t_map, SpanKind::DataRead);
                dev.spans.close(finish);
            }
        }

        let data = dev.cfg.data_backing.then(|| {
            let mut v = Vec::new();
            for slot in &slots {
                match *slot {
                    Slot::Buffer(buf, offset) => match dev.buffers[buf].slice_data(offset) {
                        Some(s) => v.extend_from_slice(s),
                        None => v.resize(v.len() + SLICE_BYTES as usize, 0),
                    },
                    Slot::Flash(i) => {
                        let d = flash_data.as_ref().expect("payload with data backing on");
                        let at = i * SLICE_BYTES as usize;
                        v.extend_from_slice(&d[at..at + SLICE_BYTES as usize]);
                    }
                }
            }
            v
        });
        Ok((finish + dev.cfg.host_overhead, data))
    }

    /// `ConZone::submit` for a read, with the per-slice walker in place of
    /// `read_range`.
    fn submit_read_per_slice(
        dev: &mut ConZone,
        now: SimTime,
        request: &IoRequest,
    ) -> Result<Completion, DeviceError> {
        dev.ensure_powered()?;
        request.validate()?;
        let range = LpnRange::covering_bytes(request.offset, request.len).expect("non-empty read");
        let depth = dev.spans.depth();
        dev.counters.host_read_ops += 1;
        dev.counters.host_read_bytes += request.len;
        dev.spans.open(now, SpanKind::IoRead);
        match read_range_per_slice(dev, now, range) {
            Ok((finished, data)) => {
                dev.spans.close(finished);
                Ok(Completion {
                    submitted: now,
                    finished,
                    data: data.map(Bytes::from),
                    assigned_offset: None,
                })
            }
            Err(e) => {
                dev.spans.cancel_to(depth);
                Err(e)
            }
        }
    }

    /// One generated scenario: a device shape and how its zones were
    /// written. The reads to compare come with it.
    #[derive(Debug, Clone)]
    struct Case {
        strategy: SearchStrategy,
        max_aggregation: MapGranularity,
        cache_entries: u64,
        /// `(offset, slices)` writes into the conventional zone 0.
        sparse: Vec<(u64, u64)>,
        /// Slices left in zone 3's write buffer, never flushed.
        buffered: u64,
    }

    /// Tiny geometry: zones of 256 slices in chunks of 64, one superpage
    /// (64 slices) per write buffer, two buffers.
    const ZS: u64 = 256;
    const CHUNK: u64 = 64;
    /// Zone 0 conventional and sparse; zones 1–2 full; zone 3 three whole
    /// chunks on flash plus a buffered tail; zone 4 a few prematurely
    /// flushed (SLC-staged, page-mapped) slices; the rest unwritten.
    const WRITTEN_ZONES: u64 = 5;

    fn payload(lpn: u64, slices: u64) -> Bytes {
        let mut v = Vec::with_capacity((slices * SLICE_BYTES) as usize);
        for l in lpn..lpn + slices {
            v.resize(v.len() + SLICE_BYTES as usize, (l % 251) as u8);
        }
        Bytes::from(v)
    }

    fn write(dev: &mut ConZone, t: &mut SimTime, lpn: u64, slices: u64) {
        let req = IoRequest::write_data(lpn * SLICE_BYTES, payload(lpn, slices));
        *t = dev.submit(*t, &req).expect("set-up write").finished;
    }

    struct Rig {
        dev: ConZone,
        events: Arc<RingBufferSink>,
        spans: Arc<SpanBuffer>,
        t: SimTime,
    }

    fn rig(case: &Case) -> Rig {
        let cfg = DeviceConfig::builder(Geometry::tiny())
            .chunk_bytes(CHUNK * SLICE_BYTES)
            .conventional_zones(1)
            .data_backing(true)
            .search_strategy(case.strategy)
            .max_aggregation(case.max_aggregation)
            .l2p_cache_bytes(case.cache_entries * 4)
            // Reads draw retry steps per flash page, in group order.
            .fault(FaultConfig::with_rates(0.0, 0.0, 0.3))
            .build()
            .expect("differential config");
        assert_eq!((cfg.zone_size_slices(), cfg.chunk_slices()), (ZS, CHUNK));
        let mut dev = ConZone::new(cfg);
        let mut t = SimTime::ZERO;
        for &(offset, slices) in &case.sparse {
            write(&mut dev, &mut t, offset, slices.min(ZS - offset));
        }
        for zone in 1..=2 {
            for piece in 0..ZS / 32 {
                write(&mut dev, &mut t, zone * ZS + piece * 32, 32);
            }
        }
        for piece in 0..5 {
            write(&mut dev, &mut t, 4 * ZS + piece * 7, 7);
            t = dev.flush(t).expect("set-up flush").finished;
        }
        write(&mut dev, &mut t, 3 * ZS, 3 * CHUNK);
        t = dev.flush(t).expect("set-up flush").finished;
        if case.buffered > 0 {
            write(&mut dev, &mut t, 3 * ZS + 3 * CHUNK, case.buffered);
        }
        // Instruments go on after set-up: only the reads are compared.
        let events = Arc::new(RingBufferSink::new());
        let spans = Arc::new(SpanBuffer::with_capacity(1 << 12));
        dev.set_probe(Probe::attached(events.clone()));
        dev.set_span_sink(spans.clone());
        Rig {
            dev,
            events,
            spans,
            t,
        }
    }

    /// Which of the written zones' pages some cache entry covers.
    fn coverage(dev: &ConZone) -> Vec<bool> {
        (0..WRITTEN_ZONES * ZS)
            .map(|lpn| dev.cache.covers(Lpn(lpn)))
            .collect()
    }

    type Books = (Counters, TimeBreakdown, SimTime);

    fn books(rig: &Rig) -> Books {
        (
            rig.dev.counters(),
            rig.dev.time_breakdown(),
            rig.dev.flash.all_idle_at(),
        )
    }

    /// Runs the `(first lpn, pages)` reads of the case through both
    /// walkers and returns the run-granular device's counters for coverage
    /// checks.
    fn compare(case: &Case, reads: &[(u64, u64)]) -> Counters {
        let mut runs = rig(case);
        let mut slices = rig(case);
        assert_eq!(books(&runs), books(&slices), "identical set-up");
        for &(lpn, pages) in reads {
            let req = IoRequest::read(lpn * SLICE_BYTES, pages * SLICE_BYTES);
            let a = runs.dev.submit(runs.t, &req);
            let b = submit_read_per_slice(&mut slices.dev, slices.t, &req);
            match (&a, &b) {
                (Ok(a), Ok(b)) => {
                    assert_eq!(a.finished, b.finished, "read {:?}", (lpn, pages));
                    assert_eq!(&a.data, &b.data, "payload of {:?}", (lpn, pages));
                    assert_eq!(
                        a.data.as_ref().map(|d| d.len() as u64),
                        Some(pages * SLICE_BYTES)
                    );
                    runs.t = a.finished;
                    slices.t = b.finished;
                }
                (Err(a), Err(b)) => assert_eq!(a, b, "read {:?}", (lpn, pages)),
                _ => panic!("read {:?}: {:?} vs {:?}", (lpn, pages), a, b),
            }
            // Failed reads included: their prefix has the same side effects.
            assert_eq!(
                books(&runs),
                books(&slices),
                "after read {:?}",
                (lpn, pages)
            );
        }
        assert_eq!(runs.events.dropped() + runs.spans.dropped(), 0);
        assert_eq!(runs.events.drain(), slices.events.drain());
        assert_eq!(runs.spans.drain(), slices.spans.drain());
        assert!(runs.dev.check_invariants().is_empty());

        // Same recency order: push fresh entries through both caches and
        // watch the residents fall out one by one.
        assert_eq!(coverage(&runs.dev), coverage(&slices.dev));
        for fresh in 0..case.cache_entries {
            for dev in [&mut runs.dev, &mut slices.dev] {
                dev.cache
                    .insert(Lpn(8 * ZS + fresh), MapGranularity::Page, false);
            }
            assert_eq!(
                coverage(&runs.dev),
                coverage(&slices.dev),
                "eviction {fresh}"
            );
        }
        runs.dev.counters()
    }

    fn case(rng: &mut Rng) -> (Case, Vec<(u64, u64)>) {
        let strategy = [
            SearchStrategy::Bitmap,
            SearchStrategy::Multiple,
            SearchStrategy::Pinned,
        ][rng.range(0..3)];
        let max_aggregation = match rng.below(5) {
            0..2 => MapGranularity::Zone,
            2..4 => MapGranularity::Chunk,
            _ => MapGranularity::Page,
        };
        // From "a few pinned aggregates fill it" to "nothing is evicted".
        let cache_entries = [2, 3, 6, 24][rng.range(0..4)];
        let sparse = rng.vec(0..12, |rng| (rng.range(0..ZS), rng.range(1..12)));
        let buffered = rng.range(0..40);
        let read = |rng: &mut Rng| match rng.below(7) {
            // Mostly inside the full zones and zone 3: straddles zone and
            // chunk boundaries, runs into the buffered and unwritten tail.
            0..4 => (rng.range(ZS..4 * ZS), rng.range(1..300)),
            // The sparse conventional zone and the page-mapped zone 4.
            4 => (rng.range(0..ZS), rng.range(1..24)),
            5 => (rng.range(4 * ZS..4 * ZS + 40), rng.range(1..12)),
            _ => (rng.range(0..WRITTEN_ZONES * ZS + CHUNK), rng.range(1..300)),
        };
        let case = Case {
            strategy,
            max_aggregation,
            cache_entries,
            sparse,
            buffered,
        };
        (case, rng.vec(1..24, read))
    }

    /// The run-granular walker and the per-slice reference agree on
    /// completion times, payloads, errors, counters, time breakdown,
    /// flash occupancy, the event and span streams and the LRU order.
    #[test]
    fn read_runs_match_the_per_slice_reference() {
        let path =
            "conzone_core::proptests::read_reference::read_runs_match_the_per_slice_reference";
        check(path, 32, case, |case, reads| {
            compare(case, reads);
        });
    }

    /// Hand-picked reads that provably reach every kind of run, so the
    /// property above is not vacuously comparing error returns.
    #[test]
    fn reference_scenarios_reach_every_kind_of_run() {
        let case = |strategy, max_aggregation, cache_entries| Case {
            strategy,
            max_aggregation,
            cache_entries,
            sparse: vec![(3, 5), (10, 2), (200, 8)],
            buffered: 20,
        };
        let reads = [
            (ZS + 100, 300),     // zone 1 → zone 2
            (2 * ZS + 200, 120), // zone 2 → zone 3, chunk hits
            (3 * ZS + 150, 62),  // flash, then the buffer, exactly to the wp
            (3 * ZS + 200, 4),   // buffer only
            (3 * ZS + 150, 100), // … and on into the unwritten tail
            (3, 5),              // sparse conventional, mapped
            (3, 8),              // … and running off the mapped pages
            (4 * ZS, 35),        // page-mapped, SLC-staged
            (4 * ZS, 36),        // … and one page too far
            (ZS, 128),
            (4 * ZS + 10, 10),
        ];
        let zone = compare(
            &case(SearchStrategy::Bitmap, MapGranularity::Zone, 6),
            &reads,
        );
        assert!(zone.l2p_hits_zone > 0 && zone.l2p_hits_chunk > 0 && zone.l2p_hits_page > 0);
        assert!(zone.l2p_misses > 0 && zone.l2p_evictions > 0 && zone.read_retries > 0);

        let multiple = compare(
            &case(SearchStrategy::Multiple, MapGranularity::Chunk, 3),
            &reads,
        );
        assert_eq!(multiple.l2p_hits_zone, 0);
        assert!(
            multiple.flash_mapping_reads > multiple.l2p_misses,
            "2 and 3 fetches per miss"
        );

        // Two entries, both pinned aggregates: page inserts are rejected,
        // so every page-mapped slice misses again and nothing is evicted.
        let pinned = compare(
            &case(SearchStrategy::Pinned, MapGranularity::Zone, 2),
            &reads,
        );
        assert_eq!((pinned.l2p_hits_page, pinned.l2p_evictions), (0, 0));
        assert!(pinned.l2p_misses >= 35 + 10);
    }
}
