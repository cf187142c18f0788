//! Component microbenchmarks: the public functions of every layer below
//! the host driver, each at the occupancy the workloads produce (L2P cache
//! full at 3072 entries, mapping table fully mapped, event queue holding as
//! many entries as there are outstanding requests).
//!
//! They answer "what does one call cost" where the boundary spans can only
//! say "what did `submit` cost"; `bench.layers_sum_ratio` multiplies them
//! by the window's exact call counts to see how much of `submit` they
//! explain. They do not depend on the workload or the seed.

use std::hint::black_box;
use std::time::{Duration, Instant};

use conzone_core::{ArbiterKind, QueueFrontEnd};
use conzone_femu::FemuZns;
use conzone_flash::FlashArray;
use conzone_ftl::{L2pCache, MapBitmap, MappingTable};
use conzone_legacy::LegacyDevice;
use conzone_sim::{
    export, EventQueue, LatencyHistogram, MetricsSampler, Resource, RingBufferSink, SimRng,
    SpanBuffer,
};
use conzone_types::{
    CellType, ChipId, Counters, DeviceConfig, DeviceEvent, Geometry, IoRequest, Lpn,
    MapGranularity, MediaOp, Ppa, Probe, SimDuration, SimTime, SpanKind, SpanRecord, SpanRecorder,
    SpanSink, StorageDevice, SuperblockId, TraceRecord, TraceSink,
};

/// Paper-configuration sizes the FTL benchmarks are built at.
const CACHE_ENTRIES: usize = 3072;
const CHUNK_SLICES: u64 = 1024;
const ZONE_SLICES: u64 = 4096;
const DEVICE_SLICES: u64 = 96 * ZONE_SLICES;
/// Slices of the 128 MiB region the random readers address.
const REGION_SLICES: u64 = 8 * ZONE_SLICES;
/// Length of the precomputed index streams (a power of two).
const STREAM: usize = 4096;

/// Nanoseconds per iteration of `batch`, which runs the given number of
/// iterations and returns how long the measured part of them took. The
/// iteration count is scaled until one batch lasts about `window`; the
/// result is the median of three such batches.
fn measure(window: Duration, mut batch: impl FnMut(u64) -> Duration) -> f64 {
    let mut n = 256u64;
    let per_iter = loop {
        let t = batch(n);
        if t >= Duration::from_millis(1) || n >= 1 << 30 {
            break t.as_nanos() as f64 / n as f64;
        }
        n *= 4;
    };
    let n = ((window.as_nanos() as f64 / per_iter.max(0.01)) as u64).max(1);
    let samples: Vec<f64> = (0..3)
        .map(|_| batch(n).as_nanos() as f64 / n as f64)
        .collect();
    crate::stats::median(&samples)
}

/// Nanoseconds per call of `f(i)`, for calls that need nothing set up
/// between batches.
fn per_call(window: Duration, mut f: impl FnMut(u64)) -> f64 {
    measure(window, |n| timed(n, &mut f))
}

/// Times `n` calls of `f(i)`.
fn timed(n: u64, mut f: impl FnMut(u64)) -> Duration {
    let t0 = Instant::now();
    for i in 0..n {
        f(i);
    }
    t0.elapsed()
}

/// A fixed pseudo-random stream of values below `bound`.
fn stream(bound: u64) -> Vec<u64> {
    let mut rng = SimRng::new(0x5eed);
    (0..STREAM).map(|_| rng.below(bound)).collect()
}

fn at(stream: &[u64], i: u64) -> u64 {
    stream[i as usize & (STREAM - 1)]
}

fn arbiter(window: Duration, kind: ArbiterKind, weights: &[u32]) -> f64 {
    let mut fe = QueueFrontEnd::new(2, SimDuration::from_nanos(500), kind.build(weights));
    // `qd8-mixed-2t` keeps about nine commands waiting.
    for _ in 0..8 {
        fe.doorbell(0);
    }
    let mut now = SimTime::ZERO;
    per_call(window, |i| {
        fe.doorbell((i & 1) as usize);
        let (q, t) = fe.grant(now).expect("a doorbell is pending");
        now = t;
        black_box(q);
    })
}

/// A full cache: zone entries for the first eight zones, page entries
/// (every other page of the following zones) for the rest.
fn full_cache() -> L2pCache {
    let mut cache = L2pCache::new(CACHE_ENTRIES, CHUNK_SLICES, ZONE_SLICES);
    for z in 0..8 {
        cache.insert(Lpn(z * ZONE_SLICES), MapGranularity::Zone, false);
    }
    let mut lpn = 8 * ZONE_SLICES;
    while cache.len() < CACHE_ENTRIES {
        cache.insert(Lpn(lpn), MapGranularity::Page, false);
        lpn += 2;
    }
    cache
}

fn mapped_table() -> MappingTable {
    let mut table = MappingTable::new(DEVICE_SLICES, CHUNK_SLICES, ZONE_SLICES);
    for i in 0..DEVICE_SLICES {
        table.set(Lpn(i), Ppa(i), true);
    }
    table
}

fn ftl(window: Duration, out: &mut Vec<(&'static str, f64)>) {
    let offsets = stream(REGION_SLICES);
    let cached = (CACHE_ENTRIES - 8) as u64;
    let cached_pages = stream(cached);

    let mut cache = full_cache();
    out.push((
        "ftl.l2p.lookup_hit_zone_ns",
        per_call(window, |i| {
            black_box(cache.lookup(Lpn(at(&offsets, i))));
        }),
    ));
    out.push((
        "ftl.l2p.lookup_hit_page_ns",
        per_call(window, |i| {
            let lpn = 8 * ZONE_SLICES + 2 * at(&cached_pages, i);
            black_box(cache.lookup(Lpn(lpn)));
        }),
    ));
    out.push((
        "ftl.l2p.lookup_miss_ns",
        per_call(window, |i| {
            // Odd pages of the page-mapped zones are never cached.
            let lpn = 8 * ZONE_SLICES + 2 * at(&cached_pages, i) + 1;
            black_box(cache.lookup(Lpn(lpn)));
        }),
    ));
    let mut next = 40 * ZONE_SLICES;
    out.push((
        "ftl.l2p.insert_evict_ns",
        per_call(window, |_| {
            next = 40 * ZONE_SLICES + (next + 1) % (40 * ZONE_SLICES);
            black_box(cache.insert(Lpn(next), MapGranularity::Page, false));
        }),
    ));

    let mut table = mapped_table();
    out.push((
        "ftl.mapping.get_ns",
        per_call(window, |i| {
            black_box(table.get(Lpn(at(&offsets, i))));
        }),
    ));
    out.push((
        "ftl.mapping.set_ns",
        per_call(window, |i| {
            let lpn = i % DEVICE_SLICES;
            table.set(Lpn(lpn), Ppa(lpn), true);
        }),
    ));
    // Aggregation of fresh page-mapped chunks: aggregate all of them
    // (timed), then break each again with one page update (not timed).
    let chunks = DEVICE_SLICES / CHUNK_SLICES;
    out.push((
        "ftl.mapping.aggregate_chunk_ns",
        measure(window, |n| {
            let mut spent = Duration::ZERO;
            let mut left = n;
            while left > 0 {
                let group = left.min(chunks);
                spent += timed(group, |c| {
                    black_box(table.try_aggregate_chunk(Lpn(c * CHUNK_SLICES)));
                });
                for c in 0..group {
                    table.set(Lpn(c * CHUNK_SLICES), Ppa(c * CHUNK_SLICES), true);
                }
                left -= group;
            }
            spent
        }),
    ));

    let mut bitmap = MapBitmap::new(DEVICE_SLICES);
    bitmap.set_range(Lpn(0), REGION_SLICES, MapGranularity::Zone);
    out.push((
        "ftl.bitmap.get_ns",
        per_call(window, |i| {
            black_box(bitmap.get(Lpn(at(&offsets, i))));
        }),
    ));
}

fn flash(window: Duration, out: &mut Vec<(&'static str, f64)>) {
    let cfg = DeviceConfig::paper_evaluation();
    let g = cfg.geometry;
    let chips = g.nchips() as u64;
    let first_normal = g.slc_blocks_per_chip;
    let normal_blocks = (g.blocks_per_chip - first_normal) as u64;
    let units = g.units_per_block() as u64;
    let erase_normal = |a: &mut FlashArray, t: SimTime| {
        for chip in 0..chips {
            for b in first_normal..g.blocks_per_chip {
                a.erase_block(t, ChipId(chip), b);
            }
        }
    };

    let mut array = FlashArray::new(&cfg);
    let mut t = SimTime::ZERO;
    let mut chip = 0u64;
    out.push((
        "flash.timed_page_read_ns",
        per_call(window, |_| {
            let r = array.timed_page_read(t, ChipId(chip), CellType::Slc, 16 * 1024);
            chip = (chip + 1) % chips;
            t = r.end;
        }),
    ));

    // Program the whole normal region unit by unit, as zone writes do;
    // when it is full, erase it (not timed) and go round again.
    let per_pass = chips * normal_blocks * units;
    let mut programmed = 0u64;
    out.push((
        "flash.program_unit_ns",
        measure(window, |n| {
            let mut spent = Duration::ZERO;
            let mut left = n;
            while left > 0 {
                let group = left.min(per_pass - programmed);
                spent += timed(group, |_| {
                    let chip = ChipId(programmed % chips);
                    let block = first_normal + (programmed / chips / units) as usize;
                    let r = array.program_unit(t, chip, block, None);
                    t = r.expect("an erased block takes a unit").buffer_free;
                    programmed += 1;
                });
                if programmed == per_pass {
                    erase_normal(&mut array, t);
                    programmed = 0;
                }
                left -= group;
            }
            spent
        }),
    ));

    // One flash page (four slices) per partial program into the SLC
    // region; erased (not timed) when full.
    let slc_calls = chips * first_normal as u64 * g.pages_per_block as u64;
    let mut slc_done = 0u64;
    out.push((
        "flash.program_slc_ns",
        measure(window, |n| {
            let mut spent = Duration::ZERO;
            let mut left = n;
            while left > 0 {
                let group = left.min(slc_calls - slc_done);
                spent += timed(group, |_| {
                    let chip = ChipId(slc_done % chips);
                    let block = (slc_done / chips / g.pages_per_block as u64) as usize;
                    let r = array.program_slc(t, chip, block, g.slices_per_page(), None);
                    t = r.expect("an erased SLC block takes a page").buffer_free;
                    slc_done += 1;
                });
                if slc_done == slc_calls {
                    for chip in 0..chips {
                        for b in 0..first_normal {
                            array.erase_block(t, ChipId(chip), b);
                        }
                    }
                    slc_done = 0;
                }
                left -= group;
            }
            spent
        }),
    ));

    // Erase of a block holding one programmed unit (programming it is not
    // timed; the erase itself does not depend on how full the block is).
    out.push((
        "flash.erase_block_ns",
        measure(window, |n| {
            erase_normal(&mut array, t);
            let mut spent = Duration::ZERO;
            for i in 0..n {
                let chip = ChipId(i % chips);
                let block = first_normal + (i / chips % normal_blocks) as usize;
                let r = array.program_unit(t, chip, block, None);
                t = r.expect("an erased block takes a unit").finish;
                let t0 = Instant::now();
                t = array.erase_block(t, chip, block).end;
                spent += t0.elapsed();
            }
            spent
        }),
    ));

    // Reads over one fully programmed superblock, addressed in the zone's
    // striping order: 128-slice requests as `seqread-512k` issues them, and
    // single slices as the random readers do.
    erase_normal(&mut array, t);
    let sb = SuperblockId(first_normal as u64);
    for _ in 0..units {
        for chip in 0..chips {
            let r = array.program_unit(t, ChipId(chip), first_normal, None);
            t = r.expect("an erased block takes a unit").finish;
        }
    }
    let ppas: Vec<Ppa> = (0..g.slices_per_superblock())
        .map(|o| g.superblock_slice(sb, o))
        .collect();
    const REQUEST: usize = 128;
    let requests = ppas.len() / REQUEST;
    out.push((
        "flash.read_slices_ns_per_slice",
        measure(window, |n| {
            let calls = n.div_ceil(REQUEST as u64);
            let spent = timed(calls, |i| {
                let at = (i as usize % requests) * REQUEST;
                let r = array.read_slices(t, &ppas[at..at + REQUEST]);
                t = r.expect("programmed slices are readable").finish;
            });
            spent.mul_f64(n as f64 / (calls * REQUEST as u64) as f64)
        }),
    ));
    let singles = stream(ppas.len() as u64);
    out.push((
        "flash.read_slices_single_ns",
        per_call(window, |i| {
            let at = at(&singles, i) as usize;
            let r = array.read_slices(t, &ppas[at..=at]);
            t = r.expect("programmed slices are readable").finish;
        }),
    ));
}

fn event_queue(window: Duration, occupancy: usize) -> f64 {
    let gaps = stream(100_000);
    let mut queue: EventQueue<usize> = EventQueue::new();
    for i in 0..occupancy {
        queue.push(SimTime::from_nanos(gaps[i & (STREAM - 1)]), i);
    }
    per_call(window, |i| {
        let (t, who) = queue.pop().expect("the queue never empties");
        queue.push(t + SimDuration::from_nanos(40_000 + at(&gaps, i)), who);
    })
}

fn media_event() -> DeviceEvent {
    DeviceEvent::Media {
        op: MediaOp::Read,
        cell: CellType::Tlc,
        bytes: 16 * 1024,
    }
}

fn sim(window: Duration, out: &mut Vec<(&'static str, f64)>) {
    out.push(("sim.event_queue.push_pop_occ4_ns", event_queue(window, 4)));
    out.push(("sim.event_queue.push_pop_occ16_ns", event_queue(window, 16)));
    out.push((
        "sim.event_queue.push_pop_occ64k_ns",
        event_queue(window, 65_536),
    ));

    let latencies = stream(2_000_000);
    let mut hist = LatencyHistogram::new();
    out.push((
        "sim.histogram.record_ns",
        per_call(window, |i| {
            hist.record(SimDuration::from_nanos(at(&latencies, i)))
        }),
    ));
    let mut rng = SimRng::new(7);
    out.push((
        "sim.rng.below_ns",
        per_call(window, |_| {
            black_box(rng.below(black_box(REGION_SLICES)));
        }),
    ));
    let mut resource = Resource::new();
    let mut t = SimTime::ZERO;
    out.push((
        "sim.resource.acquire_ns",
        per_call(window, |_| {
            t = resource.acquire(t, SimDuration::from_nanos(500)).end;
        }),
    ));

    // One observation per completed request, 10 µs of simulated time
    // apart against a 1 ms interval, like `run_job_sampled` on workload 6.
    let mut counters = Counters::new();
    out.push((
        "sim.sampler.observe_ns",
        measure(window, |n| {
            let mut sampler =
                MetricsSampler::anchored(SimTime::ZERO, SimDuration::from_millis(1), &counters);
            timed(n, |i| {
                counters.host_write_ops += 1;
                sampler.observe(SimTime::from_nanos(i * 10_000), black_box(&counters));
            })
        }),
    ));

    let ring = RingBufferSink::with_capacity(1 << 16);
    out.push((
        "sim.ring_sink.record_ns",
        per_call(window, |i| {
            ring.record(SimTime::from_nanos(i), media_event())
        }),
    ));
    out.push((
        "sim.ring_sink.drain_ns_per_record",
        measure(window, |n| {
            let calls = n.div_ceil(1 << 16);
            let mut drained = 0u64;
            let spent = timed(calls, |_| drained += black_box(ring.drain()).len() as u64);
            spent.mul_f64(n as f64 / drained as f64)
        }),
    ));
    let span = |i: u64| SpanRecord {
        id: i + 1,
        parent: 0,
        io: i + 1,
        kind: SpanKind::IoWrite,
        start: SimTime::from_nanos(i * 1000),
        end: SimTime::from_nanos(i * 1000 + 900),
    };
    // A buffer as workload 6 uses it: empty after each drain, growing as
    // it is filled.
    out.push((
        "sim.span_buffer.record_ns",
        measure(window, |n| {
            let buffer = SpanBuffer::with_capacity(n as usize);
            let spent = timed(n, |i| buffer.record(span(i)));
            black_box(buffer.drain());
            spent
        }),
    ));

    let events: Vec<TraceRecord> = (0..STREAM as u64)
        .map(|i| TraceRecord {
            time: SimTime::from_nanos(i * 100),
            event: media_event(),
        })
        .collect();
    let spans: Vec<SpanRecord> = (0..STREAM as u64).map(span).collect();
    let per_record = |window: Duration, export: &mut dyn FnMut()| {
        measure(window, |n| {
            let calls = n.div_ceil(STREAM as u64);
            let spent = timed(calls, |_| export());
            spent.mul_f64(n as f64 / (calls * STREAM as u64) as f64)
        })
    };
    out.push((
        "sim.export.trace_jsonl_ns_per_record",
        per_record(window, &mut || {
            black_box(export::trace_jsonl(&events));
        }),
    ));
    out.push((
        "sim.export.span_jsonl_ns_per_record",
        per_record(window, &mut || {
            black_box(export::span_jsonl(&spans));
        }),
    ));
    out.push((
        "sim.export.chrome_trace_ns_per_record",
        per_record(window, &mut || {
            black_box(export::chrome_trace(&events).to_string());
        }),
    ));
}

fn types(window: Duration, out: &mut Vec<(&'static str, f64)>) {
    let mut a = Counters::new();
    let b = Counters::new();
    out.push((
        "types.counters.since_ns",
        per_call(window, |_| {
            a.host_read_ops += 1;
            black_box(black_box(&a).since(black_box(&b)));
        }),
    ));
    let mut total = Counters::new();
    out.push((
        "types.counters.merge_ns",
        per_call(window, |_| {
            total.merge(black_box(&a));
            black_box(&total);
        }),
    ));
    let probe = Probe::disabled();
    out.push((
        "types.probe.emit_null_ns",
        per_call(window, |i| {
            black_box(&probe).emit(SimTime::from_nanos(i), media_event())
        }),
    ));
    let mut recorder = SpanRecorder::disabled();
    out.push((
        "types.span.open_close_null_ns",
        per_call(window, |i| {
            let r = black_box(&mut recorder);
            r.open(SimTime::from_nanos(i), SpanKind::IoRead);
            r.close(SimTime::from_nanos(i + 1));
        }),
    ));
}

/// The baselines, at steady state on the small test geometry (timing
/// only): Legacy with its whole logical space written once, so random
/// overwrites pay device GC; FEMU reading back four filled zones.
fn baselines(window: Duration, out: &mut Vec<(&'static str, f64)>) {
    let tiny = || {
        DeviceConfig::builder(Geometry::tiny())
            .chunk_bytes(256 * 1024)
            .build()
            .expect("the tiny configuration is valid")
    };
    const BLOCK: u64 = 256 * 1024;

    let mut legacy = LegacyDevice::new(tiny());
    let slices = legacy.capacity_bytes() / 4096;
    let mut t = SimTime::ZERO;
    for offset in (0..legacy.capacity_bytes()).step_by(BLOCK as usize) {
        let c = legacy.submit(t, &IoRequest::write(offset, BLOCK));
        t = c.expect("legacy fill").finished;
    }
    let offsets = stream(slices);
    out.push((
        "legacy.randwrite_4k_ns_per_op",
        per_call(window, |i| {
            let c = legacy.submit(t, &IoRequest::write(at(&offsets, i) * 4096, 4096));
            t = c.expect("legacy random write").finished;
        }),
    ));

    let mut femu = FemuZns::new(tiny());
    let filled = 4 * femu.config().geometry.superblock_bytes();
    let mut t = SimTime::ZERO;
    for offset in (0..filled).step_by(BLOCK as usize) {
        let c = femu.submit(t, &IoRequest::write(offset, BLOCK));
        t = c.expect("femu fill").finished;
    }
    t = femu.flush(t).expect("femu flush").finished;
    let offsets = stream(filled / 4096);
    out.push((
        "femu.randread_4k_ns_per_op",
        per_call(window, |i| {
            let c = femu.submit(t, &IoRequest::read(at(&offsets, i) * 4096, 4096));
            t = c.expect("femu random read").finished;
        }),
    ));
}

/// Runs every microbenchmark with batches of about `window` and returns
/// `(metric name, ns per call)` pairs.
pub fn run(window: Duration) -> Vec<(&'static str, f64)> {
    let mut out = Vec::new();
    out.push((
        "core.arbiter.doorbell_grant_rr_ns",
        arbiter(window, ArbiterKind::RoundRobin, &[1, 1]),
    ));
    out.push((
        "core.arbiter.doorbell_grant_wrr_ns",
        arbiter(window, ArbiterKind::Weighted, &[3, 1]),
    ));
    ftl(window, &mut out);
    flash(window, &mut out);
    sim(window, &mut out);
    types(window, &mut out);
    baselines(window, &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_microbenchmark_reports_a_positive_cost_under_its_name() {
        let results = run(Duration::from_millis(2));
        assert_eq!(results.len(), 35);
        for (i, (name, ns)) in results.iter().enumerate() {
            assert!(ns.is_finite() && *ns > 0.0, "{name} = {ns}");
            assert!(
                crate::metrics::PER_LAYER.iter().any(|d| d.name == *name),
                "{name} is not a registered metric"
            );
            assert!(results[..i].iter().all(|(n, _)| n != name), "{name} twice");
        }
    }

    #[test]
    fn measured_time_grows_with_the_iteration_count() {
        // `black_box` is only a hint: make sure the loop was not deleted.
        let mut rng = SimRng::new(1);
        let mut run = |n| {
            timed(n, |_| {
                black_box(rng.below(black_box(1000)));
            })
        };
        let short = run(100_000);
        let long = run(3_000_000);
        assert!(long > short * 5, "{short:?} vs {long:?}");
    }
}
