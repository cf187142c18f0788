//! Steady-state allocation guard, and the owner of the promise that the
//! IO paths are allocation-free (`docs/internals.md` §8): after warm-up
//! has grown the scratch buffers and cache slabs, they must not touch the
//! global allocator at all. A path is covered when a case here executes
//! it — nothing static stands behind this file.
//!
//! It owns a second promise too: building a device costs no memory the
//! device has not written. The per-slice tables are asked for through
//! `alloc_zeroed`, which the OS answers with untouched zero pages; the
//! construction case bounds what `new()` requests any other way.
//!
//! Entry points executed, by case:
//!
//! * write + flush + GC (release): `ConZone::submit` → `write_range`,
//!   `flush`, SLC GC, `FlashArray::{program_unit, program_slc}`,
//!   `MappingTable::set_extent`;
//! * fill / reset / refill (release): the same through writes *and* zone
//!   appends (`append_range`), plus `ConZone::reset_zone`;
//! * random reads (zone-mapped: all hits; page-mapped: ~90 % misses) and
//!   sequential reads: `ConZone::submit` → `read_range`,
//!   `L2pCache::{lookup, insert}`, `MappingTable::{get, mapped_prefix}`,
//!   `FlashArray::read_slices`;
//! * single-page mapping stores: `MappingTable::set`, which no device
//!   calls any more (ConZone and the Legacy baseline both map whole runs);
//! * Legacy overwrites with GC: `LegacyDevice::submit` → `write_range`,
//!   `flush_unit`, `run_gc`, `OwnerMap::{insert_run, remove_run}`,
//!   `MappingTable::unmap_extent`, `FlashArray::invalidate_run`;
//! * doorbell → grant → submit: `QueueFrontEnd::{doorbell, grant}` and the
//!   round-robin `pick`;
//! * queue-pair runs: `EventQueue::{push, pop}`, `QueuePair::{submit,
//!   fetch_next, mark_dispatched, post_completion, reap, release}` and
//!   both arbiters' `pick`, through the public `run_tenants`;
//! * construction: `ConZone::new`, `LegacyDevice::new`, `FemuZns::new`.
//!
//! And a third: what a job file asks for sizes nothing but its threads and
//! queue depth. An open-loop job's arrival schedule is drawn as it runs,
//! so `io_size` and `rate_iops` from a hostile file cost neither memory
//! nor a panic (`parse_fio_jobs` → `run_job`).
//!
//! The test binary installs its own counting `#[global_allocator]`, so no
//! library crate carries a feature or `unsafe` for it. Counts are kept per
//! thread: libtest runs every `#[test]` on a thread of its own and
//! allocates between them, which would pollute a process-wide counter.
//! The device cases drive the device directly (`submit`/`flush`), not
//! through `run_job`, whose per-run set-up allocates; the queue-pair case
//! cannot (its entry points are private) and compares runs instead.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use conzone::host::{
    parse_fio_jobs, run_job, run_tenants, AccessPattern, FioJob, HostError, QdOptions, TenantSpec,
};
use conzone::types::{
    DeviceConfig, DeviceError, Geometry, IoRequest, MapGranularity, SimDuration, SimTime,
    StorageDevice,
};
use conzone::{ArbiterKind, ConZone, QueueFrontEnd};

// Const-initialised so reading it never allocates (a lazy initialiser
// inside the allocator would recurse).
thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    /// Bytes asked for through `alloc` and `realloc` — memory the caller
    /// is about to fill itself — and not through `alloc_zeroed`.
    static UNZEROED_BYTES: Cell<u64> = const { Cell::new(0) };
}

struct CountingAlloc;

/// `try_with`: TLS is unreachable during thread teardown, where
/// allocations may still happen — nobody reads those counts.
fn count() {
    let _ = ALLOCATIONS.try_with(|c| c.set(c.get() + 1));
}

fn count_unzeroed(bytes: usize) {
    let _ = UNZEROED_BYTES.try_with(|c| c.set(c.get() + bytes as u64));
}

// SAFETY: defers every request to `System`, which upholds the
// `GlobalAlloc` contract; the wrapper only bumps thread-local counters
// (`alloc`, `alloc_zeroed` and `realloc` count, `dealloc` is free).
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        count_unzeroed(layout.size());
        // SAFETY: the caller's `layout` is passed through unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller's `layout` is passed through unchanged.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        count_unzeroed(new_size);
        // SAFETY: `ptr` came from `System` with this `layout` (every
        // allocation of this process goes through this wrapper).
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as for `realloc`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocator calls this thread makes while `f` runs.
fn allocations_during(f: impl FnOnce()) -> u64 {
    let before = ALLOCATIONS.with(Cell::get);
    f();
    ALLOCATIONS.with(Cell::get) - before
}

/// Bytes this thread requests unzeroed while `f` runs.
fn unzeroed_bytes_during(f: impl FnOnce()) -> u64 {
    let before = UNZEROED_BYTES.with(Cell::get);
    f();
    UNZEROED_BYTES.with(Cell::get) - before
}

const READ_FILL_BYTES: u64 = 256 << 20;
const READ_RANGE_SLOTS: u64 = (128 << 20) / 4096;

/// The paper's §IV-A configuration (zone aggregation, bitmap search).
fn device() -> ConZone {
    ConZone::new(DeviceConfig::paper_evaluation())
}

/// A device whose first `READ_FILL_BYTES` are written; the fill may
/// allocate freely. Returns the simulated time the fill finished.
fn filled_device() -> (ConZone, SimTime) {
    filled(device())
}

/// The same device with page-only mapping: the fill leaves 65 536 page
/// entries where the 12 KiB L2P cache holds a fraction, so random reads
/// mostly miss.
fn filled_page_mapped_device() -> (ConZone, SimTime) {
    let cfg = DeviceConfig::builder(Geometry::consumer_1p5gb())
        .max_aggregation(MapGranularity::Page)
        .build()
        .expect("paper configuration with page-only mapping");
    filled(ConZone::new(cfg))
}

fn filled(mut dev: ConZone) -> (ConZone, SimTime) {
    let job = FioJob::new(AccessPattern::SeqWrite, 512 * 1024)
        .zone_bytes(dev.config().zone_size_bytes())
        .region(0, READ_FILL_BYTES)
        .bytes_per_thread(READ_FILL_BYTES);
    let fill = run_job(&mut dev, &job).expect("fill");
    (dev, fill.finished)
}

/// Seeded xorshift over the 4 KiB slots of the read range; it only
/// spreads offsets and need not match `run_job`'s generator.
fn read_offsets(seed: u64) -> impl FnMut() -> u64 {
    let mut state = seed ^ 0x9e37_79b9_7f4a_7c15;
    move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state % READ_RANGE_SLOTS) * 4096
    }
}

/// The guard is only worth something if the counter sees allocations.
#[test]
fn counter_sees_this_threads_allocations() {
    let n = allocations_during(|| drop(std::hint::black_box(Vec::<u64>::with_capacity(32))));
    assert!(n > 0, "the counting allocator is not installed");
}

/// A device costs what it touches: on the paper configuration each model's
/// `new()` asks for under 1 MiB of memory it fills itself. The per-slice
/// tables — 384 Ki logical pages and 30 to 360 Ki owned physical slices
/// here, 2 to 3 MiB a device — come from `vec![0; n]`, that is
/// `alloc_zeroed`: address space the OS backs page by page as the device
/// writes. A table built by a fill (`vec![None; n]`, `(0..n).map(..)
/// .collect()`) goes through `alloc`, is written end to end before the
/// first IO, and fails this.
#[test]
fn device_construction_requests_under_1_mib_of_unzeroed_memory() {
    use conzone::{FemuZns, LegacyDevice};
    use std::hint::black_box;
    const LIMIT: u64 = 1 << 20;
    let cfg = DeviceConfig::paper_evaluation;
    let conzone = unzeroed_bytes_during(|| drop(black_box(device())));
    let legacy = unzeroed_bytes_during(|| drop(black_box(LegacyDevice::new(cfg()))));
    let femu = unzeroed_bytes_during(|| drop(black_box(FemuZns::new(cfg()))));
    for (model, bytes) in [("ConZone", conzone), ("Legacy", legacy), ("FEMU", femu)] {
        assert!(
            bytes < LIMIT,
            "{model}::new requested {bytes} unzeroed bytes (limit {LIMIT})"
        );
    }
}

/// What one open-loop job of a fio file needs beyond its device: the
/// per-thread generator state and histograms, one queued arrival.
const JOB_LIMIT: u64 = 1 << 20;

/// A 1 TiB `io_size` at 4 KiB and a million IOPS: 2^28 arrivals, which
/// queued up front would be 10 GiB, and an abort before the first IO. On
/// an empty device that first read fails, which ends the run.
#[test]
fn a_terabyte_open_loop_job_file_reaches_its_first_io() {
    let text = "[flood]\nrw=randread\nbs=4k\nsize=1m\nio_size=1024g\nrate_iops=1000000\n";
    let jobs = parse_fio_jobs(text).expect("job file");
    let job = &jobs[0].job;
    assert_eq!(job.requests_per_thread(), 1 << 28);
    let mut dev = ConZone::new(DeviceConfig::tiny_for_tests());
    let mut result = None;
    let bytes = unzeroed_bytes_during(|| result = Some(run_job(&mut dev, job)));
    assert!(
        matches!(
            result,
            Some(Err(HostError::Device {
                source: DeviceError::UnwrittenRead { .. },
                ..
            }))
        ),
        "{result:?}"
    );
    assert!(bytes < JOB_LIMIT, "{bytes} bytes requested");
}

/// One arrival per 31 years on average: forty of them run past the end of
/// the 584-year simulated timeline, which is a bad job — not an overflow
/// panic, nor arrivals wrapping back in time.
#[test]
fn an_open_loop_schedule_past_the_end_of_time_is_a_bad_job() {
    let text = "[trickle]\nrw=randread\nbs=4k\nsize=1m\nio_size=160k\nrate_iops=0.000000001\n";
    let jobs = parse_fio_jobs(text).expect("job file");
    let mut dev = ConZone::new(DeviceConfig::tiny_for_tests());
    let fill = FioJob::new(AccessPattern::SeqWrite, 256 * 1024)
        .zone_bytes(dev.config().zone_size_bytes())
        .region(0, 1 << 20)
        .bytes_per_thread(1 << 20);
    let filled = run_job(&mut dev, &fill).expect("fill").finished;
    let job = jobs[0].job.clone().start_at(filled);
    assert_eq!(job.requests_per_thread(), 40);
    let mut result = None;
    let bytes = unzeroed_bytes_during(|| result = Some(run_job(&mut dev, &job)));
    assert!(
        matches!(&result, Some(Err(HostError::BadJob(why))) if why.contains("end of simulated time")),
        "{result:?}"
    );
    assert!(dev.counters().host_read_ops > 0, "no arrival was served");
    assert!(bytes < JOB_LIMIT, "{bytes} bytes requested");
}

/// 512 KiB writes, each followed by a flush — the paper's synchronous
/// write pattern the SLC secondary buffer exists for (§II-A). Every flush
/// premature-flushes the sub-unit remainder into SLC, so the region fills
/// and GC runs inside the measured window; GC is part of the steady-state
/// write path and must be allocation-free too. Warm-up deliberately
/// extends past the *first* GC pass: one-time capacity growth belongs to
/// warm-up, recurring GC to the measured window.
///
/// Release only: in the debug profile `debug_assert_invariants` sweeps
/// the whole device (building `BTreeMap`s and `Vec`s) at every host flush
/// and after every GC pass. CI runs this file with `--release`.
#[cfg(not(debug_assertions))]
#[test]
fn seqwrite_flush_and_slc_gc_do_not_allocate() {
    const WARMUP_OPS: u64 = 1900;
    const MEASURED_OPS: u64 = 1000;
    const BLOCK: u64 = 512 * 1024;
    let mut dev = device();
    let mut offset = 0;
    let mut now = SimTime::ZERO;
    let mut write_and_flush = |dev: &mut ConZone| {
        let c = dev.submit(now, &IoRequest::write(offset, BLOCK));
        now = dev
            .flush(c.expect("write").finished)
            .expect("flush")
            .finished;
        offset += BLOCK;
    };
    for _ in 0..WARMUP_OPS {
        write_and_flush(&mut dev);
    }
    let gc_before = dev.counters().gc_runs;
    let allocations = allocations_during(|| {
        for _ in 0..MEASURED_OPS {
            write_and_flush(&mut dev);
        }
    });
    let gc_runs = dev.counters().gc_runs - gc_before;
    assert!(gc_runs > 0, "no SLC GC pass inside the measured window");
    assert_eq!(
        allocations, 0,
        "{MEASURED_OPS} write+flush ops ({gc_runs} GC passes)"
    );
}

/// Fill → reset → refill over four zones filled round-robin in 512 KiB
/// requests — writes to zones 0 and 2, zone appends to zones 1 and 3
/// (zones 0/2 and 1/3 share a write buffer, so every switch conflicts):
/// besides the write and append paths with their tail patches, each cycle
/// makes four zone resets — the walk over the zone's mapping entries that
/// gathers its SLC leftovers into scratch, the L2P cache sweep, the direct
/// erase, the bulk unmap. None of it may allocate once two warm-up cycles
/// have sized the scratch buffers.
///
/// Release only, for the reason given on the write case: the debug
/// profile sweeps the invariants after every reset.
#[cfg(not(debug_assertions))]
#[test]
fn fill_reset_refill_cycles_do_not_allocate() {
    use conzone::types::{ZoneId, ZonedDevice};
    const ZONES: u64 = 4;
    const WARMUP_CYCLES: u64 = 2;
    const MEASURED_CYCLES: u64 = 8;
    const BLOCK: u64 = 512 * 1024;
    let mut dev = device();
    let zone_bytes = dev.config().zone_size_bytes();
    let mut now = SimTime::ZERO;
    let mut cycle = |dev: &mut ConZone| {
        for offset in (0..zone_bytes).step_by(BLOCK as usize) {
            for zone in 0..ZONES {
                // An append lands where the write would have.
                let start = zone * zone_bytes;
                let append = zone % 2 == 1;
                let request = if append {
                    IoRequest::append(start, BLOCK)
                } else {
                    IoRequest::write(start + offset, BLOCK)
                };
                let c = dev.submit(now, &request).expect("write or append");
                assert_eq!(c.assigned_offset, append.then_some(start + offset));
                now = c.finished;
            }
        }
        for zone in 0..ZONES {
            now = dev.reset_zone(now, ZoneId(zone)).expect("reset").finished;
        }
    };
    for _ in 0..WARMUP_CYCLES {
        cycle(&mut dev);
    }
    let before = dev.counters();
    let allocations = allocations_during(|| {
        for _ in 0..MEASURED_CYCLES {
            cycle(&mut dev);
        }
    });
    let during = dev.counters().since(&before);
    assert_eq!(during.zone_resets, ZONES * MEASURED_CYCLES);
    assert!(during.patch_slices > 0, "no tail patch inside the window");
    assert!(during.premature_flushes > 0, "no staged data to reset");
    assert_eq!(
        allocations, 0,
        "{MEASURED_CYCLES} fill/reset cycles over {ZONES} zones"
    );
}

/// 4 KiB random reads after a fill must not allocate — neither when every
/// lookup hits a zone entry (L2P lookup, flash data read) nor, with
/// page-only mapping, when most miss (mapping fetch from flash, cache
/// insert, LRU eviction).
#[test]
fn random_reads_do_not_allocate() {
    const WARMUP_OPS: u64 = 20_000;
    const MEASURED_OPS: u64 = 50_000;
    for (page_mapped, (mut dev, mut now)) in [
        (false, filled_device()),
        (true, filled_page_mapped_device()),
    ] {
        let mut next_offset = read_offsets(7);
        let mut read = |dev: &mut ConZone| {
            let c = dev.submit(now, &IoRequest::read(next_offset(), 4096));
            now = c.expect("read").finished;
        };
        for _ in 0..WARMUP_OPS {
            read(&mut dev);
        }
        let before = dev.counters();
        let allocations = allocations_during(|| {
            for _ in 0..MEASURED_OPS {
                read(&mut dev);
            }
        });
        let during = dev.counters().since(&before);
        assert_eq!(during.l2p_misses > 0, page_mapped, "{during:?}");
        assert_eq!(during.l2p_evictions > 0, page_mapped, "{during:?}");
        assert_eq!(
            allocations, 0,
            "{MEASURED_OPS} 4 KiB random reads, page-only mapping: {page_mapped}"
        );
    }
}

/// 512 KiB sequential reads, started half a request into the fill so that
/// one read in 32 straddles two 16 MiB zones: the run walk (one L2P lookup
/// per covering entry, one decode per flash page) must not allocate, and
/// neither may the step from one zone's entry to the next.
#[test]
fn sequential_512k_reads_across_zones_do_not_allocate() {
    const BLOCK: u64 = 512 * 1024;
    const PASS_OPS: u64 = READ_FILL_BYTES / BLOCK - 1;
    const WARMUP_OPS: u64 = PASS_OPS + 100;
    const MEASURED_OPS: u64 = 2_000;
    let (mut dev, mut now) = filled_device();
    let zone = dev.config().zone_size_bytes();
    let mut op = 0;
    // Returns whether the read crossed a zone boundary.
    let mut read = |dev: &mut ConZone| {
        let offset = BLOCK / 2 + op % PASS_OPS * BLOCK;
        let c = dev.submit(now, &IoRequest::read(offset, BLOCK));
        now = c.expect("read").finished;
        op += 1;
        offset / zone != (offset + BLOCK - 1) / zone
    };
    for _ in 0..WARMUP_OPS {
        read(&mut dev);
    }
    let mut straddles = 0;
    let allocations = allocations_during(|| {
        for _ in 0..MEASURED_OPS {
            straddles += u64::from(read(&mut dev));
        }
    });
    assert!(straddles > 0, "no measured read crossed a zone boundary");
    assert_eq!(allocations, 0, "{MEASURED_OPS} 512 KiB sequential reads");
}

/// The queue-pair entry points — doorbell, arbiter pick, fetch-stage
/// acquire, then the device submit — across two queues. After warm-up
/// (which grows the fetch resource's history and the L2P/scratch slabs)
/// every granted command must reach the device without allocating.
#[test]
fn doorbell_grant_submit_does_not_allocate() {
    const WARMUP_OPS: u64 = 20_000;
    const MEASURED_OPS: u64 = 50_000;
    let (mut dev, mut now) = filled_device();
    let mut fe = QueueFrontEnd::new(
        2,
        SimDuration::from_nanos(500),
        ArbiterKind::RoundRobin.build(&[1, 1]),
    );
    let mut next_offset = read_offsets(11);
    let mut step = |dev: &mut ConZone, queue: usize| {
        fe.doorbell(queue);
        let (_, at) = fe.grant(now).expect("a doorbell is pending");
        let c = dev.submit(at, &IoRequest::read(next_offset(), 4096));
        now = c.expect("read").finished;
    };
    for i in 0..WARMUP_OPS {
        step(&mut dev, (i & 1) as usize);
    }
    let allocations = allocations_during(|| {
        for i in 0..MEASURED_OPS {
            step(&mut dev, (i & 1) as usize);
        }
    });
    assert_eq!(allocations, 0, "{MEASURED_OPS} doorbell→grant→submit ops");
}

/// `MappingTable::set`, the single-page store. The devices map whole runs
/// (`set_extent`), so nothing but tests and the benchmark's micro calls
/// it. Driven directly: every store lands in an aggregated chunk and
/// demotes the covering run first.
#[test]
fn single_page_mapping_stores_do_not_allocate() {
    use conzone::ftl::MappingTable;
    use conzone::types::{Lpn, Ppa};
    const CHUNK: u64 = 64;
    const PAGES: u64 = 16 * CHUNK;
    let mut table = MappingTable::new(PAGES, CHUNK, 4 * CHUNK);
    table.set_extent(Lpn(0), Ppa(0), PAGES, true);
    for chunk in 0..PAGES / CHUNK {
        assert!(table.try_aggregate_chunk(Lpn(chunk * CHUNK)));
    }
    let allocations = allocations_during(|| {
        for page in (0..PAGES).step_by(7) {
            table.set(Lpn(page), Ppa(PAGES + page), false);
        }
    });
    assert_eq!(table.granularity_of(Lpn(1)), Some(MapGranularity::Page));
    assert_eq!(allocations, 0, "single-page stores into aggregated chunks");
}

/// The Legacy baseline's write path: random 4 KiB overwrites of a device
/// whose whole logical space is written, timing-only, so every few hundred
/// writes the append stream runs dry and GC migrates a nearly full victim.
/// Once the pending queue, the unit scratch and the victim buffer have
/// grown, N writes and 4 N writes make the same number of allocator calls.
#[test]
fn legacy_overwrites_with_gc_allocate_the_same_for_any_op_count() {
    use conzone::LegacyDevice;
    const OPS: u64 = 20_000;
    let cfg = DeviceConfig::builder(Geometry::tiny())
        .chunk_bytes(256 * 1024)
        .build()
        .expect("tiny timing-only config");
    let mut dev = LegacyDevice::new(cfg);
    let pages = dev.capacity_bytes() / 4096;
    let mut now = SimTime::ZERO;
    for offset in (0..dev.capacity_bytes()).step_by(256 * 1024) {
        let c = dev.submit(now, &IoRequest::write(offset, 256 * 1024));
        now = c.expect("fill").finished;
    }
    let mut state = 0x9e37_79b9_7f4a_7c15u64;
    let mut overwrite = |dev: &mut LegacyDevice, ops: u64| {
        let gc_before = dev.counters().gc_runs;
        let allocations = allocations_during(|| {
            for _ in 0..ops {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                let c = dev.submit(now, &IoRequest::write(state % pages * 4096, 4096));
                now = c.expect("overwrite").finished;
            }
        });
        assert!(
            dev.counters().gc_runs > gc_before + 10,
            "GC ran in the window"
        );
        allocations
    };
    overwrite(&mut dev, OPS); // warm-up
    let short = overwrite(&mut dev, OPS);
    let long = overwrite(&mut dev, 4 * OPS);
    assert_eq!(short, long, "{} writes more allocated", 3 * OPS);
}

/// The queue-pair host — `drive()`'s event queue, the per-tenant
/// `QueuePair` slot slab and both arbiters — is private to the host
/// crate, so it is measured through `run_tenants`: two tenants of 4 KiB
/// random reads at queue depth 8 on a warm device, once for `ops`
/// commands per tenant and once for four times as many. A run's set-up
/// and report allocate, but equally in both; anything that allocates per
/// command shows as a difference.
#[test]
fn queue_pair_runs_allocate_the_same_for_any_op_count() {
    const OPS: u64 = 4_000;
    let (mut dev, fill_done) = filled_device();
    let mut start = fill_done;
    let mut run = |dev: &mut ConZone, arbiter: ArbiterKind, ops: u64| {
        let tenant = |name: &str, seed: u64, weight: u32| {
            let job = FioJob::new(AccessPattern::RandRead, 4096)
                .region(0, READ_RANGE_SLOTS * 4096)
                .queue_depth(8)
                .bytes_per_thread(ops * 4096)
                .seed(seed)
                .start_at(start);
            TenantSpec::new(name, job).weight(weight)
        };
        let specs = [tenant("a", 7, 3), tenant("b", 11, 1)];
        let opts = QdOptions {
            fetch_cost: SimDuration::from_nanos(500),
            arbiter,
            ..QdOptions::default()
        };
        let mut ops_done = 0;
        let allocations = allocations_during(|| {
            let report = run_tenants(dev, &specs, &opts).expect("tenants run");
            ops_done = report.ops;
            start = report.finished;
        });
        assert_eq!(ops_done, 2 * ops);
        allocations
    };
    // Warm-up: the L2P cache slab and the device's scratch buffers.
    run(&mut dev, ArbiterKind::RoundRobin, 5 * OPS);
    for arbiter in [ArbiterKind::RoundRobin, ArbiterKind::Weighted] {
        let short = run(&mut dev, arbiter, OPS);
        let long = run(&mut dev, arbiter, 4 * OPS);
        assert_eq!(
            short,
            long,
            "{} commands more under {} changed the allocation count",
            2 * 3 * OPS,
            arbiter.name()
        );
    }
}
