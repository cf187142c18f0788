//! Steady-state allocation guard — the runtime cross-check of the static
//! `hot-path-effects` lint rule (`docs/internals.md` §8): after warm-up
//! has grown the scratch buffers and cache slabs, the device's IO paths
//! must not touch the global allocator at all.
//!
//! The test binary installs its own counting `#[global_allocator]`, so no
//! library crate carries a feature or `unsafe` for it. Counts are kept per
//! thread: libtest runs every `#[test]` on a thread of its own and
//! allocates between them, which would pollute a process-wide counter.
//! The cases drive the device directly (`submit`/`flush`), not through
//! `run_job`, whose per-run set-up allocates.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use conzone::host::{run_job, AccessPattern, FioJob};
use conzone::types::{DeviceConfig, IoRequest, SimDuration, SimTime, StorageDevice};
use conzone::{ArbiterKind, ConZone, QueueFrontEnd};

// Const-initialised so reading it never allocates (a lazy initialiser
// inside the allocator would recurse).
thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

struct CountingAlloc;

/// `try_with`: TLS is unreachable during thread teardown, where
/// allocations may still happen — nobody reads those counts.
fn count() {
    let _ = ALLOCATIONS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: defers every request to `System`, which upholds the
// `GlobalAlloc` contract; the wrapper only bumps a thread-local counter
// (`alloc`, `alloc_zeroed` and `realloc` count, `dealloc` is free).
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
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

const READ_FILL_BYTES: u64 = 256 << 20;
const READ_RANGE_SLOTS: u64 = (128 << 20) / 4096;

/// The paper's §IV-A configuration (zone aggregation, bitmap search).
fn device() -> ConZone {
    ConZone::new(DeviceConfig::paper_evaluation())
}

/// A device whose first `READ_FILL_BYTES` are written; the fill may
/// allocate freely. Returns the simulated time the fill finished.
fn filled_device() -> (ConZone, SimTime) {
    let mut dev = device();
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

/// Fill → reset → refill over four zones written round-robin in 512 KiB
/// requests (zones 0/2 and 1/3 share a write buffer, so every switch
/// conflicts): besides the write path with its tail patches, each cycle
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
                let c = dev.submit(now, &IoRequest::write(zone * zone_bytes + offset, BLOCK));
                now = c.expect("write").finished;
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

/// 4 KiB random reads after a fill: L2P lookups, mapping fetches and
/// flash data reads must not allocate.
#[test]
fn random_reads_do_not_allocate() {
    const WARMUP_OPS: u64 = 20_000;
    const MEASURED_OPS: u64 = 50_000;
    let (mut dev, mut now) = filled_device();
    let mut next_offset = read_offsets(7);
    let mut read = |dev: &mut ConZone| {
        let c = dev.submit(now, &IoRequest::read(next_offset(), 4096));
        now = c.expect("read").finished;
    };
    for _ in 0..WARMUP_OPS {
        read(&mut dev);
    }
    let allocations = allocations_during(|| {
        for _ in 0..MEASURED_OPS {
            read(&mut dev);
        }
    });
    assert_eq!(allocations, 0, "{MEASURED_OPS} 4 KiB random reads");
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
