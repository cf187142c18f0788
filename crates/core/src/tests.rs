//! Behavioural tests of the full ConZone device.

use bytes::Bytes;
use conzone_types::{
    Counters, DeviceConfig, DeviceError, FaultConfig, Geometry, IoRequest, Lpn, LpnRange,
    MapGranularity, SearchStrategy, SimTime, StorageDevice, ZoneId, ZoneState, ZonedDevice,
    SLICE_BYTES,
};

use crate::ConZone;

fn dev() -> ConZone {
    ConZone::new(DeviceConfig::tiny_for_tests())
}

fn dev_with(
    f: impl FnOnce(conzone_types::DeviceConfigBuilder) -> conzone_types::DeviceConfigBuilder,
) -> ConZone {
    let b = DeviceConfig::builder(Geometry::tiny())
        .chunk_bytes(256 * 1024)
        .data_backing(true);
    ConZone::new(f(b).build().expect("test config"))
}

/// A geometry whose superblocks are 384 KiB (not a power of two after
/// padding? 384 KiB → 512 KiB zones with a 128 KiB SLC patch).
fn non_pow2_config() -> DeviceConfig {
    let g = Geometry {
        channels: 1,
        chips_per_channel: 2,
        blocks_per_chip: 10,
        slc_blocks_per_chip: 4,
        pages_per_block: 12,
        page_bytes: 16 * 1024,
        program_unit_bytes: 64 * 1024,
        planes_per_chip: 1,
    };
    DeviceConfig::builder(g)
        .chunk_bytes(128 * 1024)
        .data_backing(true)
        .build()
        .expect("non-pow2 config valid")
}

fn pattern(len: usize, seed: u8) -> Bytes {
    Bytes::from(
        (0..len)
            .map(|i| (i as u8).wrapping_mul(31).wrapping_add(seed))
            .collect::<Vec<u8>>(),
    )
}

fn write_at(dev: &mut ConZone, t: SimTime, offset: u64, data: Bytes) -> SimTime {
    dev.submit(t, &IoRequest::write_data(offset, data))
        .expect("write ok")
        .finished
}

fn read_at(dev: &mut ConZone, t: SimTime, offset: u64, len: u64) -> (SimTime, Bytes) {
    let c = dev
        .submit(t, &IoRequest::read(offset, len))
        .expect("read ok");
    (c.finished, c.data.expect("data backing enabled"))
}

#[test]
fn sequential_write_read_roundtrip() {
    let mut d = dev();
    let data = pattern(256 * 1024, 7);
    let t = write_at(&mut d, SimTime::ZERO, 0, data.clone());
    let (_, back) = read_at(&mut d, t, 0, 256 * 1024);
    assert_eq!(back, data);
}

#[test]
fn write_pointer_advances_and_enforces() {
    let mut d = dev();
    let t = write_at(&mut d, SimTime::ZERO, 0, pattern(8192, 1));
    assert_eq!(d.zone_info(ZoneId(0)).unwrap().write_pointer, 8192);
    // Writing anywhere but the write pointer fails.
    let err = d
        .submit(t, &IoRequest::write_data(64 * 1024, pattern(4096, 2)))
        .unwrap_err();
    assert!(matches!(err, DeviceError::NotWritePointer { .. }));
    // Writing at the pointer succeeds.
    d.submit(t, &IoRequest::write_data(8192, pattern(4096, 3)))
        .unwrap();
}

#[test]
fn zone_boundary_write_rejected() {
    let mut d = dev();
    let zone_size = d.zone_size();
    // Fill the zone to one slice short of the end, then write two slices.
    let mut t = SimTime::ZERO;
    t = write_at(&mut d, t, 0, pattern((zone_size - SLICE_BYTES) as usize, 4));
    let err = d
        .submit(
            t,
            &IoRequest::write_data(zone_size - SLICE_BYTES, pattern(8192, 5)),
        )
        .unwrap_err();
    assert!(matches!(err, DeviceError::ZoneBoundary { .. }));
}

#[test]
fn filling_a_zone_seals_it() {
    let mut d = dev();
    let zone_size = d.zone_size();
    let data = pattern(zone_size as usize, 6);
    let t = write_at(&mut d, SimTime::ZERO, 0, data.clone());
    let info = d.zone_info(ZoneId(0)).unwrap();
    assert_eq!(info.state, ZoneState::Full);
    let err = d
        .submit(t, &IoRequest::write_data(0, pattern(4096, 7)))
        .unwrap_err();
    assert!(matches!(err, DeviceError::ZoneFull { .. }));
    // Whole-zone read back.
    let (_, back) = read_at(&mut d, t, 0, zone_size);
    assert_eq!(back, data);
}

#[test]
fn full_zone_write_is_pure_tlc_waf_one() {
    let mut d = dev();
    let zone_size = d.zone_size();
    write_at(&mut d, SimTime::ZERO, 0, pattern(zone_size as usize, 8));
    let c = d.counters();
    assert_eq!(c.flash_program_bytes_tlc, zone_size);
    assert_eq!(c.flash_program_bytes_slc, 0, "no premature flushes");
    assert_eq!(c.premature_flushes, 0);
    assert!((c.write_amplification() - 1.0).abs() < 1e-9);
}

#[test]
fn buffer_conflict_goes_through_slc() {
    // Two zones sharing buffer 0 (tiny config has 2 buffers; zones 0 and 2).
    let mut d = dev();
    let mut t = SimTime::ZERO;
    // 48 KiB each, alternating: every switch evicts a sub-unit remainder.
    for round in 0..4u64 {
        for &zone in &[0u64, 2] {
            let offset = zone * d.zone_size() + round * 48 * 1024;
            t = write_at(&mut d, t, offset, pattern(48 * 1024, zone as u8));
        }
    }
    let c = d.counters();
    assert!(c.buffer_conflicts > 0, "conflicts detected");
    assert!(c.premature_flushes > 0, "premature flushes happened");
    assert!(c.flash_program_bytes_slc > 0, "SLC absorbed the remainders");
    assert!(c.slc_combines > 0, "staged data was combined back");
    assert!(c.write_amplification() > 1.0);
    // Data integrity across the staged/combined path.
    let z2 = 2 * d.zone_size();
    let (_, back) = read_at(&mut d, t, z2, 48 * 1024);
    assert_eq!(back, pattern(48 * 1024, 2));
}

#[test]
fn no_conflict_when_zones_use_different_buffers() {
    let mut d = dev();
    let mut t = SimTime::ZERO;
    for round in 0..4u64 {
        for &zone in &[0u64, 1] {
            let offset = zone * d.zone_size() + round * 48 * 1024;
            t = write_at(&mut d, t, offset, pattern(48 * 1024, zone as u8));
        }
    }
    let c = d.counters();
    assert_eq!(c.buffer_conflicts, 0);
    assert_eq!(c.premature_flushes, 0);
    assert_eq!(c.flash_program_bytes_slc, 0);
}

#[test]
fn read_served_from_buffer_before_flush() {
    let mut d = dev();
    // 8 KiB buffered (less than the 64 KiB unit): nothing flushed yet.
    let data = pattern(8192, 9);
    let t = write_at(&mut d, SimTime::ZERO, 0, data.clone());
    let before = d.counters();
    assert_eq!(before.flash_program_bytes(), 0, "still buffered");
    let (_, back) = read_at(&mut d, t, 0, 8192);
    assert_eq!(back, data);
    let after = d.counters();
    assert_eq!(
        after.flash_data_reads, before.flash_data_reads,
        "no flash read"
    );
    assert_eq!(after.l2p_misses, 0, "buffer hits bypass the L2P path");
}

#[test]
fn zone_aggregation_after_fill() {
    let mut d = dev();
    let zone_size = d.zone_size();
    let t = write_at(&mut d, SimTime::ZERO, 0, pattern(zone_size as usize, 10));
    // The whole zone is canonical: entries aggregate to zone granularity.
    let lpn = conzone_types::Lpn(5);
    assert_eq!(d.table.granularity_of(lpn), Some(MapGranularity::Zone));
    // A read miss inserts one zone-level entry; subsequent reads hit it.
    let (t2, _) = read_at(&mut d, t, 0, 4096);
    let (_, _) = read_at(&mut d, t2, 123 * 4096, 4096);
    let c = d.counters();
    assert_eq!(c.l2p_misses, 1);
    assert_eq!(c.l2p_hits_zone, 1);
}

#[test]
fn aggregation_capped_by_config() {
    let mut d = dev_with(|b| b.max_aggregation(MapGranularity::Chunk));
    let zone_size = d.zone_size();
    write_at(&mut d, SimTime::ZERO, 0, pattern(zone_size as usize, 11));
    assert_eq!(
        d.table.granularity_of(conzone_types::Lpn(0)),
        Some(MapGranularity::Chunk)
    );

    let mut d = dev_with(|b| b.max_aggregation(MapGranularity::Page));
    let zone_size = d.zone_size();
    write_at(&mut d, SimTime::ZERO, 0, pattern(zone_size as usize, 12));
    assert_eq!(
        d.table.granularity_of(conzone_types::Lpn(0)),
        Some(MapGranularity::Page)
    );
}

#[test]
fn multiple_strategy_pays_extra_mapping_fetches() {
    // Page-mapped data (max_aggregation = Page) with a tiny cache forces
    // misses; Multiple needs 3 fetches per miss, Bitmap needs 1.
    let run = |strategy: SearchStrategy| -> (u64, u64) {
        let mut d = dev_with(|b| {
            b.search_strategy(strategy)
                .max_aggregation(MapGranularity::Page)
                .l2p_cache_bytes(16) // 4 entries
        });
        let zone_size = d.zone_size();
        let mut t = write_at(&mut d, SimTime::ZERO, 0, pattern(zone_size as usize, 13));
        // Scattered reads across the zone → misses.
        for i in 0..32u64 {
            let off = (i * 37) % (zone_size / SLICE_BYTES);
            let (t2, _) = read_at(&mut d, t, off * SLICE_BYTES, SLICE_BYTES);
            t = t2;
        }
        let c = d.counters();
        (c.l2p_misses, c.flash_mapping_reads)
    };
    let (m_b, f_b) = run(SearchStrategy::Bitmap);
    let (m_m, f_m) = run(SearchStrategy::Multiple);
    assert_eq!(m_b, m_m, "same miss pattern");
    assert_eq!(f_b, m_b, "bitmap: one fetch per miss");
    assert_eq!(f_m, 3 * m_m, "multiple: three fetches per page-mapped miss");
}

#[test]
fn pinned_strategy_keeps_aggregates_resident() {
    let mut d = dev_with(|b| {
        b.search_strategy(SearchStrategy::Pinned)
            .l2p_cache_bytes(16) // 4 entries
    });
    let zone_size = d.zone_size();
    let mut t = write_at(&mut d, SimTime::ZERO, 0, pattern(zone_size as usize, 14));
    // Zone aggregate was pinned at generation; every read hits it even
    // after unrelated churn.
    for i in 0..20u64 {
        let (t2, _) = read_at(&mut d, t, (i % 200) * SLICE_BYTES, SLICE_BYTES);
        t = t2;
    }
    let c = d.counters();
    assert_eq!(c.l2p_misses, 0, "pinned zone entry absorbs every lookup");
    assert_eq!(c.l2p_hits_zone, 20);
}

#[test]
fn zone_reset_erases_and_allows_rewrite() {
    let mut d = dev();
    let zone_size = d.zone_size();
    let t = write_at(&mut d, SimTime::ZERO, 0, pattern(zone_size as usize, 15));
    let before = d.counters();
    let c = d.reset_zone(t, ZoneId(0)).unwrap();
    assert!(c.finished > t, "erase takes time");
    let after = d.counters();
    assert_eq!(after.zone_resets, 1);
    assert!(after.erases_normal > before.erases_normal);
    assert_eq!(d.zone_info(ZoneId(0)).unwrap().state, ZoneState::Empty);
    // Reads of reset data fail; rewrite succeeds.
    assert!(matches!(
        d.submit(c.finished, &IoRequest::read(0, 4096)),
        Err(DeviceError::UnwrittenRead { .. })
    ));
    let data = pattern(zone_size as usize, 16);
    let t = write_at(&mut d, c.finished, 0, data.clone());
    let (_, back) = read_at(&mut d, t, 0, zone_size);
    assert_eq!(back, data);
}

#[test]
fn reset_zone_with_staged_slc_data() {
    let mut d = dev();
    let mut t = SimTime::ZERO;
    // Conflict to stage zone 0 data in SLC.
    t = write_at(&mut d, t, 0, pattern(8192, 17));
    let z2 = 2 * d.zone_size();
    t = write_at(&mut d, t, z2, pattern(8192, 18));
    assert!(d.counters().flash_program_bytes_slc > 0);
    let c = d.reset_zone(t, ZoneId(0)).unwrap();
    // Zone 0's staged slices were invalidated; zone 2's survive.
    let t = c.finished;
    let (_, back) = read_at(&mut d, t, z2, 8192);
    assert_eq!(back, pattern(8192, 18));
    assert!(matches!(
        d.submit(t, &IoRequest::read(0, 4096)),
        Err(DeviceError::UnwrittenRead { .. })
    ));
}

#[test]
fn open_zone_limit_enforced() {
    let mut d = dev_with(|b| b.max_open_zones(2));
    let mut t = SimTime::ZERO;
    t = write_at(&mut d, t, 0, pattern(4096, 1));
    let z1 = d.zone_size();
    t = write_at(&mut d, t, z1, pattern(4096, 2));
    let z2 = 2 * d.zone_size();
    let err = d
        .submit(t, &IoRequest::write_data(z2, pattern(4096, 3)))
        .unwrap_err();
    assert!(matches!(err, DeviceError::TooManyOpenZones { limit: 2 }));
    // Filling one zone frees a slot.
    let zone_size = d.zone_size();
    t = write_at(&mut d, t, 4096, pattern((zone_size - 4096) as usize, 4));
    d.submit(t, &IoRequest::write_data(2 * zone_size, pattern(4096, 5)))
        .unwrap();
}

#[test]
fn slc_gc_reclaims_space() {
    // Tiny SLC region + relentless conflicts → GC must run. Each
    // fill/reset cycle pushes ~2 MiB through the 4 MiB SLC region, so a
    // few cycles exhaust the free list.
    let mut d = dev();
    let mut t = SimTime::ZERO;
    let zone_size = d.zone_size();
    for cycle in 0..4u64 {
        // Alternate 4 KiB writes between zones 0 and 2 (same buffer):
        // every switch premature-flushes one slice into SLC.
        for off in (0..zone_size).step_by(4096) {
            for &zone in &[0u64, 2] {
                let offset = zone * zone_size + off;
                t = write_at(&mut d, t, offset, pattern(4096, (zone + cycle) as u8));
            }
        }
        // Spot-check integrity while everything is live.
        let (t2, back) = read_at(&mut d, t, 64 * 1024, 64 * 1024);
        assert_eq!(back, pattern(64 * 1024, cycle as u8), "cycle {cycle}");
        t = t2;
        for &zone in &[0u64, 2] {
            t = d.reset_zone(t, ZoneId(zone)).unwrap().finished;
        }
    }
    let c = d.counters();
    assert!(c.premature_flushes > 100);
    assert!(c.gc_runs > 0, "SLC GC ran: {c:?}");
    assert!(c.erases_slc > 0);
}

#[test]
fn non_pow2_zone_uses_slc_patch() {
    let cfg = non_pow2_config();
    assert_eq!(cfg.zone_backing_bytes(), 384 * 1024);
    assert_eq!(cfg.zone_size_bytes(), 512 * 1024);
    assert_eq!(cfg.zone_patch_slices(), 32);
    let mut d = ConZone::new(cfg);
    let zone_size = d.zone_size();
    let data = pattern(zone_size as usize, 19);
    let t = write_at(&mut d, SimTime::ZERO, 0, data.clone());
    let c = d.counters();
    assert_eq!(c.patch_slices, 32, "zone tail patched into SLC");
    // Patch pages are reserved: the zone still aggregates fully.
    assert_eq!(
        d.table.granularity_of(conzone_types::Lpn(0)),
        Some(MapGranularity::Zone)
    );
    assert_eq!(
        d.table
            .granularity_of(conzone_types::Lpn(zone_size / SLICE_BYTES - 1)),
        Some(MapGranularity::Zone)
    );
    let (_, back) = read_at(&mut d, t, 0, zone_size);
    assert_eq!(back, data);
}

/// A host flush inside the zone-tail patch leaves the durable prefix in
/// the middle of a programming unit; the next write continues the patch
/// from there. (The debug profile used to trip over "staged run starts
/// unit-aligned" here, which only holds below the backing boundary.)
#[test]
fn flush_inside_the_tail_patch_then_finish_the_zone() {
    let mut d = ConZone::new(non_pow2_config());
    let zone_size = d.zone_size();
    let data = pattern(zone_size as usize, 23);
    let cut = (96 + 27) * SLICE_BYTES as usize; // backing is 96 slices
    let t = write_at(&mut d, SimTime::ZERO, 0, Bytes::from(data[..cut].to_vec()));
    let t = d.flush(t).expect("flush mid-patch").finished;
    let t = write_at(&mut d, t, cut as u64, Bytes::from(data[cut..].to_vec()));
    assert_eq!(d.counters().patch_slices, 32);
    assert_eq!(d.check_invariants(), vec![]);
    let (_, back) = read_at(&mut d, t, 0, zone_size);
    assert_eq!(back, data);
}

#[test]
fn determinism_same_seed_same_times() {
    let run = || -> (SimTime, Counters) {
        let mut d = dev();
        let mut t = SimTime::ZERO;
        for round in 0..3u64 {
            for &zone in &[0u64, 2] {
                let offset = zone * d.zone_size() + round * 48 * 1024;
                t = write_at(&mut d, t, offset, pattern(48 * 1024, zone as u8));
            }
        }
        let (t2, _) = read_at(&mut d, t, 0, 48 * 1024);
        (t2, d.counters())
    };
    let (t1, c1) = run();
    let (t2, c2) = run();
    assert_eq!(t1, t2);
    assert_eq!(c1, c2);
}

#[test]
fn validation_errors_surface() {
    let mut d = dev();
    assert!(matches!(
        d.submit(SimTime::ZERO, &IoRequest::read(1, 4096)),
        Err(DeviceError::Unaligned { .. })
    ));
    let cap = d.capacity_bytes();
    assert!(matches!(
        d.submit(SimTime::ZERO, &IoRequest::read(cap, 4096)),
        Err(DeviceError::OutOfRange { .. })
    ));
    assert!(matches!(
        d.reset_zone(SimTime::ZERO, ZoneId(9999)),
        Err(DeviceError::OutOfRange { .. })
    ));
}

#[test]
fn counters_track_host_traffic() {
    let mut d = dev();
    let t = write_at(&mut d, SimTime::ZERO, 0, pattern(128 * 1024, 20));
    read_at(&mut d, t, 0, 64 * 1024);
    let c = d.counters();
    assert_eq!(c.host_write_bytes, 128 * 1024);
    assert_eq!(c.host_read_bytes, 64 * 1024);
    assert_eq!(c.host_write_ops, 1);
    assert_eq!(c.host_read_ops, 1);
}

#[test]
fn timing_write_buffered_is_fast_flush_is_slow() {
    let mut d = dev();
    // A sub-unit write only costs host overhead (lands in the buffer).
    let c1 = d
        .submit(SimTime::ZERO, &IoRequest::write_data(0, pattern(4096, 21)))
        .unwrap();
    assert_eq!(c1.latency(), d.config().host_overhead);
    // A superpage-filling write waits for the flush *transfers* (the
    // buffer frees once data reaches the chip registers; tPROG runs in
    // the background).
    let sp = d.config().geometry.superpage_bytes();
    let rest = sp - 4096;
    let c2 = d
        .submit(
            c1.finished,
            &IoRequest::write_data(4096, pattern(rest as usize, 22)),
        )
        .unwrap();
    assert!(c2.latency() > c1.latency(), "flush adds transfer time");
    assert!(
        c2.latency() < d.config().timings.tlc.program,
        "first flush does not wait for tPROG: {}",
        c2.latency()
    );
    // An immediate second superpage queues its transfers behind the
    // still-programming chips, so it does absorb the program latency.
    let c3 = d
        .submit(
            c2.finished,
            &IoRequest::write_data(sp, pattern(sp as usize, 23)),
        )
        .unwrap();
    assert!(
        c3.latency() >= d.config().timings.tlc.program / 2,
        "back-to-back flush queues behind tPROG: {}",
        c3.latency()
    );
}

#[test]
fn read_latency_includes_media_and_mapping() {
    let mut d = dev();
    let zone_size = d.zone_size();
    let t = write_at(&mut d, SimTime::ZERO, 0, pattern(zone_size as usize, 23));
    // First read misses: mapping fetch (SLC media read) + TLC data read.
    let c = d.submit(t, &IoRequest::read(0, 4096)).unwrap();
    let miss_latency = c.latency();
    let floor = d.config().timings.slc.read + d.config().timings.tlc.read;
    assert!(miss_latency >= floor, "{miss_latency} >= {floor}");
    // Second read hits: only the TLC data read remains.
    let c2 = d.submit(c.finished, &IoRequest::read(4096, 4096)).unwrap();
    assert!(c2.latency() < miss_latency);
    assert!(c2.latency() >= d.config().timings.tlc.read);
}

#[test]
fn conventional_zone_in_place_updates() {
    let mut d = dev_with(|b| b.conventional_zones(1));
    let mut t = SimTime::ZERO;
    // Write, overwrite, and sparse-write within the conventional zone.
    t = write_at(&mut d, t, 0, pattern(16 * 1024, 30));
    t = write_at(&mut d, t, 0, pattern(16 * 1024, 31)); // in-place update!
    t = write_at(&mut d, t, 512 * 1024, pattern(4096, 32)); // sparse
    let (t2, back) = read_at(&mut d, t, 0, 16 * 1024);
    assert_eq!(back, pattern(16 * 1024, 31), "latest version wins");
    let (t3, back) = read_at(&mut d, t2, 512 * 1024, 4096);
    assert_eq!(back, pattern(4096, 32));
    // Reads of the unwritten hole fail cleanly.
    assert!(matches!(
        d.submit(t3, &IoRequest::read(256 * 1024, 4096)),
        Err(DeviceError::UnwrittenRead { .. })
    ));
    let c = d.counters();
    assert_eq!(c.conventional_updates, 4 + 4 + 1);
    assert!(
        c.flash_program_bytes_slc > 0,
        "conventional data lives in SLC"
    );
    // Sequential zones still enforce the write pointer.
    let z1 = d.zone_size();
    assert!(matches!(
        d.submit(t3, &IoRequest::write_data(z1 + 4096, pattern(4096, 33))),
        Err(DeviceError::NotWritePointer { .. })
    ));
    d.submit(t3, &IoRequest::write_data(z1, pattern(4096, 34)))
        .unwrap();
}

#[test]
fn conventional_zones_exempt_from_open_limit() {
    let mut d = dev_with(|b| b.conventional_zones(1).max_open_zones(2));
    let mut t = SimTime::ZERO;
    let zs = d.zone_size();
    // Conventional zone 0 plus two sequential zones: fine.
    t = write_at(&mut d, t, 0, pattern(4096, 1));
    t = write_at(&mut d, t, zs, pattern(4096, 2));
    t = write_at(&mut d, t, 2 * zs, pattern(4096, 3));
    // A third sequential zone exceeds the limit.
    let z3 = 3 * zs;
    assert!(matches!(
        d.submit(t, &IoRequest::write_data(z3, pattern(4096, 4))),
        Err(DeviceError::TooManyOpenZones { .. })
    ));
}

#[test]
fn conventional_zone_reset_clears_mappings() {
    let mut d = dev_with(|b| b.conventional_zones(1));
    let t = write_at(&mut d, SimTime::ZERO, 0, pattern(64 * 1024, 35));
    let c = d.reset_zone(t, ZoneId(0)).unwrap();
    assert!(matches!(
        d.submit(c.finished, &IoRequest::read(0, 4096)),
        Err(DeviceError::UnwrittenRead { .. })
    ));
    // Rewritable afterwards.
    write_at(&mut d, c.finished, 0, pattern(4096, 36));
}

#[test]
fn conventional_data_survives_slc_gc() {
    // Small SLC region + conventional churn forces GC to migrate live
    // conventional data.
    let mut d = dev_with(|b| b.conventional_zones(1));
    let mut t = SimTime::ZERO;
    // Overwrite a 256 KiB working set many times: SLC fills with stale
    // versions and GC must reclaim around the live ones.
    for round in 0..40u8 {
        for off in (0..256 * 1024u64).step_by(64 * 1024) {
            t = write_at(
                &mut d,
                t,
                off,
                pattern(64 * 1024, round.wrapping_add(off as u8)),
            );
        }
    }
    let c = d.counters();
    assert!(c.gc_runs > 0, "SLC GC ran: {c:?}");
    // The last round's data is intact.
    for off in (0..256 * 1024u64).step_by(64 * 1024) {
        let (t2, back) = read_at(&mut d, t, off, 64 * 1024);
        t = t2;
        assert_eq!(
            back,
            pattern(64 * 1024, 39u8.wrapping_add(off as u8)),
            "offset {off}"
        );
    }
}

#[test]
fn l2p_log_flushes_block_and_count() {
    // Threshold of one superpage's worth of updates: every flush of the
    // write buffer also persists the log.
    let sp_slices = Geometry::tiny().superpage_bytes() / SLICE_BYTES;
    let mut with_log = dev_with(|b| b.l2p_log_entries(sp_slices));
    let mut without = dev_with(|b| b);
    let zone = with_log.zone_size();
    let data = pattern(zone as usize, 40);
    let t_with = write_at(&mut with_log, SimTime::ZERO, 0, data.clone());
    let t_without = write_at(&mut without, SimTime::ZERO, 0, data);
    let c = with_log.counters();
    assert!(c.l2p_log_flushes >= zone / Geometry::tiny().superpage_bytes());
    assert_eq!(without.counters().l2p_log_flushes, 0);
    assert!(
        t_with > t_without,
        "log persistence costs time: {t_with} vs {t_without}"
    );
}

#[test]
fn wear_report_tracks_erases() {
    let mut d = dev();
    let zone = d.zone_size();
    let mut t = SimTime::ZERO;
    let fresh = d.wear_report();
    assert_eq!(fresh.normal.max_erases, 0);
    assert!(fresh.projected_lifetime_host_bytes().is_none());
    for _ in 0..3 {
        t = write_at(&mut d, t, 0, pattern(zone as usize, 41));
        t = d.reset_zone(t, ZoneId(0)).unwrap().finished;
    }
    let worn = d.wear_report();
    assert_eq!(worn.normal.max_erases, 3);
    assert!(worn.normal.mean_erases > 0.0);
    assert_eq!(worn.host_bytes_written, 3 * zone);
    let projected = worn.projected_lifetime_host_bytes().unwrap();
    assert!(projected > worn.host_bytes_written as f64);
}

#[test]
fn explicit_zone_lifecycle() {
    let mut d = dev();
    let mut t = SimTime::ZERO;
    // Explicit open reserves a slot before any write.
    t = d.open_zone(t, ZoneId(0)).unwrap().finished;
    assert_eq!(d.zone_info(ZoneId(0)).unwrap().state, ZoneState::Open);
    // Write 8 KiB (sub-unit: stays buffered), then close: the buffer is
    // drained prematurely into SLC and the slot is released.
    t = write_at(&mut d, t, 0, pattern(8192, 50));
    let before = d.counters();
    t = d.close_zone(t, ZoneId(0)).unwrap().finished;
    assert_eq!(d.zone_info(ZoneId(0)).unwrap().state, ZoneState::Closed);
    let after = d.counters();
    assert_eq!(after.premature_flushes, before.premature_flushes + 1);
    assert!(after.flash_program_bytes_slc > before.flash_program_bytes_slc);
    // Closed data remains readable, and the write pointer is preserved.
    let (t2, back) = read_at(&mut d, t, 0, 8192);
    assert_eq!(back, pattern(8192, 50));
    assert_eq!(d.zone_info(ZoneId(0)).unwrap().write_pointer, 8192);
    // A write at the pointer reopens the zone implicitly.
    t = write_at(&mut d, t2, 8192, pattern(4096, 51));
    assert_eq!(d.zone_info(ZoneId(0)).unwrap().state, ZoneState::Open);
    // Closing a non-open zone fails.
    assert!(matches!(
        d.close_zone(t, ZoneId(5)),
        Err(DeviceError::ZoneNotWritable { .. })
    ));
}

#[test]
fn finish_zone_seals_without_writing() {
    let mut d = dev();
    let mut t = SimTime::ZERO;
    t = write_at(&mut d, t, 0, pattern(64 * 1024, 52));
    t = d.finish_zone(t, ZoneId(0)).unwrap().finished;
    assert_eq!(d.zone_info(ZoneId(0)).unwrap().state, ZoneState::Full);
    // Writes rejected, written prefix readable, tail unwritten.
    assert!(matches!(
        d.submit(t, &IoRequest::write_data(64 * 1024, pattern(4096, 53))),
        Err(DeviceError::ZoneFull { .. })
    ));
    let (t2, back) = read_at(&mut d, t, 0, 64 * 1024);
    assert_eq!(back, pattern(64 * 1024, 52));
    assert!(matches!(
        d.submit(t2, &IoRequest::read(128 * 1024, 4096)),
        Err(DeviceError::UnwrittenRead { .. })
    ));
    // Finishing again is a no-op; finishing an empty zone seals it too.
    d.finish_zone(t2, ZoneId(0)).unwrap();
    d.finish_zone(t2, ZoneId(3)).unwrap();
    assert_eq!(d.zone_info(ZoneId(3)).unwrap().state, ZoneState::Full);
}

#[test]
fn close_releases_open_slot() {
    let mut d = dev_with(|b| b.max_open_zones(2));
    let mut t = SimTime::ZERO;
    t = write_at(&mut d, t, 0, pattern(4096, 54));
    let zs = d.zone_size();
    t = write_at(&mut d, t, zs, pattern(4096, 55));
    // Limit reached; closing zone 0 frees a slot for zone 2.
    assert!(matches!(
        d.submit(t, &IoRequest::write_data(2 * zs, pattern(4096, 56))),
        Err(DeviceError::TooManyOpenZones { .. })
    ));
    t = d.close_zone(t, ZoneId(0)).unwrap().finished;
    t = write_at(&mut d, t, 2 * zs, pattern(4096, 57));
    // And explicit open of a fourth zone now fails again.
    assert!(matches!(
        d.open_zone(t, ZoneId(3)),
        Err(DeviceError::TooManyOpenZones { .. })
    ));
}

#[test]
fn slc_gc_prefers_less_worn_victims_on_ties() {
    // Drive many GC cycles; with the erase-count tie-break the SLC wear
    // spread (max - min erase count) stays tight.
    let mut d = dev();
    let mut t = SimTime::ZERO;
    let zone_size = d.zone_size();
    for cycle in 0..6u64 {
        for off in (0..zone_size / 2).step_by(4096) {
            for &zone in &[0u64, 2] {
                let offset = zone * zone_size + off;
                t = write_at(&mut d, t, offset, pattern(4096, (zone + cycle) as u8));
            }
        }
        for &zone in &[0u64, 2] {
            t = d.reset_zone(t, ZoneId(zone)).unwrap().finished;
        }
    }
    let wear = d.wear_report();
    assert!(wear.slc.max_erases > 0, "GC erased SLC blocks");
    // Tight spread: the mean is within one erase of the max.
    assert!(
        wear.slc.max_erases as f64 - wear.slc.mean_erases <= 2.0,
        "wear spread too wide: max {} mean {:.2}",
        wear.slc.max_erases,
        wear.slc.mean_erases
    );
}

#[test]
fn zone_append_assigns_offsets() {
    let mut d = dev();
    let zs = d.zone_size();
    let mut t = SimTime::ZERO;
    // Two uncoordinated appends to the same zone land back to back.
    let c1 = d
        .submit(t, &IoRequest::append_data(0, pattern(8192, 60)))
        .unwrap();
    assert_eq!(c1.assigned_offset, Some(0));
    t = c1.finished;
    let c2 = d
        .submit(t, &IoRequest::append_data(0, pattern(4096, 61)))
        .unwrap();
    assert_eq!(c2.assigned_offset, Some(8192));
    t = c2.finished;
    // Appends addressed anywhere inside the zone target its pointer.
    let c3 = d
        .submit(t, &IoRequest::append_data(zs / 2, pattern(4096, 62)))
        .unwrap();
    assert_eq!(c3.assigned_offset, Some(12288));
    t = c3.finished;
    // Data readable at the assigned locations.
    let (t2, back) = read_at(&mut d, t, 8192, 4096);
    assert_eq!(back, pattern(4096, 61));
    // Appends and regular wp-writes interleave consistently.
    let c4 = d
        .submit(t2, &IoRequest::write_data(16384, pattern(4096, 63)))
        .unwrap();
    assert!(c4.assigned_offset.is_none());
    // Appends to conventional zones are rejected.
    let mut d = dev_with(|b| b.conventional_zones(1));
    assert!(matches!(
        d.submit(SimTime::ZERO, &IoRequest::append(0, 4096)),
        Err(DeviceError::Unsupported(_))
    ));
}

#[test]
fn zone_append_respects_capacity() {
    let mut d = dev();
    let zs = d.zone_size();
    let t = write_at(&mut d, SimTime::ZERO, 0, pattern((zs - 4096) as usize, 64));
    let err = d.submit(t, &IoRequest::append(0, 8192)).unwrap_err();
    assert!(matches!(err, DeviceError::ZoneBoundary { .. }));
    let c = d.submit(t, &IoRequest::append(0, 4096)).unwrap();
    assert_eq!(c.assigned_offset, Some(zs - 4096));
    assert_eq!(d.zone_info(ZoneId(0)).unwrap().state, ZoneState::Full);
}

#[test]
fn time_breakdown_attributes_activity() {
    let mut d = dev();
    let zone_size = d.zone_size();
    // Pure sequential fill: write-path time only.
    let t = write_at(&mut d, SimTime::ZERO, 0, pattern(zone_size as usize, 70));
    let b = d.time_breakdown();
    assert!(b.write_path > conzone_types::SimDuration::ZERO);
    assert_eq!(b.mapping_fetch, conzone_types::SimDuration::ZERO);
    assert_eq!(b.data_read, conzone_types::SimDuration::ZERO);

    // Reads add mapping + data-read time.
    let (_t2, _) = read_at(&mut d, t, 0, 4096);
    let b = d.time_breakdown();
    assert!(
        b.mapping_fetch > conzone_types::SimDuration::ZERO,
        "miss fetched"
    );
    assert!(b.data_read > conzone_types::SimDuration::ZERO);

    // A conflict workload adds combine-read time (fresh device: zone 0
    // above is already full).
    let mut d = dev();
    let mut t = SimTime::ZERO;
    for round in 0..4u64 {
        for &z in &[0u64, 2] {
            let offset = z * zone_size + round * 48 * 1024;
            t = write_at(&mut d, t, offset, pattern(48 * 1024, z as u8));
        }
    }
    let b = d.time_breakdown();
    assert!(
        b.combine_read > conzone_types::SimDuration::ZERO,
        "combines read SLC"
    );
    // Exclusivity: write_path does not double-count the combine reads.
    assert!(b.total() >= b.write_path + b.combine_read);

    // Reset adds erase time.
    let c = d.reset_zone(t, ZoneId(0)).unwrap();
    let _ = c;
    let b = d.time_breakdown();
    assert!(b.erase > conzone_types::SimDuration::ZERO);
    let _ = t;
}

#[test]
fn reads_may_span_zones() {
    // Unlike writes, reads cross zone boundaries freely.
    let mut d = dev();
    let zs = d.zone_size();
    let mut t = SimTime::ZERO;
    t = write_at(&mut d, t, 0, pattern(zs as usize, 80));
    t = write_at(&mut d, t, zs, pattern(zs as usize, 81));
    let (_, back) = read_at(&mut d, t, zs - 8192, 16 * 1024);
    assert_eq!(
        &back[..8192],
        &pattern(zs as usize, 80)[(zs - 8192) as usize..]
    );
    assert_eq!(&back[8192..], &pattern(8192, 81)[..]);
}

#[test]
fn patch_region_reads_hit_slc_latency() {
    // Reads of the §III-E patch tail pay SLC latency, not TLC.
    let cfg = non_pow2_config();
    let backing = cfg.zone_backing_bytes();
    let mut d = ConZone::new(cfg);
    let zs = d.zone_size();
    let t = write_at(&mut d, SimTime::ZERO, 0, pattern(zs as usize, 82));
    // Warm the cache with one read so the mapping is resident.
    let (t, _) = read_at(&mut d, t, backing, 4096);
    let c = d.submit(t, &IoRequest::read(backing + 4096, 4096)).unwrap();
    let patch_latency = c.latency();
    let c2 = d.submit(c.finished, &IoRequest::read(0, 4096)).unwrap();
    let tlc_latency = c2.latency();
    assert!(
        patch_latency < tlc_latency,
        "SLC patch read {patch_latency} vs TLC {tlc_latency}"
    );
}

#[test]
fn pinned_strategy_cold_misses_fetch_once() {
    // Even before any aggregation entry exists, Pinned misses cost a
    // single fetch (page granularity).
    let mut d = dev_with(|b| {
        b.search_strategy(SearchStrategy::Pinned)
            .max_aggregation(MapGranularity::Page)
    });
    let t = write_at(&mut d, SimTime::ZERO, 0, pattern(256 * 1024, 83));
    let before = d.counters();
    read_at(&mut d, t, 0, 4096);
    let after = d.counters();
    assert_eq!(after.l2p_misses - before.l2p_misses, 1);
    assert_eq!(after.flash_mapping_reads - before.flash_mapping_reads, 1);
}

#[test]
fn l2p_log_disabled_never_flushes() {
    let mut d = dev();
    let zs = d.zone_size();
    write_at(&mut d, SimTime::ZERO, 0, pattern(zs as usize, 84));
    assert_eq!(d.counters().l2p_log_flushes, 0);
}

#[test]
fn power_cut_drops_buffer_and_remount_recovers_slc() {
    let mut d = dev();
    let zs = d.zone_size();
    let zss = zs / SLICE_BYTES;
    let mut t = SimTime::ZERO;
    // Stage zone 0's first two slices into SLC via a buffer conflict,
    // then leave two more slices volatile in the write buffer.
    t = write_at(&mut d, t, 0, pattern(8192, 90));
    t = write_at(&mut d, t, 2 * zs, pattern(8192, 91));
    t = write_at(&mut d, t, 8192, pattern(8192, 92));
    let in_flight = d.in_flight_slices();
    assert_eq!(in_flight, 4 + 2, "4 SLC slices + 2 buffered slices");

    let lost = d.power_cut(t).unwrap();
    assert_eq!(lost, 2, "only the buffered tail is volatile");
    // Everything is rejected until remount, including a second cut.
    assert!(matches!(
        d.submit(t, &IoRequest::read(0, 4096)),
        Err(DeviceError::Unsupported(_))
    ));
    assert!(matches!(
        d.submit(t, &IoRequest::write_data(16384, pattern(4096, 93))),
        Err(DeviceError::Unsupported(_))
    ));
    assert!(d.power_cut(t).is_err());

    let report = d.remount(t).unwrap();
    assert_eq!(report.cut_at, t);
    assert!(report.finished > t, "replay scan takes media time");
    assert_eq!(report.lost_slices, lost);
    assert_eq!(report.recovered_slices + report.lost_slices, in_flight);
    assert_eq!(report.lost, vec![LpnRange::new(Lpn(2), 2)]);
    assert_eq!(
        report.recovered,
        vec![LpnRange::new(Lpn(0), 2), LpnRange::new(Lpn(2 * zss), 2)]
    );
    assert_eq!(d.in_flight_slices(), report.recovered_slices);
    let c = d.counters();
    assert_eq!(c.lost_slices, 2);
    assert_eq!(c.recovered_slices, 4);

    // Open zones came back closed; recovered data is intact; the lost
    // range reads as unwritten because the write pointer rewound.
    assert_eq!(d.zone_info(ZoneId(0)).unwrap().state, ZoneState::Closed);
    assert_eq!(d.zone_info(ZoneId(0)).unwrap().write_pointer, 8192);
    let t = report.finished;
    let (t, back) = read_at(&mut d, t, 0, 8192);
    assert_eq!(back, pattern(8192, 90));
    let (t, back) = read_at(&mut d, t, 2 * zs, 8192);
    assert_eq!(back, pattern(8192, 91));
    assert!(matches!(
        d.submit(t, &IoRequest::read(8192, 4096)),
        Err(DeviceError::UnwrittenRead { .. })
    ));
    // The host may rewrite the lost range at the rewound pointer.
    let t = write_at(&mut d, t, 8192, pattern(8192, 94));
    let (_, back) = read_at(&mut d, t, 8192, 8192);
    assert_eq!(back, pattern(8192, 94));
    // A second remount without a cut is rejected.
    assert!(d.remount(t).is_err());
}

#[test]
fn power_cut_with_nothing_in_flight_loses_nothing() {
    let mut d = dev();
    let zs = d.zone_size();
    // A full zone write drains the buffer completely.
    let t = write_at(&mut d, SimTime::ZERO, 0, pattern(zs as usize, 95));
    assert_eq!(d.in_flight_slices(), 0);
    let lost = d.power_cut(t).unwrap();
    assert_eq!(lost, 0);
    let report = d.remount(t).unwrap();
    assert_eq!(report.lost_slices, 0);
    assert!(report.lost.is_empty());
    assert_eq!(d.zone_info(ZoneId(0)).unwrap().state, ZoneState::Full);
    let (_, back) = read_at(&mut d, report.finished, 0, zs);
    assert_eq!(back, pattern(zs as usize, 95));
}

#[test]
fn program_failures_divert_to_slc_and_data_survives() {
    let mut d = dev_with(|b| b.fault(FaultConfig::with_rates(0.2, 0.0, 0.0)));
    let zs = d.zone_size();
    let data = pattern(zs as usize, 96);
    let t = write_at(&mut d, SimTime::ZERO, 0, data.clone());
    let c = d.counters();
    assert!(c.program_failures > 0, "faults injected: {c:?}");
    assert!(
        c.flash_program_bytes_slc > 0,
        "failed units re-issued into SLC"
    );
    // Burned attempts program no durable bytes, so WAF stays at 1.0
    // until GC churns; it must never drop below it.
    assert!(c.write_amplification() >= 1.0);
    let (_, back) = read_at(&mut d, t, 0, zs);
    assert_eq!(back, data, "every acked byte readable despite failures");
}

#[test]
fn erase_failures_retire_blocks() {
    let mut d = dev_with(|b| b.fault(FaultConfig::with_rates(0.0, 1.0, 0.0)));
    let zs = d.zone_size();
    let mut t = write_at(&mut d, SimTime::ZERO, 0, pattern(zs as usize, 97));
    t = d.reset_zone(t, ZoneId(0)).unwrap().finished;
    let retired = d.counters().blocks_retired;
    assert!(retired > 0, "every erase fails and retires its block");
    assert_eq!(d.zone_info(ZoneId(0)).unwrap().state, ZoneState::Empty);
    // The zone's canonical blocks are gone: a rewritten superpage (which
    // forces a flush) diverts entirely into SLC.
    let sp = d.config().geometry.superpage_bytes() as usize;
    t = write_at(&mut d, t, 0, pattern(sp, 98));
    let c = d.counters();
    assert!(c.flash_program_bytes_slc >= sp as u64);
    let (_, back) = read_at(&mut d, t, 0, sp as u64);
    assert_eq!(back, pattern(sp, 98));
}

#[test]
fn read_retries_add_latency_and_count() {
    let run = |fault: FaultConfig| -> (SimTime, Counters) {
        let mut d = dev_with(|b| b.fault(fault));
        let sp = d.config().geometry.superpage_bytes();
        let t = write_at(&mut d, SimTime::ZERO, 0, pattern(sp as usize, 99));
        let (t, _) = read_at(&mut d, t, 0, sp);
        (t, d.counters())
    };
    let (t_clean, c_clean) = run(FaultConfig::default());
    let (t_retry, c_retry) = run(FaultConfig::with_rates(0.0, 0.0, 1.0));
    assert_eq!(c_clean.read_retries, 0);
    assert!(c_retry.read_retries > 0, "every sense retries");
    assert!(t_retry > t_clean, "retry steps cost time");
}

#[test]
fn fault_schedules_are_deterministic() {
    let run = || -> (SimTime, Counters) {
        let mut d = dev_with(|b| b.fault(FaultConfig::with_rates(0.1, 0.5, 0.3)));
        let zs = d.zone_size();
        let mut t = write_at(&mut d, SimTime::ZERO, 0, pattern(zs as usize, 100));
        let (t2, _) = read_at(&mut d, t, 0, 128 * 1024);
        t = d.reset_zone(t2, ZoneId(0)).unwrap().finished;
        t = write_at(&mut d, t, 0, pattern(128 * 1024, 101));
        (t, d.counters())
    };
    let (t1, c1) = run();
    let (t2, c2) = run();
    assert_eq!(t1, t2);
    assert_eq!(c1, c2);
    assert!(c1.program_failures > 0 || c1.blocks_retired > 0);
    assert!(c1.read_retries > 0);
}

/// A flush that runs out of SLC space part-way is refused whole: the
/// close that drained it leaves the zone open, the data stays readable in
/// its write buffer, nothing it placed stays mapped, and once a reset
/// frees space the same close goes through.
#[test]
fn a_flush_refused_for_space_keeps_its_data_in_the_buffer() {
    // Two SLC superblocks of 256 slices; each zone stages 40 slices.
    let g = Geometry {
        blocks_per_chip: 18,
        slc_blocks_per_chip: 2,
        program_unit_bytes: 256 * 1024,
        ..Geometry::tiny()
    };
    let cfg = DeviceConfig::builder(g)
        .chunk_bytes(256 * 1024)
        .data_backing(true);
    let mut dev = ConZone::new(cfg.build().expect("starved config"));
    let (len, mut t) = (40 * SLICE_BYTES, SimTime::ZERO);
    let mut close = |dev: &mut ConZone, z: u64| {
        t = write_at(dev, t, z * dev.zone_size(), pattern(len as usize, z as u8));
        dev.close_zone(t, ZoneId(z)).map(|c| t = c.finished)
    };
    let refused = (0..16).find_map(|z| close(&mut dev, z).err().map(|e| (z, e)));
    let (zone, e) = refused.expect("the SLC region runs out");
    assert!(matches!(e, DeviceError::NoFreeSpace { .. }), "{e}");
    let violations = dev.check_invariants();
    assert!(violations.is_empty(), "{violations:?}");
    let info = dev.zone_info(ZoneId(zone)).expect("zone");
    assert_eq!((info.state, info.write_pointer), (ZoneState::Open, len));
    let (offset, want) = (zone * dev.zone_size(), pattern(len as usize, zone as u8));
    let (t, data) = read_at(&mut dev, t, offset, len);
    assert_eq!(data, want);
    let t = dev.reset_zone(t, ZoneId(0)).expect("reset").finished;
    let closed = dev.close_zone(t, ZoneId(zone));
    let t = closed.expect("the reset freed space").finished;
    assert_eq!(read_at(&mut dev, t, offset, len).1, want);
    assert!(dev.check_invariants().is_empty());
}
