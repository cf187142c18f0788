//! Property-based integrity tests: arbitrary legal request sequences must
//! preserve data through buffering, SLC staging, combining, GC migration
//! and zone resets.

use bytes::Bytes;
use proptest::prelude::*;

use conzone::host::{power_cycle_and_verify, run_job_until, AccessPattern, FioJob};
use conzone::types::{
    DeviceConfig, FaultConfig, Geometry, IoRequest, SimDuration, SimTime, StorageDevice, ZoneId,
    ZonedDevice, SLICE_BYTES,
};
use conzone::{ConZone, LegacyDevice};

/// Deterministic slice payload for (op index, slice index).
fn slice_payload(tag: u64) -> Vec<u8> {
    let mut v = vec![0u8; SLICE_BYTES as usize];
    for (i, b) in v.iter_mut().enumerate() {
        *b = (tag as u8)
            .wrapping_mul(31)
            .wrapping_add((i as u8).wrapping_mul(7));
    }
    v
}

#[derive(Debug, Clone)]
enum ZonedOp {
    /// Append `nslices` to zone `zone_pick` (modulo available zones).
    Write { zone_pick: u8, nslices: u8 },
    /// Reset the picked zone.
    Reset { zone_pick: u8 },
}

fn zoned_ops() -> impl Strategy<Value = Vec<ZonedOp>> {
    prop::collection::vec(
        prop_oneof![
            4 => (any::<u8>(), 1u8..32).prop_map(|(zone_pick, nslices)| ZonedOp::Write {
                zone_pick,
                nslices,
            }),
            1 => any::<u8>().prop_map(|zone_pick| ZonedOp::Reset { zone_pick }),
        ],
        1..60,
    )
}

/// A tiny config with little SLC so GC gets exercised.
fn small_cfg() -> DeviceConfig {
    let g = Geometry {
        channels: 2,
        chips_per_channel: 2,
        blocks_per_chip: 10,
        slc_blocks_per_chip: 3,
        pages_per_block: 8,
        page_bytes: 16 * 1024,
        program_unit_bytes: 64 * 1024,
        planes_per_chip: 1,
    };
    DeviceConfig::builder(g)
        .chunk_bytes(128 * 1024)
        .data_backing(true)
        .max_open_zones(8)
        .build()
        .expect("small config")
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    /// Whatever legal zoned sequence runs, reading back every written
    /// slice returns exactly what was written.
    #[test]
    fn conzone_read_back_matches_model(ops in zoned_ops()) {
        let mut dev = ConZone::new(small_cfg());
        let zone_slices = dev.zone_size() / SLICE_BYTES;
        let nzones = dev.zone_count() as u64;
        // Reference model: zone → Vec<slice tag>.
        let mut model: Vec<Vec<u64>> = vec![Vec::new(); nzones as usize];
        let mut t = SimTime::ZERO;
        let mut tag = 0u64;

        for op in &ops {
            match *op {
                ZonedOp::Write { zone_pick, nslices } => {
                    let zone = zone_pick as u64 % nzones;
                    let wp = model[zone as usize].len() as u64;
                    let n = (nslices as u64).min(zone_slices - wp);
                    if n == 0 {
                        continue;
                    }
                    // Respect the open-zone budget: skip writes that would
                    // open a seventh zone.
                    let opening = wp == 0;
                    let open_now = (0..nzones)
                        .filter(|&z| {
                            let len = model[z as usize].len() as u64;
                            len > 0 && len < zone_slices
                        })
                        .count();
                    if opening && open_now >= dev.config().max_open_zones {
                        continue;
                    }
                    let mut payload = Vec::new();
                    for i in 0..n {
                        tag += 1;
                        model[zone as usize].push(tag);
                        let _ = i;
                        payload.extend_from_slice(&slice_payload(tag));
                    }
                    let offset = zone * zone_slices * SLICE_BYTES + wp * SLICE_BYTES;
                    let c = dev
                        .submit(t, &IoRequest::write_data(offset, Bytes::from(payload)))
                        .expect("legal write accepted");
                    t = c.finished;
                }
                ZonedOp::Reset { zone_pick } => {
                    let zone = zone_pick as u64 % nzones;
                    let c = dev.reset_zone(t, ZoneId(zone)).expect("reset ok");
                    t = c.finished;
                    model[zone as usize].clear();
                }
            }
        }

        // Verify every written slice, in randomized-enough order (zone
        // major is fine — each read is an independent path).
        for (z, tags) in model.iter().enumerate() {
            for (i, &tag) in tags.iter().enumerate() {
                let offset = z as u64 * zone_slices * SLICE_BYTES + i as u64 * SLICE_BYTES;
                let c = dev
                    .submit(t, &IoRequest::read(offset, SLICE_BYTES))
                    .expect("written slice readable");
                t = c.finished;
                let got = c.data.expect("backed");
                prop_assert_eq!(
                    got.as_ref(),
                    &slice_payload(tag)[..],
                    "zone {} slice {}", z, i
                );
            }
        }

        // Counter invariants. (Note: flash bytes may be *below* host bytes
        // when resets discard data that never left the volatile buffers.)
        let c = dev.counters();
        let executed_resets = ops
            .iter()
            .filter(|op| matches!(op, ZonedOp::Reset { .. }))
            .count() as u64;
        prop_assert_eq!(c.zone_resets, executed_resets);
        prop_assert!(c.l2p_miss_rate() <= 1.0);
        prop_assert!(c.host_write_bytes.is_multiple_of(SLICE_BYTES));
    }

    /// Legacy devices preserve the last write of every sector under random
    /// overwrites, including across GC.
    #[test]
    fn legacy_overwrites_keep_latest(
        writes in prop::collection::vec((0u64..64, 1u64..8), 1..80)
    ) {
        let mut dev = LegacyDevice::new(small_cfg());
        let total_slices = dev.capacity_bytes() / SLICE_BYTES;
        let mut model: std::collections::BTreeMap<u64, u64> = std::collections::BTreeMap::new();
        let mut t = SimTime::ZERO;
        let mut tag = 1000u64;

        for &(start, len) in &writes {
            let start = start % total_slices;
            let len = len.min(total_slices - start);
            if len == 0 {
                continue;
            }
            let mut payload = Vec::new();
            for s in start..start + len {
                tag += 1;
                model.insert(s, tag);
                payload.extend_from_slice(&slice_payload(tag));
            }
            let c = dev
                .submit(
                    t,
                    &IoRequest::write_data(start * SLICE_BYTES, Bytes::from(payload)),
                )
                .expect("legacy write");
            t = c.finished;
        }

        for (&slice, &tag) in &model {
            let c = dev
                .submit(t, &IoRequest::read(slice * SLICE_BYTES, SLICE_BYTES))
                .expect("read back");
            t = c.finished;
            let got = c.data.expect("backed");
            prop_assert_eq!(
                got.as_ref(),
                &slice_payload(tag)[..],
                "slice {}", slice
            );
        }
    }

    /// Simulated time never runs backwards, for any device and any legal
    /// sequential workload.
    #[test]
    fn completions_monotonic(nops in 1usize..64, bs_slices in 1u64..16) {
        let mut dev = ConZone::new(small_cfg());
        let zone_slices = dev.zone_size() / SLICE_BYTES;
        let mut t = SimTime::ZERO;
        let mut written = 0u64;
        for _ in 0..nops {
            if written + bs_slices > zone_slices {
                break;
            }
            let c = dev
                .submit(t, &IoRequest::write(written * SLICE_BYTES, bs_slices * SLICE_BYTES))
                .expect("write");
            prop_assert!(c.finished >= t);
            prop_assert!(c.finished >= c.submitted);
            t = c.finished;
            written += bs_slices;
        }
        if written > 0 {
            let c = dev
                .submit(t, &IoRequest::read(0, written.min(8) * SLICE_BYTES))
                .expect("read");
            prop_assert!(c.finished > t, "reads take time");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

    /// Zone appends always land exactly at the write pointer the device
    /// reports, and the data is readable at the assigned offset.
    #[test]
    fn conzone_append_model(
        ops in prop::collection::vec((0u64..8, 1u64..6), 1..50)
    ) {
        let mut dev = ConZone::new(small_cfg());
        let zs = dev.zone_size() / SLICE_BYTES;
        let nzones = dev.zone_count() as u64;
        let mut t = SimTime::ZERO;
        let mut model: std::collections::BTreeMap<u64, u64> = std::collections::BTreeMap::new();
        let mut wp = vec![0u64; nzones as usize];
        let mut tag = 0u64;

        for &(zone_pick, n) in &ops {
            let zone = zone_pick % nzones;
            if wp[zone as usize] + n > zs {
                continue;
            }
            let open = (0..nzones)
                .filter(|&z| wp[z as usize] > 0 && wp[z as usize] < zs)
                .count();
            if wp[zone as usize] == 0 && open >= dev.config().max_open_zones {
                continue;
            }
            let mut buf = Vec::new();
            for i in 0..n {
                tag += 1;
                model.insert(zone * zs + wp[zone as usize] + i, tag);
                buf.extend_from_slice(&slice_payload(tag));
            }
            // Appends address the zone start; the device picks the spot.
            let c = dev
                .submit(
                    t,
                    &IoRequest::append_data(zone * zs * SLICE_BYTES, Bytes::from(buf)),
                )
                .expect("append accepted");
            t = c.finished;
            let assigned = c.assigned_offset.expect("appends assign an offset");
            prop_assert_eq!(assigned, (zone * zs + wp[zone as usize]) * SLICE_BYTES);
            wp[zone as usize] += n;
        }

        for (slice, expect) in model {
            let c = dev
                .submit(t, &IoRequest::read(slice * SLICE_BYTES, SLICE_BYTES))
                .expect("readable");
            t = c.finished;
            let got = c.data.expect("backed");
            prop_assert_eq!(got.as_ref(), &slice_payload(expect)[..]);
        }
    }
}

/// A seeded two-writer workload that keeps data in flight (sub-unit tails
/// stay buffered; zones 0 and 2 share a write buffer, so conflicts stage
/// victims in SLC) — exactly what an unclean power cut must account for.
fn crash_job(seed: u64, zone_bytes: u64) -> FioJob {
    FioJob::new(AccessPattern::SeqWrite, 2 * SLICE_BYTES)
        .zone_bytes(zone_bytes)
        .threads(2)
        .with_thread_zones(vec![vec![0], vec![2]])
        .bytes_per_thread(zone_bytes)
        .seed(seed)
        .verify(true)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// For any fault schedule and power-cut instant, the recovery report
    /// balances against the data in flight at the cut, every recovered
    /// slice reads back byte-identical to what the workload wrote, and
    /// every lost slice reads as unwritten — never as stale data.
    #[test]
    fn crash_recovery_is_sound(
        seed in any::<u64>(),
        fault_seed in any::<u64>(),
        program_permille in 0u32..200,
        retry_permille in 0u32..400,
        cut_us in 20u64..2000,
    ) {
        let mut cfg = small_cfg();
        cfg.fault = FaultConfig::with_rates(
            f64::from(program_permille) / 1000.0,
            0.0,
            f64::from(retry_permille) / 1000.0,
        );
        cfg.fault.seed = fault_seed;
        let mut dev = ConZone::new(cfg);
        let job = crash_job(seed, dev.zone_size());
        let cut_at = SimTime::ZERO + SimDuration::from_micros(cut_us);
        run_job_until(&mut dev, &job, cut_at).expect("workload runs to the cut");
        let verdict = power_cycle_and_verify(&mut dev, seed, cut_at)
            .expect("recovery audits pass");
        prop_assert_eq!(
            verdict.report.recovered_slices + verdict.report.lost_slices,
            verdict.in_flight_at_cut
        );
        prop_assert_eq!(
            verdict.verified_recovered_slices,
            verdict.report.recovered_slices
        );
        prop_assert_eq!(verdict.verified_lost_slices, verdict.report.lost_slices);
    }

    /// The same fault seed, workload seed and cut instant reproduce the
    /// exact same recovery report and device counters, run to run.
    #[test]
    fn seeded_crash_runs_are_deterministic(
        seed in any::<u64>(),
        fault_seed in any::<u64>(),
        cut_us in 50u64..1000,
    ) {
        let run = || {
            let mut cfg = small_cfg();
            cfg.fault = FaultConfig::with_rates(0.1, 0.0, 0.2);
            cfg.fault.seed = fault_seed;
            let mut dev = ConZone::new(cfg);
            let job = crash_job(seed, dev.zone_size());
            let cut_at = SimTime::ZERO + SimDuration::from_micros(cut_us);
            run_job_until(&mut dev, &job, cut_at).expect("workload runs");
            let verdict =
                power_cycle_and_verify(&mut dev, seed, cut_at).expect("recovery ok");
            (verdict.report, dev.counters())
        };
        let (report_a, counters_a) = run();
        let (report_b, counters_b) = run();
        prop_assert_eq!(report_a, report_b);
        prop_assert_eq!(counters_a, counters_b);
    }
}
