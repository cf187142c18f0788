//! Crash-consistency properties of the host auditor: whatever the fault
//! schedule and the power-cut instant, `power_cycle_and_verify` balances
//! the recovery report and reproduces it run to run. (What every command
//! answers, power cuts included, is the oracle's: `tests/oracle.rs`.)

use proptest::prelude::*;

use conzone::host::{power_cycle_and_verify, run_job_until, AccessPattern, FioJob};
use conzone::types::{
    DeviceConfig, FaultConfig, Geometry, SimDuration, SimTime, StorageDevice, ZonedDevice,
    SLICE_BYTES,
};
use conzone::ConZone;

/// A tiny config with little SLC so GC gets exercised.
fn small_cfg() -> DeviceConfig {
    let g = Geometry {
        blocks_per_chip: 10,
        slc_blocks_per_chip: 3,
        pages_per_block: 8,
        ..Geometry::tiny()
    };
    DeviceConfig::builder(g)
        .chunk_bytes(128 * 1024)
        .data_backing(true)
        .max_open_zones(8)
        .build()
        .expect("small config")
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
