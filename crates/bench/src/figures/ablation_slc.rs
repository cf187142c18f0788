use conzone_core::ConZone;
use conzone_host::{run_job, AccessPattern, FioJob};
use conzone_types::{DeviceConfig, Geometry, SimTime, StorageDevice, ZoneId, ZonedDevice};

use crate::Out;

/// Ablation: SLC region size under sustained premature-flush pressure.
///
/// The SLC secondary buffer absorbs premature flushes; a smaller region
/// garbage-collects more often, stealing bandwidth and adding erases.
/// This sweep runs the Fig. 6(b) conflict workload across several zone
/// fills for different SLC region sizes.
pub fn ablation_slc(out: &mut Out) {
    let mut rows = Vec::new();
    for slc_blocks in [2usize, 4, 8, 16] {
        let mut geometry = Geometry::consumer_1p5gb();
        geometry.slc_blocks_per_chip = slc_blocks;
        let cfg = DeviceConfig::builder(geometry)
            .build()
            .expect("ablation config");
        let zone_bytes = cfg.zone_size_bytes();
        let mut dev = ConZone::new(cfg);

        // Three rounds of the conflict workload with zone resets between
        // them, so SLC pressure accumulates.
        let mut start = SimTime::ZERO;
        for _round in 0..3 {
            let job = FioJob::new(AccessPattern::SeqWrite, 48 * 1024)
                .zone_bytes(zone_bytes)
                .threads(2)
                .with_thread_zones(vec![vec![0], vec![2]])
                .bytes_per_thread(zone_bytes)
                .start_at(start);
            let r = run_job(&mut dev, &job).expect("ablation run");
            start = r.finished;
            for z in [0u64, 2] {
                start = dev.reset_zone(start, ZoneId(z)).expect("reset").finished;
            }
        }
        let c = dev.counters();
        let total_mib = c.host_write_bytes as f64 / (1024.0 * 1024.0);
        let secs = start.as_secs_f64();
        rows.push(vec![
            format!("{slc_blocks} blocks/chip"),
            format!("{:.0}", total_mib / secs),
            format!("{:.3}", c.write_amplification()),
            c.gc_runs.to_string(),
            c.erases_slc.to_string(),
            c.gc_migrated_slices.to_string(),
        ]);
    }
    out.table(
        "Ablation: SLC region size under the conflict workload (3 zone fills)",
        &[
            "slc region",
            "bw MiB/s",
            "waf",
            "gc runs",
            "slc erases",
            "migrated slices",
        ],
        &rows,
    );
    out.line(
        "\nexpectation: smaller SLC regions trigger GC sooner and erase SLC\n\
         blocks more often at similar bandwidth (GC of fully-dead staging\n\
         blocks is cheap); larger regions defer GC entirely.",
    );
}
