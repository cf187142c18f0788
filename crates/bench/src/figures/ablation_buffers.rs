use conzone_core::ConZone;
use conzone_host::{run_job, AccessPattern, FioJob};
use conzone_types::{DeviceConfig, Geometry, StorageDevice};

use crate::Out;

/// Ablation: number of shared write buffers.
///
/// The paper's §II-B arithmetic — six F2FS logs need 6 × 384 KiB of
/// buffers but consumer devices only have ~1 MiB — motivates ConZone's
/// configurable buffer count. This sweep writes six zones round-robin
/// (the F2FS open-zone pattern) with 48 KiB sync granularity and shows
/// how conflicts, SLC traffic and bandwidth change from 1 to 6 buffers.
pub fn ablation_buffers(out: &mut Out) {
    let zone_bytes = 16 * 1024 * 1024u64;
    let mut rows = Vec::new();
    for buffers in [1usize, 2, 3, 4, 6] {
        let cfg = DeviceConfig::builder(Geometry::consumer_1p5gb())
            .write_buffers(buffers)
            .build()
            .expect("ablation config");
        let mut dev = ConZone::new(cfg);
        // Six threads, one zone each (zones 0..6), interleaved 48 KiB
        // writes — the §II-B worst case.
        let job = FioJob::new(AccessPattern::SeqWrite, 48 * 1024)
            .zone_bytes(zone_bytes)
            .threads(6)
            .with_thread_zones((0..6u64).map(|z| vec![z]).collect())
            .bytes_per_thread(zone_bytes / 2);
        let r = run_job(&mut dev, &job).expect("ablation run");
        rows.push(vec![
            buffers.to_string(),
            format!("{:.0}", r.bandwidth_mibs()),
            format!("{:.3}", r.waf()),
            r.counters.buffer_conflicts.to_string(),
            r.counters.premature_flushes.to_string(),
            format!(
                "{:.1}",
                r.counters.flash_program_bytes_slc as f64 / (1024.0 * 1024.0)
            ),
            dev.counters().gc_runs.to_string(),
        ]);
    }
    out.table(
        "Ablation: write-buffer count under 6 interleaved zone writers (48 KiB)",
        &[
            "buffers",
            "bw MiB/s",
            "waf",
            "conflicts",
            "premature",
            "slc MiB",
            "gc runs",
        ],
        &rows,
    );
    out.line(
        "\nexpectation: conflicts and SLC traffic shrink as buffers approach the\n\
         six open logs; 6 buffers eliminate contention entirely (paper §II-B).",
    );
}
