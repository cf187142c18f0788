use conzone_core::ConZone;
use conzone_femu::FemuZns;
use conzone_host::{run_job, AccessPattern, FioJob};
use conzone_types::{DeviceConfig, StorageDevice, ZonedDevice};

use crate::{ExpectedRelation, Out};

fn run_sync<D: StorageDevice>(dev: &mut D, zone_bytes: u64, bs: u64) -> (f64, f64, f64) {
    let volume = 32u64 << 20;
    let job = FioJob::new(AccessPattern::SeqWrite, bs)
        .zone_bytes(zone_bytes)
        .region(0, 64 << 20)
        .bytes_per_thread(volume)
        .fsync_every(1);
    let r = run_job(dev, &job).expect("sync run");
    (r.bandwidth_mibs(), r.latency.p50.as_micros_f64(), r.waf())
}

/// Ablation: synchronous writes and the SLC secondary buffer (paper
/// §II-A).
///
/// "Due to the lack of power loss protection, consumer systems frequently
/// issue synchronous writes" — every fsync forces sub-programming-unit
/// data out of the volatile buffer. ConZone absorbs it with 4 KiB SLC
/// partial programming; a device without the SLC region (the FEMU-style
/// model) must pad whole TLC units. This sweep measures both across sync
/// write sizes.
pub fn ablation_sync(out: &mut Out) {
    let mut rows = Vec::new();
    // The headline cell: p50 µs and WAF of both models at 4 KiB.
    let mut at_4k = None;
    for bs_kib in [4u64, 16, 48, 96] {
        let mut cz = ConZone::new(DeviceConfig::paper_evaluation());
        let cz_zone = cz.zone_size();
        let (cz_bw, cz_lat, cz_waf) = run_sync(&mut cz, cz_zone, bs_kib * 1024);
        let mut fm = FemuZns::new(DeviceConfig::paper_evaluation());
        let femu_zone = fm.zone_size();
        let (fm_bw, fm_lat, fm_waf) = run_sync(&mut fm, femu_zone, bs_kib * 1024);
        if bs_kib == 4 {
            at_4k = Some((cz_lat, cz_waf, fm_lat, fm_waf));
        }
        rows.push(vec![
            format!("{bs_kib} KiB"),
            format!("{cz_bw:.0}"),
            format!("{cz_lat:.0}"),
            format!("{cz_waf:.2}"),
            format!("{fm_bw:.0}"),
            format!("{fm_lat:.0}"),
            format!("{fm_waf:.2}"),
        ]);
    }
    out.table(
        "Ablation: fsync-per-write (sync I/O), with vs without an SLC buffer",
        &[
            "sync write",
            "ConZone MiB/s",
            "p50 us",
            "waf",
            "no-SLC MiB/s",
            "p50 us",
            "waf",
        ],
        &rows,
    );

    let (cz4_lat, cz4_waf, fm4_lat, fm4_waf) = at_4k.expect("the sweep has a 4 KiB row");
    out.check([
        ExpectedRelation {
            claim: "SLC partial programming makes small sync writes an order \
                    of magnitude faster (75 us vs a padded 937.5 us TLC unit)",
            holds: fm4_lat > cz4_lat * 4.0,
            evidence: format!("p50 {cz4_lat:.0} vs {fm4_lat:.0} us at 4 KiB"),
        },
        ExpectedRelation {
            claim: "and an order of magnitude less write amplification",
            holds: fm4_waf > cz4_waf * 4.0,
            evidence: format!("waf {cz4_waf:.2} vs {fm4_waf:.2} at 4 KiB"),
        },
    ]);
    out.line(
        "\nthis is the §II-A design argument in numbers: the SLC secondary\n\
         buffer exists because consumer workloads fsync constantly.",
    );
}
