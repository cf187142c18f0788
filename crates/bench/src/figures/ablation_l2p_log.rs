use conzone_core::ConZone;
use conzone_types::{DeviceConfig, Geometry, SimTime, StorageDevice};

use crate::{fill_zoned, Out};

fn run(l2p_log_entries: u64) -> (f64, u64) {
    let cfg = DeviceConfig::builder(Geometry::consumer_1p5gb())
        .l2p_log_entries(l2p_log_entries)
        .build()
        .expect("ablation config");
    let mut dev = ConZone::new(cfg);
    let bytes = 256u64 << 20;
    let t = fill_zoned(&mut dev, bytes, 16 << 20, SimTime::ZERO).expect("fill");
    let c = dev.counters();
    let bw = bytes as f64 / (1024.0 * 1024.0) / t.as_secs_f64();
    (bw, c.l2p_log_flushes)
}

/// Ablation: L2P mapping-table persistence (paper §III-E future work).
///
/// Mapping updates accumulate in an L2P log that must eventually be
/// persisted to flash; the flush blocks host requests. This sweep varies
/// the log threshold (updates accumulated per flush) and measures the
/// write-bandwidth cost of persistence on a sequential fill.
pub fn ablation_l2p_log(out: &mut Out) {
    let mut rows = Vec::new();
    let baseline = run(0);
    rows.push(vec![
        "disabled".into(),
        format!("{:.0}", baseline.0),
        "0".into(),
        "—".into(),
    ]);
    for entries in [64u64, 256, 1024, 4096, 16384] {
        let (bw, flushes) = run(entries);
        rows.push(vec![
            entries.to_string(),
            format!("{bw:.0}"),
            flushes.to_string(),
            format!("{:+.1}%", (bw / baseline.0 - 1.0) * 100.0),
        ]);
    }
    out.table(
        "Ablation: L2P persistence-log threshold (256 MiB sequential fill)",
        &["log entries/flush", "bw MiB/s", "flushes", "vs disabled"],
        &rows,
    );
    out.line(
        "\nexpectation: tiny logs flush constantly and visibly tax write\n\
         bandwidth; a few thousand entries amortise the cost to noise —\n\
         quantifying the §III-E design question the paper leaves open.",
    );
}
