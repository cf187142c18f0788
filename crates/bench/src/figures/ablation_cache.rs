use conzone_core::ConZone;
use conzone_host::{run_job, AccessPattern, FioJob};
use conzone_types::{DeviceConfig, Geometry, MapGranularity, SimTime};

use crate::{fill_zoned, randread_job, sweep, Out};

fn run(cache_bytes: u64, max_aggregation: MapGranularity) -> (f64, f64) {
    let cfg = DeviceConfig::builder(Geometry::consumer_1p5gb())
        .l2p_cache_bytes(cache_bytes)
        .max_aggregation(max_aggregation)
        .build()
        .expect("ablation config");
    let mut dev = ConZone::new(cfg);
    let range = 256u64 << 20;
    let t = fill_zoned(&mut dev, range, 16 << 20, SimTime::ZERO).expect("fill");
    // Warm to steady state — one sequential sweep touches every mapping
    // exactly once, then a random pass settles LRU order — so measured
    // misses are capacity misses rather than cold misses.
    let seq = FioJob::new(AccessPattern::SeqRead, 512 * 1024)
        .region(0, range)
        .bytes_per_thread(range)
        .start_at(t);
    let warm = run_job(&mut dev, &seq).expect("seq warmup");
    let warm = run_job(
        &mut dev,
        &randread_job(range, range / 4096, warm.finished).seed(3),
    )
    .expect("rand warmup");
    let r = run_job(&mut dev, &randread_job(range, 20_000, warm.finished)).expect("randread");
    (r.kiops(), r.counters.l2p_miss_rate())
}

/// Ablation: L2P cache size sweep under page vs hybrid mapping.
///
/// Complements Fig. 7 by sweeping the cache size at a fixed 256 MiB random
/// read range (65536 page mappings, 16 zones): hybrid mapping reaches the
/// flat ~20 KIOPS plateau with tens of bytes of cache (one entry per
/// zone), while page mapping needs a 256 KiB cache to cover the range.
pub fn ablation_cache(out: &mut Out) {
    // Largest cache first: the page-mapped 1 MiB and 256 KiB points take
    // longest, so they start first and the short ones fill in around them.
    // Each point builds one 1.5 GB device. A device's tables cost what it
    // has written — 256 MiB here, a sixth of its logical space — and the
    // larger points add L2P caches of up to 262 144 entries at 25 bytes
    // an entry. With two workers the binary peaks at 9.5 MiB resident.
    let sizes = [1024u64, 256, 64, 12, 4, 1];
    let points: Vec<(u64, MapGranularity)> = sizes
        .iter()
        .flat_map(|&kib| [(kib, MapGranularity::Page), (kib, MapGranularity::Zone)])
        .collect();
    let results = sweep(&points, |&(kib, mapping)| run(kib * 1024, mapping));
    let rows: Vec<Vec<String>> = sizes
        .iter()
        .zip(results.chunks(2))
        .rev()
        .map(|(cache_kib, pair)| {
            let ((pk, pm), (hk, hm)) = (pair[0], pair[1]);
            vec![
                format!("{cache_kib} KiB"),
                format!("{pk:.1}"),
                format!("{:.1}%", pm * 100.0),
                format!("{hk:.1}"),
                format!("{:.1}%", hm * 100.0),
            ]
        })
        .collect();
    out.table(
        "Ablation: L2P cache size, 4 KiB random reads over 256 MiB",
        &[
            "cache",
            "page KIOPS",
            "page miss",
            "hybrid KIOPS",
            "hybrid miss",
        ],
        &rows,
    );
    out.line(
        "\nexpectation: hybrid mapping is already flat at the smallest cache\n\
         (16 zone entries cover 256 MiB); page mapping needs a 256 KiB cache\n\
         (65536 entries) to cover the same range.",
    );
}
