use std::sync::atomic::{AtomicUsize, Ordering};

use conzone_core::ConZone;
use conzone_host::{run_job, AccessPattern, FioJob};
use conzone_types::{DeviceConfig, Geometry, MapGranularity, SimTime};

use crate::{fill_zoned, randread_job, Out};

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
    let sizes = [1u64, 4, 12, 64, 256, 1024];
    // Each sweep point builds two independent 1.5 GB devices, one after
    // the other. As many workers as there are cores pull points off a
    // shared index, so no more devices are alive at once than can make
    // progress (one thread per point held six). A device's tables cost
    // what it has written — 256 MiB here, a sixth of its logical space —
    // and the larger points add L2P caches of up to 262 144 entries;
    // with two workers this is still the largest resident set of the
    // figure binaries, 23 MiB. Every row lands in its own slot, so the
    // table keeps `sizes` order.
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get().min(sizes.len()));
    let next = AtomicUsize::new(0);
    let mut rows: Vec<Vec<String>> = vec![Vec::new(); sizes.len()];
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                s.spawn(|| {
                    let mut done = Vec::new();
                    loop {
                        // Relaxed: the counter hands out indices and
                        // publishes nothing else.
                        let slot = next.fetch_add(1, Ordering::Relaxed);
                        let Some(&cache_kib) = sizes.get(slot) else {
                            break done;
                        };
                        let (pk, pm) = run(cache_kib * 1024, MapGranularity::Page);
                        let (hk, hm) = run(cache_kib * 1024, MapGranularity::Zone);
                        done.push((
                            slot,
                            vec![
                                format!("{cache_kib} KiB"),
                                format!("{pk:.1}"),
                                format!("{:.1}%", pm * 100.0),
                                format!("{hk:.1}"),
                                format!("{:.1}%", hm * 100.0),
                            ],
                        ));
                    }
                })
            })
            .collect();
        for handle in handles {
            for (slot, row) in handle.join().expect("sweep thread") {
                rows[slot] = row;
            }
        }
    });
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
