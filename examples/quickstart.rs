//! Quickstart: build a ConZone device, write a zone, read it back, reset
//! it, and inspect the internal counters.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use conzone::host::{run_job, AccessPattern, FioJob};
use conzone::types::{DeviceConfig, StorageDevice, ZoneId, ZonedDevice};
use conzone::ConZone;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // The paper's §IV-A evaluation configuration: ~1.5 GB of TLC flash,
    // 2 channels × 2 chips, two 384 KiB write buffers, 12 KiB L2P cache.
    let mut device = ConZone::new(DeviceConfig::paper_evaluation());
    println!(
        "device: {} zones of {} MiB ({} MiB logical capacity)",
        device.zone_count(),
        device.zone_size() >> 20,
        device.capacity_bytes() >> 20,
    );

    // Fill the first four zones with 512 KiB sequential writes.
    let zone = device.zone_size();
    let write = FioJob::new(AccessPattern::SeqWrite, 512 * 1024)
        .zone_bytes(zone)
        .region(0, 4 * zone)
        .bytes_per_thread(4 * zone);
    let w = run_job(&mut device, &write)?;
    println!(
        "wrote {} MiB at {:.0} MiB/s (mean latency {})",
        w.bytes >> 20,
        w.bandwidth_mibs(),
        w.latency.mean,
    );

    // Random 4 KiB reads over the written range.
    let read = FioJob::new(AccessPattern::RandRead, 4096)
        .region(0, 4 * zone)
        .ops_per_thread(10_000)
        .bytes_per_thread(u64::MAX)
        .start_at(w.finished);
    let r = run_job(&mut device, &read)?;
    println!(
        "random reads: {:.1} KIOPS, p99 {}, p99.9 {}",
        r.kiops(),
        r.latency.p99,
        r.latency.p999,
    );

    // The zone abstraction at work: hybrid mapping aggregated the filled
    // zones, so the tiny L2P cache absorbs every lookup.
    let c = device.counters();
    println!(
        "l2p: {} zone hits, {} chunk hits, {} page hits, {} misses",
        c.l2p_hits_zone, c.l2p_hits_chunk, c.l2p_hits_page, c.l2p_misses,
    );
    println!(
        "flash: {} MiB programmed (waf {:.3}), {} mapping fetches",
        c.flash_program_bytes() >> 20,
        c.write_amplification(),
        c.flash_mapping_reads,
    );

    // Reset a zone and confirm it is writable again.
    let reset = device.reset_zone(r.finished, ZoneId(0))?;
    println!(
        "zone 0 reset in {}; state is now {:?}",
        reset.latency(),
        device.zone_info(ZoneId(0))?.state,
    );
    Ok(())
}

#[test]
fn runs() {
    main().expect("quickstart runs");
}
