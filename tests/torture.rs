//! Torture test: every feature at once, verified end to end.
//!
//! One device configured with conventional zones, a pinned-strategy L2P
//! cache, an L2P persistence log and a small SLC region runs a long
//! interleaving of sequential zone writes, in-place metadata updates,
//! zone lifecycle commands, resets and reads — with full data
//! verification and invariant checks throughout.

use bytes::Bytes;
use conzone::sim::SimRng;
use conzone::types::{
    DeviceConfig, Geometry, IoRequest, SearchStrategy, SimTime, StorageDevice, ZoneId, ZoneState,
    ZonedDevice, SLICE_BYTES,
};
use conzone::ConZone;

fn torture_config() -> DeviceConfig {
    let g = Geometry {
        channels: 2,
        chips_per_channel: 2,
        blocks_per_chip: 14,
        slc_blocks_per_chip: 4,
        pages_per_block: 16,
        page_bytes: 16 * 1024,
        program_unit_bytes: 64 * 1024,
        planes_per_chip: 1,
    };
    DeviceConfig::builder(g)
        .chunk_bytes(256 * 1024)
        .data_backing(true)
        .conventional_zones(1)
        .l2p_log_entries(512)
        .search_strategy(SearchStrategy::Pinned)
        .l2p_cache_bytes(64) // 16 entries: heavy pressure
        .max_open_zones(4)
        .seed(99)
        .build()
        .expect("torture config")
}

fn payload(tag: u64) -> Bytes {
    Bytes::from(
        (0..SLICE_BYTES as usize)
            .map(|i| (tag as u8).wrapping_mul(89).wrapping_add(i as u8))
            .collect::<Vec<u8>>(),
    )
}

#[test]
fn everything_at_once() {
    let mut dev = ConZone::new(torture_config());
    let zs = dev.zone_size() / SLICE_BYTES;
    let nzones = dev.zone_count() as u64;
    let mut rng = SimRng::new(0x707);
    let mut t = SimTime::ZERO;
    let mut tag = 0u64;

    // Shadow state: per-zone write pointer (sequential zones) and
    // slice -> tag maps for both regions.
    let mut wp = vec![0u64; nzones as usize];
    let mut full = vec![false; nzones as usize];
    let mut shadow: std::collections::BTreeMap<u64, u64> = std::collections::BTreeMap::new();

    for step in 0..4000u64 {
        match rng.below(100) {
            // 55 %: append to a random non-full sequential zone.
            0..=54 => {
                let zone = 1 + rng.below(nzones - 1);
                if full[zone as usize] || wp[zone as usize] == zs {
                    continue;
                }
                // Respect the open-zone limit by skipping when crowded.
                let open = (1..nzones)
                    .filter(|&z| wp[z as usize] > 0 && wp[z as usize] < zs && !full[z as usize])
                    .count();
                if wp[zone as usize] == 0 && open >= 4 {
                    continue;
                }
                let n = 1 + rng.below(8).min(zs - wp[zone as usize]);
                let mut buf = Vec::new();
                for i in 0..n {
                    tag += 1;
                    shadow.insert(zone * zs + wp[zone as usize] + i, tag);
                    buf.extend_from_slice(&payload(tag));
                }
                let offset = (zone * zs + wp[zone as usize]) * SLICE_BYTES;
                let c = dev
                    .submit(t, &IoRequest::write_data(offset, Bytes::from(buf)))
                    .unwrap_or_else(|e| panic!("step {step}: seq write {e}"));
                assert!(c.finished >= t, "time monotonic");
                t = c.finished;
                wp[zone as usize] += n;
            }
            // 15 %: in-place conventional update.
            55..=69 => {
                tag += 1;
                let slice = rng.below(zs);
                shadow.insert(slice, tag);
                let c = dev
                    .submit(t, &IoRequest::write_data(slice * SLICE_BYTES, payload(tag)))
                    .unwrap_or_else(|e| panic!("step {step}: conv write {e}"));
                t = c.finished;
            }
            // 20 %: read a random known slice and verify it.
            70..=89 => {
                if shadow.is_empty() {
                    continue;
                }
                let keys: Vec<u64> = shadow.keys().copied().collect();
                let slice = keys[rng.below(keys.len() as u64) as usize];
                let expect = shadow[&slice];
                let c = dev
                    .submit(t, &IoRequest::read(slice * SLICE_BYTES, SLICE_BYTES))
                    .unwrap_or_else(|e| panic!("step {step}: read slice {slice}: {e}"));
                t = c.finished;
                assert_eq!(
                    c.data.expect("backed"),
                    payload(expect),
                    "step {step}: slice {slice} content"
                );
            }
            // 5 %: lifecycle command on a random sequential zone.
            90..=94 => {
                let zone = 1 + rng.below(nzones - 1);
                let state = dev.zone_info(ZoneId(zone)).unwrap().state;
                match rng.below(3) {
                    0 if state == ZoneState::Open => {
                        t = dev.close_zone(t, ZoneId(zone)).unwrap().finished;
                    }
                    1 if state != ZoneState::Full => {
                        t = dev.finish_zone(t, ZoneId(zone)).unwrap().finished;
                        full[zone as usize] = true;
                    }
                    _ => {}
                }
            }
            // 10 %: reset a random zone (sequential or conventional).
            _ => {
                let zone = rng.below(nzones);
                let c = dev
                    .reset_zone(t, ZoneId(zone))
                    .unwrap_or_else(|e| panic!("step {step}: reset {zone}: {e}"));
                t = c.finished;
                shadow.retain(|&s, _| s / zs != zone);
                if zone > 0 {
                    wp[zone as usize] = 0;
                    full[zone as usize] = false;
                }
            }
        }
    }

    // Final full verification of every live slice.
    let mut entries: Vec<(u64, u64)> = shadow.into_iter().collect();
    entries.sort_unstable();
    for (slice, expect) in entries {
        let c = dev
            .submit(t, &IoRequest::read(slice * SLICE_BYTES, SLICE_BYTES))
            .unwrap_or_else(|e| panic!("final read {slice}: {e}"));
        t = c.finished;
        assert_eq!(c.data.expect("backed"), payload(expect), "slice {slice}");
    }

    // The run exercised everything it was meant to.
    let c = dev.counters();
    assert!(c.premature_flushes > 0, "premature flushes: {c:?}");
    assert!(c.slc_combines > 0, "combines");
    assert!(c.conventional_updates > 0, "conventional updates");
    assert!(c.l2p_log_flushes > 0, "l2p log flushes");
    assert!(c.zone_resets > 0, "resets");
    assert!(c.gc_runs > 0, "slc gc ran");
    assert!(c.l2p_misses > 0 || c.l2p_hits() > 0, "read path exercised");
}
