use std::collections::VecDeque;

use conzone_core::ConZone;
use conzone_legacy::LegacyDevice;
use conzone_sim::SimRng;
use conzone_types::{
    to_index, DeviceConfig, Geometry, IoRequest, SimTime, StorageDevice, ZoneId, ZonedDevice,
};

use crate::{sweep, ExpectedRelation, Out};

const EXTENT: u64 = 256 * 1024;
const STEPS: usize = 6000;

fn small_device() -> DeviceConfig {
    // 24 normal zones of 16 MiB so aging converges quickly.
    let mut g = Geometry::consumer_1p5gb();
    g.blocks_per_chip = 32;
    DeviceConfig::builder(g).build().expect("lifespan config")
}

#[derive(Clone, Copy)]
struct Outcome {
    user_waf: f64,
    erases: u64,
    device_migrated_mib: f64,
    host_copied_mib: f64,
    lifetime_tib: f64,
    user_gib: f64,
}

/// Legacy: random deletion, FIFO LBA recycling. With `trim`, the host
/// tells the device about each deletion immediately (closing the §I time
/// gap); without it, the device's GC migrates the garbage.
fn run_legacy(use_trim: bool) -> Outcome {
    let mut dev = LegacyDevice::new(small_device());
    let total_extents = dev.capacity_bytes() / EXTENT;
    let live_target = (total_extents * 6 / 10) as usize;
    let mut rng = SimRng::new(0xdead_f11e);
    let mut free: VecDeque<u64> = (0..total_extents).collect();
    let mut live: Vec<u64> = Vec::new();
    let mut t = SimTime::ZERO;
    let mut user_extents = 0u64;
    let write = |dev: &mut LegacyDevice, t: SimTime, extent: u64| -> SimTime {
        dev.submit(t, &IoRequest::write(extent * EXTENT, EXTENT))
            .expect("legacy write")
            .finished
    };
    for _ in 0..live_target {
        let e = free.pop_front().expect("space");
        t = write(&mut dev, t, e);
        live.push(e);
        user_extents += 1;
    }
    for _ in 0..STEPS {
        let victim = to_index(rng.below(live.len() as u64));
        let dead = live.swap_remove(victim);
        if use_trim {
            t = dev.trim(t, dead * EXTENT, EXTENT).expect("trim").finished;
        }
        free.push_back(dead);
        let e = free.pop_front().expect("free extent");
        t = write(&mut dev, t, e);
        live.push(e);
        user_extents += 1;
    }
    let c = dev.counters();
    let wear = dev.wear_report();
    let user_bytes = user_extents * EXTENT;
    Outcome {
        user_waf: c.flash_program_bytes() as f64 / user_bytes as f64,
        erases: c.erases_normal + c.erases_slc,
        device_migrated_mib: (c.gc_migrated_slices * 4096) as f64 / f64::from(1 << 20),
        host_copied_mib: 0.0,
        lifetime_tib: user_bytes as f64
            / wear
                .slc
                .wear_fraction()
                .max(wear.normal.wear_fraction())
                .max(1e-12)
            / (1u64 << 40) as f64,
        user_gib: user_bytes as f64 / (1u64 << 30) as f64,
    }
}

/// ConZone: the host packs extents into zones, tracks liveness itself,
/// and cleans greedily — copying only live extents before a reset.
fn run_conzone() -> Outcome {
    let mut dev = ConZone::new(small_device());
    let zone_bytes = dev.zone_size();
    let epz = (zone_bytes / EXTENT) as usize; // extents per zone
    let nzones = dev.zone_count();
    let live_target = nzones * epz * 6 / 10;
    let mut rng = SimRng::new(0xdead_f11e);
    let mut t = SimTime::ZERO;
    let mut user_extents = 0u64;
    let mut host_copied = 0u64;

    // Host-side allocation state.
    let mut free_zones: VecDeque<usize> = (0..nzones).collect();
    let mut zone_live: Vec<Vec<bool>> = vec![vec![false; epz]; nzones];
    let mut zone_written: Vec<usize> = vec![0; nzones];
    let mut open_zone: Option<usize> = None;
    // Live extents as (zone, slot).
    let mut live: Vec<(usize, usize)> = Vec::new();

    fn alloc_slot(
        dev: &mut ConZone,
        t: &mut SimTime,
        open_zone: &mut Option<usize>,
        free_zones: &mut VecDeque<usize>,
        zone_written: &mut [usize],
        epz: usize,
        zone_bytes: u64,
    ) -> (usize, usize) {
        let zone = match *open_zone {
            Some(z) => z,
            None => {
                let z = free_zones.pop_front().expect("free zone");
                *open_zone = Some(z);
                z
            }
        };
        let slot = zone_written[zone];
        let offset = zone as u64 * zone_bytes + slot as u64 * EXTENT;
        *t = dev
            .submit(*t, &IoRequest::write(offset, EXTENT))
            .expect("conzone write")
            .finished;
        zone_written[zone] += 1;
        if zone_written[zone] == epz {
            *open_zone = None;
        }
        (zone, slot)
    }

    let write_new = |dev: &mut ConZone,
                     t: &mut SimTime,
                     open_zone: &mut Option<usize>,
                     free_zones: &mut VecDeque<usize>,
                     zone_written: &mut Vec<usize>,
                     zone_live: &mut Vec<Vec<bool>>,
                     live: &mut Vec<(usize, usize)>| {
        let (z, s) = alloc_slot(dev, t, open_zone, free_zones, zone_written, epz, zone_bytes);
        zone_live[z][s] = true;
        live.push((z, s));
    };

    for _ in 0..live_target {
        write_new(
            &mut dev,
            &mut t,
            &mut open_zone,
            &mut free_zones,
            &mut zone_written,
            &mut zone_live,
            &mut live,
        );
        user_extents += 1;
    }

    for _ in 0..STEPS {
        // Random delete: the host knows instantly.
        let victim = to_index(rng.below(live.len() as u64));
        let (z, s) = live.swap_remove(victim);
        zone_live[z][s] = false;

        // Host cleaning when space runs low: pick the fullest-written zone
        // with the fewest live extents, copy the live ones out, reset it.
        while free_zones.len() < 2 {
            let victim_zone = (0..nzones)
                .filter(|&z| zone_written[z] == epz && open_zone != Some(z))
                .min_by_key(|&z| zone_live[z].iter().filter(|l| **l).count())
                .expect("cleanable zone");
            // Copy live extents to the open log.
            let live_slots: Vec<usize> = (0..epz).filter(|&s| zone_live[victim_zone][s]).collect();
            for s in live_slots {
                let src = victim_zone as u64 * zone_bytes + s as u64 * EXTENT;
                let c = dev
                    .submit(t, &IoRequest::read(src, EXTENT))
                    .expect("clean read");
                t = c.finished;
                let (nz, ns) = alloc_slot(
                    &mut dev,
                    &mut t,
                    &mut open_zone,
                    &mut free_zones,
                    &mut zone_written,
                    epz,
                    zone_bytes,
                );
                zone_live[nz][ns] = true;
                // Re-point the live record.
                let idx = live
                    .iter()
                    .position(|&(lz, ls)| lz == victim_zone && ls == s)
                    .expect("live record");
                live[idx] = (nz, ns);
                zone_live[victim_zone][s] = false;
                host_copied += 1;
            }
            t = dev
                .reset_zone(t, ZoneId(victim_zone as u64))
                .expect("reset")
                .finished;
            zone_written[victim_zone] = 0;
            free_zones.push_back(victim_zone);
        }

        write_new(
            &mut dev,
            &mut t,
            &mut open_zone,
            &mut free_zones,
            &mut zone_written,
            &mut zone_live,
            &mut live,
        );
        user_extents += 1;
    }

    let c = dev.counters();
    let wear = dev.wear_report();
    let user_bytes = user_extents * EXTENT;
    Outcome {
        user_waf: c.flash_program_bytes() as f64 / user_bytes as f64,
        erases: c.erases_normal + c.erases_slc,
        device_migrated_mib: (c.gc_migrated_slices * 4096) as f64 / f64::from(1 << 20),
        host_copied_mib: (host_copied * EXTENT) as f64 / f64::from(1 << 20),
        lifetime_tib: user_bytes as f64
            / wear
                .slc
                .wear_fraction()
                .max(wear.normal.wear_fraction())
                .max(1e-12)
            / (1u64 << 40) as f64,
        user_gib: user_bytes as f64 / (1u64 << 30) as f64,
    }
}

/// Lifespan comparison: the paper's §I motivation, quantified.
///
/// Legacy consumer storage suffers a "time gap between the host
/// invalidating data and the flash storage recognizing that the data is
/// invalid": without a trim, a deleted file's LBAs look live until the
/// file system recycles them, so device GC migrates garbage. With zone
/// abstraction the host cleans: it copies only data it *knows* is live
/// and resets the zone — dead data is never moved.
///
/// Workload: 256 KiB extents at ~60 % space utilisation; every step
/// deletes a uniformly random live extent and writes a new one (the
/// scattered-deletion pattern of real file systems, which mixes hot and
/// cold data inside every superblock). End-to-end write amplification is
/// measured against *user* bytes, so ConZone's host-side cleaning copies
/// are charged fairly.
pub fn lifespan(out: &mut Out) {
    // Legacy without trim first: its device GC makes it the longest run.
    let runs: [fn() -> Outcome; 3] = [|| run_legacy(false), run_conzone, || run_legacy(true)];
    let outcomes = sweep(&runs, |run| run());
    let (lg, cz, lt) = (outcomes[0], outcomes[1], outcomes[2]);
    out.table(
        &format!(
            "Lifespan under random file churn (~{:.1} GiB user writes, 60 % live)",
            cz.user_gib
        ),
        &[
            "device",
            "end-to-end waf",
            "erases",
            "device-GC MiB",
            "host-clean MiB",
            "lifetime (user TiB)",
        ],
        &[
            vec![
                "ConZone (host cleaning)".into(),
                format!("{:.3}", cz.user_waf),
                cz.erases.to_string(),
                format!("{:.0}", cz.device_migrated_mib),
                format!("{:.0}", cz.host_copied_mib),
                format!("{:.2}", cz.lifetime_tib),
            ],
            vec![
                "Legacy (no trim)".into(),
                format!("{:.3}", lg.user_waf),
                lg.erases.to_string(),
                format!("{:.0}", lg.device_migrated_mib),
                format!("{:.0}", lg.host_copied_mib),
                format!("{:.2}", lg.lifetime_tib),
            ],
            vec![
                "Legacy + trim".into(),
                format!("{:.3}", lt.user_waf),
                lt.erases.to_string(),
                format!("{:.0}", lt.device_migrated_mib),
                format!("{:.0}", lt.host_copied_mib),
                format!("{:.2}", lt.lifetime_tib),
            ],
        ],
    );

    out.check([
        ExpectedRelation {
            claim: "legacy device GC migrates data the host already deleted (§I trim gap)",
            holds: lg.device_migrated_mib > 0.0,
            evidence: format!("{:.0} MiB migrated by device GC", lg.device_migrated_mib),
        },
        ExpectedRelation {
            claim: "zone abstraction lowers end-to-end write amplification",
            holds: cz.user_waf < lg.user_waf,
            evidence: format!("{:.3} vs {:.3}", cz.user_waf, lg.user_waf),
        },
        ExpectedRelation {
            claim: "and extends the projected device lifespan",
            holds: cz.lifetime_tib > lg.lifetime_tib,
            evidence: format!("{:.2} vs {:.2} user TiB", cz.lifetime_tib, lg.lifetime_tib),
        },
        ExpectedRelation {
            claim: "trim closes most of the gap — the deficit is the missing                     signal, not the page-mapped FTL itself",
            holds: lt.user_waf < lg.user_waf && lt.device_migrated_mib < lg.device_migrated_mib,
            evidence: format!(
                "waf {:.3} (trim) vs {:.3} (no trim); {:.0} vs {:.0} MiB migrated",
                lt.user_waf, lg.user_waf, lt.device_migrated_mib, lg.device_migrated_mib
            ),
        },
    ]);
}
