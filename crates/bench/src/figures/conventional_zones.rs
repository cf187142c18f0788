use conzone_core::ConZone;
use conzone_host::{F2fsLite, Temperature};
use conzone_types::{Counters, DeviceConfig, Geometry, SimTime, StorageDevice};

use crate::{sweep, ExpectedRelation, Out};

/// Conventional zones that hold F2FS-lite's node blocks in the second run.
const META_ZONES: usize = 2;

/// Runs the F2FS-lite workload on a 24-zone device with `conventional`
/// conventional zones (node blocks go there when there are any) and
/// returns the device's counters and the finish time.
fn run(conventional: usize) -> (Counters, SimTime) {
    let mut geometry = Geometry::consumer_1p5gb();
    geometry.blocks_per_chip = 32; // 24 zones
    let mut dev = ConZone::new(
        DeviceConfig::builder(geometry)
            .conventional_zones(conventional)
            .max_open_zones(8)
            .build()
            .expect("conventional-zone config"),
    );
    let mut fs = match conventional {
        0 => F2fsLite::new(&dev),
        n => F2fsLite::with_conventional_metadata(&dev, n as u64),
    };
    // Six rounds over twelve files of three temperatures, 512 blocks
    // each, with a node update every 64 data blocks.
    let mut t = SimTime::ZERO;
    for round in 0..6u64 {
        for file in 0..12u64 {
            let temp = match file % 3 {
                0 => Temperature::Hot,
                1 => Temperature::Warm,
                _ => Temperature::Cold,
            };
            t = fs
                .write_file(&mut dev, t, file, round * 64, 512, temp)
                .expect("f2fs-lite write");
        }
    }
    (dev.counters(), t)
}

/// Conventional zones (paper §III-E): F2FS updates its metadata in place.
///
/// F2FS-lite keeps six logs open, three of them for node blocks; on two
/// device write buffers they contend. With its node blocks in place in
/// the device's first two conventional zones, only the three data logs
/// stay sequential, so conflicts, premature flushes and write
/// amplification fall. The L2P-log half of §III-E is `ablation_l2p_log`.
pub fn conventional_zones(out: &mut Out) {
    let runs = sweep(&[0, META_ZONES], |&conventional| run(conventional));
    let [(base, base_t), (conv, conv_t)] = [runs[0], runs[1]];
    let row = |name: &str, [a, b]: [String; 2]| vec![name.to_string(), a, b];
    out.table(
        "Conventional zones: F2FS-lite metadata in place (24 zones, 6 rounds x 12 files x 512 blocks)",
        &["", "baseline", "2 conventional zones"],
        &[
            row(
                "duration (s)",
                [base_t, conv_t].map(|t| format!("{:.3}", t.as_secs_f64())),
            ),
            row(
                "write amplification",
                [base, conv].map(|c| format!("{:.3}", c.write_amplification())),
            ),
            row(
                "buffer conflicts",
                [base, conv].map(|c| c.buffer_conflicts.to_string()),
            ),
            row(
                "premature flushes",
                [base, conv].map(|c| c.premature_flushes.to_string()),
            ),
            row(
                "in-place metadata updates",
                [base, conv].map(|c| c.conventional_updates.to_string()),
            ),
        ],
    );
    out.line(
        "\nexpectation: with node blocks updated in place, three sequential\n\
         logs instead of six contend for the two write buffers (paper §III-E).",
    );
    let conflict_drop =
        100.0 * (1.0 - conv.buffer_conflicts as f64 / base.buffer_conflicts.max(1) as f64);
    out.check([
        ExpectedRelation {
            claim: "conventional metadata zones remove most buffer conflicts (>= 80 %)",
            holds: conflict_drop >= 80.0,
            evidence: format!(
                "{} vs {} conflicts, -{conflict_drop:.1} %",
                conv.buffer_conflicts, base.buffer_conflicts
            ),
        },
        ExpectedRelation {
            claim: "in-place metadata lowers write amplification",
            holds: conv.write_amplification() < base.write_amplification(),
            evidence: format!(
                "{:.3} vs {:.3}",
                conv.write_amplification(),
                base.write_amplification()
            ),
        },
        ExpectedRelation {
            claim: "node blocks become in-place conventional updates",
            holds: conv.conventional_updates > 0,
            evidence: format!("{} in-place updates", conv.conventional_updates),
        },
    ]);
}
