use conzone_core::ConZone;
use conzone_flash::erase_budget;
use conzone_host::{run_job, AccessPattern, FioJob};
use conzone_types::{CellType, DeviceConfig, Geometry};

use crate::{randread_job, ExpectedRelation, Out};

/// QLC variant of the paper geometry: 64 KiB programming unit (4 pages,
/// as §III-B's example), power-of-two superblocks.
fn geometry_for(cell: CellType) -> Geometry {
    match cell {
        CellType::Tlc => Geometry::consumer_1p5gb(),
        CellType::Qlc => Geometry {
            channels: 2,
            chips_per_channel: 2,
            blocks_per_chip: 104,
            slc_blocks_per_chip: 8,
            pages_per_block: 256,
            page_bytes: 16 * 1024,
            program_unit_bytes: 64 * 1024,
            planes_per_chip: 1,
        },
        CellType::Slc => unreachable!("normal region is never SLC"),
    }
}

struct MediaResult {
    seq_write: f64,
    conflict_write: f64,
    read_p99_us: f64,
    budget: u64,
}

fn run_media(cell: CellType) -> MediaResult {
    let cfg = DeviceConfig::builder(geometry_for(cell))
        .normal_cell(cell)
        .build()
        .expect("media config");
    let zone = cfg.zone_size_bytes();

    // Sequential write bandwidth.
    let mut dev = ConZone::new(cfg.clone());
    let seq = FioJob::new(AccessPattern::SeqWrite, 512 * 1024)
        .zone_bytes(zone)
        .region(0, 8 * zone)
        .bytes_per_thread(8 * zone);
    let w = run_job(&mut dev, &seq).expect("seq write");

    // Conflict (premature-flush) write bandwidth: Fig. 6(b) pattern.
    let mut dev2 = ConZone::new(cfg);
    let conflict = FioJob::new(AccessPattern::SeqWrite, 48 * 1024)
        .zone_bytes(zone)
        .threads(2)
        .with_thread_zones(vec![vec![0], vec![2]])
        .bytes_per_thread(zone / 2);
    let cw = run_job(&mut dev2, &conflict).expect("conflict write");

    // 4 KiB random read tail latency over the sequentially written area.
    let r = run_job(&mut dev, &randread_job(4 * zone, 5000, w.finished)).expect("randread");

    MediaResult {
        seq_write: w.bandwidth_mibs(),
        conflict_write: cw.bandwidth_mibs(),
        read_p99_us: r.latency.p99.as_micros_f64(),
        budget: erase_budget(cell),
    }
}

/// Ablation: TLC vs QLC normal media (the paper's §I motivation).
///
/// "Compared to TLC, QLC exhibits a significant reduction in write
/// bandwidth, an increase in read latency by several tens of
/// microseconds, and a decrease in program/erase cycles." This sweep runs
/// the same workloads on both media and shows exactly that — and how the
/// SLC secondary buffer's value grows with denser media (a QLC premature
/// flush avoided saves 6.4 ms of programming, not 0.94 ms).
pub fn ablation_media(out: &mut Out) {
    let tlc = run_media(CellType::Tlc);
    let qlc = run_media(CellType::Qlc);

    out.table(
        "Ablation: TLC vs QLC normal media on ConZone",
        &[
            "media",
            "seq write MiB/s",
            "conflict write MiB/s",
            "4K read p99 us",
            "P/E budget",
        ],
        &[
            vec![
                "TLC".into(),
                format!("{:.0}", tlc.seq_write),
                format!("{:.0}", tlc.conflict_write),
                format!("{:.1}", tlc.read_p99_us),
                tlc.budget.to_string(),
            ],
            vec![
                "QLC".into(),
                format!("{:.0}", qlc.seq_write),
                format!("{:.0}", qlc.conflict_write),
                format!("{:.1}", qlc.read_p99_us),
                qlc.budget.to_string(),
            ],
        ],
    );

    out.check([
        ExpectedRelation {
            claim: "QLC write bandwidth significantly below TLC (paper §I)",
            holds: qlc.seq_write < tlc.seq_write * 0.5,
            evidence: format!("{:.0} vs {:.0} MiB/s", qlc.seq_write, tlc.seq_write),
        },
        ExpectedRelation {
            claim: "QLC read latency tens of microseconds above TLC (paper §I)",
            holds: qlc.read_p99_us - tlc.read_p99_us > 30.0,
            evidence: format!("{:.1} vs {:.1} us p99", qlc.read_p99_us, tlc.read_p99_us),
        },
        ExpectedRelation {
            claim: "buffer conflicts halve write bandwidth on either media \
                    (SLC partial programs are cheap next to MLC tPROG)",
            holds: tlc.seq_write / tlc.conflict_write > 1.5
                && qlc.seq_write / qlc.conflict_write > 1.5,
            evidence: format!(
                "seq/conflict ratios {:.2} (TLC) and {:.2} (QLC)",
                tlc.seq_write / tlc.conflict_write,
                qlc.seq_write / qlc.conflict_write
            ),
        },
        ExpectedRelation {
            claim: "QLC endurance budget far below TLC (paper §I)",
            holds: qlc.budget < tlc.budget,
            evidence: format!("{} vs {} P/E cycles", qlc.budget, tlc.budget),
        },
    ]);
}
