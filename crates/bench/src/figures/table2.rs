use conzone_flash::FlashArray;
use conzone_types::{CellType, ChipId, DeviceConfig, Geometry, SimTime};

use crate::Out;

fn measure(cell: CellType) -> (f64, f64) {
    let cfg = DeviceConfig::builder(Geometry::tiny())
        .chunk_bytes(256 * 1024)
        .normal_cell(if cell == CellType::Slc {
            CellType::Tlc // normal region must be MLC; SLC measured in its own region
        } else {
            cell
        })
        .model_channel_bandwidth(false)
        .build()
        .expect("table2 config");
    let mut array = FlashArray::new(&cfg);

    let (block, program_us) = if cell == CellType::Slc {
        let out = array
            .program_slc(SimTime::ZERO, ChipId(0), 0, 1, None)
            .expect("slc program");
        (0usize, (out.finish - SimTime::ZERO).as_micros_f64())
    } else {
        let block = cfg.geometry.slc_blocks_per_chip;
        let out = array
            .program_unit(SimTime::ZERO, ChipId(0), block, None)
            .expect("mlc program");
        (block, (out.finish - SimTime::ZERO).as_micros_f64())
    };

    let start = SimTime::from_nanos(100_000_000);
    let base = array.block_base(ChipId(0), block);
    let read = array.read_slices(start, &[base]).expect("read");
    let read_us = (read.finish - start).as_micros_f64();
    (program_us, read_us)
}

/// Table II: media latencies.
///
/// Measures one program and one read per media type on a live flash array
/// (channel bandwidth disabled so the bare media latency is visible) and
/// compares against the paper's published values.
pub fn table2(out: &mut Out) {
    let expected = [
        (CellType::Slc, 75.0, 20.0),
        (CellType::Tlc, 937.5, 32.0),
        (CellType::Qlc, 6400.0, 85.0),
    ];
    let mut rows = Vec::new();
    let mut all_match = true;
    for (cell, prog_paper, read_paper) in expected {
        let (prog, read) = measure(cell);
        let ok = (prog - prog_paper).abs() < 0.01 && (read - read_paper).abs() < 0.01;
        all_match &= ok;
        rows.push(vec![
            cell.to_string().to_uppercase(),
            format!("{prog:.1}"),
            format!("{prog_paper:.1}"),
            format!("{read:.1}"),
            format!("{read_paper:.1}"),
            if ok { "ok" } else { "MISMATCH" }.to_string(),
        ]);
    }
    out.table(
        "Table II: media latency (us), measured vs paper",
        &[
            "media",
            "program (measured)",
            "program (paper)",
            "read (measured)",
            "read (paper)",
            "check",
        ],
        &rows,
    );
    out.line(format!(
        "\n{}",
        if all_match {
            "all media latencies match Table II exactly"
        } else {
            "some latencies deviate from Table II"
        }
    ));
}
