use conzone_types::{CellType, MapGranularity, SearchStrategy, StorageDevice, HOST_OVERHEAD};

use crate::{conzone_device, femu_device, legacy_device, Out};

/// Table I: the emulator feature matrix.
///
/// Unlike the paper's static table, each cell here is probed from the live
/// device models where possible: media latencies below the virtualization
/// floor, heterogeneous cell types, configurable write buffers, an L2P
/// cache, and the mapping scheme.
pub fn table1(out: &mut Out) {
    let cz = conzone_device(MapGranularity::Zone, SearchStrategy::Bitmap);
    let fm = femu_device();
    let lg = legacy_device();

    // Probe: low-latency media means the model can express sub-25 µs reads
    // (SLC) without a virtualization overhead floor above that. FEMU's
    // jitter model has a ~25 µs median per I/O on top of media.
    let cz_low_latency = CellType::Slc.latency().read.as_micros_f64() <= 25.0
        && HOST_OVERHEAD.as_micros_f64() < 20.0;

    // Probe: heterogeneous media = SLC region + multi-level normal region.
    let cz_hetero =
        cz.config().geometry.slc_blocks_per_chip > 0 && cz.config().normal_cell != CellType::Slc;

    let rows = vec![
        vec![
            "Low-latency media".to_string(),
            "No (KVM floor)".into(),
            "No".into(),
            "Yes".into(),
            if cz_low_latency { "Yes" } else { "No" }.into(),
        ],
        vec![
            "Heterogeneous media".to_string(),
            "No".into(),
            "No".into(),
            "No".into(),
            if cz_hetero {
                "Yes (SLC + TLC/QLC)"
            } else {
                "No"
            }
            .into(),
        ],
        vec![
            "# of write buffers".to_string(),
            "Yes".into(),
            "No".into(),
            "No".into(),
            format!("Yes ({} configured)", cz.config().write_buffers),
        ],
        vec![
            "L2P cache".to_string(),
            "No".into(),
            "No".into(),
            "No".into(),
            format!("Yes ({} entries)", cz.config().l2p_cache_entries()),
        ],
        vec![
            "L2P mapping".to_string(),
            "No".into(),
            "Zone".into(),
            "No".into(),
            format!("Hybrid (page/chunk/zone, {})", cz.config().search_strategy),
        ],
    ];
    out.table(
        "Table I: zoned flash storage emulators",
        &[
            "feature",
            "FEMU",
            "ConfZNS",
            "NVMeVirt",
            "ConZone (this repo)",
        ],
        &rows,
    );

    out.line(format!(
        "\nlive models in this repository: {} (full internals), {} (gap model), {} (page-mapped baseline)",
        cz.model_name(),
        fm.model_name(),
        lg.model_name()
    ));
    out.line(format!(
        "femu gap model: channel bandwidth {}, vm jitter median ~25 us",
        if fm.config().model_channel_bandwidth {
            "modelled"
        } else {
            "not modelled"
        }
    ));
}
