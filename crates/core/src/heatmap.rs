//! Per-zone / per-block state heatmap snapshots.
//!
//! GC behaviour is hard to debug from aggregate counters: you want to see
//! *which* zones hold staged SLC remainders, *which* blocks carry the
//! valid data a GC pass will have to migrate, and how wear spreads across
//! the SLC region. [`ConZone::heatmap_snapshot`] captures exactly that —
//! one row per zone (state machine + utilization) and one row per physical
//! block (cursor, valid slices, erase count as the wear column) — and the
//! CLI's `--heatmap` switch embeds it in the `--stats-json` report.

use conzone_types::{ChipId, ZoneId, ZoneState};

use crate::device::ConZone;

/// One zone's row in the heatmap.
#[derive(Debug, Clone, PartialEq)]
pub struct ZoneHeat {
    /// Zone index.
    pub zone: u64,
    /// Lifecycle state name (`empty` / `open` / `closed` / `full`).
    pub state: &'static str,
    /// Whether the zone is exposed as conventional (in-place writes).
    pub conventional: bool,
    /// Host-visible write pointer, in slices.
    pub wp_slices: u64,
    /// Durably placed slices (flushed canonically, staged or patched).
    pub flushed_slices: u64,
    /// Slices currently staged in the SLC secondary buffer.
    pub staged_slices: u64,
    /// Slices with a live mapping entry.
    pub mapped_slices: u64,
    /// `mapped_slices` over the zone size, in `[0, 1]`.
    pub utilization: f64,
}

/// One physical block's row in the heatmap.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockHeat {
    /// Chip holding the block.
    pub chip: u64,
    /// Block index within the chip.
    pub block: u64,
    /// Cell technology name (`slc` / `tlc` / `qlc`).
    pub cell: &'static str,
    /// Program cursor: slices written since the last erase.
    pub cursor: u64,
    /// Slices still valid (not superseded or invalidated).
    pub valid_slices: u64,
    /// Block capacity in slices.
    pub slices: u64,
    /// Erase count — the wear column (a placeholder until a calibrated
    /// wear model lands; raw erases are the paper's §I lifespan proxy).
    pub wear: u64,
}

/// A point-in-time device state snapshot for GC-behaviour debugging.
#[derive(Debug, Clone, PartialEq)]
pub struct HeatmapSnapshot {
    /// One row per zone, in zone order.
    pub zones: Vec<ZoneHeat>,
    /// One row per physical block, chip-major.
    pub blocks: Vec<BlockHeat>,
    /// L2P cache pressure, in `[0, 1]`.
    pub l2p_occupancy: f64,
    /// Free superblocks remaining in the SLC region.
    pub slc_free_superblocks: u64,
    /// Used (GC-eligible) superblocks in the SLC region.
    pub slc_used_superblocks: u64,
}

fn state_name(s: ZoneState) -> &'static str {
    match s {
        ZoneState::Empty => "empty",
        ZoneState::Open => "open",
        ZoneState::Closed => "closed",
        ZoneState::Full => "full",
    }
}

impl ConZone {
    /// Captures the current per-zone / per-block state heatmap.
    pub fn heatmap_snapshot(&self) -> HeatmapSnapshot {
        let zs = self.zones.zone_slices();
        let zones = self
            .media
            .iter()
            .enumerate()
            .map(|(i, z)| {
                let zone = ZoneId(i as u64);
                let mapped = self.table.zone_mapped_slices(zone);
                ZoneHeat {
                    zone: zone.raw(),
                    state: state_name(self.zones.state(zone)),
                    conventional: self.zones.is_conventional(zone),
                    wp_slices: self.zones.wp_slices(zone),
                    flushed_slices: z.flushed_slices,
                    staged_slices: z.staged,
                    mapped_slices: mapped,
                    utilization: if zs == 0 {
                        0.0
                    } else {
                        mapped as f64 / zs as f64
                    },
                }
            })
            .collect();

        let g = &self.cfg.geometry;
        let mut blocks = Vec::with_capacity(g.nchips() * g.blocks_per_chip);
        for chip in 0..g.nchips() {
            for block in 0..g.blocks_per_chip {
                let b = self.flash.block(ChipId(chip as u64), block);
                blocks.push(BlockHeat {
                    chip: chip as u64,
                    block: block as u64,
                    cell: b.cell().name(),
                    cursor: b.cursor() as u64,
                    valid_slices: b.valid_count() as u64,
                    slices: b.slices() as u64,
                    wear: b.erase_count(),
                });
            }
        }

        HeatmapSnapshot {
            zones,
            blocks,
            l2p_occupancy: self.cache.occupancy(),
            slc_free_superblocks: self.slc.free.len() as u64,
            slc_used_superblocks: self.slc.used.len() as u64,
        }
    }
}

#[cfg(test)]
mod tests {
    use conzone_types::{DeviceConfig, IoRequest, SimTime, StorageDevice};

    use crate::ConZone;

    #[test]
    fn snapshot_tracks_writes_and_wear() {
        let mut dev = ConZone::new(DeviceConfig::tiny_for_tests());
        let snap = dev.heatmap_snapshot();
        assert_eq!(snap.zones.len(), dev.config().zone_count());
        assert!(snap.zones.iter().all(|z| z.state == "empty"));
        assert!(snap.blocks.iter().all(|b| b.cursor == 0 && b.wear == 0));
        assert_eq!(snap.l2p_occupancy, 0.0);

        // Fill one whole zone: its row goes full, its blocks gain data.
        let zone_bytes = dev.config().zone_size_bytes();
        let done = dev
            .submit(SimTime::ZERO, &IoRequest::write(0, zone_bytes))
            .expect("fill zone 0");
        let snap = dev.heatmap_snapshot();
        let z0 = &snap.zones[0];
        assert_eq!(z0.state, "full");
        assert_eq!(z0.wp_slices, z0.flushed_slices);
        assert!(z0.utilization > 0.99, "{}", z0.utilization);
        assert!(
            snap.blocks.iter().any(|b| b.valid_slices > 0),
            "programmed blocks must show valid data"
        );

        // A zone reset erases the reserved blocks: wear appears.
        use conzone_types::{ZoneId, ZonedDevice};
        dev.reset_zone(done.finished, ZoneId(0)).expect("reset");
        let snap = dev.heatmap_snapshot();
        assert_eq!(snap.zones[0].state, "empty");
        assert_eq!(snap.zones[0].mapped_slices, 0);
        assert!(
            snap.blocks.iter().any(|b| b.wear > 0),
            "reset must erase blocks"
        );
    }
}
