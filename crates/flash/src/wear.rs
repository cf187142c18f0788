//! Wear accounting and lifespan projection.
//!
//! The paper's introduction motivates zone abstraction with lifespan:
//! legacy devices move host-invalidated data during GC (the trim gap),
//! consuming program/erase cycles. This module turns the per-block erase
//! counters into a lifespan report: cycles used, budget fraction, and the
//! projected total host writes until the budget is exhausted.

use conzone_types::CellType;

/// Typical program/erase cycle budgets for 3D NAND (data-sheet order of
/// magnitude; the paper cites the QLC endurance decrease in §I).
pub fn erase_budget(cell: CellType) -> u64 {
    match cell {
        CellType::Slc => 60_000,
        CellType::Tlc => 3_000,
        CellType::Qlc => 1_000,
    }
}

/// Wear snapshot of one media region.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RegionWear {
    /// Cell technology of the region.
    pub cell: CellType,
    /// Blocks in the region.
    pub blocks: u64,
    /// Highest per-block erase count.
    pub max_erases: u64,
    /// Mean per-block erase count.
    pub mean_erases: f64,
    /// Erase budget per block for this media.
    pub budget: u64,
}

impl RegionWear {
    /// Fraction of the region's worst block budget consumed, `[0, 1+]`.
    pub fn wear_fraction(&self) -> f64 {
        self.max_erases as f64 / self.budget as f64
    }
}

/// Combined wear report for both regions of the array.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WearReport {
    /// The SLC secondary-buffer region.
    pub slc: RegionWear,
    /// The normal (zoned) region.
    pub normal: RegionWear,
    /// Host bytes written so far (filled in by the device model).
    pub host_bytes_written: u64,
}

impl WearReport {
    /// Projected total host bytes writable before the worst region hits
    /// its budget, extrapolating linearly from wear so far. `None` until
    /// any wear accumulates.
    pub fn projected_lifetime_host_bytes(&self) -> Option<f64> {
        let worst = self.slc.wear_fraction().max(self.normal.wear_fraction());
        if worst <= 0.0 || self.host_bytes_written == 0 {
            None
        } else {
            Some(self.host_bytes_written as f64 / worst)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn region(cell: CellType, max: u64) -> RegionWear {
        RegionWear {
            cell,
            blocks: 8,
            max_erases: max,
            mean_erases: max as f64 / 2.0,
            budget: erase_budget(cell),
        }
    }

    #[test]
    fn budgets_ordered_by_density() {
        assert!(erase_budget(CellType::Slc) > erase_budget(CellType::Tlc));
        assert!(erase_budget(CellType::Tlc) > erase_budget(CellType::Qlc));
    }

    #[test]
    fn wear_fraction_and_exhaustion() {
        let r = region(CellType::Tlc, 1500);
        assert!((r.wear_fraction() - 0.5).abs() < 1e-9);
        let r = region(CellType::Qlc, 1000);
        assert!(r.wear_fraction() >= 1.0, "the budget is exhausted");
    }

    #[test]
    fn lifetime_projection() {
        let report = WearReport {
            slc: region(CellType::Slc, 600),    // 1 % worn
            normal: region(CellType::Tlc, 300), // 10 % worn — the binding one
            host_bytes_written: 1 << 30,
        };
        let projected = report.projected_lifetime_host_bytes().unwrap();
        assert!((projected - 10.0 * (1u64 << 30) as f64).abs() < 1.0);

        let fresh = WearReport {
            slc: region(CellType::Slc, 0),
            normal: region(CellType::Tlc, 0),
            host_bytes_written: 0,
        };
        assert!(fresh.projected_lifetime_host_bytes().is_none());
    }
}
