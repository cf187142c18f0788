//! Simulated-time attribution: where a workload's device time goes.
//!
//! Every host-visible wait is charged to the internal activity that caused
//! it, turning "this workload is slow" into "62 % of device time is
//! mapping fetches" — the kind of answer the paper builds ConZone to
//! provide (§I: "understand and efficiently improve the hardware design").

use conzone_types::SimDuration;

/// Cumulative host-visible time by internal activity.
///
/// All categories measure *request-blocking* simulated time, so overlapped
/// background work (tPROG behind `buffer_free`) does not appear here.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct TimeBreakdown {
    /// Mapping-table fetches on L2P cache misses (read path Ⅱ).
    pub mapping_fetch: SimDuration,
    /// Flash data reads for host reads (read path ③).
    pub data_read: SimDuration,
    /// Write-path waits: buffer transfers, premature flushes, combines.
    pub write_path: SimDuration,
    /// Reading staged fragments back out of SLC (combine path ③ of §III-B).
    pub combine_read: SimDuration,
    /// SLC garbage collection blocking a host request.
    pub gc: SimDuration,
    /// L2P persistence-log flushes (§III-E).
    pub l2p_log: SimDuration,
    /// Zone-reset erases.
    pub erase: SimDuration,
}

impl TimeBreakdown {
    /// Total attributed time.
    pub(crate) fn total(&self) -> SimDuration {
        self.mapping_fetch
            + self.data_read
            + self.write_path
            + self.combine_read
            + self.gc
            + self.l2p_log
            + self.erase
    }

    /// Every category with its stable name, in declaration order — the
    /// shape serializers and exporters should use so category names travel
    /// with the numbers.
    pub fn categories(&self) -> [(&'static str, SimDuration); 7] {
        [
            ("mapping_fetch", self.mapping_fetch),
            ("data_read", self.data_read),
            ("write_path", self.write_path),
            ("combine_read", self.combine_read),
            ("gc", self.gc),
            ("l2p_log", self.l2p_log),
            ("erase", self.erase),
        ]
    }

    /// Fraction of attributed time spent in `part`, in `[0, 1]`.
    pub(crate) fn share(&self, part: SimDuration) -> f64 {
        let total = self.total().as_nanos();
        if total == 0 {
            0.0
        } else {
            part.as_nanos() as f64 / total as f64
        }
    }
}

impl core::fmt::Display for TimeBreakdown {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "mapping {:.1}% | data read {:.1}% | write {:.1}% | combine {:.1}% | \
             gc {:.1}% | l2p log {:.1}% | erase {:.1}% (total {})",
            self.share(self.mapping_fetch) * 100.0,
            self.share(self.data_read) * 100.0,
            self.share(self.write_path) * 100.0,
            self.share(self.combine_read) * 100.0,
            self.share(self.gc) * 100.0,
            self.share(self.l2p_log) * 100.0,
            self.share(self.erase) * 100.0,
            self.total(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_and_shares() {
        let b = TimeBreakdown {
            mapping_fetch: SimDuration::from_micros(25),
            data_read: SimDuration::from_micros(50),
            write_path: SimDuration::from_micros(25),
            ..TimeBreakdown::default()
        };
        assert_eq!(b.total(), SimDuration::from_micros(100));
        assert!((b.share(b.data_read) - 0.5).abs() < 1e-9);
        assert_eq!(TimeBreakdown::default().share(SimDuration::ZERO), 0.0);
        assert!(b.to_string().contains("50.0%"));
    }

    #[test]
    fn categories_cover_every_field() {
        let b = TimeBreakdown {
            mapping_fetch: SimDuration::from_nanos(1),
            data_read: SimDuration::from_nanos(2),
            write_path: SimDuration::from_nanos(4),
            combine_read: SimDuration::from_nanos(8),
            gc: SimDuration::from_nanos(16),
            l2p_log: SimDuration::from_nanos(32),
            erase: SimDuration::from_nanos(64),
        };
        let cats = b.categories();
        let sum: u64 = cats.iter().map(|(_, d)| d.as_nanos()).sum();
        assert_eq!(sum, b.total().as_nanos(), "no field missing or doubled");
        let mut names: Vec<&str> = cats.iter().map(|(n, _)| *n).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), cats.len(), "category names are distinct");
    }
}
