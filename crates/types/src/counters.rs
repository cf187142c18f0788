//! Device statistics counters.
//!
//! [`Counters`] is a passive, public-field statistics record exposed by all
//! device models; the host harness derives write amplification and cache
//! hit rates from it.

use crate::{IoKind, IoRequest};

/// Cumulative event counters of a device model.
///
/// All byte counts are raw bytes; all op counts are events. The struct is a
/// plain data record (public fields) so harnesses can snapshot and diff it.
///
/// ```
/// use conzone_types::Counters;
///
/// let mut c = Counters::default();
/// c.host_write_bytes = 4096;
/// c.flash_program_bytes_tlc = 8192;
/// assert_eq!(c.write_amplification(), 2.0);
/// ```
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Counters {
    /// Bytes the host read.
    pub host_read_bytes: u64,
    /// Bytes the host wrote.
    pub host_write_bytes: u64,
    /// Host read requests.
    pub host_read_ops: u64,
    /// Host write requests.
    pub host_write_ops: u64,

    /// Bytes programmed into SLC flash.
    pub flash_program_bytes_slc: u64,
    /// Bytes programmed into TLC flash.
    pub flash_program_bytes_tlc: u64,
    /// Bytes programmed into QLC flash.
    pub flash_program_bytes_qlc: u64,
    /// Data-page senses: every flash page sensed for data — host reads,
    /// GC and SLC-combine read-backs, a remount's SLC scan and FEMU's
    /// reads.
    pub flash_data_reads: u64,
    /// Mapping-table page senses: L2P-miss fetches and a remount's read
    /// of the L2P log head.
    pub flash_mapping_reads: u64,
    /// Flash block erases in the SLC region.
    pub erases_slc: u64,
    /// Flash block erases in the normal region.
    pub erases_normal: u64,

    /// L2P cache hits at zone granularity.
    pub l2p_hits_zone: u64,
    /// L2P cache hits at chunk granularity.
    pub l2p_hits_chunk: u64,
    /// L2P cache hits at page granularity.
    pub l2p_hits_page: u64,
    /// L2P cache misses (mapping fetched from flash).
    pub l2p_misses: u64,
    /// Cache entries evicted by LRU replacement.
    pub l2p_evictions: u64,

    /// Write-buffer flushes triggered before a full programming unit
    /// accumulated (paper Fig. 1 (b) W.2).
    pub premature_flushes: u64,
    /// Write-buffer flushes of complete programming units.
    pub full_flushes: u64,
    /// Times an incoming write found its buffer owned by a different zone
    /// (the Fig. 6 (b) conflict event).
    pub buffer_conflicts: u64,
    /// SLC fragments combined with buffered data and rewritten to the
    /// normal region (paper §III-B path ③).
    pub slc_combines: u64,
    /// Slices written to SLC as zone-tail alignment patches (§III-E).
    pub patch_slices: u64,

    /// L2P persistence-log flushes to flash (paper §III-E).
    pub l2p_log_flushes: u64,
    /// In-place conventional-zone slice updates.
    pub conventional_updates: u64,
    /// SLC garbage-collection runs.
    pub gc_runs: u64,
    /// Valid 4 KiB slices migrated by SLC GC.
    pub gc_migrated_slices: u64,
    /// Zone resets handled.
    pub zone_resets: u64,

    /// Data-page reads that needed read-retry (sum of retry steps).
    pub read_retries: u64,
    /// Program operations that failed and were re-issued elsewhere.
    pub program_failures: u64,
    /// Blocks permanently retired (failed erases and grown bad blocks).
    pub blocks_retired: u64,
    /// Slices whose mapping was rebuilt from non-volatile SLC by the
    /// remount replay after a power cut.
    pub recovered_slices: u64,
    /// Acknowledged-but-unflushed slices lost from volatile write buffers
    /// at a power cut.
    pub lost_slices: u64,
}

/// The one list of [`Counters`] fields, in declaration order, handed to
/// the macro named by `$with`. Every user expands it into a struct
/// pattern or literal without a `..` rest, so a field missing here is a
/// compile error (E0027 / E0063) and a name that is not a field is E0026
/// / E0560: a new counter cannot miss the exporters, `merge` or `since`.
macro_rules! each_counter {
    ($with:ident) => {
        $with!(
            host_read_bytes,
            host_write_bytes,
            host_read_ops,
            host_write_ops,
            flash_program_bytes_slc,
            flash_program_bytes_tlc,
            flash_program_bytes_qlc,
            flash_data_reads,
            flash_mapping_reads,
            erases_slc,
            erases_normal,
            l2p_hits_zone,
            l2p_hits_chunk,
            l2p_hits_page,
            l2p_misses,
            l2p_evictions,
            premature_flushes,
            full_flushes,
            buffer_conflicts,
            slc_combines,
            patch_slices,
            l2p_log_flushes,
            conventional_updates,
            gc_runs,
            gc_migrated_slices,
            zone_resets,
            read_retries,
            program_failures,
            blocks_retired,
            recovered_slices,
            lost_slices
        )
    };
}

impl Counters {
    /// Creates an all-zero counter set (same as `Default`).
    pub fn new() -> Counters {
        Counters::default()
    }

    /// Books a host command the device accepted: one op and its length,
    /// on the write side for a write or an append, on the read side for a
    /// read. A device calls it once the command succeeds, so a refused
    /// command is never counted.
    #[inline]
    pub fn book_host(&mut self, request: &IoRequest) {
        match request.kind {
            IoKind::Write | IoKind::Append => {
                self.host_write_ops += 1;
                self.host_write_bytes += request.len;
            }
            IoKind::Read => {
                self.host_read_ops += 1;
                self.host_read_bytes += request.len;
            }
        }
    }

    /// Total bytes programmed into flash, all media.
    #[inline]
    pub fn flash_program_bytes(&self) -> u64 {
        self.flash_program_bytes_slc + self.flash_program_bytes_tlc + self.flash_program_bytes_qlc
    }

    /// Write amplification factor: flash bytes programmed per host byte
    /// written. Returns 0.0 for a truly idle interval (nothing written,
    /// nothing programmed) and `f64::INFINITY` when flash was programmed
    /// without any host write — a GC-, patch- or recovery-only interval,
    /// which a plain 0.0 would misreport as "no amplification".
    pub fn write_amplification(&self) -> f64 {
        if self.host_write_bytes == 0 {
            if self.flash_program_bytes() > 0 {
                f64::INFINITY
            } else {
                0.0
            }
        } else {
            self.flash_program_bytes() as f64 / self.host_write_bytes as f64
        }
    }

    /// Total L2P cache hits at any granularity.
    #[inline]
    pub fn l2p_hits(&self) -> u64 {
        self.l2p_hits_zone + self.l2p_hits_chunk + self.l2p_hits_page
    }

    /// L2P cache miss ratio in `[0, 1]`. Returns 0.0 with no lookups.
    pub fn l2p_miss_rate(&self) -> f64 {
        let total = self.l2p_hits() + self.l2p_misses;
        if total == 0 {
            0.0
        } else {
            self.l2p_misses as f64 / total as f64
        }
    }

    /// Every counter as a `(field_name, value)` pair, in declaration
    /// order. This is the canonical field list used by the metrics and
    /// stats exporters, so names stay stable across output formats.
    pub fn named_fields(&self) -> Vec<(&'static str, u64)> {
        macro_rules! fields {
            ($($f:ident),*) => {{
                let Counters { $($f),* } = *self;
                vec![$((stringify!($f), $f)),*]
            }};
        }
        each_counter!(fields)
    }

    /// Adds `delta` into `self`, field by field — the accumulation dual of
    /// [`since`](Self::since), used by the queue-pair host model to fold
    /// per-command device deltas into per-tenant totals.
    pub fn merge(&mut self, delta: &Counters) {
        macro_rules! acc {
            ($($f:ident),*) => {
                Counters { $($f: self.$f + delta.$f),* }
            };
        }
        *self = each_counter!(acc);
    }

    /// Difference `self - earlier`, for interval statistics.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if any counter of `earlier` exceeds `self`.
    pub fn since(&self, earlier: &Counters) -> Counters {
        macro_rules! diff {
            ($($f:ident),*) => {
                Counters { $($f: self.$f - earlier.$f),* }
            };
        }
        each_counter!(diff)
    }
}

impl core::fmt::Display for Counters {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        let waf = self.write_amplification();
        let waf = if waf.is_finite() {
            format!("{waf:.3}")
        } else {
            "inf".to_string()
        };
        write!(
            f,
            "host {}r/{}w MiB | flash {} MiB programmed (waf {}) | \
             l2p {:.1}% miss | {} conflicts, {} premature, {} combines | \
             {} gc, {} resets",
            self.host_read_bytes >> 20,
            self.host_write_bytes >> 20,
            self.flash_program_bytes() >> 20,
            waf,
            self.l2p_miss_rate() * 100.0,
            self.buffer_conflicts,
            self.premature_flushes,
            self.slc_combines,
            self.gc_runs,
            self.zone_resets,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn waf_counts_all_media() {
        let mut c = Counters::new();
        c.host_write_bytes = 100;
        c.flash_program_bytes_slc = 50;
        c.flash_program_bytes_tlc = 100;
        assert_eq!(c.write_amplification(), 1.5);
    }

    #[test]
    fn waf_zero_when_idle() {
        // Truly idle: nothing written, nothing programmed.
        assert_eq!(Counters::new().write_amplification(), 0.0);
        assert_eq!(Counters::new().l2p_miss_rate(), 0.0);
    }

    #[test]
    fn waf_infinite_when_flash_programmed_without_host_writes() {
        // A GC- or recovery-only interval programs flash while the host is
        // idle; that is infinite amplification, not zero.
        let mut c = Counters::new();
        c.flash_program_bytes_slc = 4096;
        assert!(c.write_amplification().is_infinite());
        let s = c.to_string();
        assert!(s.contains("waf inf"), "{s}");
    }

    #[test]
    fn miss_rate() {
        let mut c = Counters::new();
        c.l2p_hits_page = 2;
        c.l2p_hits_chunk = 1;
        c.l2p_misses = 1;
        assert_eq!(c.l2p_hits(), 3);
        assert_eq!(c.l2p_miss_rate(), 0.25);
    }

    #[test]
    fn display_summarises() {
        let mut c = Counters::new();
        c.host_write_bytes = 4 << 20;
        c.flash_program_bytes_tlc = 6 << 20;
        c.buffer_conflicts = 3;
        let s = c.to_string();
        assert!(s.contains("4w MiB"), "{s}");
        assert!(s.contains("waf 1.500"), "{s}");
        assert!(s.contains("3 conflicts"), "{s}");
    }

    #[test]
    fn display_has_no_double_spaces() {
        let s = Counters::new().to_string();
        assert!(
            !s.contains("  "),
            "Display output embeds literal whitespace runs: {s:?}"
        );
    }

    #[test]
    fn named_fields_cover_the_struct() {
        let mut c = Counters::new();
        c.host_write_bytes = 7;
        c.zone_resets = 3;
        let fields = c.named_fields();
        // One entry per field, no duplicates, values match.
        let mut names = std::collections::BTreeSet::new();
        for (name, _) in &fields {
            assert!(names.insert(*name), "duplicate field name {name}");
        }
        assert_eq!(
            fields.iter().find(|(n, _)| *n == "host_write_bytes"),
            Some(&("host_write_bytes", 7))
        );
        assert_eq!(
            fields.iter().find(|(n, _)| *n == "zone_resets"),
            Some(&("zone_resets", 3))
        );
        // Summing a `since` delta through named_fields equals the diff.
        let d = c.since(&Counters::new());
        let total: u64 = d.named_fields().iter().map(|(_, v)| v).sum();
        assert_eq!(total, 10);
    }

    #[test]
    fn merge_is_the_inverse_of_since() {
        let mut early = Counters::new();
        early.host_write_bytes = 10;
        early.gc_runs = 1;
        let mut late = early;
        late.host_write_bytes = 25;
        late.gc_runs = 3;
        late.zone_resets = 2;
        // early + (late - early) == late, field for field.
        let mut acc = early;
        acc.merge(&late.since(&early));
        assert_eq!(acc, late);
        // Merging a delta into zero reproduces the delta.
        let mut zero = Counters::new();
        zero.merge(&late);
        assert_eq!(zero, late);
    }

    #[test]
    fn since_diffs_every_field() {
        let mut early = Counters::new();
        early.host_write_bytes = 10;
        early.gc_runs = 1;
        let mut late = early;
        late.host_write_bytes = 25;
        late.gc_runs = 3;
        late.zone_resets = 2;
        let d = late.since(&early);
        assert_eq!(d.host_write_bytes, 15);
        assert_eq!(d.gc_runs, 2);
        assert_eq!(d.zone_resets, 2);
        assert_eq!(d.host_read_bytes, 0);
    }
}
