//! Canned consumer-device workloads, as replayable traces.
//!
//! The paper targets "research on consumer-grade zoned flash storage with
//! diverse I/O characteristics" (§I contribution 1). These presets encode
//! the access patterns the mobile-storage literature keeps measuring, so
//! a design change can be evaluated against a whole day-in-the-life in
//! one command (`conzone gen-trace --preset ...`).

use conzone_sim::SimRng;
use conzone_types::{to_index, SimTime, SLICE_BYTES};

use crate::trace::{Trace, TraceKind, TraceOp};

/// The available workload presets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkloadPreset {
    /// Cold boot: a storm of small scattered reads (libraries, dex files,
    /// configuration) with a handful of log writes.
    Boot,
    /// App installation: large sequential package write, then extraction —
    /// interleaved reads of the package and writes of many small files.
    AppInstall,
    /// Camera burst: large sequential media writes racing small
    /// synchronous metadata commits (the §II-B conflict pattern).
    CameraBurst,
    /// Social-media scrolling: zipf-skewed small reads with a trickle of
    /// cache writes.
    SocialScroll,
}

impl WorkloadPreset {
    /// All presets.
    pub const ALL: [WorkloadPreset; 4] = [
        WorkloadPreset::Boot,
        WorkloadPreset::AppInstall,
        WorkloadPreset::CameraBurst,
        WorkloadPreset::SocialScroll,
    ];

    /// Preset name as used on the CLI.
    pub fn name(self) -> &'static str {
        match self {
            WorkloadPreset::Boot => "boot",
            WorkloadPreset::AppInstall => "app-install",
            WorkloadPreset::CameraBurst => "camera-burst",
            WorkloadPreset::SocialScroll => "social-scroll",
        }
    }

    /// Parses a CLI preset name.
    pub fn from_name(name: &str) -> Option<WorkloadPreset> {
        Self::ALL.into_iter().find(|p| p.name() == name)
    }

    /// Builds the preset's trace for a zoned device of `zones` zones of
    /// `zone_bytes`. Writes are sequential per zone; reads target written
    /// extents only, so the trace replays cleanly on a fresh device.
    pub fn build(self, zone_bytes: u64, zones: u64, seed: u64) -> Trace {
        let mut b = PresetBuilder::new(zone_bytes, zones, seed);
        match self {
            WorkloadPreset::Boot => {
                // Pre-existing system image in zones 0..4.
                b.fill_zone(0);
                b.fill_zone(2);
                b.fill_zone(4);
                // 6000 scattered 4-16 KiB reads, occasionally a log write.
                for i in 0..6000 {
                    let slices = 1 + b.rng.below(4);
                    b.rand_read(slices);
                    if i % 50 == 0 {
                        b.log_write(1, 16 * 1024);
                    }
                    b.advance(40_000);
                }
            }
            WorkloadPreset::AppInstall => {
                // 96 MiB package download, sequential.
                b.stream_write(0, 96 << 20, 512 * 1024);
                b.advance(10_000_000);
                // Extraction: read package, write many small files.
                for _ in 0..1500 {
                    b.rand_read(8);
                    b.log_write(3, 32 * 1024);
                    b.advance(100_000);
                }
            }
            WorkloadPreset::CameraBurst => {
                // Metadata lives on the last even zone: same buffer parity
                // as the media zones, so every commit contends (§II-B).
                let meta_zone = b.zones - 2;
                for _photo in 0..16 {
                    b.stream_write_continue(0, 8 << 20, 512 * 1024, 2 << 20, meta_zone);
                    b.advance(3_000_000);
                }
            }
            WorkloadPreset::SocialScroll => {
                b.fill_zone(0);
                b.fill_zone(2);
                for i in 0..8000 {
                    b.zipf_read();
                    if i % 25 == 0 {
                        b.log_write(1, 48 * 1024); // media cache append
                    }
                    b.advance(25_000);
                }
            }
        }
        b.trace
    }
}

/// Shared machinery for the presets.
struct PresetBuilder {
    trace: Trace,
    rng: SimRng,
    zone_bytes: u64,
    zones: u64,
    t: u64,
    /// Sequential cursor per zone.
    wp: Vec<u64>,
    /// Extents available for reads: (offset, len).
    readable: Vec<(u64, u64)>,
}

impl PresetBuilder {
    fn new(zone_bytes: u64, zones: u64, seed: u64) -> PresetBuilder {
        PresetBuilder {
            trace: Trace::new(),
            rng: SimRng::new(seed),
            zone_bytes,
            zones,
            t: 0,
            wp: vec![0; to_index(zones)],
            readable: Vec::new(),
        }
    }

    fn advance(&mut self, ns: u64) {
        self.t += ns;
    }

    fn push(&mut self, kind: TraceKind, offset: u64, len: u64) {
        self.trace.push(TraceOp {
            at: SimTime::from_nanos(self.t),
            kind,
            offset,
            len,
        });
    }

    /// Appends `len` bytes to `zone`'s cursor in `chunk`-sized writes.
    fn stream_write(&mut self, zone: u64, len: u64, chunk: u64) {
        self.stream_write_continue(zone, len, chunk, u64::MAX, 0);
    }

    /// Like [`stream_write`], but interleaves a small metadata write into
    /// `meta_zone` every `meta_every` bytes (0 disables).
    fn stream_write_continue(
        &mut self,
        mut zone: u64,
        len: u64,
        chunk: u64,
        meta_every: u64,
        meta_zone: u64,
    ) {
        let mut streamed = 0;
        while streamed < len {
            if self.wp[to_index(zone)] + chunk > self.zone_bytes {
                // Move to the next zone of the same parity.
                zone = (zone + 2) % self.zones;
                if self.wp[to_index(zone)] + chunk > self.zone_bytes {
                    self.push(TraceKind::Discard, zone * self.zone_bytes, self.zone_bytes);
                    let zb = self.zone_bytes;
                    self.readable.retain(|(off, _)| off / zb != zone);
                    self.wp[to_index(zone)] = 0;
                }
            }
            let offset = zone * self.zone_bytes + self.wp[to_index(zone)];
            self.push(TraceKind::Write, offset, chunk);
            self.readable.push((offset, chunk));
            self.wp[to_index(zone)] += chunk;
            streamed += chunk;
            self.t += 150_000;
            if meta_every != u64::MAX && streamed % meta_every == 0 {
                self.log_write(meta_zone, 16 * 1024);
            }
        }
    }

    /// Fills a whole zone (pre-existing data for read-heavy presets).
    fn fill_zone(&mut self, zone: u64) {
        let len = self.zone_bytes - self.wp[to_index(zone)];
        self.stream_write_at_zone(zone, len);
    }

    fn stream_write_at_zone(&mut self, zone: u64, len: u64) {
        let mut streamed = 0;
        while streamed < len {
            let chunk = (512 * 1024).min(len - streamed);
            let offset = zone * self.zone_bytes + self.wp[to_index(zone)];
            self.push(TraceKind::Write, offset, chunk);
            self.readable.push((offset, chunk));
            self.wp[to_index(zone)] += chunk;
            streamed += chunk;
            self.t += 150_000;
        }
    }

    /// Appends a small write to a dedicated log zone.
    fn log_write(&mut self, zone: u64, len: u64) {
        if self.wp[to_index(zone)] + len > self.zone_bytes {
            self.push(TraceKind::Discard, zone * self.zone_bytes, self.zone_bytes);
            let zb = self.zone_bytes;
            self.readable.retain(|(off, _)| off / zb != zone);
            self.wp[to_index(zone)] = 0;
        }
        let offset = zone * self.zone_bytes + self.wp[to_index(zone)];
        self.push(TraceKind::Write, offset, len);
        self.wp[to_index(zone)] += len;
        self.t += 80_000;
    }

    /// A uniform random 4 KiB-aligned read from the readable extents.
    fn rand_read(&mut self, slices: u64) {
        if self.readable.is_empty() {
            return;
        }
        let (base, len) = self.readable[to_index(self.rng.below(self.readable.len() as u64))];
        let max_slices = (len / SLICE_BYTES).max(1);
        let n = slices.min(max_slices);
        let start = self.rng.below(max_slices - n + 1);
        self.push(TraceKind::Read, base + start * SLICE_BYTES, n * SLICE_BYTES);
    }

    /// A zipf-skewed 4 KiB read (hot head of the readable list).
    fn zipf_read(&mut self) {
        if self.readable.is_empty() {
            return;
        }
        let u = self.rng.f64();
        #[expect(
            clippy::cast_possible_truncation,
            reason = "a float-to-int `as` saturates, and the index is clamped to the list below"
        )]
        let idx = ((u * u * u) * self.readable.len() as f64) as usize;
        let (base, len) = self.readable[idx.min(self.readable.len() - 1)];
        let slice = self.rng.below((len / SLICE_BYTES).max(1));
        self.push(TraceKind::Read, base + slice * SLICE_BYTES, SLICE_BYTES);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::replay_trace;
    use conzone_core::ConZone;
    use conzone_types::{DeviceConfig, Geometry, ZonedDevice};

    fn dev() -> ConZone {
        let mut g = Geometry::consumer_1p5gb();
        g.blocks_per_chip = 40; // 32 zones
        ConZone::new(DeviceConfig::builder(g).build().unwrap())
    }

    #[test]
    fn names_roundtrip() {
        for p in WorkloadPreset::ALL {
            assert_eq!(WorkloadPreset::from_name(p.name()), Some(p));
        }
        assert_eq!(WorkloadPreset::from_name("bogus"), None);
    }

    #[test]
    fn every_preset_replays_cleanly() {
        for preset in WorkloadPreset::ALL {
            let mut d = dev();
            let trace = preset.build(d.zone_size(), d.zone_count() as u64, 7);
            assert!(trace.len() > 0, "{}", preset.name());
            let report = replay_trace(&mut d, &trace, SimTime::ZERO, false)
                .unwrap_or_else(|e| panic!("{}: {e}", preset.name()));
            assert_eq!(report.ops, trace.len() as u64, "{}", preset.name());
        }
    }

    #[test]
    fn presets_have_distinct_shapes() {
        let d = dev();
        let zb = d.zone_size();
        let zc = d.zone_count() as u64;
        let count_reads = |t: &Trace| {
            t.ops().iter().filter(|o| o.kind == TraceKind::Read).count() as f64 / t.len() as f64
        };
        let boot = WorkloadPreset::Boot.build(zb, zc, 7);
        let install = WorkloadPreset::AppInstall.build(zb, zc, 7);
        let burst = WorkloadPreset::CameraBurst.build(zb, zc, 7);
        assert!(count_reads(&boot) > 0.8, "boot is read-dominated");
        assert!(count_reads(&burst) < 0.1, "bursts are write-dominated");
        assert!(
            count_reads(&install) > count_reads(&burst),
            "install mixes more reads than bursts"
        );
    }

    #[test]
    fn camera_burst_provokes_conflicts() {
        let mut d = dev();
        let trace = WorkloadPreset::CameraBurst.build(d.zone_size(), d.zone_count() as u64, 7);
        let report = replay_trace(&mut d, &trace, SimTime::ZERO, false).unwrap();
        assert!(
            report.counters.buffer_conflicts > 0,
            "metadata commits conflict with media: {:?}",
            report.counters
        );
    }

    #[test]
    fn deterministic_per_seed() {
        let d = dev();
        let a = WorkloadPreset::SocialScroll.build(d.zone_size(), d.zone_count() as u64, 9);
        let b = WorkloadPreset::SocialScroll.build(d.zone_size(), d.zone_count() as u64, 9);
        assert_eq!(a.ops(), b.ops());
        let c = WorkloadPreset::SocialScroll.build(d.zone_size(), d.zone_count() as u64, 10);
        assert_ne!(a.ops(), c.ops());
    }
}
