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
    /// Mobile day: photo bursts walking the even zones, each racing
    /// synchronous metadata commits to zone 1, then zipf-skewed reads of
    /// the photos. `conzone gen-trace` builds it by default.
    Mobile,
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
    pub const ALL: [WorkloadPreset; 5] = [
        WorkloadPreset::Mobile,
        WorkloadPreset::Boot,
        WorkloadPreset::AppInstall,
        WorkloadPreset::CameraBurst,
        WorkloadPreset::SocialScroll,
    ];

    /// Preset name as used on the CLI.
    pub fn name(self) -> &'static str {
        match self {
            WorkloadPreset::Mobile => "mobile",
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
            WorkloadPreset::Mobile => {
                // 8 photos of 8 MiB, each committing 16 KiB of metadata
                // every 2 MiB; the walk goes on where the last photo ended.
                let mut zone = 0;
                for _photo in 0..8 {
                    zone = b.stream_write(zone, 8 << 20, Some((2 << 20, 1)));
                    b.advance(5_000_000);
                }
                // Then the gallery is browsed: 5000 zipf-skewed reads.
                for _ in 0..5000 {
                    b.zipf_read();
                    b.advance(50_000);
                }
            }
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
                b.stream_write(0, 96 << 20, None);
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
                    b.stream_write(0, 8 << 20, Some((2 << 20, meta_zone)));
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

    /// The offset of `len` bytes at `zone`'s cursor, which moves past
    /// them. A zone they do not fit is discarded first, and its extents
    /// are no longer readable.
    fn reserve(&mut self, zone: u64, len: u64) -> u64 {
        let (zb, z) = (self.zone_bytes, to_index(zone));
        if self.wp[z] + len > zb {
            self.push(TraceKind::Discard, zone * zb, zb);
            self.readable.retain(|(off, _)| off / zb != zone);
            self.wp[z] = 0;
        }
        let offset = zone * zb + self.wp[z];
        self.wp[z] += len;
        offset
    }

    /// Appends `len` bytes from `zone`'s cursor in writes of up to
    /// 512 KiB, moving on to the next zone of the same parity when one
    /// fills. With `meta = Some((every, meta_zone))`, a 16 KiB metadata
    /// write to `meta_zone` follows every `every` bytes. Returns the zone
    /// the stream ended in.
    fn stream_write(&mut self, mut zone: u64, len: u64, meta: Option<(u64, u64)>) -> u64 {
        let mut streamed = 0;
        while streamed < len {
            let chunk = (512 * 1024).min(len - streamed);
            if self.wp[to_index(zone)] + chunk > self.zone_bytes {
                zone = (zone + 2) % self.zones;
            }
            let offset = self.reserve(zone, chunk);
            self.push(TraceKind::Write, offset, chunk);
            self.readable.push((offset, chunk));
            streamed += chunk;
            self.t += 150_000;
            if let Some((every, meta_zone)) = meta {
                if streamed % every == 0 {
                    self.log_write(meta_zone, 16 * 1024);
                }
            }
        }
        zone
    }

    /// Fills a whole zone (pre-existing data for read-heavy presets).
    fn fill_zone(&mut self, zone: u64) {
        let len = self.zone_bytes - self.wp[to_index(zone)];
        self.stream_write(zone, len, None);
    }

    /// Appends a small write to a dedicated log zone.
    fn log_write(&mut self, zone: u64, len: u64) {
        let offset = self.reserve(zone, len);
        self.push(TraceKind::Write, offset, len);
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

    /// A zipf-skewed 4 KiB read: of the `n` readable extents, oldest
    /// first, the one at rank `⌊u³ · n⌋` for a uniform `u`. Only exact
    /// IEEE-754 arithmetic, so every platform draws the same trace.
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

    /// FNV-1a, to pin a whole trace text in one number.
    fn fnv1a(text: &str) -> u64 {
        text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
    }

    #[test]
    fn names_roundtrip() {
        for p in WorkloadPreset::ALL {
            assert_eq!(WorkloadPreset::from_name(p.name()), Some(p));
        }
        assert_eq!(WorkloadPreset::from_name("bogus"), None);
    }

    /// Every preset's text on the test geometry at seed 7, pinned: a
    /// change to the shared builder must leave the presets as they were.
    #[test]
    fn preset_traces_are_pinned() {
        let c = DeviceConfig::tiny_for_tests();
        let (zb, zc) = (c.zone_size_bytes(), c.zone_count() as u64);
        let pins = [
            (WorkloadPreset::Mobile, 0x9c55_f6ae_7e6d_d2ee, 5216),
            (WorkloadPreset::Boot, 0x5070_bc37_ee73_5da1, 6127),
            (WorkloadPreset::AppInstall, 0xb265_46b1_e0b0_9f56, 3326),
            (WorkloadPreset::CameraBurst, 0xba8c_699c_fcf4_d6ad, 446),
            (WorkloadPreset::SocialScroll, 0x471e_2d9f_cf88_15e6, 8339),
        ];
        for (preset, hash, ops) in pins {
            let trace = preset.build(zb, zc, 7);
            let got = (fnv1a(&trace.to_text()), trace.len());
            assert_eq!(got, (hash, ops), "{}: {:#018x}", preset.name(), got.0);
        }
    }

    /// On 32 zones of 16 MiB and on 16 zones of 1 MiB, where the logs of
    /// `boot` and `social-scroll` wrap and the media streams revisit zones.
    #[test]
    fn every_preset_replays_cleanly() {
        let tiny = || ConZone::new(DeviceConfig::tiny_for_tests());
        for make in [dev, tiny] {
            for preset in WorkloadPreset::ALL {
                let mut d = make();
                let trace = preset.build(d.zone_size(), d.zone_count() as u64, 7);
                let name = format!("{} on {} zones", preset.name(), d.zone_count());
                assert!(trace.len() > 0, "{name}");
                let report = replay_trace(&mut d, &trace, SimTime::ZERO, false)
                    .unwrap_or_else(|e| panic!("{name}: {e}"));
                assert_eq!(report.ops, trace.len() as u64, "{name}");
            }
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
