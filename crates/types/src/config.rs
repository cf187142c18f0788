//! Device configuration: media timings, buffer and cache sizing, mapping
//! policy, and the builder that validates a complete [`DeviceConfig`].

use crate::addr::{to_index, MAX_SLICES, SLICE_BYTES};
use crate::error::ConfigError;
use crate::geometry::Geometry;
use crate::time::SimDuration;

/// Flash cell technology of a block.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CellType {
    /// Single-level cell: 4 KiB partial programming, lowest latency.
    Slc,
    /// Triple-level cell.
    Tlc,
    /// Quad-level cell.
    Qlc,
}

impl CellType {
    /// Short lowercase name, e.g. `"slc"`: what exports and reports print.
    pub fn name(self) -> &'static str {
        match self {
            CellType::Slc => "slc",
            CellType::Tlc => "tlc",
            CellType::Qlc => "qlc",
        }
    }

    /// Access latencies of this cell type: paper Table II. SLC programs in
    /// 75 µs \[ISSCC'20] and reads in 20 µs (vendor discussion, §III-B);
    /// TLC programs in 937.5 µs and reads in 32 µs, QLC in 6400 µs and
    /// 85 µs \[ISSCC'24]. The paper lists no erase times; they follow
    /// typical 3D NAND data sheets (3 / 3.5 / 4 ms).
    #[inline]
    pub const fn latency(self) -> MediaLatency {
        match self {
            CellType::Slc => MediaLatency {
                read: SimDuration::from_micros(20),
                program: SimDuration::from_micros(75),
                erase: SimDuration::from_millis(3),
            },
            CellType::Tlc => MediaLatency {
                read: SimDuration::from_micros(32),
                program: SimDuration::from_nanos(937_500),
                erase: SimDuration::from_nanos(3_500_000),
            },
            CellType::Qlc => MediaLatency {
                read: SimDuration::from_micros(85),
                program: SimDuration::from_micros(6400),
                erase: SimDuration::from_millis(4),
            },
        }
    }
}

impl core::fmt::Display for CellType {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(self.name())
    }
}

/// Access latency of one media type.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MediaLatency {
    /// Latency to read one flash page.
    pub read: SimDuration,
    /// Latency to program one programming unit.
    pub program: SimDuration,
    /// Latency to erase one flash block.
    pub erase: SimDuration,
}

/// Per-channel bandwidth in bytes per second: UFS 4.0-style 3200 MiB/s
/// (paper §IV-A).
pub const CHANNEL_BYTES_PER_SEC: u64 = 3200 * 1024 * 1024;

/// Bytes one L2P cache entry occupies (4 B in the paper's SRAM estimate,
/// §IV-D).
pub const L2P_ENTRY_BYTES: u64 = 4;

/// Media holding the persisted L2P mapping table; mapping fetches pay its
/// page-read latency.
pub const MAPPING_MEDIA: CellType = CellType::Slc;

/// Fixed per-request host I/O-stack overhead (submission and completion
/// path outside the device). ConZone runs under the real Linux block
/// layer; the models charge that cost explicitly.
pub const HOST_OVERHEAD: SimDuration = SimDuration::from_nanos(12_500);

/// Granularity of an L2P mapping entry (the paper's two reserved *map bits*,
/// §III-C): one logical page, one chunk, or one whole zone.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum MapGranularity {
    /// 4 KiB page mapping.
    Page,
    /// Chunk mapping (4 MiB / 1024 pages by default).
    Chunk,
    /// Whole-zone mapping.
    Zone,
}

impl MapGranularity {
    /// Encoding as the two reserved map bits in a mapping-table entry.
    pub fn to_bits(self) -> u8 {
        match self {
            MapGranularity::Page => 0b00,
            MapGranularity::Chunk => 0b01,
            MapGranularity::Zone => 0b10,
        }
    }

    /// Decodes the two map bits; returns `None` for the reserved pattern.
    pub fn from_bits(bits: u8) -> Option<MapGranularity> {
        match bits & 0b11 {
            0b00 => Some(MapGranularity::Page),
            0b01 => Some(MapGranularity::Chunk),
            0b10 => Some(MapGranularity::Zone),
            _ => None,
        }
    }
}

impl core::fmt::Display for MapGranularity {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            MapGranularity::Page => f.write_str("page"),
            MapGranularity::Chunk => f.write_str("chunk"),
            MapGranularity::Zone => f.write_str("zone"),
        }
    }
}

/// How an L2P cache miss discovers the aggregation level of an address
/// before fetching mapping entries from flash (paper §III-C / §IV-D).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SearchStrategy {
    /// Performance-optimised: an in-SRAM bitmap records the map bits of all
    /// logical addresses, so one flash fetch suffices. Costs ~0.006 % of
    /// capacity in SRAM (unacceptable at 1 TB, per the paper).
    Bitmap,
    /// Capacity-optimised: probe the mapping table zone-first, then chunk,
    /// then page — up to three flash fetches per miss.
    Multiple,
    /// The paper's proposed compromise: aggregated (chunk/zone) entries are
    /// pinned in the L2P cache when generated, so misses are always
    /// page-granularity and need one fetch.
    Pinned,
}

impl core::fmt::Display for SearchStrategy {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            SearchStrategy::Bitmap => f.write_str("bitmap"),
            SearchStrategy::Multiple => f.write_str("multiple"),
            SearchStrategy::Pinned => f.write_str("pinned"),
        }
    }
}

/// Seeded fault-injection configuration of the flash fault plane.
///
/// All rates default to zero, which disables injection entirely: the fault
/// plane never draws from its RNG, so a default-configured device is
/// bit-identical (state *and* timing) to a build without the fault plane.
/// Rates are per-operation probabilities in `[0, 1]`.
///
/// The fault RNG is seeded from [`FaultConfig::seed`] alone — independent
/// of the workload and jitter seeds — so two runs with the same seed and
/// the same operation sequence produce byte-identical fault schedules.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultConfig {
    /// Seed of the dedicated fault RNG.
    pub seed: u64,
    /// Probability that one program operation (unit or SLC batch) fails.
    /// The failed slices are burned; the core re-issues the data elsewhere.
    pub program_fail_rate: f64,
    /// Probability that one block erase fails, permanently retiring the
    /// block (it drops out of its superblock's usable set).
    pub erase_fail_rate: f64,
    /// Probability that one data page read needs read-retry: the sense is
    /// repeated with stepped reference voltages, up to 3 steps of 25 µs
    /// extra latency each.
    pub read_retry_rate: f64,
}

impl Default for FaultConfig {
    fn default() -> FaultConfig {
        FaultConfig {
            seed: 0xFA07_5EED,
            program_fail_rate: 0.0,
            erase_fail_rate: 0.0,
            read_retry_rate: 0.0,
        }
    }
}

impl FaultConfig {
    /// A fault config with the given per-operation rates and the default
    /// seed. The fault plane fixes the rest: a block retires as grown bad
    /// after 2 program failures, and one read-retry event costs up to 3
    /// steps of 25 µs each.
    pub fn with_rates(program_fail: f64, erase_fail: f64, read_retry: f64) -> FaultConfig {
        FaultConfig {
            program_fail_rate: program_fail,
            erase_fail_rate: erase_fail,
            read_retry_rate: read_retry,
            ..FaultConfig::default()
        }
    }

    /// Whether any fault class can fire.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.program_fail_rate > 0.0 || self.erase_fail_rate > 0.0 || self.read_retry_rate > 0.0
    }
}

/// Complete configuration of a ConZone-style device.
///
/// Build one with [`DeviceConfig::builder`]; the builder validates all
/// cross-field constraints.
///
/// ```
/// use conzone_types::{DeviceConfig, Geometry};
///
/// let cfg = DeviceConfig::builder(Geometry::tiny())
///     .chunk_bytes(256 * 1024) // chunks must divide the 1 MiB zones
///     .build()?;
/// assert_eq!(cfg.write_buffers, 2);
/// # Ok::<(), conzone_types::ConfigError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceConfig {
    /// Flash array geometry.
    pub geometry: Geometry,
    /// Cell technology of the normal (zoned) region.
    pub normal_cell: CellType,
    /// Whether channel transfer time ([`CHANNEL_BYTES_PER_SEC`]) is
    /// modelled at all (FEMU does not, paper §IV-B).
    pub model_channel_bandwidth: bool,
    /// Number of volatile write buffers shared by all open zones. Each
    /// buffer holds one superpage (paper §II-A/§IV-A uses two).
    pub write_buffers: usize,
    /// L2P cache capacity in bytes.
    pub l2p_cache_bytes: u64,
    /// Miss-path search strategy.
    pub search_strategy: SearchStrategy,
    /// Largest aggregation level hybrid mapping may use. `Page` degenerates
    /// to pure page mapping (the Fig. 7 baseline); the Fig. 6(a) run uses
    /// `Chunk` for fairness against Legacy's chunk-sized prefetch.
    pub max_aggregation: MapGranularity,
    /// Chunk size in bytes (4 MiB / 1024 pages in the paper).
    pub chunk_bytes: u64,
    /// Maximum simultaneously open zones (F2FS opens up to 6, §II-B).
    pub max_open_zones: usize,
    /// Run SLC garbage collection when free SLC superblocks drop to this
    /// count.
    pub slc_gc_threshold: usize,
    /// Mapping-table persistence: flush the L2P update log to flash after
    /// this many accumulated updates (paper §III-E "Persistence of L2P
    /// Mapping Table Updates"; the flush may block host requests). Zero
    /// disables persistence modelling.
    pub l2p_log_entries: u64,
    /// Number of leading zones exposed as *conventional* zones allowing
    /// in-place updates (paper §III-E "Conventional Zones"). Their data is
    /// page-mapped into the SLC region. Zero disables the feature.
    pub conventional_zones: usize,
    /// Store actual data bytes for read-back verification (costs host
    /// memory proportional to written data; enable in tests, disable for
    /// large timing studies).
    pub data_backing: bool,
    /// Seed for all stochastic elements (jitter models).
    pub seed: u64,
    /// Fault-injection plane configuration (all-zero rates by default, i.e.
    /// no faults).
    pub fault: FaultConfig,
}

impl DeviceConfig {
    /// Starts building a configuration for the given geometry, with paper
    /// defaults for everything else.
    pub fn builder(geometry: Geometry) -> DeviceConfigBuilder {
        DeviceConfigBuilder {
            cfg: DeviceConfig {
                geometry,
                normal_cell: CellType::Tlc,
                model_channel_bandwidth: true,
                write_buffers: 2,
                l2p_cache_bytes: 12 * 1024,
                search_strategy: SearchStrategy::Bitmap,
                max_aggregation: MapGranularity::Zone,
                chunk_bytes: 4 * 1024 * 1024,
                max_open_zones: 6,
                slc_gc_threshold: 1,
                l2p_log_entries: 0,
                conventional_zones: 0,
                data_backing: false,
                seed: 0x5eed_c0de,
                fault: FaultConfig::default(),
            },
        }
    }

    /// The paper's §IV-A evaluation configuration: TLC, 2×2 chips, two
    /// 384 KiB write buffers, 12 KiB L2P cache over ~1.5 GB of flash.
    pub fn paper_evaluation() -> DeviceConfig {
        DeviceConfig::builder(Geometry::consumer_1p5gb())
            .build()
            .expect("paper evaluation config is valid")
    }

    /// A small, fully validated config for tests and examples, with data
    /// backing enabled.
    pub fn tiny_for_tests() -> DeviceConfig {
        DeviceConfig::builder(Geometry::tiny())
            .chunk_bytes(256 * 1024)
            .data_backing(true)
            .build()
            .expect("tiny config is valid")
    }

    /// Capacity of the backing superblock of each zone, in bytes.
    #[inline]
    pub fn zone_backing_bytes(&self) -> u64 {
        self.geometry.superblock_bytes()
    }

    /// Exposed zone size in bytes: the backing superblock rounded up to
    /// the next power of two, as NVMe ZNS wants zone sizes. The tail of
    /// each zone is patched into *reserved* SLC flash pages so its mapping
    /// entries can still aggregate (paper §III-E, the temporary solution).
    #[inline]
    pub fn zone_size_bytes(&self) -> u64 {
        self.zone_backing_bytes().next_power_of_two()
    }

    /// Exposed zone size in 4 KiB slices.
    #[inline]
    pub fn zone_size_slices(&self) -> u64 {
        self.zone_size_bytes() / SLICE_BYTES
    }

    /// Slices of each zone that are patched into reserved SLC pages
    /// (zero when the backing superblock is already a power of two).
    #[inline]
    pub fn zone_patch_slices(&self) -> u64 {
        (self.zone_size_bytes() - self.zone_backing_bytes()) / SLICE_BYTES
    }

    /// Number of zones exposed by the device.
    #[inline]
    pub fn zone_count(&self) -> usize {
        self.geometry.zone_count()
    }

    /// Total logical capacity in bytes (all zones).
    #[inline]
    pub fn capacity_bytes(&self) -> u64 {
        self.zone_size_bytes() * self.zone_count() as u64
    }

    /// Logical capacity in 4 KiB slices.
    #[inline]
    pub fn capacity_slices(&self) -> u64 {
        self.capacity_bytes() / SLICE_BYTES
    }

    /// Number of entries the L2P cache can hold.
    #[inline]
    pub fn l2p_cache_entries(&self) -> usize {
        to_index(self.l2p_cache_bytes / L2P_ENTRY_BYTES)
    }

    /// Chunk size in 4 KiB slices.
    #[inline]
    pub fn chunk_slices(&self) -> u64 {
        self.chunk_bytes / SLICE_BYTES
    }
}

/// Builder for [`DeviceConfig`]. Obtain via [`DeviceConfig::builder`].
#[derive(Debug, Clone)]
pub struct DeviceConfigBuilder {
    cfg: DeviceConfig,
}

macro_rules! setter {
    ($(#[$doc:meta])* $name:ident: $ty:ty) => {
        $(#[$doc])*
        pub fn $name(mut self, value: $ty) -> Self {
            self.cfg.$name = value;
            self
        }
    };
}

impl DeviceConfigBuilder {
    setter!(
        /// Sets the cell technology of the normal region.
        normal_cell: CellType
    );
    setter!(
        /// Enables or disables channel-bandwidth modelling.
        model_channel_bandwidth: bool
    );
    setter!(
        /// Sets the number of shared volatile write buffers.
        write_buffers: usize
    );
    setter!(
        /// Sets the L2P cache capacity in bytes.
        l2p_cache_bytes: u64
    );
    setter!(
        /// Sets the miss-path search strategy.
        search_strategy: SearchStrategy
    );
    setter!(
        /// Caps the aggregation level of hybrid mapping.
        max_aggregation: MapGranularity
    );
    setter!(
        /// Sets the chunk size in bytes.
        chunk_bytes: u64
    );
    setter!(
        /// Sets the maximum number of simultaneously open zones.
        max_open_zones: usize
    );
    setter!(
        /// Sets the SLC GC trigger threshold (free superblocks).
        slc_gc_threshold: usize
    );
    setter!(
        /// Sets the L2P persistence-log flush threshold (0 disables).
        l2p_log_entries: u64
    );
    setter!(
        /// Exposes the first `n` zones as conventional (in-place) zones.
        conventional_zones: usize
    );
    setter!(
        /// Enables storing actual data for read-back verification.
        data_backing: bool
    );
    setter!(
        /// Sets the RNG seed for stochastic elements.
        seed: u64
    );
    setter!(
        /// Sets the fault-injection plane configuration.
        fault: FaultConfig
    );

    /// Validates and produces the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] when the geometry is inconsistent, when any
    /// sizing field is zero, when the chunk size does not divide the zone
    /// size, when the SLC region cannot hold even one superpage, or when
    /// the padded logical space holds more than [`MAX_SLICES`] slices.
    pub fn build(self) -> Result<DeviceConfig, ConfigError> {
        let cfg = self.cfg;
        cfg.geometry.validate()?;
        if cfg.write_buffers == 0 {
            return Err(ConfigError::new("write_buffers must be non-zero"));
        }
        if cfg.l2p_cache_entries() == 0 {
            return Err(ConfigError::new(
                "l2p_cache_bytes too small for a single entry",
            ));
        }
        if cfg.chunk_bytes == 0 || !cfg.chunk_bytes.is_multiple_of(SLICE_BYTES) {
            return Err(ConfigError::new(format!(
                "chunk_bytes {} must be a non-zero multiple of 4 KiB",
                cfg.chunk_bytes
            )));
        }
        let zone_size = cfg.zone_size_bytes();
        if !zone_size.is_multiple_of(cfg.chunk_bytes) {
            return Err(ConfigError::new(format!(
                "chunk_bytes {} does not divide the zone size {}",
                cfg.chunk_bytes, zone_size
            )));
        }
        // The geometry bounds the physical slices; padding can double the
        // logical ones.
        if cfg.capacity_slices() > MAX_SLICES {
            return Err(ConfigError::new(format!(
                "{} zones of {zone_size} bytes hold more than {MAX_SLICES} logical 4 KiB slices \
                 (32-bit owner entries)",
                cfg.zone_count()
            )));
        }
        if cfg.max_open_zones == 0 {
            return Err(ConfigError::new("max_open_zones must be non-zero"));
        }
        if cfg.normal_cell == CellType::Slc {
            return Err(ConfigError::new(
                "normal region cannot be SLC; use Tlc or Qlc (SLC is the secondary buffer)",
            ));
        }
        let slc_bytes = cfg.geometry.slc_superblocks() as u64 * cfg.geometry.superblock_bytes();
        if slc_bytes < cfg.geometry.superpage_bytes() {
            return Err(ConfigError::new(
                "SLC region smaller than one superpage cannot back premature flushes",
            ));
        }
        if cfg.conventional_zones >= cfg.zone_count() {
            return Err(ConfigError::new(format!(
                "conventional_zones {} must leave at least one sequential zone (of {})",
                cfg.conventional_zones,
                cfg.zone_count()
            )));
        }
        for (name, rate) in [
            ("program_fail_rate", cfg.fault.program_fail_rate),
            ("erase_fail_rate", cfg.fault.erase_fail_rate),
            ("read_retry_rate", cfg.fault.read_retry_rate),
        ] {
            if !(0.0..=1.0).contains(&rate) {
                return Err(ConfigError::new(format!(
                    "fault {name} {rate} must be a probability in [0, 1]"
                )));
            }
        }
        // Conventional data lives permanently in SLC; leave GC headroom.
        let conventional_bytes = cfg.conventional_zones as u64 * cfg.zone_size_bytes();
        if conventional_bytes * 2 > slc_bytes {
            return Err(ConfigError::new(format!(
                "conventional zones need {conventional_bytes} bytes of SLC but only                  {slc_bytes} are available (must fit in half the region)"
            )));
        }
        Ok(cfg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_defaults_match_table2() {
        let us = SimDuration::from_micros;
        let (slc, tlc, qlc) = (
            CellType::Slc.latency(),
            CellType::Tlc.latency(),
            CellType::Qlc.latency(),
        );
        assert_eq!(
            (slc.read, slc.program, slc.erase),
            (us(20), us(75), us(3000))
        );
        assert_eq!(
            (tlc.read, tlc.program, tlc.erase),
            (us(32), SimDuration::from_nanos(937_500), us(3500))
        );
        assert_eq!(
            (qlc.read, qlc.program, qlc.erase),
            (us(85), us(6400), us(4000))
        );
        assert_eq!(HOST_OVERHEAD, SimDuration::from_nanos(12_500));
        assert_eq!(CHANNEL_BYTES_PER_SEC, 3200 << 20);
        assert_eq!(L2P_ENTRY_BYTES, 4);
        assert_eq!(MAPPING_MEDIA, CellType::Slc);
    }

    #[test]
    fn map_bits_roundtrip() {
        for g in [
            MapGranularity::Page,
            MapGranularity::Chunk,
            MapGranularity::Zone,
        ] {
            assert_eq!(MapGranularity::from_bits(g.to_bits()), Some(g));
        }
        assert_eq!(MapGranularity::from_bits(0b11), None);
        assert!(MapGranularity::Page < MapGranularity::Chunk);
        assert!(MapGranularity::Chunk < MapGranularity::Zone);
    }

    #[test]
    fn paper_evaluation_config() {
        let cfg = DeviceConfig::paper_evaluation();
        assert_eq!(cfg.write_buffers, 2);
        assert_eq!(cfg.l2p_cache_bytes, 12 * 1024);
        assert_eq!(cfg.l2p_cache_entries(), 3072);
        // 15 MiB superblock padded to 16 MiB zones.
        assert_eq!(cfg.zone_backing_bytes(), 15 * 1024 * 1024);
        assert_eq!(cfg.zone_size_bytes(), 16 * 1024 * 1024);
        assert_eq!(cfg.zone_patch_slices(), 256);
        assert_eq!(cfg.zone_count(), 96);
        assert_eq!(cfg.chunk_slices(), 1024);
    }

    #[test]
    fn tiny_config_is_power_of_two() {
        let cfg = DeviceConfig::tiny_for_tests();
        assert_eq!(cfg.zone_size_bytes(), 1024 * 1024);
        assert_eq!(cfg.zone_patch_slices(), 0);
        assert!(cfg.data_backing);
    }

    #[test]
    fn builder_rejects_bad_configs() {
        assert!(DeviceConfig::builder(Geometry::tiny())
            .write_buffers(0)
            .build()
            .is_err());
        assert!(DeviceConfig::builder(Geometry::tiny())
            .l2p_cache_bytes(0)
            .build()
            .is_err());
        assert!(DeviceConfig::builder(Geometry::tiny())
            .chunk_bytes(5000)
            .build()
            .is_err());
        // Chunk larger than zone cannot divide it.
        assert!(DeviceConfig::builder(Geometry::tiny())
            .chunk_bytes(3 * 1024 * 1024)
            .build()
            .is_err());
        assert!(DeviceConfig::builder(Geometry::tiny())
            .normal_cell(CellType::Slc)
            .build()
            .is_err());
    }

    #[test]
    fn cell_type_names() {
        assert_eq!(CellType::Slc.to_string(), "slc");
    }

    #[test]
    fn fault_config_defaults_and_validation() {
        let cfg = DeviceConfig::tiny_for_tests();
        assert!(!cfg.fault.enabled(), "defaults inject nothing");
        assert_eq!(cfg.fault.program_fail_rate, 0.0);

        let f = FaultConfig::with_rates(0.01, 0.02, 0.03);
        assert!(f.enabled());
        assert!(DeviceConfig::builder(Geometry::tiny())
            .chunk_bytes(256 * 1024)
            .fault(f)
            .build()
            .is_ok());

        let bad = FaultConfig::with_rates(1.5, 0.0, 0.0);
        assert!(DeviceConfig::builder(Geometry::tiny())
            .chunk_bytes(256 * 1024)
            .fault(bad)
            .build()
            .is_err());
    }

    #[test]
    fn config_serde_roundtrip() {
        let cfg = DeviceConfig::tiny_for_tests();
        let json = serde_json_like(&cfg);
        assert!(json.contains("geometry"));
    }

    // No serialization dependency exists; the debug formatter is the
    // only structural dump of a config.
    fn serde_json_like(cfg: &DeviceConfig) -> String {
        format!("{cfg:?}")
    }
}
