//! Physical organisation of the emulated flash array.
//!
//! Terminology follows paper §II-A: a 16 KiB *flash page* is the read unit;
//! multiple flash pages form a *flash block* (the erase unit); blocks at the
//! same per-chip offset across all chips form a *superblock*; the
//! multi-level-cell *programming unit* spans several flash pages, and the
//! programming units at the same offset across all chips form a *superpage*.
//! SLC blocks program partially at 4 KiB granularity.

use crate::addr::{
    to_index, ChannelId, ChipId, Ppa, SuperblockId, ZoneId, MAX_SLICES, SLICE_BYTES, SLICE_LEN,
};
use crate::error::ConfigError;

/// Static geometry of the flash array.
///
/// The derived quantities hold for a geometry that
/// [`DeviceConfigBuilder::build`](crate::DeviceConfigBuilder::build) has
/// accepted.
///
/// ```
/// use conzone_types::Geometry;
///
/// let g = Geometry::consumer_1p5gb();
/// assert_eq!(g.nchips(), 4);
/// assert_eq!(g.superpage_bytes(), 384 * 1024); // matches paper §II-B
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Geometry {
    /// Number of independent flash channels.
    pub channels: usize,
    /// Chips (dies) attached to each channel.
    pub chips_per_channel: usize,
    /// Flash blocks per chip, *including* the leading SLC blocks.
    pub blocks_per_chip: usize,
    /// The first `slc_blocks_per_chip` blocks of every chip are programmed as
    /// SLC and serve as the secondary write buffer (paper §III-B).
    pub slc_blocks_per_chip: usize,
    /// Flash pages per block.
    pub pages_per_block: usize,
    /// Bytes per flash page (16 KiB in consumer devices, paper §II-A).
    pub page_bytes: usize,
    /// Programming unit of the normal (multi-level-cell) area, in bytes.
    /// Must be a whole number of flash pages. The paper's evaluation uses
    /// 96 KiB (§IV-A).
    pub program_unit_bytes: usize,
    /// Independent planes per chip: operations on blocks in different
    /// planes of one die proceed concurrently (block *b* lives in plane
    /// `b mod planes`). 1 models a single-plane die.
    pub planes_per_chip: usize,
}

impl Geometry {
    /// The evaluation geometry of paper §IV-A: 2 channels × 2 chips,
    /// TLC-style 96 KiB programming unit, 384 KiB superpage, ~1.5 GB of
    /// normal capacity plus an SLC region.
    pub fn consumer_1p5gb() -> Geometry {
        Geometry {
            channels: 2,
            chips_per_channel: 2,
            // 96 normal superblocks of 15 MiB ≈ 1.44 GB + 8 SLC superblocks.
            blocks_per_chip: 104,
            slc_blocks_per_chip: 8,
            pages_per_block: 240,
            page_bytes: 16 * 1024,
            program_unit_bytes: 96 * 1024,
            planes_per_chip: 1,
        }
    }

    /// A small geometry for unit tests and examples: 2 channels × 2 chips,
    /// 64 KiB programming unit (QLC-style, power-of-two superblocks),
    /// 1 MiB zones.
    pub fn tiny() -> Geometry {
        Geometry {
            channels: 2,
            chips_per_channel: 2,
            blocks_per_chip: 20,
            slc_blocks_per_chip: 4,
            pages_per_block: 16,
            page_bytes: 16 * 1024,
            program_unit_bytes: 64 * 1024,
            planes_per_chip: 1,
        }
    }

    /// Checks internal consistency.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] when any field is zero, when the programming
    /// unit is not a whole number of pages, when pages-per-block is not a
    /// whole number of programming units, when the page size is not a whole
    /// number of 4 KiB slices, when no normal blocks remain after the SLC
    /// region, or when the array holds more than [`MAX_SLICES`] slices.
    pub(crate) fn validate(&self) -> Result<(), ConfigError> {
        fn nonzero(v: usize, what: &str) -> Result<(), ConfigError> {
            if v == 0 {
                Err(ConfigError::new(format!("{what} must be non-zero")))
            } else {
                Ok(())
            }
        }
        nonzero(self.channels, "channels")?;
        nonzero(self.chips_per_channel, "chips_per_channel")?;
        nonzero(self.blocks_per_chip, "blocks_per_chip")?;
        nonzero(self.pages_per_block, "pages_per_block")?;
        nonzero(self.page_bytes, "page_bytes")?;
        nonzero(self.program_unit_bytes, "program_unit_bytes")?;
        if !self.page_bytes.is_multiple_of(SLICE_LEN) {
            return Err(ConfigError::new(format!(
                "page_bytes {} is not a multiple of the 4 KiB slice",
                self.page_bytes
            )));
        }
        if !self.program_unit_bytes.is_multiple_of(self.page_bytes) {
            return Err(ConfigError::new(format!(
                "program_unit_bytes {} is not a whole number of {}-byte pages",
                self.program_unit_bytes, self.page_bytes
            )));
        }
        if !self.pages_per_block.is_multiple_of(self.pages_per_unit()) {
            return Err(ConfigError::new(format!(
                "pages_per_block {} is not a whole number of {}-page programming units",
                self.pages_per_block,
                self.pages_per_unit()
            )));
        }
        if self.planes_per_chip == 0 {
            return Err(ConfigError::new("planes_per_chip must be non-zero"));
        }
        if self.slc_blocks_per_chip >= self.blocks_per_chip {
            return Err(ConfigError::new(format!(
                "slc_blocks_per_chip {} leaves no normal blocks (blocks_per_chip {})",
                self.slc_blocks_per_chip, self.blocks_per_chip
            )));
        }
        // Checked: the factors come from outside, and `total_slices` may
        // not be computable at all.
        let total = [
            self.channels,
            self.chips_per_channel,
            self.blocks_per_chip,
            self.pages_per_block,
            self.slices_per_page(),
        ]
        .iter()
        .try_fold(1u64, |total, &n| total.checked_mul(n as u64));
        if total.is_none_or(|t| t > MAX_SLICES) {
            return Err(ConfigError::new(format!(
                "the array holds more than {MAX_SLICES} physical 4 KiB slices \
                 (32-bit mapping entries)"
            )));
        }
        Ok(())
    }

    /// Total number of chips.
    #[inline]
    pub fn nchips(&self) -> usize {
        self.channels * self.chips_per_channel
    }

    /// The channel a chip is attached to (chips stripe across channels).
    #[inline]
    pub fn channel_of(&self, chip: ChipId) -> ChannelId {
        ChannelId(chip.raw() % self.channels as u64)
    }

    /// 4 KiB slices per flash page.
    #[inline]
    pub fn slices_per_page(&self) -> usize {
        self.page_bytes / SLICE_LEN
    }

    /// Flash pages per programming unit of the normal area.
    #[inline]
    pub(crate) fn pages_per_unit(&self) -> usize {
        self.program_unit_bytes / self.page_bytes
    }

    /// 4 KiB slices per programming unit of the normal area.
    #[inline]
    pub fn slices_per_unit(&self) -> usize {
        self.program_unit_bytes / SLICE_LEN
    }

    /// Programming units per flash block.
    #[inline]
    pub fn units_per_block(&self) -> usize {
        self.pages_per_block / self.pages_per_unit()
    }

    /// Bytes per flash block.
    #[inline]
    pub(crate) fn block_bytes(&self) -> u64 {
        self.pages_per_block as u64 * self.page_bytes as u64
    }

    /// 4 KiB slices per flash block.
    #[inline]
    pub fn slices_per_block(&self) -> u64 {
        self.pages_per_block as u64 * self.slices_per_page() as u64
    }

    /// Bytes per superpage: one programming unit on every chip (the write
    /// buffer size, paper §II-A).
    #[inline]
    pub fn superpage_bytes(&self) -> u64 {
        self.program_unit_bytes as u64 * self.nchips() as u64
    }

    /// 4 KiB slices per superpage.
    #[inline]
    pub fn slices_per_superpage(&self) -> u64 {
        self.superpage_bytes() / SLICE_BYTES
    }

    /// Bytes per superblock (one block on every chip).
    #[inline]
    pub fn superblock_bytes(&self) -> u64 {
        self.block_bytes() * self.nchips() as u64
    }

    /// 4 KiB slices per superblock.
    #[inline]
    pub fn slices_per_superblock(&self) -> u64 {
        self.slices_per_block() * self.nchips() as u64
    }

    /// Superblocks in the SLC region.
    #[inline]
    pub fn slc_superblocks(&self) -> usize {
        self.slc_blocks_per_chip
    }

    /// Superblocks in the normal (zoned) region.
    #[inline]
    pub fn normal_superblocks(&self) -> usize {
        self.blocks_per_chip - self.slc_blocks_per_chip
    }

    /// Total 4 KiB slices across the whole array (both regions).
    #[inline]
    pub fn total_slices(&self) -> u64 {
        self.nchips() as u64 * self.blocks_per_chip as u64 * self.slices_per_block()
    }

    /// Encodes a physical slice address.
    ///
    /// # Panics
    ///
    /// Debug-asserts that every component is within the geometry.
    #[inline]
    pub fn encode_ppa(&self, chip: ChipId, block: usize, page: usize, slice: usize) -> Ppa {
        debug_assert!(chip.index() < self.nchips());
        debug_assert!(block < self.blocks_per_chip);
        debug_assert!(page < self.pages_per_block);
        debug_assert!(slice < self.slices_per_page());
        let linear = ((chip.raw() * self.blocks_per_chip as u64 + block as u64)
            * self.pages_per_block as u64
            + page as u64)
            * self.slices_per_page() as u64
            + slice as u64;
        Ppa(linear)
    }

    /// Decodes a physical slice address into its components.
    #[inline]
    pub fn decode_ppa(&self, ppa: Ppa) -> PpaParts {
        let spp = self.slices_per_page() as u64;
        let slice = to_index(ppa.raw() % spp);
        let page_linear = ppa.raw() / spp;
        let page = to_index(page_linear % self.pages_per_block as u64);
        let block_linear = page_linear / self.pages_per_block as u64;
        let block = to_index(block_linear % self.blocks_per_chip as u64);
        let chip = ChipId(block_linear / self.blocks_per_chip as u64);
        PpaParts {
            chip,
            block,
            page,
            slice,
        }
    }

    /// Decoded address of slice 0 of the flash page after the one `parts`
    /// lies in — what [`Geometry::decode_ppa`] returns for the next page's
    /// first address, by carrying into the next block and chip instead of
    /// dividing. Past the last page of the array the chip is `nchips()`.
    #[inline]
    pub fn next_page(&self, parts: PpaParts) -> PpaParts {
        let (mut chip, mut block, mut page) = (parts.chip, parts.block, parts.page + 1);
        if page == self.pages_per_block {
            page = 0;
            block += 1;
            if block == self.blocks_per_chip {
                block = 0;
                chip = ChipId(chip.raw() + 1);
            }
        }
        PpaParts {
            chip,
            block,
            page,
            slice: 0,
        }
    }

    /// Total independent planes across the array.
    #[inline]
    pub fn nplanes(&self) -> usize {
        self.nchips() * self.planes_per_chip
    }

    /// The plane resource index of a block on a chip.
    #[inline]
    pub fn plane_of(&self, chip: ChipId, block: usize) -> usize {
        chip.index() * self.planes_per_chip + block % self.planes_per_chip
    }

    /// Whether a physical address lies in the SLC region.
    #[inline]
    pub fn is_slc(&self, ppa: Ppa) -> bool {
        self.decode_ppa(ppa).block < self.slc_blocks_per_chip
    }

    /// Physical slice address of slice-offset `offset` within superblock
    /// `sb`, following the fixed write-pointer iteration rule (paper §III-B):
    /// consecutive programming units stripe round-robin across chips, and
    /// slices fill sequentially inside a unit.
    ///
    /// # Panics
    ///
    /// Panics if `offset` is outside the superblock or `sb` outside the
    /// array.
    pub fn superblock_slice(&self, sb: SuperblockId, offset: u64) -> Ppa {
        assert!(
            offset < self.slices_per_superblock(),
            "slice offset {offset} outside superblock ({} slices)",
            self.slices_per_superblock()
        );
        assert!(
            sb.index() < self.blocks_per_chip,
            "superblock {sb} outside array"
        );
        let spu = self.slices_per_unit() as u64;
        let unit = offset / spu;
        let within = offset % spu;
        let chip = ChipId(unit % self.nchips() as u64);
        let unit_in_block = to_index(unit / self.nchips() as u64);
        let page = unit_in_block * self.pages_per_unit()
            + to_index(within / self.slices_per_page() as u64);
        let slice = to_index(within % self.slices_per_page() as u64);
        self.encode_ppa(chip, sb.index(), page, slice)
    }

    /// Decoded address of the first slice of programming unit `unit` of
    /// superblock `sb` — what [`Geometry::decode_ppa`] returns for
    /// `superblock_slice(sb, unit * slices_per_unit())` — in two small
    /// divisions: the unit's chip and its rank on that chip.
    ///
    /// # Panics
    ///
    /// Debug-asserts that the unit lies inside the superblock and `sb`
    /// inside the array.
    #[inline]
    pub fn superblock_unit(&self, sb: SuperblockId, unit: u64) -> PpaParts {
        let nchips = self.nchips() as u64;
        debug_assert!(unit < self.units_per_block() as u64 * nchips);
        debug_assert!(sb.index() < self.blocks_per_chip);
        PpaParts {
            chip: ChipId(unit % nchips),
            block: sb.index(),
            page: to_index(unit / nchips) * self.pages_per_unit(),
            slice: 0,
        }
    }

    /// The superblock reserved for a zone. Zones bind one-to-one to normal
    /// superblocks, placed after the SLC region.
    #[inline]
    pub fn zone_superblock(&self, zone: ZoneId) -> SuperblockId {
        SuperblockId(self.slc_blocks_per_chip as u64 + zone.raw())
    }

    /// Number of zones the normal region provides.
    #[inline]
    pub(crate) fn zone_count(&self) -> usize {
        self.normal_superblocks()
    }
}

/// Decoded components of a [`Ppa`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PpaParts {
    /// Chip holding the slice.
    pub chip: ChipId,
    /// Block index within the chip.
    pub block: usize,
    /// Flash page index within the block.
    pub page: usize,
    /// 4 KiB slice index within the flash page.
    pub slice: usize,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_validate() {
        Geometry::consumer_1p5gb().validate().unwrap();
        Geometry::tiny().validate().unwrap();
    }

    #[test]
    fn consumer_preset_matches_paper() {
        let g = Geometry::consumer_1p5gb();
        assert_eq!(g.nchips(), 4);
        assert_eq!(g.superpage_bytes(), 384 * 1024);
        assert_eq!(g.program_unit_bytes, 96 * 1024);
        // ~1.5 GB of normal capacity.
        let normal = g.superblock_bytes() * g.normal_superblocks() as u64;
        assert!(normal > 1_400_000_000 && normal < 1_600_000_000, "{normal}");
    }

    #[test]
    fn ppa_roundtrip_exhaustive_tiny() {
        let g = Geometry::tiny();
        for chip in 0..g.nchips() as u64 {
            for block in [0usize, 1, g.blocks_per_chip - 1] {
                for page in [0usize, 1, g.pages_per_block - 1] {
                    for slice in 0..g.slices_per_page() {
                        let ppa = g.encode_ppa(ChipId(chip), block, page, slice);
                        let parts = g.decode_ppa(ppa);
                        assert_eq!(parts.chip, ChipId(chip));
                        assert_eq!(parts.block, block);
                        assert_eq!(parts.page, page);
                        assert_eq!(parts.slice, slice);
                    }
                }
            }
        }
    }

    /// `next_page` is the decode of the next page's first address, from
    /// any slice of every page, across block and chip boundaries.
    #[test]
    fn next_page_equals_decoding_the_next_page() {
        for g in [Geometry::tiny(), Geometry::consumer_1p5gb()] {
            let spp = g.slices_per_page() as u64;
            let pages = g.total_slices() / spp;
            for page in 0..pages - 1 {
                let slice = page % spp;
                let parts = g.decode_ppa(Ppa(page * spp + slice));
                assert_eq!(
                    g.next_page(parts),
                    g.decode_ppa(Ppa((page + 1) * spp)),
                    "page {page}"
                );
            }
            let last = g.decode_ppa(Ppa(g.total_slices() - 1));
            assert_eq!(g.next_page(last).chip, ChipId(g.nchips() as u64));
        }
    }

    /// `superblock_unit` is the decode of the unit's first slice, for
    /// every unit of every superblock of the two presets and of the
    /// evaluation geometry with 32 blocks a chip (the lifespan figure's).
    #[test]
    fn superblock_unit_equals_decoding_the_units_first_slice() {
        let mut small = Geometry::consumer_1p5gb();
        small.blocks_per_chip = 32;
        for g in [Geometry::tiny(), Geometry::consumer_1p5gb(), small] {
            let spu = g.slices_per_unit() as u64;
            let units = g.slices_per_superblock() / spu;
            for sb in (0..g.blocks_per_chip as u64).map(SuperblockId) {
                for u in 0..units {
                    assert_eq!(
                        g.superblock_unit(sb, u),
                        g.decode_ppa(g.superblock_slice(sb, u * spu)),
                        "{g:?} superblock {sb} unit {u}"
                    );
                }
            }
        }
    }

    #[test]
    fn superblock_slices_are_unique_and_stripe_chips() {
        let g = Geometry::tiny();
        let sb = SuperblockId(4);
        let mut seen = std::collections::BTreeSet::new();
        for offset in 0..g.slices_per_superblock() {
            let ppa = g.superblock_slice(sb, offset);
            assert!(seen.insert(ppa), "duplicate ppa for offset {offset}");
            assert_eq!(g.decode_ppa(ppa).block, 4);
        }
        // Consecutive programming units land on consecutive chips.
        let spu = g.slices_per_unit() as u64;
        let c0 = g.decode_ppa(g.superblock_slice(sb, 0)).chip;
        let c1 = g.decode_ppa(g.superblock_slice(sb, spu)).chip;
        assert_ne!(c0, c1);
    }

    #[test]
    fn slc_region_detection() {
        let g = Geometry::tiny();
        let slc = g.superblock_slice(SuperblockId(0), 0);
        let normal = g.superblock_slice(SuperblockId(g.slc_blocks_per_chip as u64), 0);
        assert!(g.is_slc(slc));
        assert!(!g.is_slc(normal));
    }

    #[test]
    fn zone_binding() {
        let g = Geometry::tiny();
        assert_eq!(g.zone_superblock(ZoneId(0)), SuperblockId(4));
        assert_eq!(g.zone_count(), 16);
    }

    #[test]
    fn invalid_geometries_rejected() {
        let mut g = Geometry::tiny();
        g.program_unit_bytes = 100; // not page aligned
        assert!(g.validate().is_err());

        let mut g = Geometry::tiny();
        g.slc_blocks_per_chip = g.blocks_per_chip;
        assert!(g.validate().is_err());

        let mut g = Geometry::tiny();
        g.channels = 0;
        assert!(g.validate().is_err());

        let mut g = Geometry::tiny();
        g.pages_per_block = 17; // not a whole number of 4-page units
        assert!(g.validate().is_err());
    }

    #[test]
    fn plane_mapping() {
        let mut g = Geometry::tiny();
        g.planes_per_chip = 2;
        g.validate().unwrap();
        assert_eq!(g.nplanes(), 8);
        assert_eq!(g.plane_of(ChipId(0), 0), 0);
        assert_eq!(g.plane_of(ChipId(0), 1), 1);
        assert_eq!(g.plane_of(ChipId(0), 2), 0);
        assert_eq!(g.plane_of(ChipId(3), 5), 7);
        g.planes_per_chip = 0;
        assert!(g.validate().is_err());
    }

    #[test]
    fn channel_striping() {
        let g = Geometry::tiny();
        assert_eq!(g.channel_of(ChipId(0)), ChannelId(0));
        assert_eq!(g.channel_of(ChipId(1)), ChannelId(1));
        assert_eq!(g.channel_of(ChipId(2)), ChannelId(0));
        assert_eq!(g.channel_of(ChipId(3)), ChannelId(1));
    }
}
