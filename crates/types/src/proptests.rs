//! Property-based tests of address arithmetic and geometry encoding. The
//! zone table's property runs next to the naive zoned model, in
//! `tests/oracle.rs` of the facade.

use proptest::prelude::*;

use crate::{ChipId, DeviceConfig, Geometry, LpnRange, SuperblockId};

fn arb_geometry() -> impl Strategy<Value = Geometry> {
    (
        1usize..4,  // channels
        1usize..4,  // chips per channel
        2usize..12, // blocks per chip
        1usize..3,  // slc blocks per chip
        1usize..6,  // programming units per block
        1usize..5,  // pages per unit
        1usize..4,  // planes per chip
    )
        .prop_map(|(ch, cpc, extra_blocks, slc, upb, ppu, planes)| Geometry {
            channels: ch,
            chips_per_channel: cpc,
            blocks_per_chip: slc + extra_blocks,
            slc_blocks_per_chip: slc,
            pages_per_block: upb * ppu,
            page_bytes: 16 * 1024,
            program_unit_bytes: ppu * 16 * 1024,
            planes_per_chip: planes,
        })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// Generated geometries always validate.
    #[test]
    fn arbitrary_geometries_validate(g in arb_geometry()) {
        prop_assert!(g.validate().is_ok());
    }

    /// PPA encode/decode is a bijection over the whole array.
    #[test]
    fn ppa_roundtrip(g in arb_geometry(), seed in any::<u64>()) {
        let chip = ChipId(seed % g.nchips() as u64);
        let block = (seed / 7) as usize % g.blocks_per_chip;
        let page = (seed / 11) as usize % g.pages_per_block;
        let slice = (seed / 13) as usize % g.slices_per_page();
        let ppa = g.encode_ppa(chip, block, page, slice);
        let parts = g.decode_ppa(ppa);
        prop_assert_eq!(parts.chip, chip);
        prop_assert_eq!(parts.block, block);
        prop_assert_eq!(parts.page, page);
        prop_assert_eq!(parts.slice, slice);
    }

    /// Superblock slice addressing never leaves its superblock.
    #[test]
    fn superblock_slice_roundtrip(g in arb_geometry(), seed in any::<u64>()) {
        let sb = SuperblockId(seed % g.blocks_per_chip as u64);
        let offset = (seed / 3) % g.slices_per_superblock();
        let ppa = g.superblock_slice(sb, offset);
        prop_assert_eq!(g.decode_ppa(ppa).block as u64, sb.raw());
    }

    /// Byte-range to page-range conversion covers exactly the requested
    /// bytes.
    #[test]
    fn lpn_range_covers_bytes(offset in 0u64..1 << 40, len in 1u64..1 << 20) {
        let range = LpnRange::covering_bytes(offset, len).expect("non-empty");
        prop_assert!(range.start.byte_offset() <= offset);
        prop_assert!(range.end().byte_offset() >= offset + len);
        // Tight: shrinking either side would lose bytes.
        prop_assert!(range.start.byte_offset() + 4096 > offset);
        prop_assert!(range.end().byte_offset() - 4096 < offset + len);
    }

    /// Validated configs keep their derived quantities self-consistent.
    #[test]
    fn config_invariants(g in arb_geometry()) {
        // Chunks must divide zones: use the superpage as a safe chunk.
        let chunk = g.superpage_bytes().min(g.superblock_bytes());
        let zone_ok = {
            let padded = g.superblock_bytes().next_power_of_two();
            padded.is_multiple_of(chunk)
        };
        prop_assume!(zone_ok);
        let cfg = DeviceConfig::builder(g)
            .chunk_bytes(chunk)
            .build();
        prop_assume!(cfg.is_ok());
        let cfg = cfg.unwrap();
        prop_assert!(cfg.zone_size_bytes().is_power_of_two());
        prop_assert!(cfg.zone_size_bytes() >= cfg.zone_backing_bytes());
        prop_assert_eq!(cfg.zone_size_bytes() % cfg.chunk_bytes, 0);
        prop_assert_eq!(
            cfg.capacity_bytes(),
            cfg.zone_size_bytes() * cfg.zone_count() as u64
        );
        prop_assert_eq!(
            cfg.zone_patch_slices() * crate::SLICE_BYTES,
            cfg.zone_size_bytes() - cfg.zone_backing_bytes()
        );
    }
}
