//! Property-based tests of address arithmetic and geometry encoding. The
//! zone table's property runs next to the naive zoned model, in
//! `tests/oracle.rs` of the facade.

use conzone_check::{check, Rng};

use crate::{ChipId, DeviceConfig, Geometry, LpnRange, SuperblockId};

/// A geometry of 1–3 channels of 1–3 chips, 2–11 normal and 1–2 SLC
/// blocks per chip, 1–5 units a block of 1–4 pages each, 1–3 planes; with
/// `pow2`, channels, chips and pages per unit round up to powers of two,
/// so the superpage divides the power-of-two zone it backs.
fn geometry(rng: &mut Rng, pow2: bool) -> Geometry {
    let up = |n: usize| if pow2 { n.next_power_of_two() } else { n };
    let (channels, chips) = (rng.range(1..4), rng.range(1..4));
    let (extra, slc) = (rng.range(2..12), rng.range(1..3));
    let (units, pages_per_unit) = (rng.range(1..6), up(rng.range(1..5)));
    Geometry {
        channels: up(channels),
        chips_per_channel: up(chips),
        blocks_per_chip: slc + extra,
        slc_blocks_per_chip: slc,
        pages_per_block: units * pages_per_unit,
        page_bytes: 16 * 1024,
        program_unit_bytes: pages_per_unit * 16 * 1024,
        planes_per_chip: rng.range(1..4),
    }
}

/// A geometry and a seed that picks an address in it.
fn addressed(rng: &mut Rng) -> ((Geometry, u64), Vec<()>) {
    ((geometry(rng, false), rng.next_u64()), Vec::new())
}

/// Generated geometries always validate.
#[test]
fn arbitrary_geometries_validate() {
    let generate = |rng: &mut Rng| (geometry(rng, false), Vec::<()>::new());
    let path = concat!(module_path!(), "::arbitrary_geometries_validate");
    check(path, 64, generate, |g, _| {
        assert!(g.validate().is_ok(), "{g:?}");
    });
}

/// PPA encode/decode is a bijection over the whole array.
#[test]
fn ppa_roundtrip() {
    let path = concat!(module_path!(), "::ppa_roundtrip");
    check(path, 64, addressed, |&(g, seed), _| {
        let chip = ChipId(seed % g.nchips() as u64);
        let block = (seed / 7) as usize % g.blocks_per_chip;
        let page = (seed / 11) as usize % g.pages_per_block;
        let slice = (seed / 13) as usize % g.slices_per_page();
        let parts = g.decode_ppa(g.encode_ppa(chip, block, page, slice));
        assert_eq!((parts.chip, parts.block), (chip, block));
        assert_eq!((parts.page, parts.slice), (page, slice));
    });
}

/// Superblock slice addressing never leaves its superblock.
#[test]
fn superblock_slice_roundtrip() {
    let path = concat!(module_path!(), "::superblock_slice_roundtrip");
    check(path, 64, addressed, |&(g, seed), _| {
        let sb = SuperblockId(seed % g.blocks_per_chip as u64);
        let offset = (seed / 3) % g.slices_per_superblock();
        let ppa = g.superblock_slice(sb, offset);
        assert_eq!(g.decode_ppa(ppa).block as u64, sb.raw());
    });
}

/// Byte-range to page-range conversion covers exactly the requested
/// bytes.
#[test]
fn lpn_range_covers_bytes() {
    let generate = |rng: &mut Rng| {
        (
            (rng.range(0..1 << 40), rng.range(1..1 << 20)),
            Vec::<()>::new(),
        )
    };
    let path = concat!(module_path!(), "::lpn_range_covers_bytes");
    check(path, 64, generate, |&(offset, len), _| {
        let range = LpnRange::covering_bytes(offset, len).expect("non-empty");
        assert!(range.start.byte_offset() <= offset);
        assert!(range.end().byte_offset() >= offset + len);
        // Tight: shrinking either side would lose bytes.
        assert!(range.start.byte_offset() + 4096 > offset);
        assert!(range.end().byte_offset() - 4096 < offset + len);
    });
}

/// Every geometry whose superpage divides its padded zone builds, with
/// the superpage as its chunk, and the built config keeps its derived
/// quantities self-consistent.
#[test]
fn config_invariants() {
    let generate = |rng: &mut Rng| (geometry(rng, true), Vec::<()>::new());
    let path = concat!(module_path!(), "::config_invariants");
    check(path, 64, generate, |&g, _| {
        let cfg = DeviceConfig::builder(g)
            .chunk_bytes(g.superpage_bytes())
            .build();
        let cfg = cfg.unwrap_or_else(|e| panic!("{g:?} does not build: {e}"));
        assert!(cfg.zone_size_bytes().is_power_of_two());
        assert!(cfg.zone_size_bytes() >= cfg.zone_backing_bytes());
        assert_eq!(cfg.zone_size_bytes() % cfg.chunk_bytes, 0);
        assert_eq!(
            cfg.capacity_bytes(),
            cfg.zone_size_bytes() * cfg.zone_count() as u64
        );
        assert_eq!(
            cfg.zone_patch_slices() * crate::SLICE_BYTES,
            cfg.zone_size_bytes() - cfg.zone_backing_bytes()
        );
    });
}
