//! Property-based tests of address arithmetic, geometry encoding and the
//! zone table.

use std::collections::BTreeMap;

use proptest::prelude::*;

use crate::{
    ChipId, DeviceConfig, DeviceError, Geometry, Lpn, LpnRange, SuperblockId, ZoneId, ZoneState,
    ZoneTable,
};

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

/// Zones of the [`ZoneTable`] property, and slices in each: small, so
/// streams fill zones, cross their ends and run into the open limit.
const ZONES: u64 = 5;
const ZONE_SLICES: u64 = 8;

/// One command of the zoned interface (the alphabet of
/// `tests/conformance.rs`), or a power cycle.
#[derive(Debug, Clone, Copy)]
enum ZoneOp {
    /// Write `count` slices `skew` past the write pointer (on it, mostly).
    Write {
        zone: u64,
        skew: u64,
        count: u64,
    },
    Append {
        zone: u64,
        count: u64,
    },
    Open(u64),
    Close(u64),
    Finish(u64),
    Reset(u64),
    /// A power cut that takes the last `lost` slices of the zone.
    PowerCutRemount {
        zone: u64,
        lost: u64,
    },
}

fn zone_ops() -> impl Strategy<Value = Vec<ZoneOp>> {
    // Mostly a zone the table has; else the first id past the end, or one
    // whose byte offset overflows.
    let zone = || {
        (0u64..ZONES + 3).prop_map(|z| match z {
            z if z < ZONES => z,
            z if z == ZONES => ZONES,
            _ => u64::MAX,
        })
    };
    prop::collection::vec(
        prop_oneof![
            8 => (zone(), 0u64..8, 1u64..6).prop_map(|(zone, skew, count)| ZoneOp::Write {
                zone,
                skew: skew.saturating_sub(6),
                count,
            }),
            3 => (zone(), 1u64..6).prop_map(|(zone, count)| ZoneOp::Append { zone, count }),
            2 => zone().prop_map(ZoneOp::Open),
            2 => zone().prop_map(ZoneOp::Close),
            1 => zone().prop_map(ZoneOp::Finish),
            2 => zone().prop_map(ZoneOp::Reset),
            1 => (0..ZONES, 0u64..4).prop_map(|(zone, lost)| ZoneOp::PowerCutRemount { zone, lost }),
        ],
        100..300,
    )
}

/// Which error a command was refused with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Refusal {
    OutOfRange,
    Boundary,
    Full,
    TooManyOpen,
    NotWritePointer,
    NotWritable,
    Unsupported,
}

fn refusal(e: DeviceError) -> Refusal {
    match e {
        DeviceError::OutOfRange { .. } => Refusal::OutOfRange,
        DeviceError::ZoneBoundary { .. } => Refusal::Boundary,
        DeviceError::ZoneFull { .. } => Refusal::Full,
        DeviceError::TooManyOpenZones { .. } => Refusal::TooManyOpen,
        DeviceError::NotWritePointer { .. } => Refusal::NotWritePointer,
        DeviceError::ZoneNotWritable { .. } => Refusal::NotWritable,
        DeviceError::Unsupported(_) => Refusal::Unsupported,
        other => panic!("the zone table never answers {other:?}"),
    }
}

/// The zoned contract written down naively: a map from zone to
/// `(state, write pointer)`, every rule a line, the open zones counted by
/// scanning.
struct NaiveZones {
    zones: BTreeMap<u64, (ZoneState, u64)>,
    limit: usize,
    conventional: u64,
}

impl NaiveZones {
    fn open(&self) -> usize {
        let sequential = self.zones.range(self.conventional..);
        sequential
            .filter(|(_, (s, _))| *s == ZoneState::Open)
            .count()
    }

    /// A write of `count` slices from logical slice `at`.
    fn write(&mut self, at: u64, count: u64) -> Result<(), Refusal> {
        let (zone, offset) = (at / ZONE_SLICES, at % ZONE_SLICES);
        let (state, wp) = *self.zones.get(&zone).ok_or(Refusal::OutOfRange)?;
        if offset + count > ZONE_SLICES {
            return Err(Refusal::Boundary);
        }
        if zone < self.conventional {
            self.zones
                .insert(zone, (ZoneState::Open, wp.max(offset + count)));
            return Ok(());
        }
        if state == ZoneState::Full {
            return Err(Refusal::Full);
        }
        if state != ZoneState::Open && self.open() >= self.limit {
            return Err(Refusal::TooManyOpen);
        }
        if offset != wp {
            return Err(Refusal::NotWritePointer);
        }
        let end = wp + count;
        let state = if end == ZONE_SLICES {
            ZoneState::Full
        } else {
            ZoneState::Open
        };
        self.zones.insert(zone, (state, end));
        Ok(())
    }

    fn apply(&mut self, op: ZoneOp) -> Result<(), Refusal> {
        let sequential = |zones: &Self, zone: u64| match zones.zones.get(&zone) {
            None => Err(Refusal::OutOfRange),
            Some(_) if zone < zones.conventional => Ok(None),
            Some(&entry) => Ok(Some(entry)),
        };
        match op {
            // A zone id past the end stands for the first one past it: an
            // address cannot name a zone whose first slice overflows.
            ZoneOp::Write { zone, skew, count } => {
                let wp = self.zones.get(&zone).map_or(0, |&(_, wp)| wp);
                self.write(zone.min(ZONES) * ZONE_SLICES + wp + skew, count)
            }
            ZoneOp::Append { zone, count } => match sequential(self, zone.min(ZONES))? {
                None => Err(Refusal::Unsupported),
                Some((_, wp)) if wp + count > ZONE_SLICES => Err(Refusal::Boundary),
                Some((_, wp)) => self.write(zone * ZONE_SLICES + wp, count),
            },
            ZoneOp::Open(zone) => match sequential(self, zone)? {
                None | Some((ZoneState::Open, _)) => Ok(()),
                Some((ZoneState::Full, _)) => Err(Refusal::Full),
                Some(_) if self.open() >= self.limit => Err(Refusal::TooManyOpen),
                Some((_, wp)) => {
                    self.zones.insert(zone, (ZoneState::Open, wp));
                    Ok(())
                }
            },
            ZoneOp::Close(zone) => match sequential(self, zone)? {
                Some((ZoneState::Open, wp)) => {
                    self.zones.insert(zone, (ZoneState::Closed, wp));
                    Ok(())
                }
                _ => Err(Refusal::NotWritable),
            },
            ZoneOp::Finish(zone) => match sequential(self, zone)? {
                None => Err(Refusal::NotWritable),
                Some((_, wp)) => {
                    self.zones.insert(zone, (ZoneState::Full, wp));
                    Ok(())
                }
            },
            ZoneOp::Reset(zone) => {
                sequential(self, zone)?;
                self.zones.insert(zone, (ZoneState::Empty, 0));
                Ok(())
            }
            ZoneOp::PowerCutRemount { zone, lost } => {
                let (state, wp) = self.zones[&zone];
                self.zones.insert(zone, (state, wp - lost.min(wp)));
                for (state, wp) in self.zones.values_mut() {
                    if *state == ZoneState::Open {
                        *state = match wp {
                            0 => ZoneState::Empty,
                            _ => ZoneState::Closed,
                        };
                    }
                }
                Ok(())
            }
        }
    }
}

/// Drives the table the way a device model does: admission, then the
/// model's step, then the transition.
fn apply_to_table(table: &mut ZoneTable, op: ZoneOp) -> Result<(), DeviceError> {
    let range = |zone: u64, offset: u64, count: u64| {
        LpnRange::new(Lpn(zone.min(ZONES) * ZONE_SLICES + offset), count)
    };
    let wp = |table: &ZoneTable, zone: u64| match zone < ZONES {
        true => table.wp_slices(ZoneId(zone)),
        false => 0,
    };
    let write = |table: &mut ZoneTable, range: LpnRange| {
        let (zone, offset) = table.admit_write(range)?;
        if table.is_conventional(zone) {
            table.mark_written(zone, offset + range.count);
        } else if table.advance(zone, range.count) {
            table.seal(zone);
        }
        Ok(())
    };
    match op {
        ZoneOp::Write { zone, skew, count } => {
            let at = wp(table, zone) + skew;
            write(table, range(zone, at, count))
        }
        ZoneOp::Append { zone, count } => {
            let landed = table.append_target(range(zone, 3, count))?;
            write(table, landed)
        }
        ZoneOp::Open(zone) => table.open(ZoneId(zone)),
        ZoneOp::Close(zone) => {
            table.closable(ZoneId(zone))?;
            table.close(ZoneId(zone));
            Ok(())
        }
        ZoneOp::Finish(zone) => {
            if table.finishable(ZoneId(zone))? {
                table.seal(ZoneId(zone));
            }
            Ok(())
        }
        ZoneOp::Reset(zone) => {
            table.checked(ZoneId(zone))?;
            table.reset(ZoneId(zone));
            Ok(())
        }
        ZoneOp::PowerCutRemount { zone, lost } => {
            let durable = wp(table, zone) - lost.min(wp(table, zone));
            table.rewind(ZoneId(zone), durable);
            table.close_open_zones();
            Ok(())
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 96, ..ProptestConfig::default() })]

    /// [`ZoneTable`] alone against the naive model, over the zone command
    /// alphabet with ids past the end, the open limit at 1 / 2 / 6, up to
    /// two conventional zones and power cycles: the same accept or the
    /// same refusal, and every zone's state and write pointer equal, at
    /// every step — as are the maintained open count and a scan.
    #[test]
    fn zone_table_equals_the_naive_contract(
        ops in zone_ops(),
        limit in prop_oneof![Just(1usize), Just(2), Just(6)],
        conventional in 0u64..3,
    ) {
        let mut table = ZoneTable::new(
            ZONES as usize,
            ZONE_SLICES,
            Some(limit),
            conventional as usize,
        );
        let mut naive = NaiveZones {
            zones: (0..ZONES).map(|z| (z, (ZoneState::Empty, 0))).collect(),
            limit,
            conventional,
        };
        for (step, &op) in ops.iter().enumerate() {
            // A write that skews past the pointer of a conventional zone is
            // an in-place write like any other; both sides see the same.
            let got = apply_to_table(&mut table, op).map_err(refusal);
            let want = naive.apply(op);
            prop_assert_eq!(got, want, "step {} {:?}", step, op);
            for (&zone, &(state, wp)) in &naive.zones {
                let info = table.info(ZoneId(zone)).expect("zone in range");
                prop_assert_eq!(
                    (info.state, info.write_pointer),
                    (state, wp * crate::SLICE_BYTES),
                    "zone {} after step {} {:?}",
                    zone,
                    step,
                    op
                );
                let readable = if zone < conventional { ZONE_SLICES } else { wp };
                prop_assert_eq!(table.readable(ZoneId(zone)), readable);
            }
            prop_assert_eq!(table.open_count(), naive.open(), "step {} {:?}", step, op);
        }
        for zone in [ZONES, u64::MAX] {
            prop_assert_eq!(
                table.info(ZoneId(zone)).map_err(refusal),
                Err(Refusal::OutOfRange)
            );
        }
    }
}
