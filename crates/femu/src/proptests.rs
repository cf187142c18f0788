//! Differential property: [`FemuZns`] on `ZoneTable` + `WriteBuffer` +
//! `DataStore` against the hand-written device it replaced
//! ([`ReferenceFemu`]), step for step. Equal completion times mean equal
//! jitter draw order; equal event streams mean the same programs, reads
//! and erases were issued at the same simulated times.

use std::sync::Arc;

use proptest::prelude::*;
use proptest::test_runner::{TestCaseError, TestRng};

use bytes::Bytes;
use conzone_sim::RingBufferSink;
use conzone_types::{
    Completion, Counters, DeviceConfig, DeviceError, Geometry, IoRequest, Probe, SimTime,
    StorageDevice, ZoneId, ZonedDevice, SLICE_BYTES,
};

use crate::reference::ReferenceFemu;
use crate::FemuZns;

/// Zones the streams work in: 0, 2 and 4 share buffer 0, the others
/// buffer 1 (the tiny geometry has two), so most writes conflict.
const ZONES: u8 = 6;

#[derive(Debug, Clone)]
enum Op {
    /// Write `slices` at the zone's write pointer — or `skew` slices past
    /// it, which the device must refuse unless `skew` is zero.
    Write {
        zone: u8,
        slices: u8,
        skew: u8,
        backed: bool,
    },
    Append {
        zone: u8,
        slices: u8,
        backed: bool,
    },
    /// Read `slices` from `at` slices into the zone; may run past the
    /// write pointer or into the next zone.
    Read {
        zone: u8,
        at: u8,
        slices: u8,
    },
    Flush,
    Open {
        zone: u8,
    },
    Close {
        zone: u8,
    },
    Finish {
        zone: u8,
    },
    Reset {
        zone: u8,
    },
}

fn ops() -> impl Strategy<Value = Vec<Op>> {
    // One zone id in sixteen is past the last zone.
    let zone = || any::<u8>().prop_map(|z| if z % 16 == 15 { 200 } else { z % ZONES });
    prop::collection::vec(
        prop_oneof![
            // Mostly sub-unit (16 slices) writes, so drains pad; sometimes
            // more than the 64-slice buffer.
            14 => (zone(), 1u8..24, 0u8..12, 0u8..4).prop_map(|(zone, slices, skew, b)| Op::Write {
                zone,
                slices,
                skew: skew.saturating_sub(10),
                backed: b != 0,
            }),
            2 => (zone(), 60u8..90).prop_map(|(zone, slices)| Op::Write {
                zone,
                slices,
                skew: 0,
                backed: true,
            }),
            4 => (zone(), 1u8..20, 0u8..2).prop_map(|(zone, slices, b)| Op::Append {
                zone,
                slices,
                backed: b != 0,
            }),
            6 => (zone(), any::<u8>(), 1u8..40).prop_map(|(zone, at, slices)| Op::Read {
                zone,
                at,
                slices,
            }),
            1 => Just(Op::Flush),
            1 => zone().prop_map(|zone| Op::Open { zone }),
            2 => zone().prop_map(|zone| Op::Close { zone }),
            1 => zone().prop_map(|zone| Op::Finish { zone }),
            1 => zone().prop_map(|zone| Op::Reset { zone }),
        ],
        200..500,
    )
}

/// What a step returned, in comparable form.
type Outcome = Result<(SimTime, SimTime, Option<Bytes>, Option<u64>), DeviceError>;

fn outcome(r: Result<Completion, DeviceError>) -> Outcome {
    r.map(|c| (c.submitted, c.finished, c.data, c.assigned_offset))
}

/// A payload that names its write, so a stale or misplaced copy cannot
/// pass for the right one.
fn payload(step: usize, slices: u64) -> Bytes {
    let len = (slices * SLICE_BYTES) as usize;
    Bytes::from(
        (0..len)
            .map(|i| (1 + i / 4096 + step * 31 + i % 251) as u8)
            .collect::<Vec<u8>>(),
    )
}

/// Drives both devices through `ops`, asserting equal results, counters,
/// zone views and event streams after every step, then reads back every
/// written page of both. Returns the final counters.
fn lockstep(ops: &[Op], data_backing: bool) -> Result<Counters, TestCaseError> {
    let cfg = DeviceConfig::builder(Geometry::tiny())
        .chunk_bytes(256 * 1024)
        .data_backing(data_backing)
        .build()
        .expect("tiny config");
    let mut new = FemuZns::new(cfg.clone());
    let mut old = ReferenceFemu::new(cfg);
    let (new_events, old_events) = (
        Arc::new(RingBufferSink::new()),
        Arc::new(RingBufferSink::new()),
    );
    new.set_probe(Probe::attached(new_events.clone()));
    old.set_probe(Probe::attached(old_events.clone()));
    prop_assert_eq!(new.capacity_bytes(), old.capacity_bytes());
    let zone_bytes = new.zone_size();
    let mut t = SimTime::ZERO;

    for (step, op) in ops.iter().enumerate() {
        let wp = |dev: &FemuZns, zone: u8| {
            dev.zone_info(ZoneId(u64::from(zone)))
                .map_or(0, |info| info.write_pointer)
        };
        let sized = |offset: u64, slices: u8, backed: bool, append: bool| {
            let n = u64::from(slices);
            match (append, backed) {
                (false, true) => IoRequest::write_data(offset, payload(step, n)),
                (false, false) => IoRequest::write(offset, n * SLICE_BYTES),
                (true, true) => IoRequest::append_data(offset, payload(step, n)),
                (true, false) => IoRequest::append(offset, n * SLICE_BYTES),
            }
        };
        let zone_of = |op: &Op| match *op {
            Op::Write { zone, .. }
            | Op::Append { zone, .. }
            | Op::Read { zone, .. }
            | Op::Open { zone }
            | Op::Close { zone }
            | Op::Finish { zone }
            | Op::Reset { zone } => Some(ZoneId(u64::from(zone))),
            Op::Flush => None,
        };
        let (got, want): (Outcome, Outcome) = match *op {
            Op::Write {
                zone,
                slices,
                skew,
                backed,
            } => {
                let offset =
                    u64::from(zone) * zone_bytes + wp(&new, zone) + u64::from(skew) * SLICE_BYTES;
                let req = sized(offset, slices, backed, false);
                (outcome(new.submit(t, &req)), outcome(old.submit(t, &req)))
            }
            Op::Append {
                zone,
                slices,
                backed,
            } => {
                let req = sized(u64::from(zone) * zone_bytes, slices, backed, true);
                (outcome(new.submit(t, &req)), outcome(old.submit(t, &req)))
            }
            Op::Read { zone, at, slices } => {
                let offset = u64::from(zone) * zone_bytes + u64::from(at) * SLICE_BYTES;
                let req = IoRequest::read(offset, u64::from(slices) * SLICE_BYTES);
                (outcome(new.submit(t, &req)), outcome(old.submit(t, &req)))
            }
            Op::Flush => (outcome(new.flush(t)), outcome(old.flush(t))),
            Op::Open { zone } => {
                let z = ZoneId(u64::from(zone));
                (outcome(new.open_zone(t, z)), outcome(old.open_zone(t, z)))
            }
            Op::Close { zone } => {
                let z = ZoneId(u64::from(zone));
                (outcome(new.close_zone(t, z)), outcome(old.close_zone(t, z)))
            }
            Op::Finish { zone } => {
                let z = ZoneId(u64::from(zone));
                (
                    outcome(new.finish_zone(t, z)),
                    outcome(old.finish_zone(t, z)),
                )
            }
            Op::Reset { zone } => {
                let z = ZoneId(u64::from(zone));
                (outcome(new.reset_zone(t, z)), outcome(old.reset_zone(t, z)))
            }
        };
        prop_assert_eq!(&got, &want, "step {} {:?}", step, op);
        prop_assert_eq!(new.counters(), old.counters(), "step {} {:?}", step, op);
        if let Some(zone) = zone_of(op) {
            prop_assert_eq!(
                new.zone_info(zone),
                old.zone_info(zone),
                "step {} {:?}",
                step,
                op
            );
        }
        prop_assert_eq!(
            new_events.drain(),
            old_events.drain(),
            "events of step {} {:?}",
            step,
            op
        );
        if let Ok((_, finished, _, _)) = got {
            t = finished;
        }
    }
    // Everything below a write pointer reads the same, page by page.
    for zone in 0..u64::from(ZONES) {
        let info = new.zone_info(ZoneId(zone)).expect("zone in range");
        for page in 0..info.write_pointer / SLICE_BYTES {
            let req = IoRequest::read(info.start + page * SLICE_BYTES, SLICE_BYTES);
            let (got, want) = (outcome(new.submit(t, &req)), outcome(old.submit(t, &req)));
            prop_assert_eq!(&got, &want, "final read of zone {} page {}", zone, page);
            prop_assert!(got.is_ok(), "written page unreadable: {:?}", got);
            if let Ok((_, finished, _, _)) = got {
                t = finished;
            }
        }
    }
    Ok(new.counters())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// Write / append / read / flush / open / close / finish / reset
    /// streams over six zones on two buffers, with data backing on and
    /// off: zones evict each other's sub-unit tails (padded, so the next
    /// write of the evicted zone starts its buffer mid-unit), fill up,
    /// get finished early and are reset.
    #[test]
    fn femu_on_the_shared_parts_equals_the_hand_written_device(
        ops in ops(),
        data_backing in any::<bool>(),
    ) {
        let counters = lockstep(&ops, data_backing)?;
        prop_assert!(counters.host_write_ops > 0);
    }
}

/// The property above is only worth its name if the streams do reach the
/// paths it lists: one fixed stream, counted.
#[test]
fn the_generated_streams_reach_conflicts_padding_and_resets() {
    let mut rng = TestRng::new(11);
    let stream = ops().generate(&mut rng);
    let counters = lockstep(&stream, true).expect("devices agree");
    assert!(counters.buffer_conflicts >= 20, "{counters:?}");
    assert!(counters.premature_flushes >= 20, "{counters:?}");
    assert!(
        counters.full_flushes > 0 && counters.zone_resets > 0,
        "{counters:?}"
    );
    assert!(counters.erases_normal > 0, "{counters:?}");
    // Padding shows as media bytes the host never wrote: even with the
    // zones' unflushed tails still missing from the media count.
    assert!(counters.flash_program_bytes() > counters.host_write_bytes / 2);
}
