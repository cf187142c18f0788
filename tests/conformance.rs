//! Differential conformance: the two zoned models must agree on the
//! *semantics* of the zoned interface (accept/reject decisions, write
//! pointers, states) even though their timing models differ entirely.

use conzone::sim::SimRng;
use conzone::types::{
    DeviceError, IoRequest, SimTime, StorageDevice, ZoneId, ZoneState, ZonedDevice,
};
use conzone::{ConZone, FemuZns};

/// FEMU zones are superblock-sized (1 MiB in the tiny geometry, same as
/// ConZone's power-of-two tiny zones), so the two models share an address
/// space here.
fn devices() -> (ConZone, FemuZns) {
    // FEMU does not model the open-zone limit, so lift ConZone's for a
    // pure interface-semantics comparison.
    let cfg = conzone::types::DeviceConfig::builder(conzone::types::Geometry::tiny())
        .chunk_bytes(256 * 1024)
        .data_backing(true)
        .max_open_zones(usize::MAX)
        .build()
        .expect("conformance config");
    assert_eq!(
        cfg.zone_size_bytes(),
        cfg.geometry.superblock_bytes(),
        "tiny zones align across models"
    );
    (ConZone::new(cfg.clone()), FemuZns::new(cfg))
}

#[derive(Debug, Clone, Copy)]
enum Op {
    Write { zone: u64, slices: u64 },
    Append { zone: u64, slices: u64 },
    Read { slice: u64, count: u64 },
    Reset { zone: u64 },
    Open { zone: u64 },
    Close { zone: u64 },
    Finish { zone: u64 },
}

#[test]
fn zoned_models_agree_on_accept_reject() {
    let (mut cz, mut fm) = devices();
    let zs = cz.zone_size() / 4096;
    let nzones = cz.zone_count().min(fm.zone_count()) as u64;
    let mut rng = SimRng::new(0xc0f0);
    let mut wp = vec![0u64; nzones as usize];
    let (mut t_cz, mut t_fm) = (SimTime::ZERO, SimTime::ZERO);

    for step in 0..2500u64 {
        let zone = rng.below(nzones);
        let op = match rng.below(10) {
            0..=3 => Op::Write {
                zone,
                slices: 1 + rng.below(6),
            },
            4 => Op::Append {
                zone,
                slices: 1 + rng.below(4),
            },
            5..=6 => Op::Read {
                slice: zone * zs + rng.below(zs),
                count: 1,
            },
            7 => Op::Reset { zone },
            8 => Op::Open { zone },
            _ => match rng.below(2) {
                0 => Op::Close { zone },
                _ => Op::Finish { zone },
            },
        };

        let (rc, rf): (Result<_, _>, Result<_, _>) = match op {
            Op::Write { zone, slices } => {
                let offset = (zone * zs + wp[zone as usize]) * 4096;
                let req = IoRequest::write(offset, slices * 4096);
                (cz.submit(t_cz, &req), fm.submit(t_fm, &req))
            }
            Op::Append { zone, slices } => {
                let req = IoRequest::append(zone * zs * 4096, slices * 4096);
                (cz.submit(t_cz, &req), fm.submit(t_fm, &req))
            }
            Op::Read { slice, count } => {
                let req = IoRequest::read(slice * 4096, count * 4096);
                (cz.submit(t_cz, &req), fm.submit(t_fm, &req))
            }
            Op::Reset { zone } => (
                cz.reset_zone(t_cz, ZoneId(zone)),
                fm.reset_zone(t_fm, ZoneId(zone)),
            ),
            Op::Open { zone } => (
                cz.open_zone(t_cz, ZoneId(zone)),
                fm.open_zone(t_fm, ZoneId(zone)),
            ),
            Op::Close { zone } => (
                cz.close_zone(t_cz, ZoneId(zone)),
                fm.close_zone(t_fm, ZoneId(zone)),
            ),
            Op::Finish { zone } => (
                cz.finish_zone(t_cz, ZoneId(zone)),
                fm.finish_zone(t_fm, ZoneId(zone)),
            ),
        };

        // The two models must agree on acceptance.
        assert_eq!(
            rc.is_ok(),
            rf.is_ok(),
            "step {step}: {op:?} — conzone {rc:?} vs femu {rf:?}"
        );
        if let (Ok(c1), Ok(c2)) = (&rc, &rf) {
            t_cz = c1.finished;
            t_fm = c2.finished;
            assert_eq!(
                c1.assigned_offset.is_some(),
                c2.assigned_offset.is_some(),
                "step {step}: append semantics agree"
            );
            if let (Some(a), Some(b)) = (c1.assigned_offset, c2.assigned_offset) {
                assert_eq!(a, b, "step {step}: same append placement");
            }
            // Maintain the shadow write pointer.
            match op {
                Op::Write { zone, slices } | Op::Append { zone, slices } => {
                    wp[zone as usize] += slices;
                }
                Op::Reset { zone } => wp[zone as usize] = 0,
                _ => {}
            }
        }

        // Zone views agree.
        let zi_c = cz.zone_info(ZoneId(zone)).expect("conzone info");
        let zi_f = fm.zone_info(ZoneId(zone)).expect("femu info");
        assert_eq!(
            zi_c.write_pointer, zi_f.write_pointer,
            "step {step}: write pointers agree on zone {zone}"
        );
        let states_agree = matches!(
            (zi_c.state, zi_f.state),
            (ZoneState::Empty, ZoneState::Empty)
                | (ZoneState::Open, ZoneState::Open)
                | (ZoneState::Closed, ZoneState::Closed)
                | (ZoneState::Full, ZoneState::Full)
        );
        assert!(
            states_agree,
            "step {step}: zone {zone} states {:?} vs {:?}",
            zi_c.state, zi_f.state
        );
    }
}

/// Every zone command of both models answers a zone the device does not
/// have — the first id past the end, and one whose byte offset overflows —
/// with the same `OutOfRange`, and panics on neither.
#[test]
fn zone_commands_reject_out_of_range_ids_alike() {
    let (mut cz, mut fm) = devices();
    let models: [&mut dyn ZonedDevice; 2] = [&mut cz, &mut fm];
    for dev in models {
        let name = dev.model_name();
        let capacity = dev.capacity_bytes();
        for zone in [ZoneId(dev.zone_count() as u64), ZoneId(u64::MAX)] {
            let expected = DeviceError::OutOfRange {
                offset: zone.raw().saturating_mul(dev.zone_size()),
                capacity,
            };
            let t = SimTime::ZERO;
            let answers = [
                ("zone_info", dev.zone_info(zone).err()),
                ("reset_zone", dev.reset_zone(t, zone).err()),
                ("open_zone", dev.open_zone(t, zone).err()),
                ("close_zone", dev.close_zone(t, zone).err()),
                ("finish_zone", dev.finish_zone(t, zone).err()),
            ];
            for (command, answer) in answers {
                assert_eq!(answer, Some(expected.clone()), "{name} {command}({zone})");
            }
        }
    }
}
