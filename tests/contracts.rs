//! ZNS contracts about simulated cost, one test each (ROADMAP item 2(a)).
//! The interface half of the contract — which commands a zone state
//! accepts — is checked against the naive zoned device in
//! `tests/oracle.rs`; these rows check what a command costs on ConZone.

use conzone::types::{
    Completion, DeviceConfig, DeviceError, IoRequest, SimDuration, SimTime, StorageDevice, ZoneId,
    ZoneState, ZonedDevice, HOST_OVERHEAD,
};
use conzone::ConZone;

fn write(dev: &mut ConZone, now: SimTime, offset: u64, len: u64) -> Completion {
    dev.submit(now, &IoRequest::write(offset, len))
        .unwrap_or_else(|e| panic!("write of {len} bytes at {offset}: {e}"))
}

/// Limits reject rather than stall: with `max_open_zones` zones open, a
/// write that would open one more is refused on the spot, and it leaves
/// nothing behind — a twin device that never saw it completes the same
/// next write at the same instant, shows the same zones and counts the
/// same (EXPERIMENTS.md known deviation 6, closed: a refused command is no
/// longer booked as a host write).
#[test]
fn open_zone_limit_rejects_rather_than_stalls() {
    let cfg = DeviceConfig::tiny_for_tests();
    let (limit, zone) = (cfg.max_open_zones, cfg.zone_size_bytes());
    let (mut dev, mut twin) = (ConZone::new(cfg.clone()), ConZone::new(cfg));
    let mut t = SimTime::ZERO;
    for z in 0..limit as u64 {
        let done = write(&mut dev, t, z * zone, 4096);
        assert_eq!(write(&mut twin, t, z * zone, 4096).finished, done.finished);
        t = done.finished;
    }

    let refused = dev.submit(t, &IoRequest::write(limit as u64 * zone, 4096));
    assert_eq!(
        refused.unwrap_err(),
        DeviceError::TooManyOpenZones { limit }
    );

    let next = write(&mut dev, t, 4096, 4096);
    assert_eq!(next.finished, write(&mut twin, t, 4096, 4096).finished);
    for z in 0..dev.zone_count() as u64 {
        assert_eq!(dev.zone_info(ZoneId(z)), twin.zone_info(ZoneId(z)));
    }
    assert_eq!(
        dev.counters(),
        twin.counters(),
        "the refusal is not counted"
    );
}

/// Reset is near-free on an empty zone: a reset of an Empty zone, or of
/// one whose data never left the write buffer, completes after the host
/// overhead alone and erases nothing. A reset after one programmed unit
/// pays at least a block erase.
///
/// Deviation, pinned here: a reset does not grow with occupancy beyond
/// that. Each zone is one superblock, erased in one parallel step
/// however much of it was programmed, so a full zone resets exactly as
/// fast as one holding a single unit.
#[test]
fn reset_is_near_free_on_an_empty_zone() {
    let cfg = DeviceConfig::tiny_for_tests();
    let (zone, overhead) = (cfg.zone_size_bytes(), HOST_OVERHEAD);
    let unit = cfg.geometry.program_unit_bytes as u64;
    let erase = cfg.normal_cell.latency().erase;
    let mut dev = ConZone::new(cfg);
    let mut t = SimTime::ZERO;
    // Each reset is issued once the media has gone idle, so its latency is
    // its own cost, not a wait behind the writes before it. Returns the
    // latency and the blocks erased.
    let reset = |dev: &mut ConZone, t: &mut SimTime, z: u64| {
        let before = dev.counters().erases_normal;
        let done = dev
            .reset_zone(*t + SimDuration::from_millis(100), ZoneId(z))
            .expect("reset");
        *t = done.finished;
        (done.latency(), dev.counters().erases_normal - before)
    };

    // Zone 0 was never written; zone 1 holds 8 KiB, all in its buffer.
    assert_eq!(reset(&mut dev, &mut t, 0), (overhead, 0));
    t = write(&mut dev, t, zone, 8192).finished;
    assert_eq!(reset(&mut dev, &mut t, 1), (overhead, 0));

    // Zone 2: one programming unit, made durable by a flush.
    t = write(&mut dev, t, 2 * zone, unit).finished;
    t = dev.flush(t).expect("flush").finished;
    let (one_unit, erased) = reset(&mut dev, &mut t, 2);
    assert!(one_unit >= erase, "{one_unit} < one block erase ({erase})");
    assert!(erased > 0);

    // Zone 3, written to its end, costs the same.
    for offset in (0..zone).step_by(256 * 1024) {
        t = write(&mut dev, t, 3 * zone + offset, 256 * 1024).finished;
    }
    t = dev.flush(t).expect("flush").finished;
    assert_eq!(reset(&mut dev, &mut t, 3), (one_unit, erased));
}

/// Finish cost tracks the unwritten remainder: on a real device a finish
/// pads or marks what is left of the zone, so the emptier zone costs more.
///
/// Deviation, pinned here: ConZone's finish drains the zone's write buffer
/// and seals the zone, and the unwritten remainder costs nothing. With
/// nothing buffered, a zone with one programming unit written and a zone
/// written halfway both finish in exactly the host overhead, programming
/// nothing.
#[test]
fn finish_cost_ignores_the_unwritten_remainder() {
    let cfg = DeviceConfig::tiny_for_tests();
    let (zone, overhead) = (cfg.zone_size_bytes(), HOST_OVERHEAD);
    let unit = cfg.geometry.program_unit_bytes as u64;
    let mut dev = ConZone::new(cfg);
    let mut t = write(&mut dev, SimTime::ZERO, zone, unit).finished;
    t = write(&mut dev, t, 2 * zone, zone / 2).finished;
    t = dev.flush(t).expect("flush").finished;
    for z in [1, 2] {
        let programmed = dev.counters().flash_program_bytes();
        let done = dev
            .finish_zone(t + SimDuration::from_millis(100), ZoneId(z))
            .expect("finish");
        t = done.finished;
        assert_eq!(done.latency(), overhead, "zone {z}");
        assert_eq!(dev.counters().flash_program_bytes(), programmed, "zone {z}");
    }
}

/// Durability point of a host flush: a flush completes once its last
/// transfer has reached a chip's page register, and the cell programming
/// (tPROG) runs on after it. A cut while that program still runs loses
/// nothing.
///
/// Design choice, pinned here (EXPERIMENTS.md known deviation 8): the
/// model assumes power-loss protection for the page register. One
/// programming unit is written and flushed; power is cut 1 ns after the
/// flush completed, when the unit's TLC program has most of its 937.5 µs
/// left; after remount the unit reads back whole, nothing is reported
/// lost, and the zone's write pointer still stands after it.
#[test]
fn a_flushed_unit_survives_a_cut_inside_its_program() {
    let cfg = DeviceConfig::tiny_for_tests();
    let zone = cfg.zone_size_bytes();
    let unit = cfg.geometry.program_unit_bytes as u64;
    let tprog = cfg.normal_cell.latency().program;
    let mut dev = ConZone::new(cfg);
    let payload: Vec<u8> = (0..unit).map(|i| (i % 251) as u8).collect();
    let write = IoRequest::write_data(zone, payload.clone().into());
    let t = dev.submit(SimTime::ZERO, &write).expect("write").finished;
    let flushed = dev.flush(t).expect("flush");
    let programmed = dev.counters().flash_program_bytes_tlc;
    assert_eq!(programmed, unit, "the flush programmed the unit in place");

    // The flush answered at the end of the transfer (plus the host
    // overhead), well before tPROG could have ended.
    let cut = flushed.finished + SimDuration::from_nanos(1);
    assert!(cut < flushed.finished - HOST_OVERHEAD + tprog);
    assert_eq!(dev.in_flight_slices(), 0, "nothing is buffered at the cut");
    assert_eq!(dev.power_cut(cut).expect("cut"), 0);

    let report = dev.remount(cut).expect("remount");
    assert_eq!((report.lost_slices, report.lost.len()), (0, 0));
    // The unit is canonical TLC data, not SLC: the replay rebuilds none
    // of it.
    assert_eq!(report.recovered_slices, 0);
    let info = dev.zone_info(ZoneId(1)).expect("zone 1");
    assert_eq!(info.write_pointer, unit);
    assert_ne!(info.state, ZoneState::Empty);
    let read = dev
        .submit(report.finished, &IoRequest::read(zone, unit))
        .expect("read after remount");
    assert_eq!(
        read.data.as_deref(),
        Some(&payload[..]),
        "the unit reads back whole"
    );
}
