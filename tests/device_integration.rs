//! Cross-crate integration: the three device models driven through the
//! shared traits by the host runner.

use conzone::host::{run_job, AccessPattern, FioJob};
use conzone::types::{DeviceConfig, IoRequest, SimTime, StorageDevice, ZonedDevice};
use conzone::{ConZone, FemuZns, LegacyDevice};

fn cfg() -> DeviceConfig {
    DeviceConfig::tiny_for_tests()
}

/// Device state must be `Send`, so a parallel sweep (or a future fleet
/// runner) can move each device to its own worker thread. Checked at
/// compile time: an `Rc`/`RefCell` field in any model breaks this test's
/// build, not a run.
#[test]
fn device_models_are_send() {
    fn assert_send<T: Send>() {}
    assert_send::<ConZone>();
    assert_send::<LegacyDevice>();
    assert_send::<FemuZns>();
}

/// Every model serves a write→read roundtrip through the trait object
/// interface.
#[test]
fn all_models_roundtrip_via_trait_object() {
    let mut devices: Vec<Box<dyn StorageDevice>> = vec![
        Box::new(ConZone::new(cfg())),
        Box::new(LegacyDevice::new(cfg())),
        Box::new(FemuZns::new(cfg())),
    ];
    for dev in devices.iter_mut() {
        let data = bytes::Bytes::from(vec![0xabu8; 128 * 1024]);
        let w = dev
            .submit(SimTime::ZERO, &IoRequest::write_data(0, data.clone()))
            .unwrap_or_else(|e| panic!("{} write: {e}", dev.model_name()));
        let r = dev
            .submit(w.finished, &IoRequest::read(0, 128 * 1024))
            .unwrap_or_else(|e| panic!("{} read: {e}", dev.model_name()));
        assert_eq!(
            r.data.expect("backed"),
            data,
            "{} data integrity",
            dev.model_name()
        );
        let c = dev.counters();
        assert_eq!(c.host_write_bytes, 128 * 1024, "{}", dev.model_name());
    }
}

/// The fio runner produces consistent reports for every model.
#[test]
fn runner_reports_all_models() {
    let zone = 1024 * 1024u64;
    // ConZone and FEMU are zoned; Legacy takes a flat stream.
    let mut cz = ConZone::new(cfg());
    let job = FioJob::new(AccessPattern::SeqWrite, 128 * 1024)
        .zone_bytes(zone)
        .region(0, 4 * zone)
        .bytes_per_thread(4 * zone)
        .verify(true);
    let r = run_job(&mut cz, &job).expect("conzone");
    assert_eq!(r.bytes, 4 * zone);
    assert!(r.bandwidth_mibs() > 0.0 && r.latency.count == 32);

    let mut fm = FemuZns::new(cfg());
    let femu_zone = fm.zone_size();
    let job = FioJob::new(AccessPattern::SeqWrite, 128 * 1024)
        .zone_bytes(femu_zone)
        .region(0, 4 * femu_zone)
        .bytes_per_thread(4 * femu_zone)
        .verify(true);
    let r = run_job(&mut fm, &job).expect("femu");
    assert_eq!(r.bytes, 4 * femu_zone);

    let mut lg = LegacyDevice::new(cfg());
    let job = FioJob::new(AccessPattern::SeqWrite, 128 * 1024)
        .region(0, 4 * zone)
        .bytes_per_thread(4 * zone)
        .verify(true);
    let r = run_job(&mut lg, &job).expect("legacy");
    assert_eq!(r.bytes, 4 * zone);
}

/// Identical request streams produce identical simulated timings across
/// construction of fresh devices (global determinism).
#[test]
fn cross_model_determinism() {
    fn run_once() -> Vec<u64> {
        let mut out = Vec::new();
        let mut cz = ConZone::new(cfg());
        let mut fm = FemuZns::new(cfg());
        let mut lg = LegacyDevice::new(cfg());
        let mut t = [SimTime::ZERO; 3];
        for i in 0..32u64 {
            let req = IoRequest::write(i * 64 * 1024, 64 * 1024);
            t[0] = cz.submit(t[0], &req).unwrap().finished;
            t[1] = fm.submit(t[1], &req).unwrap().finished;
            t[2] = lg.submit(t[2], &req).unwrap().finished;
        }
        out.extend(t.iter().map(|x| x.as_nanos()));
        out
    }
    assert_eq!(run_once(), run_once());
}

/// ConZone's counters expose the full internal story for a mixed workload.
#[test]
fn counters_tell_consistent_story() {
    let mut dev = ConZone::new(cfg());
    let zone = dev.zone_size();
    let mut t = SimTime::ZERO;
    // Conflicting writes (zones 0 and 2 share a buffer).
    for round in 0..8u64 {
        for &z in &[0u64, 2] {
            let off = z * zone + round * 48 * 1024;
            t = dev
                .submit(t, &IoRequest::write(off, 48 * 1024))
                .unwrap()
                .finished;
        }
    }
    let c = dev.counters();
    assert!(
        c.buffer_conflicts >= 15,
        "conflicts: {}",
        c.buffer_conflicts
    );
    assert_eq!(
        c.host_write_bytes,
        2 * 8 * 48 * 1024,
        "host accounting exact"
    );
    // Premature flushes imply SLC programs; combines imply data reads.
    assert!(c.premature_flushes > 0);
    assert!(c.flash_program_bytes_slc > 0);
    assert!(c.slc_combines > 0);
    assert!(c.flash_data_reads > 0, "combine readback");
    // Flash wrote at least what the host wrote.
    assert!(c.flash_program_bytes() >= c.host_write_bytes);
}
