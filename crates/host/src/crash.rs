//! Crash-consistency verification across an unclean power cycle.
//!
//! [`power_cycle_and_verify`] yanks the plug on a device mid-workload,
//! remounts it, and audits the device's own [`RecoveryReport`] against
//! ground truth:
//!
//! * **balance** — `recovered + lost` must equal the slices that were in
//!   flight (buffered or SLC-staged) at the cut; the device may not
//!   silently drop or invent data;
//! * **recovered data** — every logical page the device claims to have
//!   recovered must read back with the exact payload the workload wrote
//!   (regenerated from `(seed, offset)` via [`payload_for`]);
//! * **lost data** — every logical page the device reports lost must read
//!   as unwritten, never as stale or phantom data.
//!
//! The workload must have been driven with `verify_data` payloads (and
//! `data_backing` on the device) for the byte-level comparison; without
//! payloads the balance and lost-range audits still run.

use conzone_core::ConZone;
use conzone_types::{DeviceError, IoRequest, RecoveryReport, SimTime, StorageDevice, SLICE_BYTES};

use crate::runner::HostError;
use crate::verify::payload_for;

/// Outcome of a verified power cycle.
#[derive(Debug, Clone)]
pub struct CrashVerdict {
    /// The device's own account of the recovery.
    pub report: RecoveryReport,
    /// Slices in flight (volatile or replayable) at the cut instant.
    pub in_flight_at_cut: u64,
    /// Recovered slices whose payload was re-read and byte-compared.
    pub verified_recovered_slices: u64,
    /// Lost slices confirmed to read as unwritten after remount.
    pub verified_lost_slices: u64,
}

impl core::fmt::Display for CrashVerdict {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "{} (in flight at cut: {}, byte-verified: {}, confirmed lost: {})",
            self.report,
            self.in_flight_at_cut,
            self.verified_recovered_slices,
            self.verified_lost_slices
        )
    }
}

/// Cuts power at `cut_at`, remounts, and audits the recovery report.
///
/// `seed` must match the seed the workload generated its payloads with.
///
/// # Errors
///
/// [`HostError::Crash`] on any balance or lost-range violation,
/// [`HostError::VerifyMismatch`] when recovered data reads back wrong, and
/// [`HostError::Device`] when the device rejects the power cycle itself.
pub fn power_cycle_and_verify(
    dev: &mut ConZone,
    seed: u64,
    cut_at: SimTime,
) -> Result<CrashVerdict, HostError> {
    let in_flight = dev.in_flight_slices();
    dev.power_cut(cut_at)
        .map_err(|source| HostError::Device { offset: 0, source })?;
    let report = dev
        .remount(cut_at)
        .map_err(|source| HostError::Device { offset: 0, source })?;

    if report.recovered_slices + report.lost_slices != in_flight {
        return Err(HostError::Crash(format!(
            "recovery does not balance: {} recovered + {} lost != {} in flight at the cut",
            report.recovered_slices, report.lost_slices, in_flight
        )));
    }
    let counted: u64 = report.recovered.iter().map(|r| r.count).sum();
    if counted != report.recovered_slices {
        return Err(HostError::Crash(format!(
            "recovered ranges cover {counted} slices but the report claims {}",
            report.recovered_slices
        )));
    }
    let counted: u64 = report.lost.iter().map(|r| r.count).sum();
    if counted != report.lost_slices {
        return Err(HostError::Crash(format!(
            "lost ranges cover {counted} slices but the report claims {}",
            report.lost_slices
        )));
    }

    let t = report.finished;
    let mut verified_recovered = 0u64;
    for run in &report.recovered {
        let offset = run.start.byte_offset();
        let len = run.count * SLICE_BYTES;
        let completion = dev
            .submit(t, &IoRequest::read(offset, len))
            .map_err(|source| HostError::Device { offset, source })?;
        if let Some(data) = &completion.data {
            if data != &payload_for(seed, offset, len) {
                return Err(HostError::VerifyMismatch { offset });
            }
            verified_recovered += run.count;
        }
    }

    let mut verified_lost = 0u64;
    for run in &report.lost {
        // Lost pages sit above the rewound write pointer (or vanished from
        // the mapping table): probe each slice and demand it is gone.
        for s in 0..run.count {
            let offset = run.start.offset(s).byte_offset();
            match dev.submit(t, &IoRequest::read(offset, SLICE_BYTES)) {
                Err(DeviceError::UnwrittenRead { .. }) => verified_lost += 1,
                Ok(_) => {
                    return Err(HostError::Crash(format!(
                        "slice at byte offset {offset} was reported lost but still reads back"
                    )));
                }
                Err(source) => return Err(HostError::Device { offset, source }),
            }
        }
    }

    Ok(CrashVerdict {
        report,
        in_flight_at_cut: in_flight,
        verified_recovered_slices: verified_recovered,
        verified_lost_slices: verified_lost,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::{AccessPattern, FioJob};
    use crate::runner::run_job_until;
    use conzone_types::{DeviceConfig, SimDuration};

    fn cut_job(seed: u64) -> FioJob {
        // 8 KiB sync-less writes leave sub-unit tails buffered and force
        // buffer conflicts (zones 0 and 2 share a buffer), so the cut
        // catches both volatile and SLC-staged in-flight data.
        FioJob::new(AccessPattern::SeqWrite, 8192)
            .zone_bytes(1024 * 1024)
            .threads(2)
            .with_thread_zones(vec![vec![0], vec![2]])
            .bytes_per_thread(512 * 1024)
            .seed(seed)
            .verify(true)
    }

    #[test]
    fn interrupted_workload_survives_power_cycle() {
        let mut dev = ConZone::new(DeviceConfig::tiny_for_tests());
        let cut_at = SimTime::ZERO + SimDuration::from_micros(400);
        let r = run_job_until(&mut dev, &cut_job(7), cut_at).unwrap();
        assert!(r.ops > 0, "workload made progress before the cut");
        let verdict = power_cycle_and_verify(&mut dev, 7, cut_at).unwrap();
        assert_eq!(
            verdict.report.recovered_slices + verdict.report.lost_slices,
            verdict.in_flight_at_cut
        );
        assert_eq!(
            verdict.verified_recovered_slices,
            verdict.report.recovered_slices
        );
        assert_eq!(verdict.verified_lost_slices, verdict.report.lost_slices);
    }

    #[test]
    fn clean_device_cycles_with_nothing_lost() {
        let mut dev = ConZone::new(DeviceConfig::tiny_for_tests());
        let verdict = power_cycle_and_verify(&mut dev, 0, SimTime::ZERO).unwrap();
        assert_eq!(verdict.in_flight_at_cut, 0);
        assert_eq!(verdict.report.lost_slices, 0);
        assert_eq!(verdict.report.recovered_slices, 0);
    }
}
