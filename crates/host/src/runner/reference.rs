//! The open-loop driver as it was before arrivals were drawn lazily, kept
//! as the reference of the tests below: every Poisson arrival of the job
//! is drawn and pushed into the event queue before the first request runs
//! (40 bytes an arrival, so a large `io_size` cannot even start). Model
//! behaviour is the old code's line for line, restricted to what an
//! open-loop run reaches: one tenant, no front end, no sampler.

use conzone_core::ConZone;
use conzone_sim::{EventQueue, SimRng};
use conzone_types::{to_index, DeviceConfig, SimDuration, SimTime, StorageDevice};

use super::{run_job, run_job_until, HostError, JobReport, Tenant};
use crate::job::{AccessPattern, FioJob};

/// `run_job_until(dev, job, stop_at)` (or `run_job` without a stop) on the
/// eager schedule. `job` must be open loop.
fn run_job_eager<D: StorageDevice + ?Sized>(
    dev: &mut D,
    job: &FioJob,
    stop_at: Option<SimTime>,
) -> Result<JobReport, HostError> {
    let mut ts = Tenant::new(dev.capacity_bytes(), job)?;
    let before = dev.counters();
    let iops = job
        .arrival_iops
        .expect("the reference drives open-loop jobs");
    let mut queue: EventQueue<usize> = EventQueue::new();
    let mut arrival_rng = SimRng::new(job.seed ^ 0xa221_7a15);
    let mut at = job.start;
    for i in 0..job.requests_per_thread() * job.threads as u64 {
        let u = arrival_rng.f64().max(f64::MIN_POSITIVE);
        #[expect(
            clippy::disallowed_methods,
            reason = "the schedule under test draws the same"
        )]
        let gap_ns = (-u.ln() / iops * 1e9) as u64;
        at += SimDuration::from_nanos(gap_ns);
        let thread = to_index(i % job.threads as u64);
        queue.push(at, thread);
    }
    while let Some((t, thread)) = queue.pop() {
        if stop_at.is_some_and(|stop| t >= stop) {
            continue;
        }
        let Some((offset, is_read)) = ts.next_request(thread) else {
            continue;
        };
        let done = ts.issue(dev, t, offset, is_read)?;
        let latency = done.saturating_since(t);
        ts.tally
            .record_io(thread, is_read, job.block_bytes, latency, done);
    }
    let after = dev.counters();
    Ok(ts.tally.job_report(
        dev.model_name(),
        job.start,
        Vec::new(),
        after.since(&before),
    ))
}

/// A tiny device with its first 4 MiB written, and when that finished.
fn filled() -> (ConZone, SimTime) {
    let mut dev = ConZone::new(DeviceConfig::tiny_for_tests());
    let fill = FioJob::new(AccessPattern::SeqWrite, 256 * 1024)
        .zone_bytes(1024 * 1024)
        .region(0, 4 * 1024 * 1024)
        .bytes_per_thread(4 * 1024 * 1024);
    let f = run_job(&mut dev, &fill).expect("fill");
    (dev, f.finished)
}

/// Drawing each arrival as the previous one is served runs the same
/// requests at the same times on the same threads as drawing them all up
/// front: equal reports (latency summaries per thread, counters, finish)
/// and equal device state afterwards, from light load to past saturation,
/// for one and several threads, whole and stopped early.
#[test]
fn lazy_arrivals_report_what_the_eager_schedule_reported() {
    let mut compared = 0;
    for iops in [2_000.0, 60_000.0, 115_000.0, 400_000.0] {
        for threads in [1, 3] {
            // No stop, or one a tenth or half-way into the schedule.
            for stop_at_share in [None, Some(10), Some(2)] {
                let (mut lazy_dev, t0) = filled();
                let (mut eager_dev, _) = filled();
                let job = FioJob::new(AccessPattern::RandRead, 4096)
                    .region(0, 4 * 1024 * 1024)
                    .threads(threads)
                    .ops_per_thread(400)
                    .bytes_per_thread(u64::MAX)
                    .arrival_iops(iops)
                    .seed(compared)
                    .start_at(t0);
                let schedule_ns = 1e9 * (400 * threads) as f64 / iops;
                let stop = stop_at_share.map(|share| {
                    t0 + SimDuration::from_nanos((schedule_ns / f64::from(share)) as u64)
                });
                let lazy = match stop {
                    None => run_job(&mut lazy_dev, &job),
                    Some(stop) => run_job_until(&mut lazy_dev, &job, stop),
                }
                .expect("lazy schedule");
                let eager = run_job_eager(&mut eager_dev, &job, stop).expect("eager schedule");
                let what = format!("{iops} IOPS, {threads} threads, stop at 1/{stop_at_share:?}");
                assert_eq!(lazy, eager, "{what}");
                assert_eq!(lazy_dev.counters(), eager_dev.counters(), "{what}");
                assert!(lazy.ops > 0, "{what}");
                if stop_at_share.is_some() {
                    assert!(
                        lazy.ops < 400 * threads as u64,
                        "{what}: the stop cut nothing"
                    );
                }
                compared += 1;
            }
        }
    }
}
