//! NVMe-like queue pairs: per-queue arbitration and multi-tenant
//! interference.
//!
//! [`crate::run_job`] hands every generated command straight to the
//! device. This module models the host the way an NVMe driver sees it:
//! every *tenant* (an independent workload sharing the device) owns a
//! [`QueuePair`] — a submission queue, a completion queue, and a bounded
//! pool of in-flight command slots — and a single controller-side
//! command-fetch stage ([`conzone_core::QueueFrontEnd`]) arbitrates among
//! the submission queues before commands reach the device model.
//!
//! This is [`crate::run_job`]'s event loop (`crate::runner`) with that
//! front end attached, on the simulated clock of the discrete-event core —
//! there is no OS async runtime. The command-fetch
//! [`Resource`](conzone_sim::Resource) serialises dispatch, so per-tenant
//! throughput under contention is decided by the
//! [`Arbiter`](conzone_core::Arbiter) policy rather than scripted.
//!
//! Two guarantees anchor the front end:
//!
//! * **Transparency** — one tenant behind a zero-cost fetch stage
//!   generates, dispatches and completes commands in exactly
//!   [`crate::run_job`]'s order at any queue depth, so every reported
//!   number is identical on the same seed; at queue depth 1 no queue
//!   events are emitted either, by design, so the traces are too.
//! * **Conservation** — per-tenant [`Counters`] are snapshot-diffed
//!   around each dispatch, so they always sum to the device-wide delta
//!   ([`MultiReport::tenants_sum_consistent`]).

// The queue-pair hot path is panic-free; `conzone-host` as a whole (CLI
// parsers, F2FS-lite) does not make that promise, so the ban sits here
// rather than in the crate's `[lints]` table. Unit tests assert freely.
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented
    )
)]

use std::collections::VecDeque;
use std::sync::Arc;

use conzone_core::{ArbiterKind, QueueFrontEnd};
use conzone_sim::{EventQueue, LatencyHistogram, LatencySummary};
use conzone_types::{
    Counters, DeviceEvent, Probe, SimDuration, SimTime, SpanKind, SpanRecord, SpanSink,
    StorageDevice,
};

use crate::job::FioJob;
use crate::runner::{drive, rate_over, Ev, HostError, Tenant, MAX_OUTSTANDING};

/// One in-flight command slot of a [`QueuePair`].
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct IoSlot {
    offset: u64,
    pub(crate) is_read: bool,
    pub(crate) thread: usize,
    /// When the host pushed the command into the submission queue.
    pub(crate) arrival: SimTime,
    /// When the fetch stage granted the command (reaches the device then).
    granted: SimTime,
}

/// An NVMe-like queue pair: submission queue, completion queue, and a
/// fixed slab of command slots sized `threads × depth`.
///
/// Slots are reused through a free list — after construction the pair
/// performs no allocation on the submit/dispatch/reap path. Completion
/// reaping is modelled with zero host delay: the driver pushes a
/// completed command into the CQ and reaps it at the same simulated
/// instant, so CQ occupancy never exceeds one.
#[derive(Debug)]
pub(crate) struct QueuePair {
    sq: VecDeque<u32>,
    cq: VecDeque<u32>,
    slots: Vec<IoSlot>,
    free: Vec<u32>,
    inflight: u32,
}

impl QueuePair {
    /// A queue pair for `threads` generator threads at `depth` outstanding
    /// commands each.
    pub(crate) fn new(threads: usize, depth: usize) -> QueuePair {
        // Slot indices live in u32 (half the slab footprint of usize);
        // clamp the slot count into that index space up front so every
        // later index conversion is widening.
        let n32 = u32::try_from(threads.max(1) * depth.max(1)).unwrap_or(u32::MAX);
        let n = n32 as usize;
        QueuePair {
            sq: VecDeque::with_capacity(n),
            cq: VecDeque::with_capacity(n),
            slots: vec![IoSlot::default(); n],
            free: (0..n32).rev().collect(),
            inflight: 0,
        }
    }

    /// Commands dispatched to the device but not yet reaped.
    pub(crate) fn inflight(&self) -> u32 {
        self.inflight
    }

    /// Allocates a slot for a new command and appends it to the
    /// submission queue; `None` when all slots are in use.
    fn submit(
        &mut self,
        offset: u64,
        is_read: bool,
        thread: usize,
        arrival: SimTime,
    ) -> Option<u32> {
        let idx = self.free.pop()?;
        self.slots[idx as usize] = IoSlot {
            offset,
            is_read,
            thread,
            arrival,
            granted: arrival,
        };
        self.sq.push_back(idx);
        Some(idx)
    }

    /// Pops the submission queue's head — the command the fetch stage
    /// granted.
    fn fetch_next(&mut self) -> Option<u32> {
        self.sq.pop_front()
    }

    /// Marks a fetched command dispatched at `granted`.
    fn mark_dispatched(&mut self, slot: u32, granted: SimTime) {
        self.slots[slot as usize].granted = granted;
        self.inflight += 1;
    }

    /// Posts a completed command to the completion queue.
    fn post_completion(&mut self, slot: u32) {
        self.cq.push_back(slot);
    }

    /// Reaps the completion queue's head.
    fn reap(&mut self) -> Option<u32> {
        let idx = self.cq.pop_front()?;
        self.inflight -= 1;
        Some(idx)
    }

    /// Returns a reaped slot to the free list for reuse.
    fn release(&mut self, slot: u32) {
        self.free.push(slot);
    }

    fn slot(&self, slot: u32) -> IoSlot {
        self.slots[slot as usize]
    }
}

/// One tenant of a multi-tenant run: a named workload with an arbitration
/// weight, backed by its own queue pair.
#[derive(Debug, Clone)]
pub struct TenantSpec {
    /// Tenant name for reports (e.g. `"reader"`).
    pub name: String,
    /// The workload. `queue_depth` sets the tenant's per-thread QD;
    /// open-loop arrivals (`arrival_iops`) are not supported here.
    pub job: FioJob,
    /// Weight under the [`ArbiterKind::Weighted`] policy (ignored by
    /// round-robin). Zero is treated as one.
    pub weight: u32,
}

impl TenantSpec {
    /// A tenant with weight 1.
    pub fn new(name: impl Into<String>, job: FioJob) -> TenantSpec {
        TenantSpec {
            name: name.into(),
            job,
            weight: 1,
        }
    }

    /// Sets the arbitration weight.
    #[must_use]
    pub fn weight(mut self, weight: u32) -> TenantSpec {
        self.weight = weight;
        self
    }
}

/// Knobs of the queue-pair driver.
pub struct QdOptions {
    /// Time the controller's fetch engine spends per command between
    /// arbitration and the device seeing the request. Zero makes the
    /// front end transparent.
    pub fetch_cost: SimDuration,
    /// Arbitration policy among tenant submission queues.
    pub arbiter: ArbiterKind,
    /// Probe receiving the host-level queue events
    /// ([`DeviceEvent::QueueSubmit`] / `QueueArbitrate` /
    /// `QueueComplete`). Disabled by default.
    pub probe: Probe,
    /// Sink receiving one [`SpanKind::QueueCmd`] root span (with a nested
    /// [`SpanKind::QueueWait`] child) per completed command.
    pub spans: Option<Arc<dyn SpanSink + Send + Sync>>,
}

impl Default for QdOptions {
    fn default() -> QdOptions {
        QdOptions {
            fetch_cost: SimDuration::ZERO,
            arbiter: ArbiterKind::RoundRobin,
            probe: Probe::disabled(),
            spans: None,
        }
    }
}

impl core::fmt::Debug for QdOptions {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("QdOptions")
            .field("fetch_cost", &self.fetch_cost)
            .field("arbiter", &self.arbiter)
            .field("probe", &self.probe)
            .field("spans", &self.spans.is_some())
            .finish()
    }
}

/// Per-tenant slice of a [`MultiReport`].
#[derive(Debug, Clone)]
pub struct TenantReport {
    /// Tenant name from the spec.
    pub name: String,
    /// Arbitration weight from the spec.
    pub weight: u32,
    /// Bytes moved by this tenant.
    pub bytes: u64,
    /// Requests completed by this tenant.
    pub ops: u64,
    /// Simulated completion of the tenant's last request.
    pub finished: SimTime,
    /// Submit-to-completion latency (includes queue wait).
    pub latency: LatencySummary,
    /// Latency of the read requests only.
    pub read_latency: LatencySummary,
    /// Latency of the write requests only.
    pub write_latency: LatencySummary,
    /// Submission-queue wait: doorbell to arbitration grant.
    pub queue_wait: LatencySummary,
    /// Per-thread latency distributions, indexed by thread id.
    pub thread_latency: Vec<LatencySummary>,
    /// Device counter delta attributed to this tenant (snapshot-diffed
    /// around each of its dispatches, so background work the tenant
    /// triggered — GC, combines, mapping fetches — is charged to it).
    pub counters: Counters,
}

impl TenantReport {
    /// The tenant's throughput in thousands of IOPS over `duration`.
    pub fn kiops_over(&self, duration: SimDuration) -> f64 {
        rate_over(self.ops, 1000, self.ops, duration)
    }
}

/// Aggregate result of a multi-tenant queue-pair run.
#[derive(Debug, Clone)]
pub struct MultiReport {
    /// Device model name.
    pub model: &'static str,
    /// Arbitration policy name (`"rr"` / `"wrr"`).
    pub arbiter: &'static str,
    /// Earliest tenant start.
    pub started: SimTime,
    /// Latest completion across tenants.
    pub finished: SimTime,
    /// Total bytes moved by all tenants.
    pub bytes: u64,
    /// Total requests completed by all tenants.
    pub ops: u64,
    /// Merged latency distribution across tenants.
    pub latency: LatencySummary,
    /// Device-wide counter delta over the run.
    pub counters: Counters,
    /// Per-tenant slices, in spec order.
    pub tenants: Vec<TenantReport>,
}

impl MultiReport {
    /// Wall-clock (simulated) duration of the run.
    pub fn duration(&self) -> SimDuration {
        self.finished - self.started
    }

    /// Aggregate throughput in MiB/s (`NaN` for a zero-duration run with
    /// completed operations, matching [`crate::JobReport`]'s convention).
    pub fn bandwidth_mibs(&self) -> f64 {
        rate_over(self.bytes, 1 << 20, self.ops, self.duration())
    }

    /// Aggregate throughput in thousands of IOPS.
    pub fn kiops(&self) -> f64 {
        rate_over(self.ops, 1000, self.ops, self.duration())
    }

    /// Whether the per-tenant counter deltas sum exactly to the
    /// device-wide delta — the conservation invariant of the attribution
    /// scheme. Always true for runs produced by [`run_tenants`].
    pub fn tenants_sum_consistent(&self) -> bool {
        let mut sum = Counters::default();
        for t in &self.tenants {
            sum.merge(&t.counters);
        }
        sum == self.counters
    }
}

/// Queue-side state of one tenant behind a [`FrontEnd`].
#[derive(Debug)]
struct Lane {
    qp: QueuePair,
    /// Submission-queue wait: doorbell to arbitration grant.
    wait_hist: LatencyHistogram,
    /// Device counter delta snapshot-diffed around the tenant's dispatches.
    counters: Counters,
}

/// The NVMe-like front end of a [`drive`] run: one [`QueuePair`] per
/// tenant behind a shared arbitrated command-fetch stage. [`drive`] hands
/// it every generated command and its `Dispatch` and `Reap` events.
pub(crate) struct FrontEnd {
    fe: QueueFrontEnd,
    /// Where queue events and spans go.
    probe: Probe,
    spans: Option<Arc<dyn SpanSink + Send + Sync>>,
    /// Commands completed so far: the span dump's IO id.
    io_seq: u64,
    lanes: Vec<Lane>,
}

impl FrontEnd {
    fn new(specs: &[TenantSpec], opts: &QdOptions) -> FrontEnd {
        // One tenant at depth 1 behind a free fetch stage is `run_job` in
        // different clothes: emit no queue events or spans, so the
        // observable output (trace included) is bit-identical to it.
        let degenerate = specs.len() == 1
            && specs[0].job.queue_depth == 1
            && opts.fetch_cost == SimDuration::ZERO;
        let weights: Vec<u32> = specs.iter().map(|s| s.weight).collect();
        FrontEnd {
            fe: QueueFrontEnd::new(specs.len(), opts.fetch_cost, opts.arbiter.build(&weights)),
            probe: if degenerate {
                Probe::disabled()
            } else {
                opts.probe.clone()
            },
            spans: opts.spans.clone().filter(|_| !degenerate),
            io_seq: 0,
            lanes: specs
                .iter()
                .map(|s| Lane {
                    qp: QueuePair::new(s.job.threads, s.job.queue_depth),
                    wait_hist: LatencyHistogram::new(),
                    counters: Counters::default(),
                })
                .collect(),
        }
    }

    /// A command `thread` generated at `t` enters the tenant's submission
    /// queue and rings the doorbell.
    pub(crate) fn submit(
        &mut self,
        queue: &mut EventQueue<Ev>,
        t: SimTime,
        tenant: usize,
        thread: usize,
        offset: u64,
        is_read: bool,
    ) {
        // A thread only generates when one of its slots is free, so the
        // submission queue always has room.
        let qp = &mut self.lanes[tenant].qp;
        if qp.submit(offset, is_read, thread, t).is_none() {
            return;
        }
        // A `Dispatch` is pending exactly while some queue has a backlog.
        let fetch_idle = !self.fe.has_backlog();
        let backlog = self.fe.doorbell(tenant);
        self.probe.emit(
            t,
            DeviceEvent::QueueSubmit {
                queue: tenant as u64,
                backlog: u64::from(backlog),
            },
        );
        if fetch_idle {
            queue.push(t.max(self.fe.fetch_free_at()), Ev::Dispatch);
        }
    }

    /// The command-fetch stage is free at `t`: arbitrates, issues the
    /// winner's head command to the device and schedules its `Reap`.
    pub(crate) fn dispatch<D: StorageDevice + ?Sized>(
        &mut self,
        queue: &mut EventQueue<Ev>,
        dev: &mut D,
        tenants: &mut [Tenant<'_>],
        t: SimTime,
    ) -> Result<(), HostError> {
        let Some((q, dispatch_at)) = self.fe.grant(t) else {
            return Ok(());
        };
        let lane = &mut self.lanes[q];
        if let Some(slot) = lane.qp.fetch_next() {
            let s = lane.qp.slot(slot);
            self.probe.emit(
                dispatch_at,
                DeviceEvent::QueueArbitrate {
                    queue: q as u64,
                    wait_ns: dispatch_at.saturating_since(s.arrival).as_nanos(),
                },
            );
            let snap = dev.counters();
            let done = tenants[q].issue(dev, dispatch_at, s.offset, s.is_read)?;
            lane.counters.merge(&dev.counters().since(&snap));
            lane.qp.mark_dispatched(slot, dispatch_at);
            queue.push(done, Ev::Reap { tenant: q, slot });
        }
        if self.fe.has_backlog() {
            queue.push(self.fe.fetch_free_at(), Ev::Dispatch);
        }
        Ok(())
    }

    /// A dispatched command's device completion posts to the tenant's CQ
    /// at `t` and is reaped at once; returns the completed command.
    pub(crate) fn reap(&mut self, t: SimTime, tenant: usize, slot: u32) -> Option<IoSlot> {
        let lane = &mut self.lanes[tenant];
        lane.qp.post_completion(slot);
        let slot = lane.qp.reap()?;
        let s = lane.qp.slot(slot);
        lane.wait_hist.record(s.granted.saturating_since(s.arrival));
        self.probe.emit(
            t,
            DeviceEvent::QueueComplete {
                queue: tenant as u64,
                inflight: u64::from(lane.qp.inflight()),
            },
        );
        if let Some(sink) = &self.spans {
            // The recorder stack cannot express overlapping commands, so
            // build the records directly: one QueueCmd root per command
            // with its QueueWait child, children first, parent id smaller.
            self.io_seq += 1;
            let cmd_id = 2 * self.io_seq - 1;
            let span = |id, parent, kind, end| SpanRecord {
                id,
                parent,
                io: self.io_seq,
                kind,
                start: s.arrival,
                end,
            };
            sink.record(span(cmd_id + 1, cmd_id, SpanKind::QueueWait, s.granted));
            sink.record(span(cmd_id, 0, SpanKind::QueueCmd, t));
        }
        lane.qp.release(slot);
        Some(s)
    }
}

/// Runs `specs` concurrently against one device and reports per-tenant
/// and aggregate results.
///
/// Each tenant's threads keep `queue_depth` commands outstanding
/// (closed-loop); the shared [`conzone_core::QueueFrontEnd`] arbitrates
/// dispatch. Tenants see interference through the device's
/// chip/channel/buffer resources and through the serial fetch stage.
///
/// # Errors
///
/// [`HostError::BadJob`] for an empty tenant list, any job
/// [`crate::run_job`] would reject, an open-loop (`arrival_iops`) job, or
/// tenants that together keep more than 2^20 commands outstanding;
/// [`HostError::Device`] / [`HostError::VerifyMismatch`] as in
/// [`crate::run_job`].
pub fn run_tenants<D: StorageDevice + ?Sized>(
    dev: &mut D,
    specs: &[TenantSpec],
    opts: &QdOptions,
) -> Result<MultiReport, HostError> {
    if specs.is_empty() {
        return Err(HostError::BadJob("no tenants".to_string()));
    }
    let mut tenants = Vec::with_capacity(specs.len());
    let mut outstanding = 0u64;
    for spec in specs {
        if spec.job.arrival_iops.is_some() {
            // A queue pair's slot slab is bounded; an open-loop backlog
            // is not.
            return Err(HostError::BadJob(
                "open-loop arrivals are not supported by the queue-pair driver".to_string(),
            ));
        }
        let tenant = Tenant::new(dev.capacity_bytes(), &spec.job)?;
        outstanding += tenant.outstanding();
        if outstanding > MAX_OUTSTANDING {
            return Err(HostError::BadJob(format!(
                "tenants together exceed {MAX_OUTSTANDING} outstanding commands"
            )));
        }
        tenants.push(tenant);
    }
    let mut front = FrontEnd::new(specs, opts);

    let started = specs
        .iter()
        .map(|s| s.job.start)
        .min()
        .unwrap_or(SimTime::ZERO);
    let before = dev.counters();
    drive(dev, &mut tenants, Some(&mut front), None, None)?;
    let after = dev.counters();

    let mut all = LatencyHistogram::new();
    let mut bytes = 0u64;
    let mut ops = 0u64;
    let mut finished = started;
    let mut reports = Vec::with_capacity(specs.len());
    for ((spec, ts), lane) in specs.iter().zip(&tenants).zip(&front.lanes) {
        let tally = &ts.tally;
        let latency = tally.latency();
        all.merge(&latency);
        bytes += tally.bytes;
        ops += tally.ops;
        // A tenant that completed nothing does not extend the run.
        if tally.ops > 0 {
            finished = finished.max(tally.finished);
        }
        reports.push(TenantReport {
            name: spec.name.clone(),
            weight: spec.weight,
            bytes: tally.bytes,
            ops: tally.ops,
            finished: tally.finished,
            latency: latency.summary(),
            read_latency: tally.read_latency(),
            write_latency: tally.write_latency(),
            queue_wait: lane.wait_hist.summary(),
            thread_latency: tally.thread_latency(),
            counters: lane.counters,
        });
    }
    Ok(MultiReport {
        model: dev.model_name(),
        arbiter: opts.arbiter.name(),
        started,
        finished,
        bytes,
        ops,
        latency: all.summary(),
        counters: after.since(&before),
        tenants: reports,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::AccessPattern;
    use crate::runner::run_job;
    use crate::runner::JobReport;
    use conzone_core::ConZone;
    use conzone_sim::{RingBufferSink, SpanBuffer};
    use conzone_types::{CountingSink, DeviceConfig, DeviceEvent, SpanKind};

    const MIB: u64 = 1024 * 1024;

    fn fill_job() -> FioJob {
        FioJob::new(AccessPattern::SeqWrite, 256 * 1024)
            .zone_bytes(MIB)
            .region(0, 4 * MIB)
            .bytes_per_thread(4 * MIB)
    }

    /// `job` through the front end as the only tenant, zero fetch cost.
    fn run_alone(dev: &mut dyn StorageDevice, job: &FioJob) -> MultiReport {
        let spec = TenantSpec::new("t0", job.clone());
        run_tenants(dev, &[spec], &QdOptions::default()).unwrap()
    }

    fn assert_reports_identical(a: &JobReport, m: &MultiReport) {
        let t = &m.tenants[0];
        assert_eq!(a.model, m.model);
        assert_eq!(a.started, m.started);
        assert_eq!(a.finished, m.finished);
        assert_eq!(a.finished, t.finished);
        assert_eq!((a.bytes, a.ops), (m.bytes, m.ops));
        assert_eq!((a.bytes, a.ops), (t.bytes, t.ops));
        assert_eq!(a.latency, m.latency);
        assert_eq!(a.latency, t.latency);
        assert_eq!(a.read_latency, t.read_latency);
        assert_eq!(a.write_latency, t.write_latency);
        assert_eq!(a.thread_latency, t.thread_latency);
        assert_eq!(a.counters, m.counters);
        assert_eq!(a.counters, t.counters);
    }

    fn conzone() -> Box<dyn StorageDevice> {
        Box::new(ConZone::new(DeviceConfig::tiny_for_tests()))
    }

    fn legacy() -> Box<dyn StorageDevice> {
        Box::new(conzone_legacy::LegacyDevice::new(
            DeviceConfig::tiny_for_tests(),
        ))
    }

    /// Runs `fill` then `job` on two fresh devices — directly and through
    /// the front end — and checks both pairs of reports field for field.
    fn assert_front_end_transparent(
        fresh: fn() -> Box<dyn StorageDevice>,
        fill: &FioJob,
        job: FioJob,
    ) {
        let (mut direct, mut queued) = (fresh(), fresh());
        let f = run_job(direct.as_mut(), fill).unwrap();
        assert_reports_identical(&f, &run_alone(queued.as_mut(), fill));
        let job = job.start_at(f.finished);
        let a = run_job(direct.as_mut(), &job).unwrap();
        assert_reports_identical(&a, &run_alone(queued.as_mut(), &job));
    }

    /// The transparency law: `run_job(job)` ≡ `run_tenants([job],
    /// QdOptions::default())`, field for field, at every queue depth and
    /// thread count.
    #[test]
    fn one_tenant_zero_fetch_report_identical_to_run_job() {
        // Zoned sequential writes on ConZone (queue depth 1 only: deeper
        // zoned writes are rejected), single- and multi-thread — the
        // two-thread job gets two 1 MiB zones per thread.
        for job in [
            fill_job(),
            fill_job()
                .threads(2)
                .bytes_per_thread(2 * MIB)
                .fsync_every(4),
        ] {
            let a = run_job(conzone().as_mut(), &job).unwrap();
            assert_reports_identical(&a, &run_alone(conzone().as_mut(), &job));
        }
        let legacy_fill = FioJob::new(AccessPattern::SeqWrite, 256 * 1024)
            .region(0, 2 * MIB)
            .bytes_per_thread(2 * MIB);
        for qd in [1, 2, 4, 8, 16] {
            for threads in [1, 2, 3] {
                for seed in [1, 7] {
                    // Random reads after a fill on ConZone.
                    let reads = FioJob::new(AccessPattern::RandRead, 4096)
                        .region(0, 4 * MIB)
                        .ops_per_thread(200)
                        .bytes_per_thread(u64::MAX)
                        .threads(threads)
                        .queue_depth(qd)
                        .seed(seed);
                    assert_front_end_transparent(conzone, &fill_job(), reads);
                    // Mixed read/write with an fsync cadence on the legacy
                    // model (random writes need a device without strict
                    // zone ordering).
                    let mixed = FioJob::new(AccessPattern::Mixed { read_percent: 60 }, 4096)
                        .region(0, 2 * MIB)
                        .ops_per_thread(200)
                        .bytes_per_thread(u64::MAX)
                        .threads(threads)
                        .queue_depth(qd)
                        .fsync_every(3)
                        .seed(seed);
                    assert_front_end_transparent(legacy, &legacy_fill, mixed);
                }
            }
        }
    }

    /// Same law at the trace level: with a ring sink attached to the
    /// device, both entry points produce byte-identical event streams at
    /// queue depth 1 (the degenerate configuration emits no queue events).
    #[test]
    fn one_tenant_zero_fetch_trace_identical_to_run_job() {
        let job = fill_job().threads(2);
        let run = |queued: bool| {
            let sink = Arc::new(RingBufferSink::with_capacity(1 << 14));
            let mut dev = ConZone::new(DeviceConfig::tiny_for_tests());
            dev.set_probe(Probe::attached(sink.clone()));
            if queued {
                run_alone(&mut dev, &job);
            } else {
                run_job(&mut dev, &job).unwrap();
            }
            sink.drain()
        };
        let direct_trace = run(false);
        assert!(!direct_trace.is_empty());
        assert_eq!(direct_trace, run(true));
    }

    /// QD sweep: deeper queues expose device parallelism until the chips
    /// saturate.
    #[test]
    fn deeper_queues_raise_throughput_until_saturation() {
        let run_qd = |qd: usize| {
            let mut dev = ConZone::new(DeviceConfig::tiny_for_tests());
            let f = run_job(&mut dev, &fill_job()).unwrap();
            let job = FioJob::new(AccessPattern::RandRead, 4096)
                .region(0, 4 * MIB)
                .ops_per_thread(1500)
                .bytes_per_thread(u64::MAX)
                .queue_depth(qd)
                .start_at(f.finished);
            run_alone(&mut dev, &job).kiops()
        };
        let qd1 = run_qd(1);
        let qd4 = run_qd(4);
        let qd16 = run_qd(16);
        assert!(qd4 > qd1 * 2.0, "qd1 {qd1:.1} vs qd4 {qd4:.1} KIOPS");
        assert!(qd16 >= qd4, "qd4 {qd4:.1} vs qd16 {qd16:.1} KIOPS");
        // Four chips: scaling flattens well before 16x.
        assert!(qd16 < qd1 * 8.0, "saturation expected: qd16 {qd16:.1}");
    }

    /// Two tenants on one device: per-tenant counters sum exactly to the
    /// device-wide delta, and both make progress.
    #[test]
    fn two_tenant_counters_sum_to_device_totals() {
        let mut dev = ConZone::new(DeviceConfig::tiny_for_tests());
        let f = run_job(&mut dev, &fill_job()).unwrap();
        let reader = |name: &str| {
            TenantSpec::new(
                name,
                FioJob::new(AccessPattern::RandRead, 4096)
                    .region(0, 4 * MIB)
                    .ops_per_thread(400)
                    .bytes_per_thread(u64::MAX)
                    .queue_depth(4)
                    .start_at(f.finished),
            )
        };
        let m = run_tenants(
            &mut dev,
            &[reader("a"), reader("b").weight(2)],
            &QdOptions::default(),
        )
        .unwrap();
        assert_eq!(m.tenants.len(), 2);
        assert_eq!(m.ops, 800);
        assert!(m.tenants.iter().all(|t| t.ops == 400));
        assert!(m.tenants_sum_consistent());
        assert_eq!(
            m.tenants
                .iter()
                .map(|t| t.counters.host_read_ops)
                .sum::<u64>(),
            m.counters.host_read_ops
        );
    }

    /// A writer and a reader share the device: attribution separates
    /// their traffic, and the conservation invariant still holds.
    #[test]
    fn mixed_tenants_attribution_separates_traffic() {
        let mut dev = ConZone::new(DeviceConfig::tiny_for_tests());
        let f = run_job(&mut dev, &fill_job()).unwrap();
        let reader = TenantSpec::new(
            "reader",
            FioJob::new(AccessPattern::RandRead, 4096)
                .region(0, 4 * MIB)
                .ops_per_thread(300)
                .bytes_per_thread(u64::MAX)
                .queue_depth(4)
                .start_at(f.finished),
        );
        let writer = TenantSpec::new(
            "writer",
            FioJob::new(AccessPattern::SeqWrite, 256 * 1024)
                .zone_bytes(MIB)
                .region(4 * MIB, 4 * MIB)
                .bytes_per_thread(2 * MIB)
                .start_at(f.finished),
        );
        let m = run_tenants(&mut dev, &[reader, writer], &QdOptions::default()).unwrap();
        assert!(m.tenants_sum_consistent());
        let r = &m.tenants[0];
        let w = &m.tenants[1];
        assert_eq!(r.counters.host_read_bytes, 300 * 4096);
        assert_eq!(r.counters.host_write_bytes, 0);
        assert_eq!(w.counters.host_write_bytes, 2 * MIB);
        assert_eq!(w.counters.host_read_bytes, 0);
        assert!(r.queue_wait.count == 300);
    }

    /// Under a saturated fetch stage, weighted arbitration divides
    /// dispatch bandwidth by weight: a 3:1 tenant pair given 3:1 work
    /// finishes at nearly the same time.
    #[test]
    fn weighted_shares_hold_under_fetch_saturation() {
        let mut dev = ConZone::new(DeviceConfig::tiny_for_tests());
        let f = run_job(&mut dev, &fill_job()).unwrap();
        let tenant = |name: &str, ops: u64, weight: u32| {
            TenantSpec::new(
                name,
                FioJob::new(AccessPattern::RandRead, 4096)
                    .region(0, 4 * MIB)
                    .ops_per_thread(ops)
                    .bytes_per_thread(u64::MAX)
                    .queue_depth(8)
                    .start_at(f.finished),
            )
            .weight(weight)
        };
        let opts = QdOptions {
            // ~3x a TLC read: the fetch engine, not the chips, is the
            // bottleneck, so shares are decided by the arbiter.
            fetch_cost: SimDuration::from_micros(100),
            arbiter: ArbiterKind::Weighted,
            ..QdOptions::default()
        };
        let m = run_tenants(
            &mut dev,
            &[tenant("heavy", 1500, 3), tenant("light", 500, 1)],
            &opts,
        )
        .unwrap();
        assert_eq!(m.arbiter, "wrr");
        assert!(m.tenants_sum_consistent());
        let heavy = m.tenants[0].finished.saturating_since(f.finished);
        let light = m.tenants[1].finished.saturating_since(f.finished);
        let ratio = heavy.as_nanos() as f64 / light.as_nanos() as f64;
        assert!(
            (0.85..=1.15).contains(&ratio),
            "3:1 weights with 3:1 work should finish together, ratio {ratio:.2}"
        );
    }

    /// Round-robin fairness end to end: equal tenants finish equal work
    /// at nearly the same time.
    #[test]
    fn round_robin_is_fair_end_to_end() {
        let mut dev = ConZone::new(DeviceConfig::tiny_for_tests());
        let f = run_job(&mut dev, &fill_job()).unwrap();
        let tenant = |name: &str| {
            TenantSpec::new(
                name,
                FioJob::new(AccessPattern::RandRead, 4096)
                    .region(0, 4 * MIB)
                    .ops_per_thread(800)
                    .bytes_per_thread(u64::MAX)
                    .queue_depth(8)
                    .start_at(f.finished),
            )
        };
        let opts = QdOptions {
            fetch_cost: SimDuration::from_micros(50),
            ..QdOptions::default()
        };
        let m = run_tenants(&mut dev, &[tenant("a"), tenant("b")], &opts).unwrap();
        let a = m.tenants[0].finished.saturating_since(f.finished);
        let b = m.tenants[1].finished.saturating_since(f.finished);
        let ratio = a.as_nanos() as f64 / b.as_nanos() as f64;
        assert!(
            (0.95..=1.05).contains(&ratio),
            "equal tenants should finish together, ratio {ratio:.2}"
        );
    }

    /// Non-degenerate runs emit one submit/arbitrate/complete triple per
    /// command, and one QueueCmd+QueueWait span pair per completion.
    #[test]
    fn queue_events_and_spans_cover_every_command() {
        let counting = Arc::new(CountingSink::new());
        let spans = Arc::new(SpanBuffer::with_capacity(1 << 14));
        let mut dev = ConZone::new(DeviceConfig::tiny_for_tests());
        let f = run_job(&mut dev, &fill_job()).unwrap();
        let job = FioJob::new(AccessPattern::RandRead, 4096)
            .region(0, 4 * MIB)
            .ops_per_thread(200)
            .bytes_per_thread(u64::MAX)
            .queue_depth(4)
            .start_at(f.finished);
        let opts = QdOptions {
            probe: Probe::attached(counting.clone()),
            spans: Some(spans.clone()),
            ..QdOptions::default()
        };
        let r = run_tenants(&mut dev, &[TenantSpec::new("t0", job)], &opts).unwrap();
        assert_eq!(r.ops, 200);
        let submit = DeviceEvent::QueueSubmit {
            queue: 0,
            backlog: 0,
        }
        .kind_index();
        let arb = DeviceEvent::QueueArbitrate {
            queue: 0,
            wait_ns: 0,
        }
        .kind_index();
        let done = DeviceEvent::QueueComplete {
            queue: 0,
            inflight: 0,
        }
        .kind_index();
        assert_eq!(counting.count_of(submit), 200);
        assert_eq!(counting.count_of(arb), 200);
        assert_eq!(counting.count_of(done), 200);
        let records = spans.drain();
        assert_eq!(records.len(), 400);
        for pair in records.chunks(2) {
            let (wait, cmd) = (&pair[0], &pair[1]);
            assert_eq!(wait.kind, SpanKind::QueueWait);
            assert_eq!(cmd.kind, SpanKind::QueueCmd);
            assert_eq!(wait.parent, cmd.id);
            assert!(cmd.id < wait.id, "parent id smaller than child's");
            assert_eq!(wait.io, cmd.io);
            assert_eq!(wait.start, cmd.start);
            assert!(wait.end <= cmd.end);
        }
    }

    #[test]
    fn rejects_open_loop_and_empty_tenant_lists() {
        let mut dev = ConZone::new(DeviceConfig::tiny_for_tests());
        let open = FioJob::new(AccessPattern::RandRead, 4096)
            .region(0, 2 * MIB)
            .arrival_iops(1000.0);
        assert!(matches!(
            run_tenants(
                &mut dev,
                &[TenantSpec::new("open", open)],
                &QdOptions::default()
            ),
            Err(HostError::BadJob(_))
        ));
        assert!(matches!(
            run_tenants(&mut dev, &[], &QdOptions::default()),
            Err(HostError::BadJob(_))
        ));
        // The planner's rules carry over: deep zoned sequential writes
        // stay rejected per tenant.
        let zoned = FioJob::new(AccessPattern::SeqWrite, 4096)
            .zone_bytes(MIB)
            .queue_depth(4);
        assert!(matches!(
            run_tenants(
                &mut dev,
                &[TenantSpec::new("zoned", zoned)],
                &QdOptions::default()
            ),
            Err(HostError::BadJob(_))
        ));
        // Each tenant fits the outstanding-command bound, their sum does not.
        let deep = |name: &str| {
            let job = FioJob::new(AccessPattern::RandRead, 4096)
                .region(0, 2 * MIB)
                .queue_depth(65_535);
            TenantSpec::new(name, job)
        };
        let specs: Vec<TenantSpec> = (0..17).map(|i| deep(&format!("t{i}"))).collect();
        assert!(matches!(
            run_tenants(&mut dev, &specs, &QdOptions::default()),
            Err(HostError::BadJob(why)) if why.contains("outstanding")
        ));
    }

    #[test]
    fn seeded_reruns_are_deterministic() {
        let run = || {
            let mut dev = ConZone::new(DeviceConfig::tiny_for_tests());
            let f = run_job(&mut dev, &fill_job()).unwrap();
            let tenant = |name: &str, seed: u64| {
                TenantSpec::new(
                    name,
                    FioJob::new(AccessPattern::RandRead, 4096)
                        .region(0, 4 * MIB)
                        .ops_per_thread(300)
                        .bytes_per_thread(u64::MAX)
                        .queue_depth(4)
                        .seed(seed)
                        .start_at(f.finished),
                )
            };
            let m = run_tenants(
                &mut dev,
                &[tenant("a", 7), tenant("b", 11)],
                &QdOptions {
                    fetch_cost: SimDuration::from_micros(5),
                    arbiter: ArbiterKind::Weighted,
                    ..QdOptions::default()
                },
            )
            .unwrap();
            (
                m.finished,
                m.latency,
                m.tenants[0].counters,
                m.tenants[1].queue_wait,
            )
        };
        assert_eq!(run(), run());
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::job::AccessPattern;
    use crate::runner::run_job;
    use conzone_check::{check, Rng};
    use conzone_core::ConZone;
    use conzone_types::DeviceConfig;

    const MIB: u64 = 1024 * 1024;

    #[derive(Debug, Clone, Copy)]
    enum Shape {
        SeqWriteZoned,
        RandRead,
        Mixed,
    }

    fn job_for(shape: Shape, seed: u64, threads: usize, bs_kib: u64) -> (FioJob, bool) {
        let bs = bs_kib * 1024;
        match shape {
            Shape::SeqWriteZoned => (
                FioJob::new(AccessPattern::SeqWrite, bs)
                    .zone_bytes(MIB)
                    .region(0, 4 * MIB)
                    .bytes_per_thread(MIB)
                    .threads(threads)
                    .seed(seed),
                false,
            ),
            Shape::RandRead => (
                FioJob::new(AccessPattern::RandRead, bs)
                    .region(0, 4 * MIB)
                    .ops_per_thread(60)
                    .bytes_per_thread(u64::MAX)
                    .threads(threads)
                    .seed(seed),
                true,
            ),
            Shape::Mixed => (
                FioJob::new(AccessPattern::Mixed { read_percent: 50 }, bs)
                    .region(0, 4 * MIB)
                    .ops_per_thread(60)
                    .bytes_per_thread(u64::MAX)
                    .threads(threads)
                    .seed(seed),
                true,
            ),
        }
    }

    /// The transparency law, property form: any seed, pattern, block
    /// size, thread count and queue depth produces identical reports
    /// from `run_job` and from `run_tenants` with that job as the only
    /// tenant behind a zero-cost fetch stage.
    #[test]
    fn one_tenant_zero_fetch_matches_run_job() {
        let path = concat!(module_path!(), "::one_tenant_zero_fetch_matches_run_job");
        let generate = |rng: &mut Rng| {
            let shape = [Shape::SeqWriteZoned, Shape::RandRead, Shape::Mixed][rng.range(0..3)];
            let (seed, threads) = (rng.next_u64(), rng.range(1..4));
            let (bs_kib, qd) = (
                [4, 16, 128][rng.range(0..3)],
                [1, 2, 4, 8, 16][rng.range(0..5)],
            );
            ((shape, seed, threads, bs_kib, qd), Vec::<()>::new())
        };
        check(path, 24, generate, |case, _| {
            let &(shape, seed, threads, bs_kib, qd) = case;
            let (job, needs_fill) = job_for(shape, seed, threads, bs_kib);
            // Mixed jobs issue random writes, which strict sequential
            // zones reject — run those on the legacy model instead; deep
            // queues of zoned sequential writes are rejected outright.
            let fresh = || -> Box<dyn StorageDevice> {
                match shape {
                    Shape::Mixed => Box::new(conzone_legacy::LegacyDevice::new(
                        DeviceConfig::tiny_for_tests(),
                    )),
                    _ => Box::new(ConZone::new(DeviceConfig::tiny_for_tests())),
                }
            };
            let queued = |dev: &mut dyn StorageDevice, job: &FioJob| {
                let spec = TenantSpec::new("t0", job.clone());
                run_tenants(dev, &[spec], &QdOptions::default()).unwrap()
            };
            let (mut direct_dev, mut queued_dev) = (fresh(), fresh());
            let mut fill = FioJob::new(AccessPattern::SeqWrite, 256 * 1024)
                .region(0, 4 * MIB)
                .bytes_per_thread(4 * MIB);
            let mut job = job;
            match shape {
                Shape::Mixed => job = job.queue_depth(qd).fsync_every(5),
                Shape::RandRead => {
                    fill = fill.zone_bytes(MIB);
                    job = job.queue_depth(qd);
                }
                Shape::SeqWriteZoned => {}
            }
            if needs_fill {
                let f1 = run_job(direct_dev.as_mut(), &fill).unwrap();
                let f2 = queued(queued_dev.as_mut(), &fill);
                assert_eq!(f1.finished, f2.finished);
                job = job.start_at(f1.finished);
            }
            let a = run_job(direct_dev.as_mut(), &job).unwrap();
            let m = queued(queued_dev.as_mut(), &job);
            let t = &m.tenants[0];
            assert_eq!(a.finished, m.finished);
            assert_eq!(a.bytes, m.bytes);
            assert_eq!(a.ops, m.ops);
            assert_eq!(a.latency, m.latency);
            assert_eq!(a.read_latency, t.read_latency);
            assert_eq!(a.write_latency, t.write_latency);
            assert_eq!(&a.thread_latency, &t.thread_latency);
            assert_eq!(a.counters, m.counters);
            assert_eq!(a.counters, t.counters);
        });
    }

    /// Conservation holds for arbitrary two-tenant mixes.
    #[test]
    fn tenant_counters_always_sum() {
        let path = concat!(module_path!(), "::tenant_counters_always_sum");
        let generate = |rng: &mut Rng| {
            let (seed, qd_a, qd_b) = (rng.next_u64(), rng.range(1..6), rng.range(1..6));
            ((seed, qd_a, qd_b, rng.range(1..5)), Vec::<()>::new())
        };
        check(path, 24, generate, |&(seed, qd_a, qd_b, weight_a), _| {
            let mut dev = ConZone::new(DeviceConfig::tiny_for_tests());
            let fill = FioJob::new(AccessPattern::SeqWrite, 256 * 1024)
                .zone_bytes(MIB)
                .region(0, 4 * MIB)
                .bytes_per_thread(4 * MIB);
            let f = run_job(&mut dev, &fill).unwrap();
            let tenant = |name: &str, qd: usize, s: u64| {
                TenantSpec::new(
                    name,
                    FioJob::new(AccessPattern::RandRead, 4096)
                        .region(0, 4 * MIB)
                        .ops_per_thread(80)
                        .bytes_per_thread(u64::MAX)
                        .queue_depth(qd)
                        .seed(s)
                        .start_at(f.finished),
                )
            };
            let m = run_tenants(
                &mut dev,
                &[
                    tenant("a", qd_a, seed).weight(weight_a),
                    tenant("b", qd_b, seed ^ 1),
                ],
                &QdOptions {
                    fetch_cost: SimDuration::from_micros(2),
                    arbiter: ArbiterKind::Weighted,
                    ..QdOptions::default()
                },
            )
            .unwrap();
            assert!(m.tenants_sum_consistent());
            assert_eq!(m.ops, 160);
        });
    }
}
