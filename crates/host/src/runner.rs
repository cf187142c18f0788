//! The job driver: one discrete-event loop behind [`run_job`] and
//! [`crate::run_tenants`].
//!
//! Threads are simulated fio jobs: each keeps `queue_depth` requests
//! outstanding and issues the next one the moment one completes (or, open
//! loop, follows a Poisson arrival schedule). A time-ordered event queue
//! interleaves threads, so device-side resource contention (chips,
//! channels, buffers) is exercised exactly as a real multi-threaded host
//! would.
//!
//! [`drive`] is the only place in the crate that pops an [`EventQueue`],
//! submits or flushes on behalf of a job, verifies payloads, counts the
//! fsync cadence and books latency. What happens to a generated command
//! depends on one piece of optional data. Without a
//! [`FrontEnd`](crate::qd::FrontEnd) it is issued inside the `Gen` handler
//! and the thread re-arms at its completion time: one queue event and no
//! `counters()` call per operation. With one it crosses the tenant's queue
//! pair and the arbitrated fetch stage (`Dispatch`) and completes in a
//! `Reap`.

use conzone_sim::{
    EventQueue, LatencyHistogram, LatencySummary, MetricsSample, MetricsSampler, SimRng,
};
use conzone_types::{
    to_index, Counters, DeviceError, IoRequest, SimDuration, SimTime, StorageDevice, SLICE_BYTES,
};

use crate::job::{AccessPattern, FioJob};
use crate::qd::FrontEnd;
use crate::verify::payload_for;

#[cfg(test)]
mod reference;

/// Errors surfaced while running a job.
#[derive(Debug)]
pub enum HostError {
    /// The device rejected a request.
    Device {
        /// The failing request's byte offset.
        offset: u64,
        /// The underlying device error.
        source: DeviceError,
    },
    /// A verified read returned unexpected bytes.
    VerifyMismatch {
        /// The failing request's byte offset.
        offset: u64,
    },
    /// The job description is inconsistent with the device.
    BadJob(String),
    /// A power-cycle verification found a crash-consistency violation.
    Crash(String),
}

impl core::fmt::Display for HostError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            HostError::Device { offset, source } => {
                write!(f, "device error at offset {offset}: {source}")
            }
            HostError::VerifyMismatch { offset } => {
                write!(f, "read verification failed at offset {offset}")
            }
            HostError::BadJob(why) => write!(f, "bad job: {why}"),
            HostError::Crash(why) => write!(f, "crash-consistency violation: {why}"),
        }
    }
}

impl std::error::Error for HostError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            HostError::Device { source, .. } => Some(source),
            _ => None,
        }
    }
}

/// Aggregate result of one job run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobReport {
    /// Device model name.
    pub model: &'static str,
    /// Simulated start of the job.
    pub started: SimTime,
    /// Simulated completion of the last request.
    pub finished: SimTime,
    /// Total bytes moved.
    pub bytes: u64,
    /// Total requests completed.
    pub ops: u64,
    /// Per-request latency distribution (all requests).
    pub latency: LatencySummary,
    /// Latency distribution of the read requests only.
    pub read_latency: LatencySummary,
    /// Latency distribution of the write requests only.
    pub write_latency: LatencySummary,
    /// Per-thread latency distributions, indexed by thread id.
    pub thread_latency: Vec<LatencySummary>,
    /// Interval counter deltas, when the job was run with a sampler
    /// ([`run_job_sampled`]); empty otherwise.
    pub metrics: Vec<MetricsSample>,
    /// Device counter delta over the job.
    pub counters: Counters,
}

impl JobReport {
    /// Wall-clock (simulated) duration of the job.
    pub fn duration(&self) -> SimDuration {
        self.finished - self.started
    }

    /// Throughput in MiB/s.
    ///
    /// An empty job (no operations) reports `0.0`. A degenerate report —
    /// operations completed in zero simulated time — reports `NaN` rather
    /// than a misleading zero, so table formatters can print `n/a`.
    pub fn bandwidth_mibs(&self) -> f64 {
        rate_over(self.bytes, 1 << 20, self.ops, self.duration())
    }

    /// Throughput in thousands of I/O operations per second.
    ///
    /// Degenerate reports follow the same convention as
    /// [`bandwidth_mibs`](Self::bandwidth_mibs): `NaN` when operations
    /// completed in zero duration, `0.0` when nothing ran.
    pub fn kiops(&self) -> f64 {
        rate_over(self.ops, 1000, self.ops, self.duration())
    }

    /// Write amplification over the job interval.
    pub fn waf(&self) -> f64 {
        self.counters.write_amplification()
    }
}

/// `amount / unit` per second of `duration`, for every report's rate:
/// `NaN` when `ops` operations completed in zero simulated time, `0.0`
/// when nothing ran.
pub(crate) fn rate_over(amount: u64, unit: u64, ops: u64, duration: SimDuration) -> f64 {
    let secs = duration.as_secs_f64();
    if secs > 0.0 {
        amount as f64 / unit as f64 / secs
    } else if ops > 0 {
        f64::NAN
    } else {
        0.0
    }
}

/// Latency and volume books of one issuing stream — a tenant, a job, or a
/// trace replay.
///
/// A completion is recorded once, into its thread's histogram for its
/// kind. The stream's, the per-kind and the per-thread distributions are
/// merged from those when a report asks; merging is exact, because
/// buckets, count, sum, minimum and maximum all add.
#[derive(Debug)]
pub(crate) struct Tally {
    /// Per thread, indexed by [`READ`], [`WRITE`] and [`NO_DATA`].
    hists: Vec<[LatencyHistogram; 3]>,
    pub(crate) bytes: u64,
    pub(crate) ops: u64,
    pub(crate) finished: SimTime,
}

/// A thread's histogram of reads.
const READ: usize = 0;
/// A thread's histogram of writes.
const WRITE: usize = 1;
/// A thread's histogram of operations that move no data (zone resets).
const NO_DATA: usize = 2;

/// One histogram holding every sample of `hists`.
fn merged<'h>(hists: impl IntoIterator<Item = &'h LatencyHistogram>) -> LatencyHistogram {
    let mut all = LatencyHistogram::new();
    for h in hists {
        all.merge(h);
    }
    all
}

impl Tally {
    /// Empty books for `threads` issuing threads, finished at `start`.
    pub(crate) fn new(start: SimTime, threads: usize) -> Tally {
        Tally {
            hists: (0..threads).map(|_| Default::default()).collect(),
            bytes: 0,
            ops: 0,
            finished: start,
        }
    }

    fn book(&mut self, thread: usize, kind: usize, latency: SimDuration, done: SimTime) {
        self.hists[thread][kind].record(latency);
        self.ops += 1;
        self.finished = self.finished.max(done);
    }

    /// Books an operation of `thread` that moves no data (a zone reset).
    pub(crate) fn record(&mut self, thread: usize, latency: SimDuration, done: SimTime) {
        self.book(thread, NO_DATA, latency, done);
    }

    /// Books a read or a write of `bytes` by `thread`.
    pub(crate) fn record_io(
        &mut self,
        thread: usize,
        is_read: bool,
        bytes: u64,
        latency: SimDuration,
        done: SimTime,
    ) {
        self.book(thread, if is_read { READ } else { WRITE }, latency, done);
        self.bytes += bytes;
    }

    /// Every operation's latency.
    pub(crate) fn latency(&self) -> LatencyHistogram {
        merged(self.hists.iter().flatten())
    }

    /// The latency of one kind of operation, over all threads.
    fn kind_latency(&self, kind: usize) -> LatencySummary {
        merged(self.hists.iter().map(|h| &h[kind])).summary()
    }

    /// The reads' latency distribution.
    pub(crate) fn read_latency(&self) -> LatencySummary {
        self.kind_latency(READ)
    }

    /// The writes' latency distribution.
    pub(crate) fn write_latency(&self) -> LatencySummary {
        self.kind_latency(WRITE)
    }

    /// Per-thread latency distributions, indexed by thread id.
    pub(crate) fn thread_latency(&self) -> Vec<LatencySummary> {
        self.hists.iter().map(|h| merged(h).summary()).collect()
    }

    /// Shapes the books into a [`JobReport`].
    pub(crate) fn job_report(
        &self,
        model: &'static str,
        started: SimTime,
        metrics: Vec<MetricsSample>,
        counters: Counters,
    ) -> JobReport {
        JobReport {
            model,
            started,
            finished: self.finished,
            bytes: self.bytes,
            ops: self.ops,
            latency: self.latency().summary(),
            read_latency: self.read_latency(),
            write_latency: self.write_latency(),
            thread_latency: self.thread_latency(),
            metrics,
            counters,
        }
    }
}

/// Per-thread generator state.
#[derive(Debug)]
struct ThreadState {
    issued: u64,
    limit: u64,
    /// Sequential cursor within the thread's stripe (byte offset).
    stripe_start: u64,
    stripe_len: u64,
    cursor: u64,
    /// Zones assigned to the thread for zoned sequential writes, and the
    /// progress within them.
    zones: Vec<u64>,
    zone_idx: usize,
    zone_off: u64,
    rng: SimRng,
}

/// Most commands one run may keep outstanding (threads × queue depth,
/// summed over tenants): the slot slab and the per-thread state are
/// allocated up front, so the product must be bounded before either is.
pub(crate) const MAX_OUTSTANDING: u64 = 1 << 20;

/// Driver state of one tenant: a validated job — the clamped region, the
/// zoned-write geometry, one generator state per thread — and its books.
/// Building it is the validation step of every entry point, so a job
/// accepted by one is accepted, with identical generator state, by the
/// others.
#[derive(Debug)]
pub(crate) struct Tenant<'a> {
    job: &'a FioJob,
    region_start: u64,
    region_len: u64,
    zone_bytes: u64,
    threads: Vec<ThreadState>,
    pub(crate) tally: Tally,
    writes_since_fsync: u64,
    /// An open-loop job's arrival schedule; `None` runs closed loop.
    arrivals: Option<Arrivals>,
}

/// The last instant a request may arrive at, on an open-loop schedule or
/// from a replayed trace: half the `u64` nanosecond range (≈ 292 years).
/// What a device adds to an arrival, and the requests queued behind it,
/// then stay inside `SimTime`.
pub(crate) const ARRIVAL_HORIZON: SimTime = SimTime::from_nanos(u64::MAX / 2);

/// An open-loop job's Poisson arrival schedule, drawn one arrival at a time
/// as the previous one is served: arrivals are the only events of an
/// open-loop run, so the event queue holds one at a time however many
/// requests the job makes. Arrivals go round-robin across the generator
/// threads.
#[derive(Debug)]
struct Arrivals {
    rng: SimRng,
    iops: f64,
    /// The latest arrival drawn.
    at: SimTime,
    drawn: u64,
    /// Arrivals the job makes, over all threads.
    total: u64,
    threads: u64,
}

impl Arrivals {
    fn new(job: &FioJob, iops: f64) -> Arrivals {
        Arrivals {
            rng: SimRng::new(job.seed ^ 0xa221_7a15),
            iops,
            at: job.start,
            drawn: 0,
            total: job.requests_per_thread().saturating_mul(job.threads as u64),
            threads: job.threads as u64,
        }
    }

    /// The next arrival and the thread it goes to; `None` once every
    /// request has arrived.
    ///
    /// # Errors
    ///
    /// [`HostError::BadJob`] when the arrival would fall past
    /// [`ARRIVAL_HORIZON`].
    fn next(&mut self) -> Result<Option<(SimTime, usize)>, HostError> {
        if self.drawn == self.total {
            return Ok(None);
        }
        // Exponential inter-arrival with mean 1/iops seconds.
        let u = self.rng.f64().max(f64::MIN_POSITIVE);
        #[expect(
            clippy::disallowed_methods,
            clippy::cast_possible_truncation,
            reason = "workload arrival-rate knob: arrivals are seeded and quantised to integer ns \
                      (the saturating `as`); a last-bit libm difference across platforms is \
                      accepted"
        )]
        let gap_ns = (-u.ln() / self.iops * 1e9) as u64;
        self.at = self
            .at
            .checked_add(SimDuration::from_nanos(gap_ns))
            .filter(|&at| at <= ARRIVAL_HORIZON)
            .ok_or_else(|| {
                HostError::BadJob(format!(
                    "at {} IOPS, arrival {} of {} falls past the end of simulated time",
                    self.iops,
                    self.drawn + 1,
                    self.total
                ))
            })?;
        let thread = to_index(self.drawn % self.threads);
        self.drawn += 1;
        Ok(Some((self.at, thread)))
    }
}

impl<'a> Tenant<'a> {
    /// Validates `job` against a device of `capacity` bytes.
    pub(crate) fn new(capacity: u64, job: &'a FioJob) -> Result<Tenant<'a>, HostError> {
        let region_start = job.region_offset;
        let region_len = job.region_bytes.min(capacity.saturating_sub(region_start));
        if region_len < job.block_bytes {
            return Err(HostError::BadJob(format!(
                "region of {region_len} bytes smaller than one {}-byte block",
                job.block_bytes
            )));
        }
        if job.block_bytes == 0 || !job.block_bytes.is_multiple_of(SLICE_BYTES) {
            return Err(HostError::BadJob(format!(
                "block size {} not a multiple of 4 KiB",
                job.block_bytes
            )));
        }
        if job.threads == 0 {
            return Err(HostError::BadJob("zero threads".to_string()));
        }
        if job.queue_depth == 0 {
            return Err(HostError::BadJob("zero queue depth".to_string()));
        }
        if (job.threads as u64)
            .checked_mul(job.queue_depth as u64)
            .is_none_or(|n| n > MAX_OUTSTANDING)
        {
            return Err(HostError::BadJob(format!(
                "{} threads at queue depth {} exceed {MAX_OUTSTANDING} outstanding commands",
                job.threads, job.queue_depth
            )));
        }
        if job.queue_depth > 1 && job.pattern == AccessPattern::SeqWrite && job.zone_bytes.is_some()
        {
            // Deep queues of zoned sequential writes would race the write
            // pointer on a real device; keep the model honest.
            return Err(HostError::BadJob(
                "queue_depth > 1 is not supported for zoned sequential writes".to_string(),
            ));
        }
        if job.arrival_iops.is_some() && !job.pattern.is_read() {
            return Err(HostError::BadJob(
                "open-loop arrivals require a read pattern (writes must stay ordered)".to_string(),
            ));
        }
        if let Some(iops) = job.arrival_iops {
            if iops.partial_cmp(&0.0) != Some(std::cmp::Ordering::Greater) {
                return Err(HostError::BadJob(format!("bad arrival rate {iops}")));
            }
        }
        let zone_bytes = job.zone_bytes.unwrap_or(0);

        let limit = job.requests_per_thread();
        let threads: Vec<ThreadState> = (0..job.threads)
            .map(|i| {
                let stripe_len =
                    (region_len / job.threads as u64 / job.block_bytes).max(1) * job.block_bytes;
                let stripe_start = region_start + i as u64 * stripe_len;
                let zones = match (&job.thread_zones, zone_bytes) {
                    (Some(z), _) => z.get(i).cloned().unwrap_or_default(),
                    (None, zb) if zb > 0 => {
                        // Round-robin zones of the region across threads.
                        let first_zone = region_start / zb;
                        let nzones = region_len / zb;
                        (0..nzones)
                            .filter(|z| to_index(*z) % job.threads == i)
                            .map(|z| first_zone + z)
                            .collect()
                    }
                    _ => Vec::new(),
                };
                ThreadState {
                    issued: 0,
                    limit,
                    stripe_start,
                    stripe_len,
                    cursor: 0,
                    zones,
                    zone_idx: 0,
                    zone_off: 0,
                    rng: SimRng::new(job.seed ^ (0x9e3779b97f4a7c15u64.wrapping_mul(i as u64 + 1))),
                }
            })
            .collect();
        Ok(Tenant {
            job,
            region_start,
            region_len,
            zone_bytes,
            threads,
            tally: Tally::new(job.start, job.threads),
            writes_since_fsync: 0,
            arrivals: job.arrival_iops.map(|iops| Arrivals::new(job, iops)),
        })
    }

    /// Commands the tenant keeps outstanding (at most [`MAX_OUTSTANDING`]).
    pub(crate) fn outstanding(&self) -> u64 {
        self.job.threads as u64 * self.job.queue_depth as u64
    }

    /// Produces a thread's next request as `(offset, is_read)`, or `None` when
    /// the thread has issued its share or a zoned writer has exhausted its
    /// zones.
    fn next_request(&mut self, thread: usize) -> Option<(u64, bool)> {
        let (job, region_start, region_len) = (self.job, self.region_start, self.region_len);
        let zone_bytes = self.zone_bytes;
        let state = &mut self.threads[thread];
        if state.issued >= state.limit {
            return None;
        }
        let bs = job.block_bytes;
        let request = match job.pattern {
            AccessPattern::SeqRead => {
                let offset = state.stripe_start + state.cursor;
                state.cursor = (state.cursor + bs) % state.stripe_len;
                (offset, true)
            }
            AccessPattern::RandRead | AccessPattern::RandWrite => {
                let blocks = region_len / bs;
                let offset = region_start + state.rng.below(blocks) * bs;
                (offset, job.pattern == AccessPattern::RandRead)
            }
            AccessPattern::Mixed { read_percent } => {
                let blocks = region_len / bs;
                let offset = region_start + state.rng.below(blocks) * bs;
                let is_read = state.rng.chance(f64::from(read_percent) / 100.0);
                (offset, is_read)
            }
            AccessPattern::SeqWrite if zone_bytes == 0 => {
                // Plain sequential stream within the stripe.
                let offset = state.stripe_start + state.cursor;
                state.cursor = (state.cursor + bs) % state.stripe_len;
                (offset, false)
            }
            AccessPattern::SeqWrite => loop {
                let zone = *state.zones.get(state.zone_idx)?;
                if state.zone_off + bs > zone_bytes {
                    state.zone_idx += 1;
                    state.zone_off = 0;
                    continue;
                }
                let offset = zone * zone_bytes + state.zone_off;
                state.zone_off += bs;
                break (offset, false);
            },
        };
        state.issued += 1;
        Some(request)
    }

    /// Submits one command at `at`, verifies a read's payload, and returns
    /// when the host sees the command complete.
    pub(crate) fn issue<D: StorageDevice + ?Sized>(
        &mut self,
        dev: &mut D,
        at: SimTime,
        offset: u64,
        is_read: bool,
    ) -> Result<SimTime, HostError> {
        let job = self.job;
        let bs = job.block_bytes;
        let req = if is_read {
            IoRequest::read(offset, bs)
        } else if job.verify_data {
            IoRequest::write_data(offset, payload_for(job.seed, offset, bs))
        } else {
            IoRequest::write(offset, bs)
        };
        let completion = dev
            .submit(at, &req)
            .map_err(|source| HostError::Device { offset, source })?;
        if is_read && job.verify_data {
            if let Some(data) = &completion.data {
                if data != &payload_for(job.seed, offset, bs) {
                    return Err(HostError::VerifyMismatch { offset });
                }
            }
        }
        let mut done = completion.finished;
        // Synchronous I/O: the write is not done until the flush is.
        if let Some(every) = job.fsync_every {
            if !is_read {
                self.writes_since_fsync += 1;
                if self.writes_since_fsync >= every {
                    self.writes_since_fsync = 0;
                    done = dev
                        .flush(done)
                        .map_err(|source| HostError::Device { offset, source })?
                        .finished;
                }
            }
        }
        Ok(done)
    }
}

/// Runs a job against any device model and collects a [`JobReport`].
///
/// # Errors
///
/// Returns [`HostError`] when the device rejects a request, when
/// verification fails, or when the job description does not fit the
/// device (e.g. zero-length region).
pub fn run_job<D: StorageDevice + ?Sized>(
    dev: &mut D,
    job: &FioJob,
) -> Result<JobReport, HostError> {
    run_single(dev, job, None, None)
}

/// Runs a job like [`run_job`] but stops issuing new requests once the
/// simulated clock reaches `stop_at` — requests already in flight complete
/// normally. The truncated [`JobReport`] covers only what actually ran.
/// Used by the crash-consistency harness to interrupt a workload at the
/// power-cut instant.
///
/// # Errors
///
/// Same failure modes as [`run_job`].
pub fn run_job_until<D: StorageDevice + ?Sized>(
    dev: &mut D,
    job: &FioJob,
    stop_at: SimTime,
) -> Result<JobReport, HostError> {
    run_single(dev, job, None, Some(stop_at))
}

/// Runs a job like [`run_job`] while also collecting a [`Counters`] delta
/// per `interval` of simulated time; the series lands in
/// [`JobReport::metrics`]. The interval grid is anchored at the job start.
///
/// # Errors
///
/// Same failure modes as [`run_job`].
pub fn run_job_sampled<D: StorageDevice + ?Sized>(
    dev: &mut D,
    job: &FioJob,
    interval: SimDuration,
) -> Result<JobReport, HostError> {
    run_single(dev, job, Some(interval), None)
}

/// One tenant, no front end: every command is issued the instant it is
/// generated.
fn run_single<D: StorageDevice + ?Sized>(
    dev: &mut D,
    job: &FioJob,
    sample_interval: Option<SimDuration>,
    stop_at: Option<SimTime>,
) -> Result<JobReport, HostError> {
    let mut tenants = [Tenant::new(dev.capacity_bytes(), job)?];
    let before = dev.counters();
    let mut sampler = sample_interval.map(|iv| MetricsSampler::anchored(job.start, iv, &before));
    drive(dev, &mut tenants, None, stop_at, sampler.as_mut())?;
    let [tenant] = tenants;
    let after = dev.counters();
    let metrics = sampler.map(|s| s.finish(tenant.tally.finished, &after));
    Ok(tenant.tally.job_report(
        dev.model_name(),
        job.start,
        metrics.unwrap_or_default(),
        after.since(&before),
    ))
}

/// Discrete events of [`drive`].
#[derive(Debug, Clone, Copy)]
pub(crate) enum Ev {
    /// A tenant thread generates its next command.
    Gen { tenant: usize, thread: usize },
    /// The command-fetch stage is free: arbitrate and dispatch one
    /// command.
    Dispatch,
    /// A dispatched command completes on the device and is reaped.
    Reap { tenant: usize, slot: u32 },
}

/// Runs every tenant's job to completion against `dev`.
///
/// Each generator thread keeps `queue_depth` commands outstanding, or —
/// for an open-loop job — follows a Poisson arrival schedule, drawn as it
/// is served. No thread generates a command at or after `stop_at`;
/// commands already in flight complete normally. `sampler` observes the
/// device counters at every completion. Results are left in `tenants` and
/// `front`.
pub(crate) fn drive<D: StorageDevice + ?Sized>(
    dev: &mut D,
    tenants: &mut [Tenant<'_>],
    mut front: Option<&mut FrontEnd>,
    stop_at: Option<SimTime>,
    mut sampler: Option<&mut MetricsSampler>,
) -> Result<(), HostError> {
    let mut queue: EventQueue<Ev> = EventQueue::new();
    for (tenant, ts) in tenants.iter_mut().enumerate() {
        let job = ts.job;
        match ts.arrivals.as_mut() {
            None => {
                for thread in 0..job.threads {
                    for _ in 0..job.queue_depth {
                        queue.push(job.start, Ev::Gen { tenant, thread });
                    }
                }
            }
            Some(arrivals) => {
                if let Some((at, thread)) = arrivals.next()? {
                    queue.push(at, Ev::Gen { tenant, thread });
                }
            }
        }
    }

    while let Some((t, ev)) = queue.pop() {
        // A handler either schedules further events and moves on, or yields
        // a command `thread` generated at `arrival` and saw complete at
        // `done`.
        let (tenant, thread, is_read, arrival, done) = match ev {
            Ev::Gen { tenant, thread } => {
                if stop_at.is_some_and(|stop| t >= stop) {
                    continue;
                }
                let ts = &mut tenants[tenant];
                // Open loop: the next arrival comes due no earlier than
                // this one, so drawing it now keeps the schedule's order.
                if let Some(arrivals) = ts.arrivals.as_mut() {
                    if let Some((at, next)) = arrivals.next()? {
                        queue.push(
                            at,
                            Ev::Gen {
                                tenant,
                                thread: next,
                            },
                        );
                    }
                }
                let Some((offset, is_read)) = ts.next_request(thread) else {
                    continue;
                };
                if let Some(f) = front.as_deref_mut() {
                    f.submit(&mut queue, t, tenant, thread, offset, is_read);
                    continue;
                }
                // No front end: the command reaches the device now.
                let done = ts.issue(dev, t, offset, is_read)?;
                (tenant, thread, is_read, t, done)
            }
            // Only a front end schedules `Dispatch` and `Reap`.
            Ev::Dispatch => {
                if let Some(f) = front.as_deref_mut() {
                    f.dispatch(&mut queue, dev, tenants, t)?;
                }
                continue;
            }
            Ev::Reap { tenant, slot } => {
                let Some(s) = front.as_deref_mut().map(|f| f.reap(t, tenant, slot)) else {
                    continue;
                };
                (tenant, s.thread, s.is_read, s.arrival, t)
            }
        };
        let ts = &mut tenants[tenant];
        let latency = done.saturating_since(arrival);
        ts.tally
            .record_io(thread, is_read, ts.job.block_bytes, latency, done);
        if let Some(s) = sampler.as_deref_mut() {
            s.observe(done, &dev.counters());
        }
        // Closed loop: the queue slot re-arms at completion.
        if ts.arrivals.is_none() {
            queue.push(done, Ev::Gen { tenant, thread });
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use conzone_core::ConZone;
    use conzone_legacy::LegacyDevice;
    use conzone_sim::LatencyHistogram;
    use conzone_types::DeviceConfig;

    fn zoned_job(pattern: AccessPattern, bs: u64) -> FioJob {
        FioJob::new(pattern, bs).zone_bytes(1024 * 1024)
    }

    #[test]
    fn seq_write_then_read_on_conzone() {
        let mut dev = ConZone::new(DeviceConfig::tiny_for_tests());
        let w = zoned_job(AccessPattern::SeqWrite, 512 * 1024)
            .bytes_per_thread(4 * 1024 * 1024)
            .verify(true);
        let wr = run_job(&mut dev, &w).unwrap();
        assert_eq!(wr.bytes, 4 * 1024 * 1024);
        assert!(wr.bandwidth_mibs() > 0.0);

        let r = FioJob::new(AccessPattern::SeqRead, 512 * 1024)
            .region(0, 4 * 1024 * 1024)
            .bytes_per_thread(4 * 1024 * 1024)
            .start_at(wr.finished)
            .verify(true);
        let rr = run_job(&mut dev, &r).unwrap();
        assert_eq!(rr.ops, 8);
        assert!(rr.latency.p99 >= rr.latency.p50);
    }

    #[test]
    fn multi_thread_zoned_write_round_robin() {
        let mut dev = ConZone::new(DeviceConfig::tiny_for_tests());
        let job = zoned_job(AccessPattern::SeqWrite, 256 * 1024)
            .threads(4)
            .region(0, 8 * 1024 * 1024)
            .bytes_per_thread(2 * 1024 * 1024);
        let r = run_job(&mut dev, &job).unwrap();
        assert_eq!(r.bytes, 8 * 1024 * 1024);
        // Four threads writing distinct zones with two buffers: conflicts
        // are expected (zones 0 and 2 share buffer 0, etc.).
        assert!(r.counters.host_write_bytes == 8 * 1024 * 1024);
    }

    #[test]
    fn rand_read_reports_kiops() {
        let mut dev = ConZone::new(DeviceConfig::tiny_for_tests());
        let fill = zoned_job(AccessPattern::SeqWrite, 256 * 1024).bytes_per_thread(2 * 1024 * 1024);
        let fr = run_job(&mut dev, &fill).unwrap();
        let job = FioJob::new(AccessPattern::RandRead, 4096)
            .region(0, 2 * 1024 * 1024)
            .ops_per_thread(500)
            .bytes_per_thread(u64::MAX)
            .start_at(fr.finished);
        let r = run_job(&mut dev, &job).unwrap();
        assert_eq!(r.ops, 500);
        assert!(r.kiops() > 0.0);
        assert!(r.latency.count == 500);
    }

    #[test]
    fn mixed_pattern_on_legacy() {
        let mut dev = LegacyDevice::new(DeviceConfig::tiny_for_tests());
        let fill = FioJob::new(AccessPattern::SeqWrite, 256 * 1024)
            .region(0, 2 * 1024 * 1024)
            .bytes_per_thread(2 * 1024 * 1024);
        let fr = run_job(&mut dev, &fill).unwrap();
        let job = FioJob::new(AccessPattern::Mixed { read_percent: 70 }, 4096)
            .region(0, 2 * 1024 * 1024)
            .ops_per_thread(400)
            .bytes_per_thread(u64::MAX)
            .start_at(fr.finished);
        let r = run_job(&mut dev, &job).unwrap();
        assert_eq!(r.ops, 400);
        let reads = r.counters.host_read_ops;
        let writes = r.counters.host_write_ops;
        assert_eq!(reads + writes, 400);
        // ~70/30 split within generous statistical slack.
        assert!((200..=350).contains(&reads), "reads {reads}");
    }

    #[test]
    fn mixed_pattern_on_conventional_zones() {
        use conzone_types::Geometry;
        let cfg = DeviceConfig::builder(Geometry::tiny())
            .chunk_bytes(256 * 1024)
            .conventional_zones(2)
            .build()
            .unwrap();
        let mut dev = conzone_core::ConZone::new(cfg);
        // Pre-fill the whole conventional region so every read hits
        // written data.
        let fill = FioJob::new(AccessPattern::SeqWrite, 256 * 1024)
            .region(0, 2 * 1024 * 1024)
            .bytes_per_thread(2 * 1024 * 1024);
        let fr = run_job(&mut dev, &fill).unwrap();
        let job = FioJob::new(AccessPattern::Mixed { read_percent: 50 }, 4096)
            .region(0, 2 * 1024 * 1024)
            .ops_per_thread(300)
            .bytes_per_thread(u64::MAX)
            .seed(1)
            .start_at(fr.finished);
        let r = run_job(&mut dev, &job).unwrap();
        assert_eq!(r.ops, 300);
        assert!(r.counters.conventional_updates > 0);
    }

    #[test]
    fn rand_write_on_legacy() {
        let mut dev = LegacyDevice::new(DeviceConfig::tiny_for_tests());
        let fill = FioJob::new(AccessPattern::SeqWrite, 256 * 1024)
            .region(0, 2 * 1024 * 1024)
            .bytes_per_thread(2 * 1024 * 1024);
        let fr = run_job(&mut dev, &fill).unwrap();
        let job = FioJob::new(AccessPattern::RandWrite, 4096)
            .region(0, 2 * 1024 * 1024)
            .ops_per_thread(200)
            .bytes_per_thread(u64::MAX)
            .start_at(fr.finished);
        let r = run_job(&mut dev, &job).unwrap();
        assert_eq!(r.ops, 200);
    }

    #[test]
    fn explicit_thread_zones_direct_conflicts() {
        let mut dev = ConZone::new(DeviceConfig::tiny_for_tests());
        // Same parity zones → same buffer → conflicts (Fig. 6(b)).
        let job = zoned_job(AccessPattern::SeqWrite, 48 * 1024)
            .threads(2)
            .with_thread_zones(vec![vec![0], vec![2]])
            .bytes_per_thread(1024 * 1024);
        let r = run_job(&mut dev, &job).unwrap();
        assert!(r.counters.buffer_conflicts > 0);
        assert!(r.waf() > 1.0);

        let mut dev = ConZone::new(DeviceConfig::tiny_for_tests());
        let job = zoned_job(AccessPattern::SeqWrite, 48 * 1024)
            .threads(2)
            .with_thread_zones(vec![vec![0], vec![1]])
            .bytes_per_thread(1024 * 1024);
        let r = run_job(&mut dev, &job).unwrap();
        assert_eq!(r.counters.buffer_conflicts, 0);
        assert_eq!(r.counters.flash_program_bytes_slc, 0);
        // Tail of each zone stays buffered (1 MiB is not a 48 KiB
        // multiple), so WAF is at most 1 — never amplified.
        assert!(r.waf() <= 1.0);
    }

    #[test]
    fn degenerate_reports_are_nan_not_zero() {
        let empty = LatencyHistogram::new().summary();
        let mut r = JobReport {
            model: "test",
            started: SimTime::ZERO,
            finished: SimTime::ZERO,
            bytes: 4096,
            ops: 1,
            latency: empty,
            read_latency: empty,
            write_latency: empty,
            thread_latency: Vec::new(),
            metrics: Vec::new(),
            counters: Counters::new(),
        };
        // Ops completed in zero simulated time: NaN, not a silent 0.
        assert!(r.bandwidth_mibs().is_nan());
        assert!(r.kiops().is_nan());
        // A genuinely empty report stays at zero.
        r.ops = 0;
        r.bytes = 0;
        assert_eq!(r.bandwidth_mibs(), 0.0);
        assert_eq!(r.kiops(), 0.0);
    }

    #[test]
    fn bad_jobs_rejected() {
        let mut dev = ConZone::new(DeviceConfig::tiny_for_tests());
        let job = FioJob::new(AccessPattern::RandRead, 4096).region(0, 0);
        assert!(matches!(run_job(&mut dev, &job), Err(HostError::BadJob(_))));
        let job = FioJob::new(AccessPattern::RandRead, 1000);
        assert!(matches!(run_job(&mut dev, &job), Err(HostError::BadJob(_))));
        let job = FioJob::new(AccessPattern::RandRead, 4096).threads(0);
        assert!(matches!(run_job(&mut dev, &job), Err(HostError::BadJob(_))));
    }

    #[test]
    fn outstanding_commands_are_bounded_before_anything_is_sized_by_them() {
        let cap = 16 << 20;
        let job = |threads, qd| {
            FioJob::new(AccessPattern::RandRead, 4096)
                .threads(threads)
                .queue_depth(qd)
        };
        // At the bound is fine; one thread more is not.
        assert_eq!(
            Tenant::new(cap, &job(1 << 10, 1 << 10))
                .unwrap()
                .outstanding(),
            MAX_OUTSTANDING
        );
        for (threads, qd) in [
            ((1 << 10) + 1, 1 << 10),
            (65_535, 65_535),
            (99_999_999_999, 1),
            (usize::MAX, usize::MAX),
        ] {
            let err = Tenant::new(cap, &job(threads, qd)).unwrap_err();
            assert!(
                matches!(&err, HostError::BadJob(why) if why.contains("outstanding")),
                "{threads} x {qd}: {err}"
            );
        }
    }

    #[test]
    fn sampled_run_yields_interval_deltas_and_thread_latencies() {
        let mut dev = ConZone::new(DeviceConfig::tiny_for_tests());
        let job = zoned_job(AccessPattern::SeqWrite, 128 * 1024)
            .threads(2)
            .region(0, 4 * 1024 * 1024)
            .bytes_per_thread(2 * 1024 * 1024);
        let r = run_job_sampled(&mut dev, &job, SimDuration::from_micros(500)).unwrap();
        assert_eq!(r.thread_latency.len(), 2);
        assert_eq!(r.thread_latency.iter().map(|s| s.count).sum::<u64>(), r.ops);
        assert!(!r.metrics.is_empty());
        // Interval deltas add back up to the whole-job delta, and the
        // samples tile the job's duration without gaps.
        let written: u64 = r.metrics.iter().map(|m| m.delta.host_write_bytes).sum();
        assert_eq!(written, r.counters.host_write_bytes);
        for w in r.metrics.windows(2) {
            assert_eq!(w[0].end, w[1].start);
        }
        assert_eq!(r.metrics.last().unwrap().end, r.finished);
        // The unsampled path reports the same aggregate numbers.
        let mut dev2 = ConZone::new(DeviceConfig::tiny_for_tests());
        let plain = run_job(&mut dev2, &job).unwrap();
        assert_eq!(plain.finished, r.finished);
        assert!(plain.metrics.is_empty());
    }

    #[test]
    fn deterministic_reports() {
        let run = || {
            let mut dev = ConZone::new(DeviceConfig::tiny_for_tests());
            let job = zoned_job(AccessPattern::SeqWrite, 128 * 1024)
                .threads(2)
                .bytes_per_thread(1024 * 1024);
            let r = run_job(&mut dev, &job).unwrap();
            (r.finished, r.latency.p99)
        };
        assert_eq!(run(), run());
    }
}

/// Recording each completion once against the books as they were kept
/// before: every completion recorded three times, into the stream's
/// histogram, its kind's and its thread's.
#[cfg(test)]
mod books_tests {
    use super::*;
    use conzone_check::{check, Rng, Simpler};

    #[derive(Default)]
    struct ThreeRecordBooks {
        hist: LatencyHistogram,
        read_hist: LatencyHistogram,
        write_hist: LatencyHistogram,
        thread_hists: Vec<LatencyHistogram>,
        bytes: u64,
        ops: u64,
        finished: SimTime,
    }

    impl ThreeRecordBooks {
        fn record(&mut self, thread: usize, kind: usize, latency: SimDuration, done: SimTime) {
            self.hist.record(latency);
            match kind {
                READ => self.read_hist.record(latency),
                WRITE => self.write_hist.record(latency),
                _ => {}
            }
            self.thread_hists[thread].record(latency);
            self.ops += 1;
            self.finished = self.finished.max(done);
        }

        fn job_report(&self) -> JobReport {
            JobReport {
                model: "books",
                started: SimTime::ZERO,
                finished: self.finished,
                bytes: self.bytes,
                ops: self.ops,
                latency: self.hist.summary(),
                read_latency: self.read_hist.summary(),
                write_latency: self.write_hist.summary(),
                thread_latency: self
                    .thread_hists
                    .iter()
                    .map(LatencyHistogram::summary)
                    .collect(),
                metrics: Vec::new(),
                counters: Counters::default(),
            }
        }
    }

    /// One completion: its stream, its thread (modulo the stream's
    /// threads), its kind and its latency in ns.
    #[derive(Debug, Clone, Copy, PartialEq)]
    struct Done(usize, usize, usize, u64);

    impl Simpler for Done {}

    /// 1–3 streams of 1–3 threads, with up to 300 completions each, of
    /// latencies below 2^0 to 2^39 ns.
    fn streams(rng: &mut Rng) -> (Vec<usize>, Vec<Done>) {
        let threads = rng.vec(1..4, |rng| rng.range(1..4));
        let mut done = Vec::new();
        for stream in 0..threads.len() {
            for _ in 0..rng.range(0usize..300) {
                let (thread, kind, magnitude) =
                    (rng.range(0..3), rng.range(0..3), rng.range(0..40));
                done.push(Done(
                    stream,
                    thread,
                    kind,
                    rng.next_u64() % (1 << magnitude),
                ));
            }
        }
        (threads, done)
    }

    /// Per stream, the `JobReport` (and so a queue pair's
    /// `TenantReport` latencies) equals the three-record books', for
    /// 1–3 threads mixing reads, writes and zone resets; and over 1–3
    /// streams, the merge the queue-pair driver reports as
    /// `MultiReport::latency` equals the merge of their stream
    /// histograms.
    #[test]
    fn one_record_per_completion_reports_what_three_did() {
        let path =
            "conzone_host::runner::books_tests::one_record_per_completion_reports_what_three_did";
        check(path, 256, streams, |threads, completions| {
            let mut all_once = LatencyHistogram::new();
            let mut all_thrice = LatencyHistogram::new();
            for (stream, &threads) in threads.iter().enumerate() {
                let mut once = Tally::new(SimTime::ZERO, threads);
                let mut thrice = ThreeRecordBooks {
                    thread_hists: vec![LatencyHistogram::new(); threads],
                    ..ThreeRecordBooks::default()
                };
                let mine = completions.iter().filter(|c| c.0 == stream);
                for (i, &Done(_, thread, kind, ns)) in mine.enumerate() {
                    let (thread, latency) = (thread % threads, SimDuration::from_nanos(ns));
                    let done = SimTime::from_nanos(i as u64 * 1000);
                    match kind {
                        NO_DATA => once.record(thread, latency, done),
                        _ => {
                            once.record_io(thread, kind == READ, 4096, latency, done);
                            thrice.bytes += 4096;
                        }
                    }
                    thrice.record(thread, kind, latency, done);
                }
                assert_eq!(
                    once.job_report("books", SimTime::ZERO, Vec::new(), Counters::default()),
                    thrice.job_report()
                );
                all_once.merge(&once.latency());
                all_thrice.merge(&thrice.hist);
            }
            assert_eq!(all_once.summary(), all_thrice.summary());
        });
    }
}

#[cfg(test)]
mod open_loop_tests {
    use super::*;
    use crate::job::{AccessPattern, FioJob};
    use conzone_core::ConZone;
    use conzone_types::DeviceConfig;

    fn filled_device() -> (ConZone, conzone_types::SimTime) {
        let mut dev = ConZone::new(DeviceConfig::tiny_for_tests());
        let fill = FioJob::new(AccessPattern::SeqWrite, 256 * 1024)
            .zone_bytes(1024 * 1024)
            .region(0, 4 * 1024 * 1024)
            .bytes_per_thread(4 * 1024 * 1024);
        let f = run_job(&mut dev, &fill).expect("fill");
        (dev, f.finished)
    }

    #[test]
    fn open_loop_latency_grows_with_load() {
        // At light load, latency ~= service time; near saturation the
        // queueing delay blows the mean up — the classic hockey stick.
        let run_at = |iops: f64| {
            let (mut dev, t0) = filled_device();
            let job = FioJob::new(AccessPattern::RandRead, 4096)
                .region(0, 4 * 1024 * 1024)
                .ops_per_thread(3000)
                .bytes_per_thread(u64::MAX)
                .arrival_iops(iops)
                .start_at(t0);
            run_job(&mut dev, &job).expect("open loop").latency.mean
        };
        // Service capacity here is ~125 KIOPS (4 chips / 32 us TLC reads),
        // so 115 K offered is ~92 % utilisation.
        let light = run_at(2_000.0);
        let heavy = run_at(115_000.0);
        assert!(
            heavy > light * 3,
            "queueing delay under load: light {light}, heavy {heavy}"
        );
    }

    #[test]
    fn open_loop_throughput_tracks_offered_load() {
        let (mut dev, t0) = filled_device();
        let job = FioJob::new(AccessPattern::RandRead, 4096)
            .region(0, 4 * 1024 * 1024)
            .ops_per_thread(5000)
            .bytes_per_thread(u64::MAX)
            .arrival_iops(10_000.0)
            .start_at(t0);
        let r = run_job(&mut dev, &job).expect("open loop");
        let achieved = r.kiops() * 1000.0;
        assert!(
            (achieved - 10_000.0).abs() / 10_000.0 < 0.1,
            "achieved {achieved} vs offered 10000"
        );
    }

    #[test]
    fn open_loop_rejects_writes() {
        let mut dev = ConZone::new(DeviceConfig::tiny_for_tests());
        let job = FioJob::new(AccessPattern::SeqWrite, 4096)
            .zone_bytes(1024 * 1024)
            .arrival_iops(1000.0);
        assert!(matches!(run_job(&mut dev, &job), Err(HostError::BadJob(_))));
    }
}

#[cfg(test)]
mod queue_depth_tests {
    use super::*;
    use crate::job::{AccessPattern, FioJob};
    use conzone_core::ConZone;
    use conzone_types::DeviceConfig;

    #[test]
    fn deeper_queues_raise_random_read_throughput() {
        let run_qd = |qd: usize| {
            let mut dev = ConZone::new(DeviceConfig::tiny_for_tests());
            let fill = FioJob::new(AccessPattern::SeqWrite, 256 * 1024)
                .zone_bytes(1024 * 1024)
                .region(0, 4 * 1024 * 1024)
                .bytes_per_thread(4 * 1024 * 1024);
            let f = run_job(&mut dev, &fill).expect("fill");
            let job = FioJob::new(AccessPattern::RandRead, 4096)
                .region(0, 4 * 1024 * 1024)
                .ops_per_thread(2000)
                .bytes_per_thread(u64::MAX)
                .queue_depth(qd)
                .start_at(f.finished);
            run_job(&mut dev, &job).expect("randread").kiops()
        };
        let qd1 = run_qd(1);
        let qd8 = run_qd(8);
        assert!(
            qd8 > qd1 * 2.0,
            "parallelism pays: qd1 {qd1:.1} vs qd8 {qd8:.1} KIOPS"
        );
    }

    #[test]
    fn split_latency_summaries() {
        let mut dev = conzone_legacy::LegacyDevice::new(DeviceConfig::tiny_for_tests());
        let fill = FioJob::new(AccessPattern::SeqWrite, 256 * 1024)
            .region(0, 2 * 1024 * 1024)
            .bytes_per_thread(2 * 1024 * 1024);
        let f = run_job(&mut dev, &fill).expect("fill");
        assert_eq!(f.read_latency.count, 0);
        assert_eq!(f.write_latency.count, f.ops);
        let job = FioJob::new(AccessPattern::Mixed { read_percent: 50 }, 4096)
            .region(0, 2 * 1024 * 1024)
            .ops_per_thread(200)
            .bytes_per_thread(u64::MAX)
            .start_at(f.finished);
        let r = run_job(&mut dev, &job).expect("mixed");
        assert_eq!(r.read_latency.count + r.write_latency.count, 200);
        assert!(r.read_latency.count > 0 && r.write_latency.count > 0);
    }

    #[test]
    fn zoned_seq_write_rejects_deep_queues() {
        let mut dev = ConZone::new(DeviceConfig::tiny_for_tests());
        let job = FioJob::new(AccessPattern::SeqWrite, 4096)
            .zone_bytes(1024 * 1024)
            .queue_depth(4);
        assert!(matches!(run_job(&mut dev, &job), Err(HostError::BadJob(_))));
        let job = FioJob::new(AccessPattern::RandRead, 4096).queue_depth(0);
        assert!(matches!(run_job(&mut dev, &job), Err(HostError::BadJob(_))));
    }
}

#[cfg(test)]
mod fsync_tests {
    use super::*;
    use crate::job::{AccessPattern, FioJob};
    use conzone_core::ConZone;
    use conzone_legacy::LegacyDevice;
    use conzone_types::{DeviceConfig, StorageDevice};

    #[test]
    fn fsync_forces_durability_through_slc() {
        // 8 KiB sync writes: without fsync they complete from the buffer;
        // with fsync=1 every write premature-flushes into SLC.
        let run = |fsync: bool| {
            let mut dev = ConZone::new(DeviceConfig::tiny_for_tests());
            let mut job = FioJob::new(AccessPattern::SeqWrite, 8192)
                .zone_bytes(1024 * 1024)
                .region(0, 1024 * 1024)
                .bytes_per_thread(512 * 1024);
            if fsync {
                job = job.fsync_every(1);
            }
            let r = run_job(&mut dev, &job).expect("run");
            (r.counters.flash_program_bytes_slc, r.latency.p50)
        };
        let (slc_async, lat_async) = run(false);
        let (slc_sync, lat_sync) = run(true);
        assert_eq!(slc_async, 0, "buffered writes never touch SLC");
        assert!(slc_sync > 0, "fsync pushes sub-unit data into SLC");
        assert!(lat_sync > lat_async, "durability costs latency");
    }

    #[test]
    fn legacy_flush_pads_units() {
        let mut dev = LegacyDevice::new(DeviceConfig::tiny_for_tests());
        let c = dev
            .submit(
                conzone_types::SimTime::ZERO,
                &conzone_types::IoRequest::write(0, 8192),
            )
            .unwrap();
        assert_eq!(dev.counters().flash_program_bytes(), 0, "still pending");
        let f = dev.flush(c.finished).unwrap();
        let counters = dev.counters();
        // The 8 KiB remainder was padded to a full 64 KiB unit.
        assert_eq!(counters.flash_program_bytes_tlc, 64 * 1024);
        assert_eq!(counters.premature_flushes, 1);
        // Data still readable; padding is invisible.
        let r = dev
            .submit(f.finished, &conzone_types::IoRequest::read(0, 8192))
            .unwrap();
        assert!(r.finished > f.finished);
        // GC over padded blocks doesn't trip on ownerless slices: fill and
        // churn to force GC.
        let mut t = r.finished;
        let cap = dev.capacity_bytes();
        for round in 0..10u64 {
            for off in (0..cap / 2).step_by(256 * 1024) {
                t = dev
                    .submit(t, &conzone_types::IoRequest::write(off, 256 * 1024))
                    .unwrap()
                    .finished;
                let _ = round;
            }
            t = dev.flush(t).unwrap().finished;
        }
        assert!(dev.counters().gc_runs > 0);
    }

    #[test]
    fn flush_of_clean_device_is_cheap() {
        let mut dev = ConZone::new(DeviceConfig::tiny_for_tests());
        let c = dev.flush(conzone_types::SimTime::ZERO).unwrap();
        assert_eq!(c.latency(), conzone_types::HOST_OVERHEAD);
    }
}
