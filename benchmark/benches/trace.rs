//! Boundary tracing: wall-clock spans around every call that crosses from
//! the benchmark into the host driver, and from the host driver into the
//! device model.
//!
//! Nothing here reaches inside the emulator. [`Timed`] implements the
//! public device traits by delegation and times `submit`, `flush`,
//! `counters` and `reset_zone`; the workloads bracket their own
//! `run_job` / `run_tenants` / drain calls through [`Harness::enter`] and
//! [`Harness::exit`]. Untraced reps run on the bare [`ConZone`], whose
//! `Harness` hooks are empty, so the tracer is not in the measured path at
//! all when end-to-end numbers are taken.
//!
//! An empty span is not free (two clock reads plus bookkeeping), and at
//! ~100 ns per simulated IO that cost is most of an op. [`calibrate`]
//! measures it; [`SpanAgg::self_ns`] subtracts it.

use std::cell::RefCell;
use std::time::Instant;

use conzone_core::ConZone;
use conzone_sim::json::Json;
use conzone_types::{
    Completion, Counters, DeviceConfig, DeviceError, IoRequest, SimTime, StorageDevice, ZoneId,
    ZoneInfo, ZonedDevice,
};

/// Full span records kept per traced rep; later spans only feed the
/// aggregates.
pub const MAX_RECORDS: usize = 65_536;

/// Log2 duration buckets: bucket `i` holds spans of `[2^i, 2^(i+1))` ns;
/// the last one is open-ended (≥ ~9 minutes).
const HIST_BUCKETS: usize = 40;

/// The boundaries that are timed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanName {
    /// `run_job` / `run_job_sampled` (host: sync runner).
    RunJob,
    /// `run_tenants` (host: queue-pair driver).
    RunTenants,
    /// `StorageDevice::submit`.
    Submit,
    /// `StorageDevice::flush`.
    Flush,
    /// `StorageDevice::counters`.
    Counters,
    /// `ZonedDevice::reset_zone`.
    ResetZone,
    /// The benchmark draining its event and span sinks.
    Drain,
}

impl SpanName {
    pub const ALL: [SpanName; 7] = [
        SpanName::RunJob,
        SpanName::RunTenants,
        SpanName::Submit,
        SpanName::Flush,
        SpanName::Counters,
        SpanName::ResetZone,
        SpanName::Drain,
    ];

    pub fn name(self) -> &'static str {
        match self {
            SpanName::RunJob => "run_job",
            SpanName::RunTenants => "run_tenants",
            SpanName::Submit => "submit",
            SpanName::Flush => "flush",
            SpanName::Counters => "counters",
            SpanName::ResetZone => "reset_zone",
            SpanName::Drain => "drain",
        }
    }
}

/// One closed span. `id`s are 1-based in opening order, so a parent's id
/// is always smaller than its children's; `parent == 0` marks a root.
/// `round` and `op` identify the request: every span opened on behalf of
/// the same `submit` (its flush, the counter snapshots around it) carries
/// that submit's `op` number within the round.
#[derive(Debug, Clone, Copy)]
pub struct SpanRecord {
    pub id: u32,
    pub parent: u32,
    pub name: SpanName,
    pub start_ns: u64,
    pub end_ns: u64,
    pub round: u32,
    pub op: u32,
}

impl SpanRecord {
    pub fn json(&self, workload: &str) -> Json {
        Json::obj([
            ("workload", Json::from(workload)),
            ("id", Json::U64(u64::from(self.id))),
            ("parent", Json::U64(u64::from(self.parent))),
            ("name", Json::from(self.name.name())),
            ("start_ns", Json::U64(self.start_ns)),
            ("end_ns", Json::U64(self.end_ns)),
            ("round", Json::U64(u64::from(self.round))),
            ("op", Json::U64(u64::from(self.op))),
        ])
    }
}

/// Aggregate over every span of one name, kept for all spans (not just the
/// recorded prefix).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpanAgg {
    pub count: u64,
    /// Sum of durations, children included.
    pub total_ns: u64,
    /// Sum of the durations of direct children.
    pub child_ns: u64,
    /// Number of direct children.
    pub children: u64,
    pub hist: [u64; HIST_BUCKETS],
}

impl Default for SpanAgg {
    fn default() -> SpanAgg {
        SpanAgg {
            count: 0,
            total_ns: 0,
            child_ns: 0,
            children: 0,
            hist: [0; HIST_BUCKETS],
        }
    }
}

impl SpanAgg {
    /// Self time with the timer's own cost taken out: a span's measured
    /// duration contains the in-interval part of its own timer and the
    /// whole timer of each direct child, minus what the child itself
    /// measured.
    pub fn self_ns(&self, timer: &TimerCost) -> f64 {
        let raw = self.total_ns.saturating_sub(self.child_ns) as f64;
        let own = self.count as f64 * timer.inside_ns;
        let kids = self.children as f64 * (timer.total_ns - timer.inside_ns);
        (raw - own - kids).max(0.0)
    }

    pub fn json(&self) -> Json {
        Json::obj([
            ("count", Json::U64(self.count)),
            ("total_ns", Json::U64(self.total_ns)),
            ("child_ns", Json::U64(self.child_ns)),
            ("children", Json::U64(self.children)),
            (
                "log2_hist",
                Json::Arr(self.hist.iter().map(|&n| Json::U64(n)).collect()),
            ),
        ])
    }

    pub fn from_json(j: &Json) -> Option<SpanAgg> {
        let mut agg = SpanAgg {
            count: j.get("count")?.as_u64()?,
            total_ns: j.get("total_ns")?.as_u64()?,
            child_ns: j.get("child_ns")?.as_u64()?,
            children: j.get("children")?.as_u64()?,
            ..SpanAgg::default()
        };
        for (slot, v) in agg.hist.iter_mut().zip(j.get("log2_hist")?.as_array()?) {
            *slot = v.as_u64()?;
        }
        Some(agg)
    }
}

/// Calibrated cost of one empty span.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TimerCost {
    /// Wall time one `enter` + `exit` pair takes.
    pub total_ns: f64,
    /// The part of it that falls between the two clock reads, i.e. that the
    /// span itself reports as its duration.
    pub inside_ns: f64,
}

struct OpenSpan {
    id: u32,
    name: SpanName,
    start_ns: u64,
    child_ns: u64,
    children: u64,
    op: u32,
}

/// In-memory span collector. Single-threaded, like the simulator.
pub struct Tracer {
    epoch: Instant,
    open: Vec<OpenSpan>,
    aggs: [SpanAgg; SpanName::ALL.len()],
    records: Vec<SpanRecord>,
    next_id: u32,
    round: u32,
    op: u32,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            open: Vec::with_capacity(8),
            aggs: [SpanAgg::default(); SpanName::ALL.len()],
            records: Vec::with_capacity(MAX_RECORDS),
            next_id: 0,
            round: 0,
            op: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    pub fn begin_round(&mut self, round: u32) {
        self.round = round;
        self.op = 0;
    }

    /// Opens a span. The clock is read last, so the bookkeeping above it
    /// lands outside the span's own interval.
    pub fn enter(&mut self, name: SpanName) {
        if name == SpanName::Submit {
            self.op += 1;
        }
        self.next_id = self.next_id.wrapping_add(1);
        self.open.push(OpenSpan {
            id: self.next_id,
            name,
            start_ns: 0,
            child_ns: 0,
            children: 0,
            op: self.op,
        });
        let start = self.now_ns();
        if let Some(top) = self.open.last_mut() {
            top.start_ns = start;
        }
    }

    /// Closes the innermost open span. The clock is read first.
    pub fn exit(&mut self) {
        let end_ns = self.now_ns();
        let Some(span) = self.open.pop() else {
            return;
        };
        let dur = end_ns.saturating_sub(span.start_ns);
        let agg = &mut self.aggs[span.name as usize];
        agg.count += 1;
        agg.total_ns += dur;
        agg.child_ns += span.child_ns;
        agg.children += span.children;
        let bucket = (63 - dur.max(1).leading_zeros() as usize).min(HIST_BUCKETS - 1);
        agg.hist[bucket] += 1;
        let parent = match self.open.last_mut() {
            Some(p) => {
                p.child_ns += dur;
                p.children += 1;
                p.id
            }
            None => 0,
        };
        if self.records.len() < MAX_RECORDS {
            self.records.push(SpanRecord {
                id: span.id,
                parent,
                name: span.name,
                start_ns: span.start_ns,
                end_ns,
                round: self.round,
                op: span.op,
            });
        }
    }

    pub fn agg(&self, name: SpanName) -> &SpanAgg {
        &self.aggs[name as usize]
    }

    pub fn records(&self) -> &[SpanRecord] {
        &self.records
    }
}

/// Measures the cost of an empty span on a scratch tracer.
pub fn calibrate() -> TimerCost {
    const PAIRS: u32 = 200_000;
    let mut tracer = Tracer::new();
    // One untimed batch first: page in the record buffer, warm the clock.
    for _ in 0..PAIRS {
        tracer.enter(SpanName::Drain);
        tracer.exit();
    }
    let before = tracer.agg(SpanName::Drain).total_ns;
    let t0 = Instant::now();
    for _ in 0..PAIRS {
        tracer.enter(SpanName::Drain);
        tracer.exit();
    }
    let wall = t0.elapsed().as_nanos() as f64;
    let inside = (tracer.agg(SpanName::Drain).total_ns - before) as f64;
    TimerCost {
        total_ns: wall / f64::from(PAIRS),
        inside_ns: inside / f64::from(PAIRS),
    }
}

/// A device wrapper that times every call crossing the device boundary and
/// changes nothing else: same arguments in, same results out.
pub struct Timed<D> {
    inner: D,
    // `counters` takes `&self`, so the tracer needs interior mutability.
    tracer: RefCell<Tracer>,
}

impl<D> Timed<D> {
    pub fn new(inner: D) -> Timed<D> {
        Timed {
            inner,
            tracer: RefCell::new(Tracer::new()),
        }
    }

    pub fn into_parts(self) -> (D, Tracer) {
        (self.inner, self.tracer.into_inner())
    }
}

impl<D: StorageDevice> StorageDevice for Timed<D> {
    fn config(&self) -> &DeviceConfig {
        self.inner.config()
    }

    fn capacity_bytes(&self) -> u64 {
        self.inner.capacity_bytes()
    }

    fn submit(&mut self, now: SimTime, request: &IoRequest) -> Result<Completion, DeviceError> {
        self.tracer.get_mut().enter(SpanName::Submit);
        let r = self.inner.submit(now, request);
        self.tracer.get_mut().exit();
        r
    }

    fn flush(&mut self, now: SimTime) -> Result<Completion, DeviceError> {
        self.tracer.get_mut().enter(SpanName::Flush);
        let r = self.inner.flush(now);
        self.tracer.get_mut().exit();
        r
    }

    fn counters(&self) -> Counters {
        self.tracer.borrow_mut().enter(SpanName::Counters);
        let c = self.inner.counters();
        self.tracer.borrow_mut().exit();
        c
    }

    fn model_name(&self) -> &'static str {
        self.inner.model_name()
    }
}

impl<D: ZonedDevice> ZonedDevice for Timed<D> {
    fn zone_count(&self) -> usize {
        self.inner.zone_count()
    }

    fn zone_size(&self) -> u64 {
        self.inner.zone_size()
    }

    fn zone_info(&self, zone: ZoneId) -> Result<ZoneInfo, DeviceError> {
        self.inner.zone_info(zone)
    }

    fn reset_zone(&mut self, now: SimTime, zone: ZoneId) -> Result<Completion, DeviceError> {
        self.tracer.get_mut().enter(SpanName::ResetZone);
        let r = self.inner.reset_zone(now, zone);
        self.tracer.get_mut().exit();
        r
    }

    fn open_zone(&mut self, now: SimTime, zone: ZoneId) -> Result<Completion, DeviceError> {
        self.inner.open_zone(now, zone)
    }

    fn close_zone(&mut self, now: SimTime, zone: ZoneId) -> Result<Completion, DeviceError> {
        self.inner.close_zone(now, zone)
    }

    fn finish_zone(&mut self, now: SimTime, zone: ZoneId) -> Result<Completion, DeviceError> {
        self.inner.finish_zone(now, zone)
    }
}

/// What a workload needs from the device it drives: the zoned interface
/// and the span hooks — empty on the bare device.
pub trait Harness: ZonedDevice {
    fn enter(&mut self, _name: SpanName) {}
    fn exit(&mut self) {}
    fn begin_round(&mut self, _round: u32) {}
}

impl Harness for ConZone {}

impl Harness for Timed<ConZone> {
    fn enter(&mut self, name: SpanName) {
        self.tracer.get_mut().enter(name);
    }

    fn exit(&mut self) {
        self.tracer.get_mut().exit();
    }

    fn begin_round(&mut self, round: u32) {
        self.tracer.get_mut().begin_round(round);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_aggregate() {
        let mut t = Tracer::new();
        t.begin_round(3);
        t.enter(SpanName::RunJob);
        t.enter(SpanName::Submit);
        t.exit();
        t.enter(SpanName::Counters);
        t.exit();
        t.enter(SpanName::Submit);
        t.exit();
        t.exit();
        let run = t.agg(SpanName::RunJob);
        assert_eq!((run.count, run.children), (1, 3));
        let kids = t.agg(SpanName::Submit).total_ns + t.agg(SpanName::Counters).total_ns;
        assert_eq!(run.child_ns, kids);
        assert!(run.total_ns >= run.child_ns);
        assert_eq!(run.hist.iter().sum::<u64>(), 1);
        // Children close first; ids follow opening order; the counters
        // snapshot shares the op number of the submit before it.
        let names: Vec<_> = t.records().iter().map(|r| (r.id, r.parent, r.op)).collect();
        assert_eq!(names, vec![(2, 1, 1), (3, 1, 1), (4, 1, 2), (1, 0, 0)]);
        assert!(t.records().iter().all(|r| r.round == 3));
    }

    #[test]
    fn self_time_takes_out_the_timer() {
        let timer = TimerCost {
            total_ns: 50.0,
            inside_ns: 20.0,
        };
        let agg = SpanAgg {
            count: 2,
            total_ns: 1_000,
            child_ns: 400,
            children: 4,
            hist: [0; HIST_BUCKETS],
        };
        // 600 raw − 2 × 20 (own clock reads) − 4 × 30 (children's bookkeeping).
        assert_eq!(agg.self_ns(&timer), 440.0);
        assert_eq!(SpanAgg::from_json(&agg.json()), Some(agg));
    }

    #[test]
    fn calibration_is_positive_and_ordered() {
        let c = calibrate();
        assert!(c.inside_ns > 0.0, "{c:?}");
        assert!(c.total_ns >= c.inside_ns, "{c:?}");
        assert!(c.total_ns < 5_000.0, "an empty span took {c:?}");
    }

    #[test]
    fn record_buffer_is_bounded() {
        let mut t = Tracer::new();
        for _ in 0..MAX_RECORDS + 10 {
            t.enter(SpanName::Drain);
            t.exit();
        }
        assert_eq!(t.records().len(), MAX_RECORDS);
        assert_eq!(t.agg(SpanName::Drain).count, (MAX_RECORDS + 10) as u64);
    }
}
