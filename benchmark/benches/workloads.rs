//! The six in-process workloads and the rep that runs one of them.
//!
//! Every workload is a closed loop with a fixed op count: a rep is
//! `rounds` equal rounds, each a fixed number of host requests, so the
//! simulated results of two commits are exactly comparable and only wall
//! time varies. The common device is the paper's §IV-A configuration,
//! built here from `conzone_types` (not through `conzone-bench`'s helpers:
//! a later change to those must not be able to change the benchmark).

use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use conzone_core::ConZone;
use conzone_host::{
    run_job, run_job_sampled, run_tenants, AccessPattern, FioJob, JobReport, MultiReport,
    QdOptions, TenantSpec,
};
use conzone_sim::json::Json;
use conzone_sim::{export, RingBufferSink, SpanBuffer};
use conzone_types::{
    DeviceConfig, Geometry, MapGranularity, Probe, SearchStrategy, SimDuration, SimTime,
    StorageDevice, ZoneId, SLICE_BYTES,
};

use crate::fingerprint::Fingerprint;
use crate::trace::{calibrate, Harness, SpanName, SpanRecord, Timed, Tracer};

const KIB: u64 = 1024;
const MIB: u64 = 1024 * KIB;
/// Zone size of the paper configuration (asserted against the device).
const ZONE: u64 = 16 * MIB;
/// Sequential request size of workloads 1, 4 and 6 and of every prefill.
const SEQ_BLOCK: u64 = 512 * KIB;
/// Zones the random readers address (128 MiB).
const READ_ZONES: u64 = 8;
/// Zones `seqread-512k` addresses (1 GiB).
const SEQREAD_ZONES: u64 = 64;
/// Request size of the `writer` tenant.
const WRITER_BLOCK: u64 = 64 * KIB;
/// Sink capacities of the `-obs` workload, drained every round: a
/// full-scale round emits ~34 K events and ~5.5 K spans.
const RING_CAPACITY: usize = 1 << 17;
const SPAN_CAPACITY: usize = 1 << 17;

/// The seven workloads of `BENCHMARK.json`, in its order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    SeqWrite,
    RandReadZoneMap,
    RandReadPageMap,
    SeqRead,
    QdMixed,
    SeqWriteObs,
    CliFigures,
}

impl Workload {
    pub const ALL: [Workload; 7] = [
        Workload::SeqWrite,
        Workload::RandReadZoneMap,
        Workload::RandReadPageMap,
        Workload::SeqRead,
        Workload::QdMixed,
        Workload::SeqWriteObs,
        Workload::CliFigures,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::SeqWrite => "seqwrite-512k-4t",
            Workload::RandReadZoneMap => "randread-4k-zonemap",
            Workload::RandReadPageMap => "randread-4k-pagemap",
            Workload::SeqRead => "seqread-512k",
            Workload::QdMixed => "qd8-mixed-2t",
            Workload::SeqWriteObs => "seqwrite-512k-4t-obs",
            Workload::CliFigures => "cli-figures",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Rounds per rep and host requests per round. `smoke` divides both by
    /// fifty (keeping at least two rounds and whole thread shares).
    pub fn scale(self, smoke: bool) -> Scale {
        let full = match self {
            Workload::SeqWrite | Workload::SeqWriteObs => Scale::new(75, 2048, 0),
            Workload::RandReadZoneMap => Scale::new(8, 1_000_000, 0),
            // Half the round of the zone-mapped twin: a miss costs twice a
            // hit, and a window of the same ~1 s length lets as many reps
            // fit into a run.
            Workload::RandReadPageMap => Scale::new(8, 500_000, 0),
            Workload::SeqRead => Scale::new(8, 25_000, 0),
            Workload::QdMixed => Scale::new(120, 32_768, 2048),
            Workload::CliFigures => Scale::new(1, crate::cli_figures::SUITE_LEN, 0),
        };
        if !smoke {
            return full;
        }
        match self {
            Workload::CliFigures => Scale::new(1, crate::cli_figures::SMOKE_SUITE_LEN, 0),
            _ => Scale::new(
                (full.rounds / 50).max(2),
                full.ops / 50 / 4 * 4,
                full.writer_ops / 50,
            ),
        }
    }
}

/// Size of one rep.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scale {
    pub rounds: u32,
    /// Requests per round of the (first) stream.
    pub ops: u64,
    /// Requests per round of the `writer` tenant (`qd8-mixed-2t` only).
    pub writer_ops: u64,
}

impl Scale {
    const fn new(rounds: u32, ops: u64, writer_ops: u64) -> Scale {
        Scale {
            rounds,
            ops,
            writer_ops,
        }
    }

    /// Warm-up rounds run during set-up: a tenth of the window.
    pub fn warmup_rounds(&self) -> u32 {
        self.rounds.div_ceil(10)
    }

    pub fn requested_ops(&self) -> u64 {
        u64::from(self.rounds) * (self.ops + self.writer_ops)
    }
}

/// The paper's §IV-A device: 96 × 16 MiB zones, 2 × 384 KiB write buffers,
/// 12 KiB L2P cache, bitmap search, no faults, no data backing.
pub fn paper_device(max_aggregation: MapGranularity) -> ConZone {
    let cfg = DeviceConfig::builder(Geometry::consumer_1p5gb())
        .max_aggregation(max_aggregation)
        .search_strategy(SearchStrategy::Bitmap)
        .build()
        .expect("the paper configuration is valid");
    assert_eq!(cfg.zone_size_bytes(), ZONE, "paper zones are 16 MiB");
    ConZone::new(cfg)
}

/// Per-round seed derived from the one `--seed` (splitmix64 finaliser, so
/// neighbouring rounds get unrelated random streams).
fn round_seed(seed: u64, round: u32) -> u64 {
    let mut z = seed.wrapping_add(u64::from(round).wrapping_mul(0x9e37_79b9_7f4a_7c15));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The `-obs` workload's instruments: an event ring behind the device
/// probe and a span buffer behind the device's span recorder.
struct Sinks {
    ring: Arc<RingBufferSink>,
    spans: Arc<SpanBuffer>,
    /// Records each sink had been offered at the previous drain.
    ring_seen: u64,
    spans_seen: u64,
}

impl Sinks {
    fn attach(dev: &mut ConZone) -> Sinks {
        let ring = Arc::new(RingBufferSink::with_capacity(RING_CAPACITY));
        let spans = Arc::new(SpanBuffer::with_capacity(SPAN_CAPACITY));
        dev.set_probe(Probe::attached(ring.clone()));
        dev.set_span_sink(spans.clone());
        Sinks {
            ring,
            spans,
            ring_seen: 0,
            spans_seen: 0,
        }
    }

    /// Drains both sinks and counts what did not survive until the drain.
    /// The ring's drain is a copy of the newest `RING_CAPACITY` events, so
    /// it lost something only if more than that arrived since the last
    /// drain; the span buffer is emptied and refuses what does not fit.
    fn drain(&mut self, log: &mut RoundLog) {
        let events = self.ring.drain();
        let spans = self.spans.drain();
        let emitted = self.ring.recorded() - self.ring_seen;
        self.ring_seen += emitted;
        let offered = self.spans.recorded() - self.spans_seen;
        self.spans_seen += offered;
        log.events += emitted;
        log.spans += offered;
        log.sink_dropped += emitted.saturating_sub(events.len() as u64)
            + offered.saturating_sub(spans.len() as u64);
        black_box((events, spans));
    }
}

/// What the rounds of one window add up to.
#[derive(Default)]
struct RoundLog {
    ops: u64,
    bytes: u64,
    lat_p50_ns: Vec<f64>,
    lat_p99_ns: Vec<f64>,
    wait_p99_ns: Vec<f64>,
    events: u64,
    spans: u64,
    sink_dropped: u64,
    inconsistent_tenants: u64,
    fp: Fingerprint,
}

impl RoundLog {
    fn job(&mut self, r: &JobReport) {
        self.ops += r.ops;
        self.bytes += r.bytes;
        self.lat_p50_ns.push(r.latency.p50.as_nanos() as f64);
        self.lat_p99_ns.push(r.latency.p99.as_nanos() as f64);
        let fp = &mut self.fp;
        fp.u64(r.finished.as_nanos());
        fp.u64(r.ops);
        fp.u64(r.bytes);
        fp.latency(&r.latency);
        fp.latency(&r.read_latency);
        fp.latency(&r.write_latency);
    }

    fn tenants(&mut self, m: &MultiReport) {
        self.ops += m.ops;
        self.bytes += m.bytes;
        self.lat_p50_ns.push(m.latency.p50.as_nanos() as f64);
        self.lat_p99_ns.push(m.latency.p99.as_nanos() as f64);
        if !m.tenants_sum_consistent() {
            self.inconsistent_tenants += 1;
        }
        let wait = m.tenants.iter().map(|t| t.queue_wait.p99).max();
        self.wait_p99_ns
            .push(wait.unwrap_or(SimDuration::ZERO).as_nanos() as f64);
        let fp = &mut self.fp;
        fp.u64(m.finished.as_nanos());
        fp.u64(m.ops);
        fp.u64(m.bytes);
        fp.latency(&m.latency);
        for t in &m.tenants {
            fp.u64(t.ops);
            fp.latency(&t.latency);
            fp.latency(&t.queue_wait);
            fp.counters(&t.counters);
        }
    }
}

/// A single-thread sequential fill of zones `[0, zones)`.
fn prefill(dev: &mut ConZone, zones: u64) -> Result<SimTime, String> {
    let job = FioJob::new(AccessPattern::SeqWrite, SEQ_BLOCK)
        .zone_bytes(ZONE)
        .region(0, zones * ZONE)
        .bytes_per_thread(zones * ZONE);
    Ok(run_job(dev, &job).map_err(|e| e.to_string())?.finished)
}

fn reset_zones<H: Harness>(
    dev: &mut H,
    mut t: SimTime,
    zones: std::ops::Range<u64>,
) -> Result<SimTime, String> {
    for z in zones {
        t = dev
            .reset_zone(t, ZoneId(z))
            .map_err(|e| format!("reset of zone {z}: {e}"))?
            .finished;
    }
    Ok(t)
}

fn randread(ops: u64, seed: u64, t: SimTime) -> FioJob {
    FioJob::new(AccessPattern::RandRead, SLICE_BYTES)
        .region(0, READ_ZONES * ZONE)
        .ops_per_thread(ops)
        .bytes_per_thread(u64::MAX)
        .seed(seed)
        .start_at(t)
}

/// What every round of a rep shares.
#[derive(Debug, Clone, Copy)]
struct Plan {
    workload: Workload,
    scale: Scale,
    seed: u64,
}

/// Runs round number `index` (warm-up rounds count too, so no two rounds of
/// a rep share a random stream) starting at simulated time `t`, and
/// returns the simulated time it ends.
fn run_round<H: Harness>(
    plan: &Plan,
    dev: &mut H,
    sinks: Option<&mut Sinks>,
    index: u32,
    t: SimTime,
    log: &mut RoundLog,
) -> Result<SimTime, String> {
    let Plan {
        workload,
        scale,
        seed,
    } = *plan;
    let traced_job = |dev: &mut H, job: &FioJob, sampled: bool| {
        dev.enter(SpanName::RunJob);
        let r = if sampled {
            run_job_sampled(dev, job, SimDuration::from_millis(1))
        } else {
            run_job(dev, job)
        };
        dev.exit();
        r.map_err(|e| e.to_string())
    };
    match workload {
        Workload::SeqWrite | Workload::SeqWriteObs => {
            const THREADS: u64 = 4;
            let per_thread = scale.ops / THREADS;
            let zones = THREADS * (per_thread * SEQ_BLOCK).div_ceil(ZONE);
            let job = FioJob::new(AccessPattern::SeqWrite, SEQ_BLOCK)
                .threads(THREADS as usize)
                .zone_bytes(ZONE)
                .region(0, zones * ZONE)
                .bytes_per_thread(per_thread * SEQ_BLOCK)
                .start_at(t);
            let r = traced_job(dev, &job, sinks.is_some())?;
            log.job(&r);
            let t = reset_zones(dev, r.finished, 0..zones)?;
            if let Some(s) = sinks {
                dev.enter(SpanName::Drain);
                s.drain(log);
                dev.exit();
            }
            Ok(t)
        }
        Workload::RandReadZoneMap | Workload::RandReadPageMap => {
            let job = randread(scale.ops, round_seed(seed, index), t);
            let r = traced_job(dev, &job, false)?;
            log.job(&r);
            Ok(r.finished)
        }
        Workload::SeqRead => {
            let job = FioJob::new(AccessPattern::SeqRead, SEQ_BLOCK)
                .region(0, SEQREAD_ZONES * ZONE)
                .ops_per_thread(scale.ops)
                .bytes_per_thread(u64::MAX)
                .start_at(t);
            let r = traced_job(dev, &job, false)?;
            log.job(&r);
            Ok(r.finished)
        }
        Workload::QdMixed => {
            let reader = randread(scale.ops, round_seed(seed, index), t).queue_depth(8);
            let writer_zones = (scale.writer_ops * WRITER_BLOCK).div_ceil(ZONE);
            let writer = FioJob::new(AccessPattern::SeqWrite, WRITER_BLOCK)
                .zone_bytes(ZONE)
                .region(READ_ZONES * ZONE, writer_zones * ZONE)
                .bytes_per_thread(scale.writer_ops * WRITER_BLOCK)
                .fsync_every(8)
                .start_at(t);
            let specs = [
                TenantSpec::new("reader", reader),
                TenantSpec::new("writer", writer),
            ];
            let opts = QdOptions {
                fetch_cost: SimDuration::from_nanos(500),
                ..QdOptions::default()
            };
            dev.enter(SpanName::RunTenants);
            let m = run_tenants(dev, &specs, &opts);
            dev.exit();
            let m = m.map_err(|e| e.to_string())?;
            log.tenants(&m);
            reset_zones(dev, m.finished, READ_ZONES..READ_ZONES + writer_zones)
        }
        Workload::CliFigures => Err("cli-figures does not run in process".to_string()),
    }
}

/// Set-up of one rep: construct the device, prefill what the workload
/// reads, attach the instruments, run the warm-up rounds.
fn set_up(plan: &Plan) -> Result<(ConZone, Option<Sinks>, SimTime), String> {
    let workload = plan.workload;
    let mut dev = paper_device(match workload {
        Workload::RandReadPageMap => MapGranularity::Page,
        _ => MapGranularity::Zone,
    });
    let mut t = match workload {
        Workload::RandReadZoneMap | Workload::RandReadPageMap | Workload::QdMixed => {
            prefill(&mut dev, READ_ZONES)?
        }
        Workload::SeqRead => prefill(&mut dev, SEQREAD_ZONES)?,
        _ => SimTime::ZERO,
    };
    let mut sinks = (workload == Workload::SeqWriteObs).then(|| Sinks::attach(&mut dev));
    let mut discard = RoundLog::default();
    for index in 0..plan.scale.warmup_rounds() {
        t = run_round(plan, &mut dev, sinks.as_mut(), index, t, &mut discard)?;
    }
    Ok((dev, sinks, t))
}

/// The timed window: `scale.rounds` rounds, each timed on its own.
struct Window {
    wall_ns: u64,
    round_ns: Vec<u64>,
    sim_ns: u64,
    log: RoundLog,
    error: Option<String>,
}

fn run_window<H: Harness>(
    plan: &Plan,
    dev: &mut H,
    mut sinks: Option<&mut Sinks>,
    start: SimTime,
) -> Window {
    let scale = plan.scale;
    let mut log = RoundLog::default();
    let mut round_ns = Vec::with_capacity(scale.rounds as usize);
    let mut error = None;
    let mut t = start;
    let first = scale.warmup_rounds();
    let t0 = Instant::now();
    for round in 0..scale.rounds {
        dev.begin_round(round);
        let r0 = Instant::now();
        let index = first + round;
        match run_round(plan, dev, sinks.as_deref_mut(), index, t, &mut log) {
            Ok(end) => t = end,
            Err(e) => {
                error = Some(format!("round {round}: {e}"));
                break;
            }
        }
        round_ns.push(r0.elapsed().as_nanos() as u64);
    }
    let wall_ns = t0.elapsed().as_nanos() as u64;
    log.fp.u64(t.as_nanos());
    Window {
        wall_ns,
        round_ns,
        sim_ns: (t - start).as_nanos(),
        log,
        error,
    }
}

fn span_json(tracer: &Tracer) -> Json {
    Json::Obj(
        SpanName::ALL
            .iter()
            .map(|&n| (n.name().to_string(), tracer.agg(n).json()))
            .collect(),
    )
}

/// Runs one rep of an in-process workload and returns what the parent
/// needs as JSON, plus — when `traced` — the recorded spans. `traced`
/// wraps the device in [`Timed`] for the window; set-up always runs on the
/// bare device, so spans cover the window only.
pub fn run_rep(
    workload: Workload,
    seed: u64,
    smoke: bool,
    traced: bool,
) -> Result<(Json, Vec<SpanRecord>), String> {
    let scale = workload.scale(smoke);
    let plan = Plan {
        workload,
        scale,
        seed,
    };
    let timer = traced.then(calibrate);

    let s0 = Instant::now();
    let (mut dev, mut sinks, start) = set_up(&plan)?;
    let setup_s = s0.elapsed().as_secs_f64();

    let before = dev.counters();
    let breakdown_before = dev.time_breakdown();
    let (window, dev, tracer) = if traced {
        let mut timed = Timed::new(dev);
        let w = run_window(&plan, &mut timed, sinks.as_mut(), start);
        let (dev, tracer) = timed.into_parts();
        (w, dev, Some(tracer))
    } else {
        let w = run_window(&plan, &mut dev, sinks.as_mut(), start);
        (w, dev, None)
    };
    let delta = dev.counters().since(&before);
    let breakdown = dev.time_breakdown();

    let mut log = window.log;
    log.fp.counters(&delta);
    let requested = scale.requested_ops();
    let mut problems = Vec::new();
    if let Some(e) = window.error {
        problems.push(e);
    }
    if log.ops != requested {
        problems.push(format!("completed {} of {requested} ops", log.ops));
    }
    if delta.host_read_ops + delta.host_write_ops != log.ops {
        problems.push(format!(
            "device counted {} host ops, the reports {}",
            delta.host_read_ops + delta.host_write_ops,
            log.ops
        ));
    }
    if delta.host_read_bytes + delta.host_write_bytes != log.bytes {
        problems.push(format!(
            "device counted {} host bytes, the reports {}",
            delta.host_read_bytes + delta.host_write_bytes,
            log.bytes
        ));
    }
    if log.inconsistent_tenants > 0 {
        problems.push(format!(
            "{} rounds with per-tenant counters not summing to the device's",
            log.inconsistent_tenants
        ));
    }
    if log.sink_dropped > 0 {
        problems.push(format!("sinks dropped {} records", log.sink_dropped));
    }

    let breakdown_json = Json::Obj(
        breakdown
            .categories()
            .iter()
            .zip(breakdown_before.categories())
            .map(|((name, now), (_, then))| (name.to_string(), Json::U64((*now - then).as_nanos())))
            .collect(),
    );
    let nums = |v: &[f64]| Json::Arr(v.iter().map(|&x| Json::F64(x)).collect());
    let mut fields = vec![
        ("requested", Json::U64(requested)),
        ("completed", Json::U64(log.ops)),
        ("bytes", Json::U64(log.bytes)),
        (
            "problems",
            Json::Arr(problems.into_iter().map(Json::from).collect()),
        ),
        ("setup_s", Json::F64(setup_s)),
        ("window_s", Json::F64(window.wall_ns as f64 / 1e9)),
        (
            "round_ns",
            Json::Arr(window.round_ns.iter().map(|&n| Json::U64(n)).collect()),
        ),
        ("peak_rss_kib", Json::U64(crate::peak_rss_kib())),
        (
            "fingerprint",
            Json::from(format!("{:016x}", log.fp.value())),
        ),
        ("sim_ns", Json::U64(window.sim_ns)),
        ("lat_p50_ns", nums(&log.lat_p50_ns)),
        ("lat_p99_ns", nums(&log.lat_p99_ns)),
        ("wait_p99_ns", nums(&log.wait_p99_ns)),
        ("counters", export::counters_json(&delta)),
        ("breakdown_ns", breakdown_json),
        ("events", Json::U64(log.events)),
        ("sim_spans", Json::U64(log.spans)),
        ("sink_dropped", Json::U64(log.sink_dropped)),
    ];
    let mut records = Vec::new();
    if let (Some(tracer), Some(timer)) = (&tracer, &timer) {
        fields.push(("spans", span_json(tracer)));
        fields.push(("timer_ns", Json::F64(timer.total_ns)));
        fields.push(("timer_inside_ns", Json::F64(timer.inside_ns)));
        records = tracer.records().to_vec();
    }
    Ok((Json::obj(fields), records))
}
