//! The `conzone` command-line tool: run workloads, replay traces and
//! inspect device configurations without writing Rust.
//!
//! ```text
//! conzone info  [--config paper|tiny]
//! conzone run   [--device conzone|legacy|femu] [--pattern seqwrite|seqread|randread|randwrite]
//!               [--bs 512k] [--threads 4] [--size 256m] [--region 1g]
//!               [--strategy bitmap|multiple|pinned] [--aggregation page|chunk|zone]
//!               [--cache 12k] [--buffers 2] [--seed N]
//!               [--qd 8] [--tenants 2] [--tenant-weights 3,1] [--arbiter rr|wrr]
//! conzone scenario <qd-sweep|interference|mixed|flash-cache>
//! conzone replay <trace-file> [--device ...] [--open-loop]
//! conzone gen-trace [--bursts 8] [--burst-bytes 8m] [--reads 5000] [--out trace.txt]
//! ```

use std::process::ExitCode;
use std::sync::Arc;

use conzone::host::{
    parse_fio_jobs, power_cycle_and_verify, replay_trace, run_job, run_job_sampled, run_job_until,
    run_tenants, AccessPattern, FioJob, JobReport, MobileTraceBuilder, MultiReport, QdOptions,
    TenantReport, TenantSpec, Trace, WorkloadPreset,
};
use conzone::sim::json::Json;
use conzone::sim::{
    attribute_spans, breakdown_from_spans, export, MetricsSample, RingBufferSink, SpanBuffer,
};
use conzone::types::{
    DeviceConfig, FaultConfig, Geometry, MapGranularity, Probe, SearchStrategy, SimDuration,
    SimTime, SpanRecord, SpanSink, StorageDevice, ZoneId, ZonedDevice,
};
use conzone::{ArbiterKind, ConZone, FemuZns, LegacyDevice};

/// Parses "4k", "512K", "16m", "1g" or plain bytes.
fn parse_size(s: &str) -> Result<u64, String> {
    let s = s.trim();
    let (digits, mult) = match s.chars().last() {
        Some('k') | Some('K') => (&s[..s.len() - 1], 1024u64),
        Some('m') | Some('M') => (&s[..s.len() - 1], 1024 * 1024),
        Some('g') | Some('G') => (&s[..s.len() - 1], 1024 * 1024 * 1024),
        _ => (s, 1),
    };
    digits
        .parse::<u64>()
        .map(|v| v * mult)
        .map_err(|e| format!("bad size '{s}': {e}"))
}

/// Parses "100ms", "1s", "50us", "7500ns" or plain nanoseconds.
fn parse_duration(s: &str) -> Result<SimDuration, String> {
    let s = s.trim();
    let (digits, unit) = match s {
        _ if s.ends_with("ns") => (&s[..s.len() - 2], 1u64),
        _ if s.ends_with("us") => (&s[..s.len() - 2], 1_000),
        _ if s.ends_with("ms") => (&s[..s.len() - 2], 1_000_000),
        _ if s.ends_with('s') => (&s[..s.len() - 1], 1_000_000_000),
        _ => (s, 1),
    };
    let v: u64 = digits
        .trim()
        .parse()
        .map_err(|e| format!("bad duration '{s}': {e}"))?;
    if v == 0 {
        return Err(format!("bad duration '{s}': must be > 0"));
    }
    Ok(SimDuration::from_nanos(v * unit))
}

/// NVMe addresses queues and queue entries with 16-bit fields: at most
/// 65 535 I/O queues of at most 65 535 entries each.
const NVME_QUEUE_LIMIT: u64 = 65_535;

/// Minimal flag parser: `--key value` pairs plus positional arguments.
#[derive(Debug, Default, Clone)]
struct Args {
    positional: Vec<String>,
    flags: Vec<(String, String)>,
    switches: Vec<String>,
}

impl Args {
    fn parse(argv: &[String]) -> Result<Args, String> {
        let mut args = Args::default();
        let mut it = argv.iter().peekable();
        while let Some(a) = it.next() {
            if let Some(key) = a.strip_prefix("--") {
                match it.peek() {
                    Some(v) if !v.starts_with("--") => {
                        args.flags
                            .push((key.to_string(), it.next().unwrap().clone()));
                    }
                    _ => args.switches.push(key.to_string()),
                }
            } else {
                args.positional.push(a.clone());
            }
        }
        Ok(args)
    }

    fn get(&self, key: &str) -> Option<&str> {
        self.flags
            .iter()
            .rev()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    fn has(&self, key: &str) -> bool {
        self.switches.iter().any(|s| s == key)
    }

    fn size(&self, key: &str, default: u64) -> Result<u64, String> {
        match self.get(key) {
            Some(v) => parse_size(v),
            None => Ok(default),
        }
    }

    fn num(&self, key: &str, default: u64) -> Result<u64, String> {
        match self.get(key) {
            Some(v) => v.parse().map_err(|e| format!("bad --{key}: {e}")),
            None => Ok(default),
        }
    }

    /// `--qd`, `--tenants` and `--threads` (a thread is one submitter):
    /// bounded here, before anything is sized by them (the slot slab and
    /// the per-tenant and per-thread tables are allocated up front).
    fn queue_count(&self, key: &str, default: u64) -> Result<usize, String> {
        let v = self.num(key, default)?;
        if v > NVME_QUEUE_LIMIT {
            return Err(format!(
                "bad --{key}: {v} exceeds the NVMe limit of {NVME_QUEUE_LIMIT}"
            ));
        }
        Ok(v as usize)
    }
}

fn build_config(args: &Args) -> Result<DeviceConfig, String> {
    let geometry = match args.get("config").unwrap_or("paper") {
        "paper" => Geometry::consumer_1p5gb(),
        "tiny" => Geometry::tiny(),
        other => return Err(format!("unknown --config '{other}' (paper|tiny)")),
    };
    let strategy = match args.get("strategy").unwrap_or("bitmap") {
        "bitmap" => SearchStrategy::Bitmap,
        "multiple" => SearchStrategy::Multiple,
        "pinned" => SearchStrategy::Pinned,
        other => return Err(format!("unknown --strategy '{other}'")),
    };
    let aggregation = match args.get("aggregation").unwrap_or("zone") {
        "page" => MapGranularity::Page,
        "chunk" => MapGranularity::Chunk,
        "zone" => MapGranularity::Zone,
        other => return Err(format!("unknown --aggregation '{other}'")),
    };
    let mut builder = DeviceConfig::builder(geometry)
        .search_strategy(strategy)
        .max_aggregation(aggregation)
        .l2p_cache_bytes(args.size("cache", 12 * 1024)?)
        .write_buffers(args.num("buffers", 2)? as usize)
        .seed(args.num("seed", 0x5eed_c0de)?);
    if args.get("config") == Some("tiny") {
        builder = builder.chunk_bytes(256 * 1024);
    }
    if let Some(v) = args.get("l2p-log") {
        builder = builder.l2p_log_entries(parse_size(v)?);
    }
    if let Some(v) = args.get("conventional") {
        builder =
            builder.conventional_zones(v.parse().map_err(|e| format!("bad --conventional: {e}"))?);
    }
    if let Some(fault) = parse_fault(args)? {
        builder = builder.fault(fault);
    }
    builder.build().map_err(|e| e.to_string())
}

/// Builds the fault-plane configuration from `--fault-rates P,E,R`
/// (program-fail, erase-fail, read-retry probabilities) and
/// `--fault-seed N`. Returns `None` when neither flag is present, so the
/// default zero-rate plane (bit-identical to a fault-free build) is kept.
fn parse_fault(args: &Args) -> Result<Option<FaultConfig>, String> {
    let rates = args.get("fault-rates");
    let seed = args.get("fault-seed");
    if rates.is_none() && seed.is_none() {
        return Ok(None);
    }
    let mut fault = match rates {
        Some(v) => {
            let parts: Vec<&str> = v.split(',').map(str::trim).collect();
            if parts.len() != 3 {
                return Err(format!(
                    "bad --fault-rates '{v}': expected program,erase,read-retry"
                ));
            }
            let mut p = [0.0f64; 3];
            for (slot, part) in p.iter_mut().zip(&parts) {
                *slot = part
                    .parse()
                    .map_err(|e| format!("bad --fault-rates '{v}': {e}"))?;
            }
            FaultConfig::with_rates(p[0], p[1], p[2])
        }
        None => FaultConfig::default(),
    };
    if let Some(v) = seed {
        fault.seed = v.parse().map_err(|e| format!("bad --fault-seed: {e}"))?;
    }
    Ok(Some(fault))
}

/// Parses `--pattern` (shared by the synchronous and queue-pair run paths).
fn parse_pattern(args: &Args) -> Result<AccessPattern, String> {
    match args.get("pattern").unwrap_or("seqwrite") {
        "seqwrite" => Ok(AccessPattern::SeqWrite),
        "seqread" => Ok(AccessPattern::SeqRead),
        "randread" => Ok(AccessPattern::RandRead),
        "randwrite" => Ok(AccessPattern::RandWrite),
        other => match other.strip_prefix("mixed") {
            // e.g. --pattern mixed70 = 70 % reads (fio rwmixread=70).
            Some(pct) => Ok(AccessPattern::Mixed {
                read_percent: pct
                    .parse::<u8>()
                    .ok()
                    .filter(|p| *p <= 100)
                    .ok_or_else(|| format!("bad mixed percentage in '{other}'"))?,
            }),
            None => Err(format!("unknown --pattern '{other}'")),
        },
    }
}

/// Parses `--arbiter rr|wrr` into the queue front-end policy.
fn parse_arbiter(args: &Args) -> Result<ArbiterKind, String> {
    match args.get("arbiter").unwrap_or("rr") {
        "rr" | "round-robin" => Ok(ArbiterKind::RoundRobin),
        "wrr" | "weighted" => Ok(ArbiterKind::Weighted),
        other => Err(format!("unknown --arbiter '{other}' (rr|wrr)")),
    }
}

/// Parses `--tenant-weights 3,1` into exactly one weight per tenant;
/// every tenant weighs 1 when the flag is absent.
fn parse_tenant_weights(args: &Args, tenants: usize) -> Result<Vec<u32>, String> {
    let Some(v) = args.get("tenant-weights") else {
        return Ok(vec![1; tenants]);
    };
    let weights = v
        .split(',')
        .map(|p| p.trim().parse::<u32>())
        .collect::<Result<Vec<u32>, _>>()
        .map_err(|e| format!("bad --tenant-weights '{v}': {e}"))?;
    if weights.len() != tenants {
        return Err(format!(
            "--tenant-weights lists {} weights for {tenants} tenants",
            weights.len()
        ));
    }
    Ok(weights)
}

/// `--fetch-cost 25us`, defaulting to a transparent (zero-cost) fetch
/// stage when absent.
fn parse_fetch_cost(args: &Args) -> Result<SimDuration, String> {
    match args.get("fetch-cost") {
        Some(v) => parse_duration(v),
        None => Ok(SimDuration::ZERO),
    }
}

fn cmd_info(args: &Args) -> Result<(), String> {
    let cfg = build_config(args)?;
    let g = &cfg.geometry;
    println!(
        "geometry : {} ch x {} chips, {} blocks/chip ({} SLC), {} pages/block",
        g.channels,
        g.chips_per_channel,
        g.blocks_per_chip,
        g.slc_blocks_per_chip,
        g.pages_per_block
    );
    println!(
        "media    : {} normal region, {} mapping media, {} MiB/s per channel",
        cfg.normal_cell,
        cfg.mapping_media,
        cfg.channel_bytes_per_sec >> 20
    );
    println!(
        "zones    : {} x {} MiB (backing {} MiB, patch {} KiB)",
        cfg.zone_count(),
        cfg.zone_size_bytes() >> 20,
        cfg.zone_backing_bytes() >> 20,
        cfg.zone_patch_slices() * 4
    );
    println!(
        "buffers  : {} x {} KiB superpage write buffers",
        cfg.write_buffers,
        g.superpage_bytes() >> 10
    );
    println!(
        "l2p      : {} entry cache ({} KiB), {} strategy, {} max aggregation",
        cfg.l2p_cache_entries(),
        cfg.l2p_cache_bytes >> 10,
        cfg.search_strategy,
        cfg.max_aggregation
    );
    println!("capacity : {} MiB logical", cfg.capacity_bytes() >> 20);
    if cfg.conventional_zones > 0 {
        println!("conv     : {} conventional zones", cfg.conventional_zones);
    }
    if cfg.l2p_log_entries > 0 {
        println!("l2p log  : flush every {} updates", cfg.l2p_log_entries);
    }
    Ok(())
}

/// Observability options of the `run` command: where to put the event
/// trace, the interval metrics and whether to emit machine-readable stats.
struct ObsOpts {
    trace_out: Option<String>,
    span_out: Option<String>,
    metrics_out: Option<String>,
    metrics_interval: SimDuration,
    stats_json: bool,
    heatmap: bool,
}

impl ObsOpts {
    fn from_args(args: &Args) -> Result<ObsOpts, String> {
        Ok(ObsOpts {
            trace_out: args.get("trace-out").map(str::to_string),
            span_out: args.get("span-out").map(str::to_string),
            metrics_out: args.get("metrics-out").map(str::to_string),
            metrics_interval: match args.get("metrics-interval") {
                Some(v) => parse_duration(v)?,
                None => SimDuration::from_millis(100),
            },
            stats_json: args.has("stats-json"),
            heatmap: args.has("heatmap"),
        })
    }

    /// The event sink to attach to the device, when tracing was requested.
    fn make_sink(&self) -> Option<Arc<RingBufferSink>> {
        self.trace_out
            .as_ref()
            .map(|_| Arc::new(RingBufferSink::new()))
    }

    /// The span sink to attach to the device, when `--span-out` was given
    /// (1 Mi spans, ~60 MiB worst case — excess spans are counted, not
    /// kept).
    fn make_span_sink(&self) -> Option<Arc<SpanBuffer>> {
        self.span_out
            .as_ref()
            .map(|_| Arc::new(SpanBuffer::with_capacity(1 << 20)))
    }
}

/// Runs the measured job, collecting interval metrics when requested.
fn run_measured<D: StorageDevice + ?Sized>(
    dev: &mut D,
    job: &FioJob,
    obs: &ObsOpts,
) -> Result<JobReport, String> {
    if obs.metrics_out.is_some() {
        run_job_sampled(dev, job, obs.metrics_interval).map_err(|e| e.to_string())
    } else {
        run_job(dev, job).map_err(|e| e.to_string())
    }
}

/// Writes the Chrome trace-event file (loadable in Perfetto / about:tracing),
/// the span dump and the metrics JSONL, as requested. Span files ending in
/// `.jsonl` get one span per line; any other extension gets a nested Chrome
/// trace. Drops in either ring are surfaced loudly: a truncated dump that
/// looks complete is worse than no dump.
fn write_observability(
    obs: &ObsOpts,
    sink: Option<&RingBufferSink>,
    spans_dropped: Option<u64>,
    span_records: &[SpanRecord],
    samples: &[MetricsSample],
) -> Result<(), String> {
    if let (Some(path), Some(sink)) = (&obs.trace_out, sink) {
        let records = sink.drain();
        std::fs::write(path, export::chrome_trace(&records).to_string())
            .map_err(|e| format!("{path}: {e}"))?;
        eprintln!(
            "trace    : {} events to {path} ({} dropped)",
            records.len(),
            sink.dropped()
        );
        if sink.dropped() > 0 {
            eprintln!(
                "warning  : the event ring dropped {} records — the trace is \
                 truncated; trace a shorter phase",
                sink.dropped()
            );
        }
    }
    if let (Some(path), Some(dropped)) = (&obs.span_out, spans_dropped) {
        let text = if path.ends_with(".jsonl") {
            export::span_jsonl(span_records)
        } else {
            export::span_chrome_trace(span_records).to_string()
        };
        std::fs::write(path, text).map_err(|e| format!("{path}: {e}"))?;
        eprintln!(
            "spans    : {} spans to {path} ({dropped} dropped)",
            span_records.len()
        );
        if dropped > 0 {
            eprintln!(
                "warning  : the span buffer dropped {dropped} spans — attribution \
                 and the dump are truncated; profile a shorter phase"
            );
        }
    }
    if let Some(path) = &obs.metrics_out {
        std::fs::write(path, export::metrics_jsonl(samples)).map_err(|e| format!("{path}: {e}"))?;
        eprintln!("metrics  : {} intervals to {path}", samples.len());
    }
    Ok(())
}

/// The `trace` member of a stats object: how many events the ring sink
/// accepted and how many it had to drop.
fn trace_counts_json(sink: &RingBufferSink) -> Json {
    Json::obj([
        ("recorded", Json::U64(sink.recorded())),
        ("dropped", Json::U64(sink.dropped())),
    ])
}

/// The `spans` member of a stats object: per-kind counts and inclusive /
/// self sim-time, plus the self-time rollup per breakdown category (which
/// reconciles with `breakdown_ns` — see `tests/observability.rs`).
fn span_stats_json(recorded: u64, dropped: u64, records: &[SpanRecord]) -> Json {
    let per_kind = Json::Obj(
        attribute_spans(records)
            .iter()
            .filter(|a| a.count > 0)
            .map(|a| {
                (
                    a.kind.name().to_string(),
                    Json::obj([
                        ("count", Json::U64(a.count)),
                        ("total_ns", Json::U64(a.total.as_nanos())),
                        ("self_ns", Json::U64(a.self_time.as_nanos())),
                    ]),
                )
            })
            .collect(),
    );
    let breakdown = Json::Obj(
        breakdown_from_spans(records)
            .into_iter()
            .map(|(name, d)| (name.to_string(), Json::U64(d.as_nanos())))
            .collect(),
    );
    Json::obj([
        ("recorded", Json::U64(recorded)),
        ("dropped", Json::U64(dropped)),
        ("per_kind", per_kind),
        ("breakdown_ns", breakdown),
    ])
}

/// The `heatmap` member of a stats object: one row per zone and per
/// physical block, plus the SLC / cache pressure gauges.
fn heatmap_json(snap: &conzone::HeatmapSnapshot) -> Json {
    Json::obj([
        (
            "zones",
            Json::Arr(
                snap.zones
                    .iter()
                    .map(|z| {
                        Json::obj([
                            ("zone", Json::U64(z.zone)),
                            ("state", Json::from(z.state)),
                            ("conventional", Json::Bool(z.conventional)),
                            ("wp_slices", Json::U64(z.wp_slices)),
                            ("flushed_slices", Json::U64(z.flushed_slices)),
                            ("staged_slices", Json::U64(z.staged_slices)),
                            ("mapped_slices", Json::U64(z.mapped_slices)),
                            ("utilization", Json::F64(z.utilization)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "blocks",
            Json::Arr(
                snap.blocks
                    .iter()
                    .map(|b| {
                        Json::obj([
                            ("chip", Json::U64(b.chip)),
                            ("block", Json::U64(b.block)),
                            ("cell", Json::from(b.cell)),
                            ("cursor", Json::U64(b.cursor)),
                            ("valid_slices", Json::U64(b.valid_slices)),
                            ("slices", Json::U64(b.slices)),
                            ("wear", Json::U64(b.wear)),
                        ])
                    })
                    .collect(),
            ),
        ),
        ("l2p_occupancy", Json::F64(snap.l2p_occupancy)),
        ("slc_free_superblocks", Json::U64(snap.slc_free_superblocks)),
        ("slc_used_superblocks", Json::U64(snap.slc_used_superblocks)),
    ])
}

/// One machine-readable blob per job: throughput, counters, latency
/// summaries (whole-job, per-kind and per-thread) and, for ConZone, the
/// time breakdown with category names.
fn stats_json(report: &JobReport, breakdown: Option<&conzone::TimeBreakdown>) -> Json {
    let mut pairs = vec![
        ("model", Json::from(report.model)),
        ("started_ns", Json::U64(report.started.as_nanos())),
        ("finished_ns", Json::U64(report.finished.as_nanos())),
        ("bytes", Json::U64(report.bytes)),
        ("ops", Json::U64(report.ops)),
        ("bandwidth_mibs", Json::F64(report.bandwidth_mibs())),
        ("kiops", Json::F64(report.kiops())),
        ("counters", export::counters_json(&report.counters)),
        ("latency", export::latency_summary_json(&report.latency)),
        (
            "read_latency",
            export::latency_summary_json(&report.read_latency),
        ),
        (
            "write_latency",
            export::latency_summary_json(&report.write_latency),
        ),
        (
            "thread_latency",
            Json::Arr(
                report
                    .thread_latency
                    .iter()
                    .map(export::latency_summary_json)
                    .collect(),
            ),
        ),
    ];
    if let Some(b) = breakdown {
        pairs.push((
            "breakdown_ns",
            Json::obj(
                b.categories()
                    .into_iter()
                    .map(|(name, d)| (name, Json::U64(d.as_nanos()))),
            ),
        ));
    }
    Json::obj(pairs)
}

fn print_report(report: &conzone::host::JobReport) {
    println!(
        "{}: {:.0} MiB/s, {:.1} KIOPS over {}",
        report.model,
        report.bandwidth_mibs(),
        report.kiops(),
        report.duration()
    );
    println!(
        "latency  : mean {} p50 {} p99 {} p99.9 {}",
        report.latency.mean, report.latency.p50, report.latency.p99, report.latency.p999
    );
    let c = &report.counters;
    println!(
        "device   : waf {:.3}, l2p miss {:.1}%, {} conflicts, {} premature, {} gc runs",
        c.write_amplification(),
        c.l2p_miss_rate() * 100.0,
        c.buffer_conflicts,
        c.premature_flushes,
        c.gc_runs
    );
}

/// One tenant's slice of the machine-readable multi-tenant stats.
fn tenant_json(t: &TenantReport) -> Json {
    Json::obj([
        ("name", Json::from(t.name.as_str())),
        ("weight", Json::U64(u64::from(t.weight))),
        ("bytes", Json::U64(t.bytes)),
        ("ops", Json::U64(t.ops)),
        ("finished_ns", Json::U64(t.finished.as_nanos())),
        ("latency", export::latency_summary_json(&t.latency)),
        (
            "read_latency",
            export::latency_summary_json(&t.read_latency),
        ),
        (
            "write_latency",
            export::latency_summary_json(&t.write_latency),
        ),
        ("queue_wait", export::latency_summary_json(&t.queue_wait)),
        ("counters", export::counters_json(&t.counters)),
    ])
}

/// The machine-readable blob of a queue-pair run: aggregate throughput,
/// the conservation check (per-tenant counters must sum to the device
/// totals) and one entry per tenant.
fn multi_stats_json(m: &MultiReport, breakdown: Option<&conzone::TimeBreakdown>) -> Json {
    let mut pairs = vec![
        ("model", Json::from(m.model)),
        ("arbiter", Json::from(m.arbiter)),
        ("started_ns", Json::U64(m.started.as_nanos())),
        ("finished_ns", Json::U64(m.finished.as_nanos())),
        ("bytes", Json::U64(m.bytes)),
        ("ops", Json::U64(m.ops)),
        ("bandwidth_mibs", Json::F64(m.bandwidth_mibs())),
        ("kiops", Json::F64(m.kiops())),
        (
            "tenants_sum_consistent",
            Json::Bool(m.tenants_sum_consistent()),
        ),
        ("latency", export::latency_summary_json(&m.latency)),
        ("counters", export::counters_json(&m.counters)),
        (
            "tenants",
            Json::Arr(m.tenants.iter().map(tenant_json).collect()),
        ),
    ];
    if let Some(b) = breakdown {
        pairs.push((
            "breakdown_ns",
            Json::obj(
                b.categories()
                    .into_iter()
                    .map(|(name, d)| (name, Json::U64(d.as_nanos()))),
            ),
        ));
    }
    Json::obj(pairs)
}

fn print_multi_report(m: &MultiReport) {
    println!(
        "{}: {:.0} MiB/s, {:.1} KIOPS over {} ({} arbiter, {} tenants)",
        m.model,
        m.bandwidth_mibs(),
        m.kiops(),
        m.duration(),
        m.arbiter,
        m.tenants.len()
    );
    println!(
        "latency  : mean {} p50 {} p99 {} p99.9 {}",
        m.latency.mean, m.latency.p50, m.latency.p99, m.latency.p999
    );
    for t in &m.tenants {
        println!(
            "tenant   : {:<10} w{} {:>7} ops {:>8.1} KIOPS mean {} p99 {} wait-p99 {}",
            t.name,
            t.weight,
            t.ops,
            t.kiops_over(m.duration()),
            t.latency.mean,
            t.latency.p99,
            t.queue_wait.p99
        );
    }
    let c = &m.counters;
    println!(
        "device   : waf {:.3}, l2p miss {:.1}%, {} conflicts, {} premature, {} gc runs",
        c.write_amplification(),
        c.l2p_miss_rate() * 100.0,
        c.buffer_conflicts,
        c.premature_flushes,
        c.gc_runs
    );
    if !m.tenants_sum_consistent() {
        println!("warning  : per-tenant counters do not sum to the device totals");
    }
}

/// Builds one closed-loop job per tenant from the shared `run` flags.
/// Sequential-write tenants get disjoint (zone-aligned, on zoned devices)
/// slices of the region so their streams do not race each other's write
/// pointers; read and random-write tenants share the whole region.
fn build_tenant_specs(
    args: &Args,
    pattern: AccessPattern,
    zoned_zone_bytes: Option<u64>,
    qd: usize,
    tenants_n: usize,
) -> Result<Vec<TenantSpec>, String> {
    let bs = args.size("bs", 512 * 1024)?;
    let size = args.size("size", 256 << 20)?;
    let region = args.size("region", size)?;
    let threads = args.queue_count("threads", 1)?;
    let wl_seed = args.num("seed", 7)?;
    let weights = parse_tenant_weights(args, tenants_n)?;
    let per_tenant_bytes = size / tenants_n as u64 / threads.max(1) as u64;
    let mut specs = Vec::with_capacity(tenants_n);
    for (i, &w) in weights.iter().enumerate() {
        // Distinct streams per tenant, reproducible from the one --seed.
        let seed_i = wl_seed ^ ((i as u64 + 1).wrapping_mul(0x517c_c1b7_2722_0a95));
        let mut job = FioJob::new(pattern, bs)
            .threads(threads)
            .queue_depth(qd)
            .seed(seed_i)
            .bytes_per_thread(per_tenant_bytes);
        if pattern == AccessPattern::SeqWrite && tenants_n > 1 {
            let mut share = region / tenants_n as u64;
            if let Some(zb) = zoned_zone_bytes {
                share = (share / zb) * zb;
                if share == 0 {
                    return Err(format!(
                        "--region {region} too small to give {tenants_n} \
                         sequential writers a zone-aligned share"
                    ));
                }
            }
            job = job.region(i as u64 * share, share);
        } else {
            job = job.region(0, region);
        }
        if let Some(zb) = zoned_zone_bytes {
            job = job.zone_bytes(zb);
        }
        specs.push(TenantSpec::new(format!("t{i}"), job).weight(w));
    }
    Ok(specs)
}

/// The `run` path for queue depths above one or multiple tenants: the
/// NVMe-like queue-pair driver with per-queue arbitration at the device
/// boundary.
fn cmd_run_qd(args: &Args, obs: &ObsOpts, qd: usize, tenants_n: usize) -> Result<(), String> {
    if obs.metrics_out.is_some() {
        return Err(
            "--metrics-out is not supported with --qd/--tenants (no interval sampler on \
             the queue-pair path)"
                .to_string(),
        );
    }
    let cfg = build_config(args)?;
    let pattern = parse_pattern(args)?;
    let region = args.size("region", args.size("size", 256 << 20)?)?;
    let arbiter = parse_arbiter(args)?;
    let fetch_cost = parse_fetch_cost(args)?;
    let device = args.get("device").unwrap_or("conzone");
    if (obs.span_out.is_some() || obs.heatmap) && device != "conzone" {
        return Err("--span-out and --heatmap are only supported for --device conzone".to_string());
    }
    let needs_fill = pattern.is_read();
    let sink = obs.make_sink();
    // Host queue spans land in their own buffer; device spans (ConZone
    // only) keep their own. The dump merges both with disjoint ids.
    let host_spans = obs
        .span_out
        .as_ref()
        .map(|_| Arc::new(SpanBuffer::with_capacity(1 << 20)));
    let qd_opts = QdOptions {
        fetch_cost,
        arbiter,
        probe: match &sink {
            Some(s) => Probe::attached(s.clone()),
            None => Probe::disabled(),
        },
        spans: host_spans
            .clone()
            .map(|s| s as Arc<dyn SpanSink + Send + Sync>),
    };
    let mut span_records: Vec<SpanRecord> = Vec::new();
    let mut span_counts: Option<(u64, u64)> = None;
    let mut heatmap: Option<Json> = None;
    let mut breakdown: Option<conzone::TimeBreakdown> = None;
    let report = match device {
        "conzone" => {
            let zone_bytes = cfg.zone_size_bytes();
            let mut specs = build_tenant_specs(args, pattern, Some(zone_bytes), qd, tenants_n)?;
            let mut dev = ConZone::new(cfg);
            let mut start = SimTime::ZERO;
            if needs_fill {
                let fill = FioJob::new(AccessPattern::SeqWrite, 512 * 1024)
                    .zone_bytes(zone_bytes)
                    .region(0, region)
                    .bytes_per_thread(region);
                start = run_job(&mut dev, &fill)
                    .map_err(|e| e.to_string())?
                    .finished;
            }
            for s in &mut specs {
                s.job = s.job.clone().start_at(start);
            }
            if let Some(s) = &sink {
                dev.set_probe(Probe::attached(s.clone()));
            }
            let dev_spans = obs.make_span_sink();
            if let Some(s) = &dev_spans {
                dev.set_span_sink(s.clone());
            }
            let m = run_tenants(&mut dev, &specs, &qd_opts).map_err(|e| e.to_string())?;
            breakdown = Some(dev.time_breakdown());
            if let (Some(db), Some(hb)) = (&dev_spans, &host_spans) {
                span_records = merge_span_dumps(db.drain(), hb.drain());
                span_counts = Some((db.recorded() + hb.recorded(), db.dropped() + hb.dropped()));
            }
            if obs.heatmap {
                heatmap = Some(heatmap_json(&dev.heatmap_snapshot()));
            }
            if !obs.stats_json {
                println!("time     : {}", dev.time_breakdown());
            }
            m
        }
        "legacy" => {
            let mut specs = build_tenant_specs(args, pattern, None, qd, tenants_n)?;
            let mut dev = LegacyDevice::new(cfg);
            let mut start = SimTime::ZERO;
            if needs_fill {
                let fill = FioJob::new(AccessPattern::SeqWrite, 512 * 1024)
                    .region(0, region)
                    .bytes_per_thread(region);
                start = run_job(&mut dev, &fill)
                    .map_err(|e| e.to_string())?
                    .finished;
            }
            for s in &mut specs {
                s.job = s.job.clone().start_at(start);
            }
            if let Some(s) = &sink {
                dev.set_probe(Probe::attached(s.clone()));
            }
            run_tenants(&mut dev, &specs, &qd_opts).map_err(|e| e.to_string())?
        }
        other => {
            return Err(format!(
                "--qd/--tenants support --device conzone|legacy, not '{other}'"
            ))
        }
    };
    if obs.stats_json {
        let mut j = multi_stats_json(&report, breakdown.as_ref());
        if let Json::Obj(pairs) = &mut j {
            if let Some(s) = &sink {
                pairs.push(("trace".to_string(), trace_counts_json(s)));
            }
            if let Some((recorded, dropped)) = span_counts {
                pairs.push((
                    "spans".to_string(),
                    span_stats_json(recorded, dropped, &span_records),
                ));
            }
            if let Some(h) = heatmap.take() {
                pairs.push(("heatmap".to_string(), h));
            }
        }
        println!("{j}");
    } else {
        print_multi_report(&report);
    }
    write_observability(
        obs,
        sink.as_deref(),
        span_counts.map(|(_, dropped)| dropped),
        &span_records,
        &[],
    )?;
    Ok(())
}

/// Concatenates the device and host span dumps into one id space.
/// Span ids are 1-based and dense per recorder, and a parent id is always
/// smaller than its children's, so offsetting the host records by the
/// device maxima preserves both invariants.
fn merge_span_dumps(mut dev: Vec<SpanRecord>, host: Vec<SpanRecord>) -> Vec<SpanRecord> {
    let id_base = dev.iter().map(|r| r.id).max().unwrap_or(0);
    let io_base = dev.iter().map(|r| r.io).max().unwrap_or(0);
    dev.extend(host.into_iter().map(|mut r| {
        r.id += id_base;
        if r.parent != 0 {
            r.parent += id_base;
        }
        r.io += io_base;
        r
    }));
    dev
}

fn cmd_run(args: &Args) -> Result<(), String> {
    let obs = ObsOpts::from_args(args)?;
    let power_cut = match args.get("power-cut-at") {
        Some(v) => Some(parse_duration(v)?),
        None => None,
    };
    // Any queue-pair flag routes to the NVMe-like asynchronous driver.
    let qd = args.queue_count("qd", 1)?;
    let tenants_n = args.queue_count("tenants", 1)?;
    let qd_path = qd > 1
        || tenants_n > 1
        || args.get("arbiter").is_some()
        || args.get("fetch-cost").is_some()
        || args.get("tenant-weights").is_some();
    if qd_path {
        if args.get("job").is_some() {
            return Err("--qd/--tenants are not supported with --job".to_string());
        }
        if power_cut.is_some() {
            return Err("--power-cut-at is not supported with --qd/--tenants".to_string());
        }
        if qd == 0 || tenants_n == 0 {
            return Err("--qd and --tenants must be at least 1".to_string());
        }
        return cmd_run_qd(args, &obs, qd, tenants_n);
    }
    // A fio-style INI job file runs every section in order on one device.
    if let Some(path) = args.get("job") {
        if power_cut.is_some() {
            return Err("--power-cut-at is not supported with --job".to_string());
        }
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        let jobs = parse_fio_jobs(&text).map_err(|e| e.to_string())?;
        let cfg = build_config(args)?;
        let zone_bytes = cfg.zone_size_bytes();
        let mut dev = ConZone::new(cfg);
        let sink = obs.make_sink();
        if let Some(s) = &sink {
            dev.set_probe(Probe::attached(s.clone()));
        }
        let span_buf = obs.make_span_sink();
        if let Some(s) = &span_buf {
            dev.set_span_sink(s.clone());
        }
        let mut t = SimTime::ZERO;
        let mut all_samples: Vec<MetricsSample> = Vec::new();
        let njobs = jobs.len();
        for (i, named) in jobs.into_iter().enumerate() {
            let mut job = named.job.start_at(t);
            if job.pattern == AccessPattern::SeqWrite {
                job = job.zone_bytes(zone_bytes);
            }
            let report = run_measured(&mut dev, &job, &obs)?;
            t = report.finished;
            all_samples.extend_from_slice(&report.metrics);
            if obs.stats_json {
                let mut j = stats_json(&report, Some(&dev.time_breakdown()));
                if let Json::Obj(pairs) = &mut j {
                    pairs.insert(0, ("job".to_string(), Json::from(named.name.as_str())));
                    // Ring-sink health is cumulative over the job file.
                    if let Some(s) = &sink {
                        pairs.push(("trace".to_string(), trace_counts_json(s)));
                    }
                    if obs.heatmap && i + 1 == njobs {
                        pairs.push(("heatmap".to_string(), heatmap_json(&dev.heatmap_snapshot())));
                    }
                }
                println!("{j}");
            } else {
                println!("[{}]", named.name);
                print_report(&report);
            }
        }
        if !obs.stats_json {
            println!("time     : {}", dev.time_breakdown());
        }
        let span_records: Vec<SpanRecord> =
            span_buf.as_ref().map(|b| b.drain()).unwrap_or_default();
        write_observability(
            &obs,
            sink.as_deref(),
            span_buf.as_ref().map(|b| b.dropped()),
            &span_records,
            &all_samples,
        )?;
        return Ok(());
    }
    let mut cfg = build_config(args)?;
    if power_cut.is_some() {
        // The crash verifier byte-compares recovered data, which needs the
        // device to actually store payloads.
        cfg.data_backing = true;
    }
    let pattern = parse_pattern(args)?;
    let bs = args.size("bs", 512 * 1024)?;
    let size = args.size("size", 256 << 20)?;
    let region = args.size("region", size)?;
    let threads = args.queue_count("threads", 1)?;
    let zone_bytes = cfg.zone_size_bytes();

    let wl_seed = args.num("seed", 7)?;
    let mut job = FioJob::new(pattern, bs)
        .threads(threads)
        .region(0, region)
        .bytes_per_thread(size / threads.max(1) as u64)
        .seed(wl_seed);
    if power_cut.is_some() {
        job = job.verify(true);
    }

    let device = args.get("device").unwrap_or("conzone");
    if power_cut.is_some() && device != "conzone" {
        return Err("--power-cut-at is only supported for --device conzone".to_string());
    }
    if (obs.span_out.is_some() || obs.heatmap) && device != "conzone" {
        return Err("--span-out and --heatmap are only supported for --device conzone".to_string());
    }
    // Reads need data on the device first. The probe and span recorder
    // attach after the fill so trace, spans and metrics cover only the
    // measured job.
    let needs_fill = pattern.is_read();
    let sink = obs.make_sink();
    let span_buf = obs.make_span_sink();
    let mut span_records: Vec<SpanRecord> = Vec::new();
    let mut heatmap: Option<Json> = None;
    let mut breakdown: Option<conzone::TimeBreakdown> = None;
    let report = match device {
        "conzone" => {
            let mut dev = ConZone::new(cfg);
            job = job.zone_bytes(zone_bytes);
            let mut start = SimTime::ZERO;
            if needs_fill {
                let fill = FioJob::new(AccessPattern::SeqWrite, 512 * 1024)
                    .zone_bytes(zone_bytes)
                    .region(0, region)
                    .bytes_per_thread(region);
                let f = run_job(&mut dev, &fill).map_err(|e| e.to_string())?;
                start = f.finished;
                job = job.start_at(start);
            }
            if let Some(s) = &sink {
                dev.set_probe(Probe::attached(s.clone()));
            }
            if let Some(s) = &span_buf {
                dev.set_span_sink(s.clone());
            }
            let report = match power_cut {
                Some(after) => {
                    // Cut power mid-workload, remount and audit the
                    // device's recovery claims against regenerated payloads.
                    let cut_at = start + after;
                    let report =
                        run_job_until(&mut dev, &job, cut_at).map_err(|e| e.to_string())?;
                    let verdict = power_cycle_and_verify(&mut dev, wl_seed, cut_at)
                        .map_err(|e| e.to_string())?;
                    eprintln!("recovery : {verdict}");
                    report
                }
                None => run_measured(&mut dev, &job, &obs)?,
            };
            breakdown = Some(dev.time_breakdown());
            if let Some(s) = &span_buf {
                span_records = s.drain();
            }
            if obs.heatmap {
                heatmap = Some(heatmap_json(&dev.heatmap_snapshot()));
            }
            if !obs.stats_json {
                println!("time     : {}", dev.time_breakdown());
            }
            report
        }
        "legacy" => {
            let mut dev = LegacyDevice::new(cfg);
            if needs_fill {
                let fill = FioJob::new(AccessPattern::SeqWrite, 512 * 1024)
                    .region(0, region)
                    .bytes_per_thread(region);
                let f = run_job(&mut dev, &fill).map_err(|e| e.to_string())?;
                job = job.start_at(f.finished);
            }
            if let Some(s) = &sink {
                dev.set_probe(Probe::attached(s.clone()));
            }
            run_measured(&mut dev, &job, &obs)?
        }
        "femu" => {
            let mut dev = FemuZns::new(cfg);
            let femu_zone = dev.config().geometry.superblock_bytes();
            job = job.zone_bytes(femu_zone);
            if needs_fill {
                let stride = femu_zone;
                let fill_region = (region / stride) * stride;
                let fill = FioJob::new(AccessPattern::SeqWrite, 512 * 1024)
                    .zone_bytes(femu_zone)
                    .region(0, fill_region)
                    .bytes_per_thread(fill_region);
                let f = run_job(&mut dev, &fill).map_err(|e| e.to_string())?;
                job = job.region(0, fill_region).start_at(f.finished);
            }
            if let Some(s) = &sink {
                dev.set_probe(Probe::attached(s.clone()));
            }
            run_measured(&mut dev, &job, &obs)?
        }
        other => return Err(format!("unknown --device '{other}'")),
    };
    if obs.stats_json {
        let mut j = stats_json(&report, breakdown.as_ref());
        if let Json::Obj(pairs) = &mut j {
            if let Some(s) = &sink {
                pairs.push(("trace".to_string(), trace_counts_json(s)));
            }
            if let Some(b) = &span_buf {
                pairs.push((
                    "spans".to_string(),
                    span_stats_json(b.recorded(), b.dropped(), &span_records),
                ));
            }
            if let Some(h) = heatmap.take() {
                pairs.push(("heatmap".to_string(), h));
            }
        }
        println!("{j}");
    } else {
        print_report(&report);
    }
    write_observability(
        &obs,
        sink.as_deref(),
        span_buf.as_ref().map(|b| b.dropped()),
        &span_records,
        &report.metrics,
    )?;
    Ok(())
}

fn cmd_replay(args: &Args) -> Result<(), String> {
    let path = args
        .positional
        .get(1)
        .ok_or("usage: conzone replay <trace-file>")?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let trace = Trace::parse(&text).map_err(|e| e.to_string())?;
    println!(
        "replaying {} ops ({:.1} MiB) from {path}",
        trace.len(),
        trace.total_bytes() as f64 / (1 << 20) as f64
    );
    let cfg = build_config(args)?;
    let open_loop = args.has("open-loop");
    let report = match args.get("device").unwrap_or("conzone") {
        "conzone" => {
            let mut dev = ConZone::new(cfg);
            replay_trace(&mut dev, &trace, SimTime::ZERO, open_loop).map_err(|e| e.to_string())?
        }
        "femu" => {
            let mut dev = FemuZns::new(cfg);
            replay_trace(&mut dev, &trace, SimTime::ZERO, open_loop).map_err(|e| e.to_string())?
        }
        other => return Err(format!("replay supports zoned devices only, not '{other}'")),
    };
    print_report(&report);
    Ok(())
}

/// Writes a little data into a fresh device and prints the zone map —
/// a demonstration of zone states more than a tool, but handy for
/// sanity-checking a configuration.
fn cmd_zones(args: &Args) -> Result<(), String> {
    let cfg = build_config(args)?;
    let conventional = cfg.conventional_zones;
    let mut dev = ConZone::new(cfg);
    // Touch a few zones so the map shows something.
    let zs = dev.zone_size();
    let first_seq = conventional as u64;
    let mut t = SimTime::ZERO;
    for (i, len) in [(first_seq, zs), (first_seq + 1, 64 * 1024)] {
        let mut off = i * zs;
        let mut left = len;
        while left > 0 {
            let chunk = left.min(512 * 1024);
            t = dev
                .submit(t, &conzone::types::IoRequest::write(off, chunk))
                .map_err(|e| e.to_string())?
                .finished;
            off += chunk;
            left -= chunk;
        }
    }
    t = dev
        .finish_zone(t, ZoneId(first_seq + 2))
        .map_err(|e| e.to_string())?
        .finished;
    let _ = t;
    println!("zone  type          state   wp (KiB)  size (MiB)");
    for z in 0..dev.zone_count() as u64 {
        let info = dev.zone_info(ZoneId(z)).map_err(|e| e.to_string())?;
        let kind = if (z as usize) < conventional {
            "conventional"
        } else {
            "sequential"
        };
        println!(
            "{z:>4}  {kind:<12}  {:<6}  {:>8}  {:>10}",
            format!("{:?}", info.state),
            info.write_pointer >> 10,
            info.size >> 20
        );
        if z >= first_seq + 3 && z + 2 < dev.zone_count() as u64 {
            println!(
                "  ...  ({} more empty zones)",
                dev.zone_count() as u64 - z - 1
            );
            break;
        }
    }
    Ok(())
}

fn cmd_gen_trace(args: &Args) -> Result<(), String> {
    let cfg = build_config(args)?;
    let trace = match args.get("preset") {
        Some(name) => {
            let preset = WorkloadPreset::from_name(name).ok_or_else(|| {
                format!(
                    "unknown --preset '{name}' (expected one of: {})",
                    WorkloadPreset::ALL
                        .iter()
                        .map(|p| p.name())
                        .collect::<Vec<_>>()
                        .join(", ")
                )
            })?;
            preset.build(
                cfg.zone_size_bytes(),
                cfg.zone_count() as u64,
                args.num("seed", 7)?,
            )
        }
        None => MobileTraceBuilder::new(cfg.zone_size_bytes(), cfg.zone_count() as u64)
            .bursts(args.num("bursts", 8)?)
            .burst_bytes(args.size("burst-bytes", 8 << 20)?)
            .reads(args.num("reads", 5000)?)
            .seed(args.num("seed", 7)?)
            .build(),
    };
    let text = trace.to_text();
    match args.get("out") {
        Some(path) => {
            std::fs::write(path, text).map_err(|e| format!("{path}: {e}"))?;
            println!("wrote {} ops to {path}", trace.len());
        }
        None => print!("{text}"),
    }
    Ok(())
}

/// A copy of `args` with `--config` defaulted to `cfg` — scenarios run on
/// the tiny geometry unless the user asks otherwise, so sweeps stay fast.
fn with_default_config(args: &Args, cfg: &str) -> Args {
    let mut out = args.clone();
    if out.get("config").is_none() {
        out.flags.push(("config".to_string(), cfg.to_string()));
    }
    out
}

/// Builds a fresh ConZone from the CLI flags, fills `fill_region` bytes
/// sequentially when asked (reads need data), then drives the tenant set
/// through the queue-pair front end. Sequential-write tenants must already
/// carry their own regions; the helper only stamps zone size and start
/// time onto every job.
fn run_scenario_tenants(
    args: &Args,
    specs: &mut [TenantSpec],
    opts: &QdOptions,
    fill_region: Option<u64>,
) -> Result<MultiReport, String> {
    let cfg = build_config(args)?;
    let zone_bytes = cfg.zone_size_bytes();
    let mut dev = ConZone::new(cfg);
    let mut start = SimTime::ZERO;
    if let Some(region) = fill_region {
        let fill = FioJob::new(AccessPattern::SeqWrite, 512 * 1024)
            .zone_bytes(zone_bytes)
            .region(0, region)
            .bytes_per_thread(region);
        start = run_job(&mut dev, &fill)
            .map_err(|e| e.to_string())?
            .finished;
    }
    for s in specs.iter_mut() {
        s.job = s.job.clone().zone_bytes(zone_bytes).start_at(start);
    }
    run_tenants(&mut dev, specs, opts).map_err(|e| e.to_string())
}

/// Prints a finished scenario either as the human table or, under
/// `--stats-json`, as the machine-readable multi-tenant blob.
fn emit_scenario_report(args: &Args, m: &MultiReport) {
    if args.has("stats-json") {
        println!("{}", multi_stats_json(m, None));
    } else {
        print_multi_report(m);
    }
}

/// Queue-depth sweep: one fresh prefilled device per depth, random 4 KiB
/// reads, reporting the throughput curve (and optionally a CSV for CI to
/// assert the curve rises until the chips saturate).
fn scenario_qd_sweep(args: &Args) -> Result<(), String> {
    let bs = args.size("bs", 4 * 1024)?;
    let region = args.size("region", 4 << 20)?;
    let ops = args.num("ops", 512)?;
    let wl_seed = args.num("seed", 7)?;
    let depths = [1usize, 2, 4, 8, 16, 32];
    let mut rows: Vec<(usize, MultiReport)> = Vec::with_capacity(depths.len());
    println!("  qd     KIOPS     MiB/s       mean        p99");
    for &qd in &depths {
        let job = FioJob::new(AccessPattern::RandRead, bs)
            .region(0, region)
            .ops_per_thread(ops)
            .bytes_per_thread(u64::MAX)
            .queue_depth(qd)
            .seed(wl_seed);
        let mut specs = vec![TenantSpec::new("sweep", job)];
        let m = run_scenario_tenants(args, &mut specs, &QdOptions::default(), Some(region))?;
        println!(
            "{qd:>4} {:>9.1} {:>9.1} {:>10} {:>10}",
            m.kiops(),
            m.bandwidth_mibs(),
            m.latency.mean.to_string(),
            m.latency.p99.to_string()
        );
        rows.push((qd, m));
    }
    if let Some(path) = args.get("csv") {
        let mut text = String::from("qd,kiops,bandwidth_mibs,mean_ns,p99_ns\n");
        for (qd, m) in &rows {
            text.push_str(&format!(
                "{qd},{:.3},{:.3},{},{}\n",
                m.kiops(),
                m.bandwidth_mibs(),
                m.latency.mean.as_nanos(),
                m.latency.p99.as_nanos()
            ));
        }
        std::fs::write(path, text).map_err(|e| format!("{path}: {e}"))?;
        eprintln!("csv      : {} rows to {path}", rows.len());
    }
    Ok(())
}

/// Two random-read tenants share one device behind a costly fetch stage;
/// weighted round-robin (3:1 by default) shows arbitration dividing the
/// device while per-tenant counters keep summing to the device totals.
fn scenario_interference(args: &Args) -> Result<(), String> {
    let bs = args.size("bs", 4 * 1024)?;
    let region = args.size("region", 4 << 20)?;
    let qd = args.queue_count("qd", 8)?;
    let ops = args.num("ops", 1024)?;
    let wl_seed = args.num("seed", 7)?;
    let weights = match args.get("tenant-weights") {
        Some(_) => parse_tenant_weights(args, 2)?,
        None => vec![3, 1],
    };
    let arbiter = match args.get("arbiter") {
        Some(_) => parse_arbiter(args)?,
        None => ArbiterKind::Weighted,
    };
    let fetch_cost = match args.get("fetch-cost") {
        Some(v) => parse_duration(v)?,
        None => SimDuration::from_micros(25),
    };
    let mk = |name: &str, salt: u64, w: u32| {
        let job = FioJob::new(AccessPattern::RandRead, bs)
            .region(0, region)
            .ops_per_thread(ops)
            .bytes_per_thread(u64::MAX)
            .queue_depth(qd)
            .seed(wl_seed ^ salt);
        TenantSpec::new(name, job).weight(w)
    };
    let mut specs = vec![
        mk("hog", 0x9e37, weights[0]),
        mk("victim", 0x79b9, weights[1]),
    ];
    let opts = QdOptions {
        fetch_cost,
        arbiter,
        ..QdOptions::default()
    };
    let m = run_scenario_tenants(args, &mut specs, &opts, Some(region))?;
    emit_scenario_report(args, &m);
    Ok(())
}

/// A random reader at depth `--qd` against a zoned sequential writer at
/// depth 1 in disjoint halves of the region: readers and writers contend
/// for chips and channels, not for zones.
fn scenario_mixed(args: &Args) -> Result<(), String> {
    let region = args.size("region", 8 << 20)?;
    let qd = args.queue_count("qd", 8)?;
    let ops = args.num("ops", 1024)?;
    let wl_seed = args.num("seed", 7)?;
    let zone_bytes = build_config(args)?.zone_size_bytes();
    let half = (region / 2 / zone_bytes) * zone_bytes;
    if half == 0 {
        return Err(format!("--region {region} smaller than two zones"));
    }
    let reader = FioJob::new(AccessPattern::RandRead, 4 * 1024)
        .region(0, half)
        .ops_per_thread(ops)
        .bytes_per_thread(u64::MAX)
        .queue_depth(qd)
        .seed(wl_seed ^ 0x9e37);
    let writer = FioJob::new(AccessPattern::SeqWrite, 64 * 1024)
        .region(half, half)
        .bytes_per_thread(half.min(2 << 20))
        .seed(wl_seed ^ 0x79b9);
    let mut specs = vec![
        TenantSpec::new("reader", reader),
        TenantSpec::new("writer", writer),
    ];
    let opts = QdOptions {
        fetch_cost: parse_fetch_cost(args)?,
        arbiter: parse_arbiter(args)?,
        ..QdOptions::default()
    };
    let m = run_scenario_tenants(args, &mut specs, &opts, Some(half))?;
    emit_scenario_report(args, &m);
    Ok(())
}

/// ZNS-style flash cache: a deep hot-read stream over cached data while a
/// write-back stream appends sequentially, fsyncing every 8 writes the way
/// a cache's metadata journal would.
fn scenario_flash_cache(args: &Args) -> Result<(), String> {
    let region = args.size("region", 8 << 20)?;
    let qd = args.queue_count("qd", 16)?;
    let ops = args.num("ops", 2048)?;
    let wl_seed = args.num("seed", 7)?;
    let zone_bytes = build_config(args)?.zone_size_bytes();
    let half = (region / 2 / zone_bytes) * zone_bytes;
    if half == 0 {
        return Err(format!("--region {region} smaller than two zones"));
    }
    let hot_reads = FioJob::new(AccessPattern::RandRead, 4 * 1024)
        .region(0, half)
        .ops_per_thread(ops)
        .bytes_per_thread(u64::MAX)
        .queue_depth(qd)
        .seed(wl_seed ^ 0x9e37);
    let writeback = FioJob::new(AccessPattern::SeqWrite, 256 * 1024)
        .region(half, half)
        .bytes_per_thread(half.min(2 << 20))
        .fsync_every(8)
        .seed(wl_seed ^ 0x79b9);
    let mut specs = vec![
        TenantSpec::new("hot-reads", hot_reads),
        TenantSpec::new("writeback", writeback),
    ];
    let opts = QdOptions {
        fetch_cost: parse_fetch_cost(args)?,
        arbiter: parse_arbiter(args)?,
        ..QdOptions::default()
    };
    let m = run_scenario_tenants(args, &mut specs, &opts, Some(half))?;
    emit_scenario_report(args, &m);
    Ok(())
}

fn cmd_scenario(args: &Args) -> Result<(), String> {
    let name = args
        .positional
        .get(1)
        .map(String::as_str)
        .ok_or("usage: conzone scenario <qd-sweep|interference|mixed|flash-cache>")?;
    let args = with_default_config(args, "tiny");
    match name {
        "qd-sweep" => scenario_qd_sweep(&args),
        "interference" => scenario_interference(&args),
        "mixed" => scenario_mixed(&args),
        "flash-cache" => scenario_flash_cache(&args),
        other => Err(format!(
            "unknown scenario '{other}' (qd-sweep|interference|mixed|flash-cache)"
        )),
    }
}

const USAGE: &str = "\
conzone — zoned flash storage emulator for consumer devices

usage:
  conzone info      [--config paper|tiny] [--strategy ...] [--cache 12k]
  conzone zones     [--config paper|tiny] [--conventional 2]
  conzone run       [--job file.fio] [--device conzone|legacy|femu]
                    [--pattern seqwrite|seqread|randread|randwrite|mixedNN]
                    [--bs 512k] [--threads 4] [--size 256m] [--region 1g]
                    [--strategy bitmap|multiple|pinned] [--aggregation page|chunk|zone]
                    [--cache 12k] [--buffers 2] [--l2p-log 4096] [--conventional 2]
                    [--trace-out events.json] [--metrics-out metrics.jsonl]
                    [--span-out spans.json|spans.jsonl] [--heatmap]
                    [--metrics-interval 100ms] [--stats-json]
                    [--fault-seed N] [--fault-rates 0.01,0.001,0.05]
                    [--power-cut-at 400us]
                    [--qd 8] [--tenants 2] [--tenant-weights 3,1]
                    [--arbiter rr|wrr] [--fetch-cost 25us]
  conzone scenario  qd-sweep     [--bs 4k] [--region 4m] [--ops 512] [--csv sweep.csv]
  conzone scenario  interference [--qd 8] [--tenant-weights 3,1] [--arbiter rr|wrr]
                                 [--fetch-cost 25us] [--stats-json]
  conzone scenario  mixed        [--qd 8] [--region 8m] [--stats-json]
  conzone scenario  flash-cache  [--qd 16] [--region 8m] [--stats-json]
  conzone replay    <trace-file> [--device conzone|femu] [--open-loop]
  conzone gen-trace [--preset boot|app-install|camera-burst|social-scroll]
                    [--bursts 8] [--burst-bytes 8m] [--reads 5000] [--out trace.txt]
";

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match Args::parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let result = match args.positional.first().map(String::as_str) {
        Some("info") => cmd_info(&args),
        Some("zones") => cmd_zones(&args),
        Some("run") => cmd_run(&args),
        Some("scenario") => cmd_scenario(&args),
        Some("replay") => cmd_replay(&args),
        Some("gen-trace") => cmd_gen_trace(&args),
        Some("help") | None => {
            print!("{USAGE}");
            Ok(())
        }
        Some(other) => Err(format!("unknown command '{other}'\n\n{USAGE}")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Args {
        Args::parse(&list.iter().map(|s| s.to_string()).collect::<Vec<_>>()).unwrap()
    }

    #[test]
    fn parse_sizes() {
        assert_eq!(parse_size("4096").unwrap(), 4096);
        assert_eq!(parse_size("4k").unwrap(), 4096);
        assert_eq!(parse_size("512K").unwrap(), 512 * 1024);
        assert_eq!(parse_size("16m").unwrap(), 16 << 20);
        assert_eq!(parse_size("1G").unwrap(), 1 << 30);
        assert!(parse_size("x").is_err());
        assert!(parse_size("4q").is_err());
    }

    #[test]
    fn parse_durations() {
        assert_eq!(
            parse_duration("100ms").unwrap(),
            SimDuration::from_millis(100)
        );
        assert_eq!(parse_duration("2s").unwrap(), SimDuration::from_secs(2));
        assert_eq!(
            parse_duration("50us").unwrap(),
            SimDuration::from_micros(50)
        );
        assert_eq!(
            parse_duration("750ns").unwrap(),
            SimDuration::from_nanos(750)
        );
        assert_eq!(parse_duration("123").unwrap(), SimDuration::from_nanos(123));
        assert!(parse_duration("0ms").is_err());
        assert!(parse_duration("fast").is_err());
    }

    #[test]
    fn run_with_observability_outputs() {
        let dir = std::env::temp_dir().join("conzone-cli-obs-test");
        std::fs::create_dir_all(&dir).unwrap();
        let trace_path = dir.join("events.json");
        let metrics_path = dir.join("metrics.jsonl");
        let a = args(&[
            "run",
            "--config",
            "tiny",
            "--pattern",
            "randwrite",
            "--conventional",
            "2",
            "--bs",
            "16k",
            "--size",
            "2m",
            "--region",
            "2m",
            "--trace-out",
            trace_path.to_str().unwrap(),
            "--metrics-out",
            metrics_path.to_str().unwrap(),
            "--metrics-interval",
            "200us",
            "--stats-json",
        ]);
        cmd_run(&a).expect("observed run ok");
        // The trace file is valid JSON in Chrome trace-event shape.
        let trace = std::fs::read_to_string(&trace_path).unwrap();
        let parsed = conzone::sim::json::parse(&trace).expect("trace parses");
        let events = parsed
            .get("traceEvents")
            .and_then(Json::as_array)
            .expect("traceEvents array");
        assert!(!events.is_empty());
        // Metrics JSONL: every line parses and carries counters.
        let metrics = std::fs::read_to_string(&metrics_path).unwrap();
        assert!(metrics.lines().count() >= 1);
        for line in metrics.lines() {
            let m = conzone::sim::json::parse(line).expect("metrics line parses");
            assert!(m.get("counters").is_some());
        }
        std::fs::remove_file(trace_path).ok();
        std::fs::remove_file(metrics_path).ok();
    }

    #[test]
    fn flag_parsing() {
        let a = args(&["run", "--bs", "4k", "--open-loop", "--device", "femu"]);
        assert_eq!(a.positional, vec!["run"]);
        assert_eq!(a.get("bs"), Some("4k"));
        assert_eq!(a.get("device"), Some("femu"));
        assert!(a.has("open-loop"));
        assert!(!a.has("bs"));
        assert_eq!(a.size("bs", 0).unwrap(), 4096);
        assert_eq!(a.num("threads", 3).unwrap(), 3);
    }

    #[test]
    fn last_flag_wins() {
        let a = args(&["run", "--bs", "4k", "--bs", "8k"]);
        assert_eq!(a.size("bs", 0).unwrap(), 8192);
    }

    #[test]
    fn config_builds_for_both_presets() {
        assert!(build_config(&args(&["info"])).is_ok());
        assert!(build_config(&args(&["info", "--config", "tiny"])).is_ok());
        assert!(build_config(&args(&["info", "--config", "nope"])).is_err());
        let cfg = build_config(&args(&[
            "info",
            "--strategy",
            "pinned",
            "--aggregation",
            "chunk",
            "--cache",
            "1k",
            "--conventional",
            "2",
        ]))
        .unwrap();
        assert_eq!(cfg.search_strategy, SearchStrategy::Pinned);
        assert_eq!(cfg.max_aggregation, MapGranularity::Chunk);
        assert_eq!(cfg.l2p_cache_entries(), 256);
        assert_eq!(cfg.conventional_zones, 2);
    }

    #[test]
    fn fault_flags_configure_the_plane() {
        // Without fault flags the default zero-rate plane is kept.
        let cfg = build_config(&args(&["info", "--config", "tiny"])).unwrap();
        assert!(!cfg.fault.enabled());

        let cfg = build_config(&args(&[
            "info",
            "--config",
            "tiny",
            "--fault-rates",
            "0.1, 0.02, 0.3",
            "--fault-seed",
            "42",
        ]))
        .unwrap();
        assert_eq!(cfg.fault.program_fail_rate, 0.1);
        assert_eq!(cfg.fault.erase_fail_rate, 0.02);
        assert_eq!(cfg.fault.read_retry_rate, 0.3);
        assert_eq!(cfg.fault.seed, 42);

        // A seed alone re-seeds the default (disabled) plane.
        let cfg = build_config(&args(&["info", "--config", "tiny", "--fault-seed", "9"])).unwrap();
        assert!(!cfg.fault.enabled());
        assert_eq!(cfg.fault.seed, 9);

        // Malformed triples and out-of-range rates are rejected.
        assert!(build_config(&args(&["info", "--fault-rates", "0.1,0.2"])).is_err());
        assert!(build_config(&args(&["info", "--fault-rates", "0.1,x,0.3"])).is_err());
        assert!(build_config(&args(&["info", "--fault-rates", "1.5,0,0"])).is_err());
    }

    #[test]
    fn run_with_power_cut_recovers() {
        let a = args(&[
            "run",
            "--config",
            "tiny",
            "--bs",
            "8k",
            "--size",
            "1m",
            "--region",
            "1m",
            "--fault-rates",
            "0.05,0,0",
            "--fault-seed",
            "3",
            "--power-cut-at",
            "400us",
        ]);
        cmd_run(&a).expect("power-cut run ok");
        // Baselines cannot power cycle; the CLI refuses up front.
        let a = args(&[
            "run",
            "--config",
            "tiny",
            "--device",
            "legacy",
            "--power-cut-at",
            "400us",
        ]);
        assert!(cmd_run(&a).is_err());
    }

    #[test]
    fn run_command_smoke() {
        // A tiny in-process run through the real command path.
        let a = args(&[
            "run", "--config", "tiny", "--bs", "128k", "--size", "2m", "--region", "2m",
        ]);
        cmd_run(&a).expect("run ok");
        let a = args(&[
            "run",
            "--config",
            "tiny",
            "--pattern",
            "randread",
            "--bs",
            "4k",
            "--size",
            "256k",
            "--region",
            "2m",
        ]);
        cmd_run(&a).expect("randread ok");
    }

    #[test]
    fn run_qd_multi_tenant_smoke() {
        // The queue-pair path through the real command parser: two
        // weighted tenants, a costly fetch stage, machine-readable stats.
        let a = args(&[
            "run",
            "--config",
            "tiny",
            "--pattern",
            "randread",
            "--bs",
            "4k",
            "--size",
            "512k",
            "--region",
            "2m",
            "--qd",
            "4",
            "--tenants",
            "2",
            "--arbiter",
            "wrr",
            "--tenant-weights",
            "3,1",
            "--fetch-cost",
            "5us",
            "--stats-json",
        ]);
        cmd_run(&a).expect("qd run ok");
    }

    #[test]
    fn qd_flags_are_validated() {
        // Queue flags are incompatible with job files and power cuts...
        let a = args(&["run", "--qd", "4", "--job", "x.fio"]);
        assert!(cmd_run(&a).is_err());
        let a = args(&["run", "--qd", "4", "--power-cut-at", "400us"]);
        assert!(cmd_run(&a).is_err());
        // ...and with the femu baseline and the interval sampler.
        let a = args(&["run", "--config", "tiny", "--qd", "2", "--device", "femu"]);
        assert!(cmd_run(&a).is_err());
        let a = args(&["run", "--qd", "2", "--metrics-out", "m.jsonl"]);
        assert!(cmd_run(&a).is_err());
        // Weight lists must match the tenant count; policies must exist.
        let a = args(&["run", "--tenants", "2", "--tenant-weights", "1,2,3"]);
        assert!(cmd_run(&a).is_err());
        let a = args(&["run", "--qd", "2", "--arbiter", "fifo"]);
        assert!(cmd_run(&a).is_err());
        assert!(parse_tenant_weights(&args(&["run"]), 3).unwrap() == vec![1, 1, 1]);
    }

    #[test]
    fn scenario_qd_sweep_writes_a_rising_curve() {
        let dir = std::env::temp_dir().join("conzone-cli-sweep-test");
        std::fs::create_dir_all(&dir).unwrap();
        let csv_path = dir.join("sweep.csv");
        let a = args(&[
            "scenario",
            "qd-sweep",
            "--region",
            "2m",
            "--ops",
            "128",
            "--csv",
            csv_path.to_str().unwrap(),
        ]);
        cmd_scenario(&a).expect("sweep ok");
        let csv = std::fs::read_to_string(&csv_path).unwrap();
        let kiops: Vec<f64> = csv
            .lines()
            .skip(1)
            .map(|l| l.split(',').nth(1).unwrap().parse().unwrap())
            .collect();
        assert_eq!(kiops.len(), 6);
        // Depth buys throughput until the chips saturate.
        assert!(kiops[2] > kiops[0], "qd4 {} <= qd1 {}", kiops[2], kiops[0]);
        assert!(kiops[5] >= kiops[2] * 0.8, "deep queues collapsed");
        std::fs::remove_file(csv_path).ok();
    }

    #[test]
    fn scenario_interference_smoke() {
        let a = args(&[
            "scenario",
            "interference",
            "--region",
            "2m",
            "--ops",
            "128",
            "--stats-json",
        ]);
        cmd_scenario(&a).expect("interference ok");
        let a = args(&["scenario", "nope"]);
        assert!(cmd_scenario(&a).is_err());
    }

    #[test]
    fn merged_span_dumps_keep_parent_before_child() {
        use conzone::types::SpanKind;
        let rec = |id: u64, parent: u64, io: u64, kind: SpanKind| SpanRecord {
            id,
            parent,
            io,
            kind,
            start: SimTime::ZERO,
            end: SimTime::ZERO,
        };
        let dev = vec![
            rec(1, 0, 1, SpanKind::IoRead),
            rec(2, 1, 1, SpanKind::DataRead),
        ];
        let host = vec![
            rec(2, 1, 1, SpanKind::QueueWait),
            rec(1, 0, 1, SpanKind::QueueCmd),
        ];
        let merged = merge_span_dumps(dev, host);
        assert_eq!(merged.len(), 4);
        assert_eq!(merged[2].id, 4);
        assert_eq!(merged[2].parent, 3);
        assert_eq!(merged[2].io, 2);
        assert_eq!(merged[3].id, 3);
        assert_eq!(merged[3].parent, 0);
        // Every parent id stays smaller than its children's.
        for r in &merged {
            assert!(r.parent < r.id);
        }
    }

    #[test]
    fn gen_and_replay_roundtrip() {
        let dir = std::env::temp_dir().join("conzone-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("trace.txt");
        let path_str = path.to_str().unwrap();
        let a = args(&[
            "gen-trace",
            "--config",
            "tiny",
            "--bursts",
            "2",
            "--burst-bytes",
            "512k",
            "--reads",
            "50",
            "--out",
            path_str,
        ]);
        cmd_gen_trace(&a).expect("gen ok");
        let a = args(&["replay", path_str, "--config", "tiny"]);
        cmd_replay(&a).expect("replay ok");
        std::fs::remove_file(path).ok();
    }
}
