//! Report: every stats-JSON and text format the binary prints. The
//! builders read host reports and core snapshots together, which no library
//! crate can see at once, so they live here.

use conzone::host::{JobReport, MultiReport, TenantReport};
use conzone::sim::export::{counters_json, latency_summary_json as latency_json};
use conzone::sim::json::Json;
use conzone::sim::{
    attribute_spans, breakdown_from_spans, LatencySummary, RingBufferSink, SpanBuffer,
};
use conzone::types::{Counters, SpanRecord};
use conzone::{HeatmapSnapshot, TimeBreakdown};

/// A finished run: one job, or several tenants behind the queue front end.
pub enum Report {
    Job(JobReport),
    Tenants(MultiReport),
}

/// The spans of a run: what the sinks accepted and dropped, and the
/// drained records.
pub struct SpanDump {
    pub recorded: u64,
    pub dropped: u64,
    pub records: Vec<SpanRecord>,
}

impl SpanDump {
    pub fn drain(sink: &SpanBuffer) -> SpanDump {
        SpanDump {
            records: sink.drain(),
            recorded: sink.recorded(),
            dropped: sink.dropped(),
        }
    }

    /// Appends the host's dump to the device's in one id space. Span ids
    /// are 1-based and dense per recorder, and a parent id is always
    /// smaller than its children's, so offsetting the host records by the
    /// device maxima preserves both invariants.
    pub fn append(&mut self, host: SpanDump) {
        let id_base = self.records.iter().map(|r| r.id).max().unwrap_or(0);
        let io_base = self.records.iter().map(|r| r.io).max().unwrap_or(0);
        self.records.extend(host.records.into_iter().map(|mut r| {
            r.id += id_base;
            if r.parent != 0 {
                r.parent += id_base;
            }
            r.io += io_base;
            r
        }));
        self.recorded += host.recorded;
        self.dropped += host.dropped;
    }
}

/// What a run hands [`emit`] next to its report. Each present member
/// becomes a member of the stats object, in this order: `job` leads it, the
/// others follow the report's own keys.
#[derive(Default)]
pub struct Extras<'a> {
    /// Job-file section name.
    pub job: Option<&'a str>,
    pub breakdown: Option<TimeBreakdown>,
    pub trace: Option<&'a RingBufferSink>,
    pub spans: Option<&'a SpanDump>,
    pub heatmap: Option<HeatmapSnapshot>,
}

/// Prints a report: one machine-readable object under `--stats-json`, the
/// human summary otherwise.
pub fn emit(stats_json: bool, report: &Report, extras: Extras<'_>) {
    if !stats_json {
        if let Some(name) = extras.job {
            println!("[{name}]");
        }
        match report {
            Report::Job(r) => print_job(r),
            Report::Tenants(m) => print_tenants(m),
        }
        return;
    }
    let mut pairs = Vec::new();
    if let Some(name) = extras.job {
        pairs.push(("job", Json::from(name)));
    }
    match report {
        Report::Job(r) => pairs.extend(job_pairs(r)),
        Report::Tenants(m) => pairs.extend(tenants_pairs(m)),
    }
    if let Some(b) = extras.breakdown {
        let categories = b
            .categories()
            .map(|(name, d)| (name, Json::U64(d.as_nanos())));
        pairs.push(("breakdown_ns", Json::obj(categories)));
    }
    if let Some(sink) = extras.trace {
        // How many events the ring accepted and how many it had to drop.
        let counts = [
            ("recorded", Json::U64(sink.recorded())),
            ("dropped", Json::U64(sink.dropped())),
        ];
        pairs.push(("trace", Json::obj(counts)));
    }
    if let Some(dump) = extras.spans {
        pairs.push(("spans", span_stats_json(dump)));
    }
    if let Some(snap) = &extras.heatmap {
        pairs.push(("heatmap", heatmap_json(snap)));
    }
    println!("{}", Json::obj(pairs));
}

/// Throughput, counters and latency summaries (whole-job, per-kind and
/// per-thread) of one job.
fn job_pairs(report: &JobReport) -> Vec<(&'static str, Json)> {
    let threads = report.thread_latency.iter().map(latency_json);
    vec![
        ("model", Json::from(report.model)),
        ("started_ns", Json::U64(report.started.as_nanos())),
        ("finished_ns", Json::U64(report.finished.as_nanos())),
        ("bytes", Json::U64(report.bytes)),
        ("ops", Json::U64(report.ops)),
        ("bandwidth_mibs", Json::F64(report.bandwidth_mibs())),
        ("kiops", Json::F64(report.kiops())),
        ("counters", counters_json(&report.counters)),
        ("latency", latency_json(&report.latency)),
        ("read_latency", latency_json(&report.read_latency)),
        ("write_latency", latency_json(&report.write_latency)),
        ("thread_latency", Json::Arr(threads.collect())),
    ]
}

/// One tenant's slice of the machine-readable multi-tenant stats.
fn tenant_json(t: &TenantReport) -> Json {
    Json::obj([
        ("name", Json::from(t.name.as_str())),
        ("weight", Json::U64(u64::from(t.weight))),
        ("bytes", Json::U64(t.bytes)),
        ("ops", Json::U64(t.ops)),
        ("finished_ns", Json::U64(t.finished.as_nanos())),
        ("latency", latency_json(&t.latency)),
        ("read_latency", latency_json(&t.read_latency)),
        ("write_latency", latency_json(&t.write_latency)),
        ("queue_wait", latency_json(&t.queue_wait)),
        ("counters", counters_json(&t.counters)),
    ])
}

/// A queue-pair run: aggregate throughput, the conservation check
/// (per-tenant counters must sum to the device totals) and one entry per
/// tenant.
fn tenants_pairs(m: &MultiReport) -> Vec<(&'static str, Json)> {
    vec![
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
        ("latency", latency_json(&m.latency)),
        ("counters", counters_json(&m.counters)),
        (
            "tenants",
            Json::Arr(m.tenants.iter().map(tenant_json).collect()),
        ),
    ]
}

/// The `spans` member of a stats object: per-kind counts and inclusive /
/// self sim-time, plus the self-time rollup per breakdown category (which
/// reconciles with `breakdown_ns` — see `tests/observability.rs`).
fn span_stats_json(dump: &SpanDump) -> Json {
    let per_kind = Json::Obj(
        attribute_spans(&dump.records)
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
        breakdown_from_spans(&dump.records)
            .into_iter()
            .map(|(name, d)| (name.to_string(), Json::U64(d.as_nanos())))
            .collect(),
    );
    Json::obj([
        ("recorded", Json::U64(dump.recorded)),
        ("dropped", Json::U64(dump.dropped)),
        ("per_kind", per_kind),
        ("breakdown_ns", breakdown),
    ])
}

/// The `heatmap` member of a stats object: one row per zone and per
/// physical block, plus the SLC / cache pressure gauges.
fn heatmap_json(snap: &HeatmapSnapshot) -> Json {
    let zones = snap.zones.iter().map(|z| {
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
    });
    let blocks = snap.blocks.iter().map(|b| {
        Json::obj([
            ("chip", Json::U64(b.chip)),
            ("block", Json::U64(b.block)),
            ("cell", Json::from(b.cell)),
            ("cursor", Json::U64(b.cursor)),
            ("valid_slices", Json::U64(b.valid_slices)),
            ("slices", Json::U64(b.slices)),
            ("wear", Json::U64(b.wear)),
        ])
    });
    Json::obj([
        ("zones", Json::Arr(zones.collect())),
        ("blocks", Json::Arr(blocks.collect())),
        ("l2p_occupancy", Json::F64(snap.l2p_occupancy)),
        ("slc_free_superblocks", Json::U64(snap.slc_free_superblocks)),
        ("slc_used_superblocks", Json::U64(snap.slc_used_superblocks)),
    ])
}

fn print_latency(l: &LatencySummary) {
    println!(
        "latency  : mean {} p50 {} p99 {} p99.9 {}",
        l.mean, l.p50, l.p99, l.p999
    );
}

fn print_device(c: &Counters) {
    println!(
        "device   : waf {:.3}, l2p miss {:.1}%, {} conflicts, {} premature, {} gc runs",
        c.write_amplification(),
        c.l2p_miss_rate() * 100.0,
        c.buffer_conflicts,
        c.premature_flushes,
        c.gc_runs
    );
}

fn print_job(report: &JobReport) {
    println!(
        "{}: {:.0} MiB/s, {:.1} KIOPS over {}",
        report.model,
        report.bandwidth_mibs(),
        report.kiops(),
        report.duration()
    );
    print_latency(&report.latency);
    print_device(&report.counters);
}

fn print_tenants(m: &MultiReport) {
    println!(
        "{}: {:.0} MiB/s, {:.1} KIOPS over {} ({} arbiter, {} tenants)",
        m.model,
        m.bandwidth_mibs(),
        m.kiops(),
        m.duration(),
        m.arbiter,
        m.tenants.len()
    );
    print_latency(&m.latency);
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
    print_device(&m.counters);
    if !m.tenants_sum_consistent() {
        println!("warning  : per-tenant counters do not sum to the device totals");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use conzone::types::SimTime;

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
        let dump = |records| SpanDump {
            recorded: 0,
            dropped: 0,
            records,
        };
        let mut merged = dump(dev);
        merged.append(dump(host));
        let merged = merged.records;
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
}
