//! Exporters for collected traces and metrics.
//!
//! Three output formats, all writable with plain `std::fs::write`:
//!
//! * [`chrome_trace`] — the Chrome trace-event JSON format, loadable in
//!   Perfetto / `chrome://tracing`. GC passes become `B`/`E` duration
//!   slices; everything else becomes thread-scoped instant events.
//!   Timestamps are simulated nanoseconds converted to the format's
//!   microsecond unit.
//! * [`trace_jsonl`] — one JSON object per event, for ad-hoc analysis
//!   with `jq` or pandas.
//! * [`metrics_jsonl`] — one JSON object per [`MetricsSample`] interval,
//!   with every [`Counters`] field of the interval delta spelled out.
//! * [`span_jsonl`] / [`span_chrome_trace`] — the causal IO-lifecycle
//!   spans, as JSONL for analysis and as nested `X` (complete) slices for
//!   Perfetto.
//!
//! Plus small helpers ([`counters_json`], [`latency_summary_json`]) used
//! by the CLI's `--stats-json` report.

use conzone_types::{
    CellType, Counters, DeviceEvent, FaultKind, L2pOutcome, SpanRecord, TraceRecord,
};

use crate::json::Json;
use crate::stats::LatencySummary;
use crate::trace::MetricsSample;

fn cell_name(c: CellType) -> &'static str {
    match c {
        CellType::Slc => "slc",
        CellType::Tlc => "tlc",
        CellType::Qlc => "qlc",
    }
}

fn outcome_name(o: L2pOutcome) -> &'static str {
    match o {
        L2pOutcome::HitZone => "hit_zone",
        L2pOutcome::HitChunk => "hit_chunk",
        L2pOutcome::HitPage => "hit_page",
        L2pOutcome::Miss => "miss",
    }
}

/// The event's payload fields as JSON object entries. No `_` arm: a new
/// `DeviceEvent` variant must fail the build here, not export empty args.
#[deny(clippy::wildcard_enum_match_arm)]
fn event_args(event: &DeviceEvent) -> Vec<(&'static str, Json)> {
    match *event {
        DeviceEvent::BufferFlush { zone, slices, .. } => vec![
            ("zone", Json::U64(zone.raw())),
            ("slices", Json::U64(slices)),
        ],
        DeviceEvent::BufferConflict { zone } => vec![("zone", Json::U64(zone.raw()))],
        DeviceEvent::SlcCombine {
            zone,
            staged_slices,
        } => vec![
            ("zone", Json::U64(zone.raw())),
            ("staged_slices", Json::U64(staged_slices)),
        ],
        DeviceEvent::PatchSlice { zone, slices } => vec![
            ("zone", Json::U64(zone.raw())),
            ("slices", Json::U64(slices)),
        ],
        DeviceEvent::GcBegin { valid_slices } => {
            vec![("valid_slices", Json::U64(valid_slices))]
        }
        DeviceEvent::GcEnd { migrated_slices } => {
            vec![("migrated_slices", Json::U64(migrated_slices))]
        }
        DeviceEvent::L2pLookup { outcome } => {
            vec![("outcome", Json::from(outcome_name(outcome)))]
        }
        DeviceEvent::L2pEviction { count } => vec![("count", Json::U64(count))],
        DeviceEvent::L2pLogFlush => vec![],
        DeviceEvent::Media { cell, bytes, .. } => vec![
            ("cell", Json::from(cell_name(cell))),
            ("bytes", Json::U64(bytes)),
        ],
        DeviceEvent::ZoneReset { zone } => vec![("zone", Json::U64(zone.raw()))],
        DeviceEvent::FaultInjected { kind, chip, block } => vec![
            (
                "fault",
                Json::from(match kind {
                    FaultKind::Program => "program",
                    FaultKind::Erase => "erase",
                }),
            ),
            ("chip", Json::U64(chip)),
            ("block", Json::U64(block)),
        ],
        DeviceEvent::BlockRetired { chip, block } => {
            vec![("chip", Json::U64(chip)), ("block", Json::U64(block))]
        }
        DeviceEvent::ReadRetry { steps } => vec![("steps", Json::U64(u64::from(steps)))],
        DeviceEvent::PowerCut { lost_slices } => {
            vec![("lost_slices", Json::U64(lost_slices))]
        }
        DeviceEvent::RecoveryReplay {
            recovered_slices,
            lost_slices,
        } => vec![
            ("recovered_slices", Json::U64(recovered_slices)),
            ("lost_slices", Json::U64(lost_slices)),
        ],
        DeviceEvent::QueueSubmit { queue, backlog } => {
            vec![("queue", Json::U64(queue)), ("backlog", Json::U64(backlog))]
        }
        DeviceEvent::QueueArbitrate { queue, wait_ns } => {
            vec![("queue", Json::U64(queue)), ("wait_ns", Json::U64(wait_ns))]
        }
        DeviceEvent::QueueComplete { queue, inflight } => vec![
            ("queue", Json::U64(queue)),
            ("inflight", Json::U64(inflight)),
        ],
    }
}

/// Builds a Chrome trace-event document (`{"traceEvents": [...]}`) from
/// the recorded events, Perfetto-loadable.
///
/// Events are sorted by timestamp; GC begin/end pairs become duration
/// slices named `gc`, all other events thread-scoped instants. `ts` is in
/// microseconds per the format, converted from the simulated nanosecond
/// clock.
pub fn chrome_trace(records: &[TraceRecord]) -> Json {
    let mut sorted: Vec<&TraceRecord> = records.iter().collect();
    sorted.sort_by_key(|r| r.time);
    let mut events = Vec::with_capacity(sorted.len());
    for r in sorted {
        let (ph, name) = match r.event {
            DeviceEvent::GcBegin { .. } => ("B", "gc"),
            DeviceEvent::GcEnd { .. } => ("E", "gc"),
            // The fallback delegates to kind_name, which is total.
            _ => ("i", r.event.kind_name()),
        };
        let mut fields = vec![
            ("name", Json::from(name)),
            ("ph", Json::from(ph)),
            ("ts", Json::F64(r.time.as_nanos() as f64 / 1000.0)),
            ("pid", Json::U64(0)),
            ("tid", Json::U64(0)),
        ];
        if ph == "i" {
            // Thread-scoped instant, so Perfetto draws it on the track.
            fields.push(("s", Json::from("t")));
        }
        fields.push(("args", Json::obj(event_args(&r.event))));
        events.push(Json::obj(fields));
    }
    Json::obj([
        ("traceEvents", Json::Arr(events)),
        ("displayTimeUnit", Json::from("ns")),
    ])
}

/// One JSON object per event, newline-separated:
/// `{"ts_ns": …, "kind": "…", …fields}`.
pub fn trace_jsonl(records: &[TraceRecord]) -> String {
    let mut out = String::new();
    for r in records {
        let mut fields = vec![
            ("ts_ns", Json::U64(r.time.as_nanos())),
            ("kind", Json::from(r.event.kind_name())),
        ];
        fields.extend(event_args(&r.event));
        out.push_str(&Json::obj(fields).to_string());
        out.push('\n');
    }
    out
}

/// One JSON object per closed span, newline-separated:
/// `{"id": …, "parent": …, "io": …, "kind": "…", "start_ns": …,
/// "end_ns": …, "dur_ns": …}`.
pub fn span_jsonl(spans: &[SpanRecord]) -> String {
    let mut out = String::new();
    for s in spans {
        let line = Json::obj([
            ("id", Json::U64(s.id)),
            ("parent", Json::U64(s.parent)),
            ("io", Json::U64(s.io)),
            ("kind", Json::from(s.kind.name())),
            ("start_ns", Json::U64(s.start.as_nanos())),
            ("end_ns", Json::U64(s.end.as_nanos())),
            ("dur_ns", Json::U64(s.duration_nanos())),
        ]);
        out.push_str(&line.to_string());
        out.push('\n');
    }
    out
}

/// Builds a Chrome trace-event document from closed spans, using `X`
/// (complete) events so Perfetto nests each IO's causal chain as stacked
/// slices on one track.
///
/// Events are sorted by start time with parents before their children
/// (ids follow open order, so the id is the tiebreak), which is what the
/// format requires for `X` events sharing a thread.
pub fn span_chrome_trace(spans: &[SpanRecord]) -> Json {
    let mut sorted: Vec<&SpanRecord> = spans.iter().collect();
    sorted.sort_by_key(|s| (s.start, s.id));
    let mut events = Vec::with_capacity(sorted.len());
    for s in sorted {
        events.push(Json::obj([
            ("name", Json::from(s.kind.name())),
            ("ph", Json::from("X")),
            ("ts", Json::F64(s.start.as_nanos() as f64 / 1000.0)),
            ("dur", Json::F64(s.duration_nanos() as f64 / 1000.0)),
            ("pid", Json::U64(0)),
            ("tid", Json::U64(0)),
            (
                "args",
                Json::obj([
                    ("id", Json::U64(s.id)),
                    ("parent", Json::U64(s.parent)),
                    ("io", Json::U64(s.io)),
                ]),
            ),
        ]));
    }
    Json::obj([
        ("traceEvents", Json::Arr(events)),
        ("displayTimeUnit", Json::from("ns")),
    ])
}

/// All counters as a JSON object, field names matching
/// [`Counters::named_fields`], plus the derived `write_amplification` and
/// `l2p_miss_rate` ratios.
pub fn counters_json(c: &Counters) -> Json {
    let mut fields: Vec<(&'static str, Json)> = c
        .named_fields()
        .into_iter()
        .map(|(name, value)| (name, Json::U64(value)))
        .collect();
    fields.push(("write_amplification", Json::F64(c.write_amplification())));
    fields.push(("l2p_miss_rate", Json::F64(c.l2p_miss_rate())));
    Json::obj(fields)
}

/// One JSON object per sampling interval, newline-separated:
/// `{"start_ns": …, "end_ns": …, "counters": {…delta fields}}`.
pub fn metrics_jsonl(samples: &[MetricsSample]) -> String {
    let mut out = String::new();
    for s in samples {
        let line = Json::obj([
            ("start_ns", Json::U64(s.start.as_nanos())),
            ("end_ns", Json::U64(s.end.as_nanos())),
            (
                "counters",
                Json::obj(
                    s.delta
                        .named_fields()
                        .into_iter()
                        .map(|(name, value)| (name, Json::U64(value))),
                ),
            ),
        ]);
        out.push_str(&line.to_string());
        out.push('\n');
    }
    out
}

/// A latency percentile summary as a JSON object (all values in ns).
pub fn latency_summary_json(s: &LatencySummary) -> Json {
    Json::obj([
        ("count", Json::U64(s.count)),
        ("mean_ns", Json::U64(s.mean.as_nanos())),
        ("min_ns", Json::U64(s.min.as_nanos())),
        ("p50_ns", Json::U64(s.p50.as_nanos())),
        ("p90_ns", Json::U64(s.p90.as_nanos())),
        ("p99_ns", Json::U64(s.p99.as_nanos())),
        ("p999_ns", Json::U64(s.p999.as_nanos())),
        ("max_ns", Json::U64(s.max.as_nanos())),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;
    use conzone_types::{FlushKind, SimTime, ZoneId};

    fn sample_records() -> Vec<TraceRecord> {
        vec![
            TraceRecord {
                time: SimTime::from_nanos(1500),
                event: DeviceEvent::GcBegin { valid_slices: 8 },
            },
            TraceRecord {
                time: SimTime::from_nanos(500),
                event: DeviceEvent::BufferFlush {
                    zone: ZoneId(3),
                    kind: FlushKind::Premature,
                    slices: 2,
                },
            },
            TraceRecord {
                time: SimTime::from_nanos(2500),
                event: DeviceEvent::GcEnd { migrated_slices: 8 },
            },
            TraceRecord {
                time: SimTime::from_nanos(700),
                event: DeviceEvent::L2pLookup {
                    outcome: L2pOutcome::Miss,
                },
            },
        ]
    }

    #[test]
    fn chrome_trace_sorts_and_round_trips() {
        let doc = chrome_trace(&sample_records());
        let parsed = json::parse(&doc.to_string()).expect("exporter emits valid JSON");
        let events = parsed.get("traceEvents").unwrap().as_array().unwrap();
        assert_eq!(events.len(), 4);
        let ts: Vec<f64> = events
            .iter()
            .map(|e| e.get("ts").unwrap().as_f64().unwrap())
            .collect();
        assert!(ts.windows(2).all(|w| w[0] <= w[1]), "unsorted ts: {ts:?}");
        // ns → µs conversion.
        assert_eq!(ts[0], 0.5);
        // GC is a B/E pair named "gc"; instants carry scope "t".
        let phases: Vec<&str> = events
            .iter()
            .map(|e| e.get("ph").unwrap().as_str().unwrap())
            .collect();
        assert_eq!(phases, ["i", "i", "B", "E"]);
        assert_eq!(events[2].get("name").unwrap().as_str(), Some("gc"));
        assert_eq!(events[0].get("s").unwrap().as_str(), Some("t"));
        assert!(events[2].get("s").is_none());
        // Args survive.
        let args = events[2].get("args").unwrap();
        assert_eq!(args.get("valid_slices").unwrap().as_u64(), Some(8));
    }

    #[test]
    fn trace_jsonl_one_line_per_event() {
        let text = trace_jsonl(&sample_records());
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 4);
        let first = json::parse(lines[0]).unwrap();
        assert_eq!(first.get("ts_ns").unwrap().as_u64(), Some(1500));
        assert_eq!(first.get("kind").unwrap().as_str(), Some("gc_begin"));
        let flush = json::parse(lines[1]).unwrap();
        assert_eq!(
            flush.get("kind").unwrap().as_str(),
            Some("buffer_flush_premature")
        );
        assert_eq!(flush.get("zone").unwrap().as_u64(), Some(3));
    }

    #[test]
    fn metrics_jsonl_spells_out_deltas() {
        let mut delta = Counters::new();
        delta.host_write_bytes = 4096;
        delta.gc_runs = 1;
        let samples = vec![MetricsSample {
            start: SimTime::ZERO,
            end: SimTime::from_nanos(1_000_000),
            delta,
        }];
        let text = metrics_jsonl(&samples);
        let line = json::parse(text.trim()).unwrap();
        assert_eq!(line.get("start_ns").unwrap().as_u64(), Some(0));
        assert_eq!(line.get("end_ns").unwrap().as_u64(), Some(1_000_000));
        let c = line.get("counters").unwrap();
        assert_eq!(c.get("host_write_bytes").unwrap().as_u64(), Some(4096));
        assert_eq!(c.get("gc_runs").unwrap().as_u64(), Some(1));
        assert_eq!(c.get("zone_resets").unwrap().as_u64(), Some(0));
    }

    #[test]
    fn counters_json_includes_derived_ratios() {
        let mut c = Counters::new();
        c.host_write_bytes = 100;
        c.flash_program_bytes_tlc = 150;
        let j = counters_json(&c);
        assert_eq!(j.get("host_write_bytes").unwrap().as_u64(), Some(100));
        assert_eq!(j.get("write_amplification").unwrap().as_f64(), Some(1.5));
    }

    /// Every exporter serialises through [`Json`], so hostile strings —
    /// quotes, backslashes, control characters, non-ASCII — must escape on
    /// the way out and round-trip through our own parser.
    #[test]
    fn exported_strings_escape_and_round_trip() {
        let hostile = "quote\" back\\slash \n\t\u{8} héllo \u{1f}";
        let doc = Json::obj([(hostile, Json::from(hostile)), ("plain", Json::U64(1))]);
        let text = doc.to_string();
        assert!(!text.contains('\n'), "control chars must be escaped");
        assert!(text.contains("\\\""));
        assert!(text.contains("\\\\"));
        assert!(text.contains("\\u001f"));
        let parsed = json::parse(&text).expect("escaped output parses back");
        assert_eq!(parsed.get(hostile).unwrap().as_str(), Some(hostile));
    }

    fn sample_spans() -> Vec<SpanRecord> {
        use conzone_types::SpanKind;
        vec![
            SpanRecord {
                id: 2,
                parent: 1,
                io: 1,
                kind: SpanKind::WritePath,
                start: SimTime::from_nanos(1_000),
                end: SimTime::from_nanos(3_000),
            },
            SpanRecord {
                id: 1,
                parent: 0,
                io: 1,
                kind: SpanKind::IoWrite,
                start: SimTime::from_nanos(1_000),
                end: SimTime::from_nanos(4_000),
            },
        ]
    }

    /// The span JSONL export keeps one record per line with a stable,
    /// documented field order — downstream `cut`/`jq` pipelines and the
    /// committed goldens rely on it never silently reordering.
    #[test]
    fn span_jsonl_has_stable_field_order() {
        let text = span_jsonl(&sample_spans());
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        for line in &lines {
            let parsed = json::parse(line).expect("line parses");
            let Json::Obj(pairs) = parsed else {
                panic!("span line must be an object")
            };
            let keys: Vec<&str> = pairs.iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(
                keys,
                ["id", "parent", "io", "kind", "start_ns", "end_ns", "dur_ns"]
            );
        }
        // JSONL preserves buffer order (close order), not id order.
        let first = json::parse(lines[0]).unwrap();
        assert_eq!(first.get("id").unwrap().as_u64(), Some(2));
        assert_eq!(first.get("kind").unwrap().as_str(), Some("write_path"));
        assert_eq!(first.get("dur_ns").unwrap().as_u64(), Some(2_000));
    }

    /// The Chrome-trace span export must emit parents before children when
    /// they share a start time (the `X`-event nesting rule), converting
    /// nanoseconds to the format's microseconds.
    #[test]
    fn span_chrome_trace_orders_parents_first() {
        let doc = span_chrome_trace(&sample_spans());
        let parsed = json::parse(&doc.to_string()).expect("valid JSON");
        let events = parsed.get("traceEvents").unwrap().as_array().unwrap();
        assert_eq!(events.len(), 2);
        // Same ts, so the root (lower id) must come first.
        let args0 = events[0].get("args").unwrap();
        assert_eq!(args0.get("id").unwrap().as_u64(), Some(1));
        assert_eq!(events[0].get("name").unwrap().as_str(), Some("io_write"));
        assert_eq!(events[0].get("ts").unwrap().as_f64(), Some(1.0));
        assert_eq!(events[0].get("dur").unwrap().as_f64(), Some(3.0));
        assert_eq!(events[1].get("name").unwrap().as_str(), Some("write_path"));
    }
}
