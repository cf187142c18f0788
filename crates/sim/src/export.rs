//! Exporters for collected traces and metrics.
//!
//! Five record formats, each a [`Document`] that streams itself record by
//! record — into a `String` (`to_string()`, the `*_jsonl` functions) or
//! chunk by chunk into a file ([`write_file`]) — without ever holding a
//! [`Json`] tree, or more than 64 KiB, of the output:
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
//! * [`span_jsonl`] / [`Document::SpanChromeTrace`] — the causal
//!   IO-lifecycle spans, as JSONL for analysis and as nested `X` (complete)
//!   slices for Perfetto.
//!
//! Plus small tree-building helpers ([`counters_json`],
//! [`latency_summary_json`]) used by the CLI's `--stats-json` report.

use std::fmt::{self, Write as _};
use std::io::Write as _;

use conzone_types::{Counters, DeviceEvent, FaultKind, L2pOutcome, SpanRecord, TraceRecord};

use crate::json::{write_f64, write_u64, Json, ObjectWriter};
use crate::stats::LatencySummary;
use crate::trace::MetricsSample;

fn outcome_name(o: L2pOutcome) -> &'static str {
    match o {
        L2pOutcome::HitZone => "hit_zone",
        L2pOutcome::HitChunk => "hit_chunk",
        L2pOutcome::HitPage => "hit_page",
        L2pOutcome::Miss => "miss",
    }
}

fn fault_name(kind: FaultKind) -> &'static str {
    match kind {
        FaultKind::Program => "program",
        FaultKind::Erase => "erase",
    }
}

/// Writes the event's payload fields as members of `o`. No `_` arm: a new
/// `DeviceEvent` variant must fail the build here, not export empty args.
#[deny(clippy::wildcard_enum_match_arm)]
fn event_args<W: fmt::Write>(o: &mut ObjectWriter<'_, W>, event: &DeviceEvent) -> fmt::Result {
    match *event {
        DeviceEvent::BufferFlush { zone, slices, .. }
        | DeviceEvent::PatchSlice { zone, slices } => {
            o.u64("zone", zone.raw())?;
            o.u64("slices", slices)
        }
        DeviceEvent::BufferConflict { zone } | DeviceEvent::ZoneReset { zone } => {
            o.u64("zone", zone.raw())
        }
        DeviceEvent::SlcCombine {
            zone,
            staged_slices,
        } => {
            o.u64("zone", zone.raw())?;
            o.u64("staged_slices", staged_slices)
        }
        DeviceEvent::GcBegin { valid_slices } => o.u64("valid_slices", valid_slices),
        DeviceEvent::GcEnd { migrated_slices } => o.u64("migrated_slices", migrated_slices),
        DeviceEvent::L2pLookup { outcome } => o.str("outcome", outcome_name(outcome)),
        DeviceEvent::L2pEviction { count } => o.u64("count", count),
        DeviceEvent::L2pLogFlush => Ok(()),
        DeviceEvent::Media { cell, bytes, .. } => {
            o.str("cell", cell.name())?;
            o.u64("bytes", bytes)
        }
        DeviceEvent::FaultInjected { kind, chip, block } => {
            o.str("fault", fault_name(kind))?;
            o.u64("chip", chip)?;
            o.u64("block", block)
        }
        DeviceEvent::BlockRetired { chip, block } => {
            o.u64("chip", chip)?;
            o.u64("block", block)
        }
        DeviceEvent::ReadRetry { steps } => o.u64("steps", u64::from(steps)),
        DeviceEvent::PowerCut { lost_slices } => o.u64("lost_slices", lost_slices),
        DeviceEvent::RecoveryReplay {
            recovered_slices,
            lost_slices,
        } => {
            o.u64("recovered_slices", recovered_slices)?;
            o.u64("lost_slices", lost_slices)
        }
        DeviceEvent::QueueSubmit { queue, backlog } => {
            o.u64("queue", queue)?;
            o.u64("backlog", backlog)
        }
        DeviceEvent::QueueArbitrate { queue, wait_ns } => {
            o.u64("queue", queue)?;
            o.u64("wait_ns", wait_ns)
        }
        DeviceEvent::QueueComplete { queue, inflight } => {
            o.u64("queue", queue)?;
            o.u64("inflight", inflight)
        }
    }
}

/// Below this many nanoseconds (11.5 simulated days) a microsecond value
/// has at most 15 significant digits.
const EXACT_MICROS_BELOW_NS: u64 = 1_000_000_000_000_000;

/// Writes simulated nanoseconds in the trace-event format's microseconds,
/// with the bytes [`write_f64`]`(ns as f64 / 1000.0)` prints.
///
/// Below [`EXACT_MICROS_BELOW_NS`] those bytes are the exact decimal
/// `ns / 1000 . ns % 1000` with trailing zeros trimmed (`.0` for a whole
/// number), written from integers: a decimal of at most 15 significant
/// digits is the only one that short inside the rounding interval of the
/// double nearest to it, so it is the shortest form that round-trips —
/// which is what `{}` prints. (Measured: 55 ns for a `{}` and 135 ns for a
/// `{:.1}`, against 170 ns for all the rest of a trace record.) From there
/// up the float path itself runs.
fn write_micros<W: fmt::Write>(out: &mut W, ns: u64) -> fmt::Result {
    if ns >= EXACT_MICROS_BELOW_NS {
        return write_f64(out, ns as f64 / 1000.0);
    }
    write_u64(out, ns / 1000)?;
    out.write_char('.')?;
    // Thousandths digit by digit, stopping where only zeros follow.
    let (mut rest, mut place) = (ns % 1000, 100);
    loop {
        write_u64(out, rest / place)?;
        rest %= place;
        place /= 10;
        if rest == 0 {
            return Ok(());
        }
    }
}

/// One export over borrowed records, streamed as text: the document hands
/// a sink the output a chunk at a time; `Display` (hence `to_string()`)
/// and [`write_file`] are that with two different sinks.
/// Nothing of the output is held but the chunk being filled.
///
/// The two event-trace variants take their records as two slices, older
/// then newer, so that the halves [`RingBufferSink::read`] hands over are
/// exported where they lie; a single slice is `(records, &[])`.
///
/// [`RingBufferSink::read`]: crate::RingBufferSink::read
#[derive(Debug, Clone, Copy)]
pub enum Document<'a> {
    /// [`chrome_trace`]
    ChromeTrace(&'a [TraceRecord], &'a [TraceRecord]),
    /// [`trace_jsonl`]
    TraceJsonl(&'a [TraceRecord], &'a [TraceRecord]),
    /// A Chrome trace-event document of closed spans, using `X`
    /// (complete) events so Perfetto nests each IO's causal chain as
    /// stacked slices on one track. Events are sorted by start time with
    /// parents before their children (ids follow open order, so the id is
    /// the tiebreak), which is what the format requires for `X` events
    /// sharing a thread.
    SpanChromeTrace(&'a [SpanRecord]),
    /// [`span_jsonl`]
    SpanJsonl(&'a [SpanRecord]),
    /// [`metrics_jsonl`]
    MetricsJsonl(&'a [MetricsSample]),
}

/// A chunk goes to the sink once it has grown past this many bytes.
const CHUNK_BYTES: usize = 64 * 1024;

/// The chunk being filled and where full ones go. Records are formatted
/// straight into the `String` (monomorphic, infallible pushes — a
/// `Formatter` or a file behind every fragment costs more than the
/// formatting itself); only whole chunks cross to the sink.
struct Chunks<S> {
    text: String,
    sink: S,
}

impl<E, S: FnMut(&str) -> Result<(), E>> Chunks<S> {
    /// Appends what `write` formats, then passes the chunk on if it is
    /// full.
    fn record(&mut self, write: impl FnOnce(&mut String) -> fmt::Result) -> Result<(), E> {
        // Writing into a `String` cannot fail.
        let _ = write(&mut self.text);
        if self.text.len() >= CHUNK_BYTES {
            self.flush()?;
        }
        Ok(())
    }

    fn flush(&mut self) -> Result<(), E> {
        (self.sink)(&self.text)?;
        self.text.clear();
        Ok(())
    }

    /// One line per item.
    fn lines<T>(
        &mut self,
        items: impl IntoIterator<Item = T>,
        mut line: impl FnMut(ObjectWriter<'_, String>, T) -> fmt::Result,
    ) -> Result<(), E> {
        for item in items {
            self.record(|text| {
                line(ObjectWriter::begin(text)?, item)?;
                text.write_char('\n')
            })?;
        }
        Ok(())
    }

    /// `{"traceEvents":[…],"displayTimeUnit":"ns"}` around the items, each
    /// written by `event` as one object of the array.
    fn trace_events<T>(
        &mut self,
        items: impl IntoIterator<Item = T>,
        mut event: impl FnMut(ObjectWriter<'_, String>, T) -> fmt::Result,
    ) -> Result<(), E> {
        self.text.push_str("{\"traceEvents\":[");
        for (i, item) in items.into_iter().enumerate() {
            self.record(|text| {
                if i > 0 {
                    text.push(',');
                }
                event(ObjectWriter::begin(text)?, item)
            })?;
        }
        self.text.push_str("],\"displayTimeUnit\":\"ns\"}");
        Ok(())
    }
}

impl Document<'_> {
    /// Streams the document into `sink`, in chunks of about 64 KiB that
    /// end on a record boundary.
    ///
    /// # Errors
    ///
    /// The sink's; the exporters themselves cannot fail.
    pub(crate) fn stream<E>(&self, sink: impl FnMut(&str) -> Result<(), E>) -> Result<(), E> {
        let mut out = Chunks {
            text: String::with_capacity(CHUNK_BYTES + 1024),
            sink,
        };
        match *self {
            Document::ChromeTrace(older, newer) => {
                let mut sorted: Vec<&TraceRecord> = older.iter().chain(newer).collect();
                sorted.sort_by_key(|r| r.time);
                out.trace_events(sorted, |mut o, r| {
                    let (ph, name) = match r.event {
                        DeviceEvent::GcBegin { .. } => ("B", "gc"),
                        DeviceEvent::GcEnd { .. } => ("E", "gc"),
                        // The fallback delegates to kind_name, which is total.
                        _ => ("i", r.event.kind_name()),
                    };
                    o.str("name", name)?;
                    o.str("ph", ph)?;
                    write_micros(o.key("ts")?, r.time.as_nanos())?;
                    o.u64("pid", 0)?;
                    o.u64("tid", 0)?;
                    if ph == "i" {
                        // Thread-scoped instant, so Perfetto draws it on the track.
                        o.str("s", "t")?;
                    }
                    let mut args = o.object("args")?;
                    event_args(&mut args, &r.event)?;
                    args.end()?;
                    o.end()
                })?;
            }
            Document::TraceJsonl(older, newer) => {
                out.lines(older.iter().chain(newer), |mut o, r| {
                    o.u64("ts_ns", r.time.as_nanos())?;
                    o.str("kind", r.event.kind_name())?;
                    event_args(&mut o, &r.event)?;
                    o.end()
                })?;
            }
            Document::SpanChromeTrace(spans) => {
                let mut sorted: Vec<&SpanRecord> = spans.iter().collect();
                sorted.sort_by_key(|s| (s.start, s.id));
                out.trace_events(sorted, |mut o, s| {
                    o.str("name", s.kind.name())?;
                    o.str("ph", "X")?;
                    write_micros(o.key("ts")?, s.start.as_nanos())?;
                    write_micros(o.key("dur")?, s.duration_nanos())?;
                    o.u64("pid", 0)?;
                    o.u64("tid", 0)?;
                    let mut args = o.object("args")?;
                    args.u64("id", s.id)?;
                    args.u64("parent", s.parent)?;
                    args.u64("io", s.io)?;
                    args.end()?;
                    o.end()
                })?;
            }
            Document::SpanJsonl(spans) => out.lines(spans, |mut o, s| {
                o.u64("id", s.id)?;
                o.u64("parent", s.parent)?;
                o.u64("io", s.io)?;
                o.str("kind", s.kind.name())?;
                o.u64("start_ns", s.start.as_nanos())?;
                o.u64("end_ns", s.end.as_nanos())?;
                o.u64("dur_ns", s.duration_nanos())?;
                o.end()
            })?,
            Document::MetricsJsonl(samples) => out.lines(samples, |mut o, s| {
                o.u64("start_ns", s.start.as_nanos())?;
                o.u64("end_ns", s.end.as_nanos())?;
                let mut counters = o.object("counters")?;
                for (name, value) in s.delta.named_fields() {
                    counters.u64(name, value)?;
                }
                counters.end()?;
                o.end()
            })?,
        }
        out.flush()
    }
}

impl fmt::Display for Document<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.stream(|chunk| f.write_str(chunk))
    }
}

/// Streams `document` into a new file at `path`, one `write` per chunk —
/// the one way the CLI and the figure binaries put an export on disk.
///
/// # Errors
///
/// A create or write failure, as `<path>: <reason>`.
pub fn write_file(path: &str, document: Document<'_>) -> Result<(), String> {
    std::fs::File::create(path)
        .and_then(|mut file| document.stream(|chunk| file.write_all(chunk.as_bytes())))
        .map_err(|e| format!("{path}: {e}"))
}

/// A Chrome trace-event document (`{"traceEvents": [...]}`) of the
/// recorded events, Perfetto-loadable.
///
/// Events are sorted by timestamp; GC begin/end pairs become duration
/// slices named `gc`, all other events thread-scoped instants. `ts` is in
/// microseconds per the format, converted from the simulated nanosecond
/// clock.
pub fn chrome_trace(records: &[TraceRecord]) -> Document<'_> {
    Document::ChromeTrace(records, &[])
}

/// One JSON object per event, newline-separated:
/// `{"ts_ns": …, "kind": "…", …fields}`.
pub fn trace_jsonl(records: &[TraceRecord]) -> String {
    Document::TraceJsonl(records, &[]).to_string()
}

/// One JSON object per closed span, newline-separated:
/// `{"id": …, "parent": …, "io": …, "kind": "…", "start_ns": …,
/// "end_ns": …, "dur_ns": …}`.
pub fn span_jsonl(spans: &[SpanRecord]) -> String {
    Document::SpanJsonl(spans).to_string()
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
    Document::MetricsJsonl(samples).to_string()
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
        let records = sample_records();
        let doc = chrome_trace(&records);
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

    /// Every exporter prints strings through the escaper [`Json`] prints
    /// them through, so hostile strings — quotes, backslashes, control
    /// characters, non-ASCII — must escape on the way out and round-trip
    /// through our own parser.
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
        let spans = sample_spans();
        let doc = Document::SpanChromeTrace(&spans);
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

    /// The `Json`-tree builders the streaming exporters replaced, kept as
    /// the reference they are compared against byte for byte: one heap
    /// tree per record, printed through `Json`'s `Display`.
    mod tree {
        use super::super::*;

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
                    ("cell", Json::from(cell.name())),
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

        pub(super) fn chrome_trace(records: &[TraceRecord]) -> Json {
            let mut sorted: Vec<&TraceRecord> = records.iter().collect();
            sorted.sort_by_key(|r| r.time);
            let mut events = Vec::with_capacity(sorted.len());
            for r in sorted {
                let (ph, name) = match r.event {
                    DeviceEvent::GcBegin { .. } => ("B", "gc"),
                    DeviceEvent::GcEnd { .. } => ("E", "gc"),
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

        pub(super) fn trace_jsonl(records: &[TraceRecord]) -> String {
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

        pub(super) fn span_jsonl(spans: &[SpanRecord]) -> String {
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

        pub(super) fn span_chrome_trace(spans: &[SpanRecord]) -> Json {
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

        pub(super) fn metrics_jsonl(samples: &[MetricsSample]) -> String {
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
    }

    /// Timestamps that take every branch of the number printer: zero,
    /// integral and non-integral microseconds, the last value under the
    /// `1e15` cut-over of the one-decimal form, the first ones over it (as
    /// microseconds and as nanoseconds), and the end of the clock.
    const TIMES_NS: [u64; 12] = [
        0,
        1,
        999,
        1_000,
        1_500,
        123_456_789,
        6_750_788,
        999_999_999_999_999_000,
        1_000_000_000_000_000,
        1_000_000_000_000_000_000,
        1_000_000_000_000_000_123,
        u64::MAX,
    ];

    /// The integer microsecond printer against the float path it stands
    /// for: every nanosecond of the first 20 µs, 100 000 values spread over
    /// fifteen decades, and both sides of the cut-over.
    #[test]
    fn micros_print_the_float_paths_bytes() {
        let float_path = |ns: u64| {
            let mut text = String::new();
            write_f64(&mut text, ns as f64 / 1000.0).unwrap();
            text
        };
        let mut rng = crate::SimRng::new(20);
        let spread = (0..100_000u64).map(|i| rng.below(10u64.pow(1 + (i % 15) as u32)));
        let edge = EXACT_MICROS_BELOW_NS;
        for ns in (0..20_000).chain(spread).chain(edge - 1_100..edge + 1_100) {
            let mut text = String::new();
            write_micros(&mut text, ns).unwrap();
            assert_eq!(text, float_path(ns), "{ns} ns");
        }
    }

    /// The streaming exporters against the tree builders they replaced,
    /// byte for byte: every `DeviceEvent` variant (and payload variation)
    /// and every `SpanKind`, at each of `TIMES_NS`, out of time order so
    /// the sorts matter; event records whole and split into two halves;
    /// through `stream`, through `Display` and through a file.
    #[test]
    fn streaming_exporters_equal_the_tree_builders_byte_for_byte() {
        let events = crate::trace::all_events();
        let kinds: std::collections::BTreeSet<usize> =
            events.iter().map(DeviceEvent::kind_index).collect();
        assert_eq!(kinds.len(), DeviceEvent::KIND_COUNT, "a kind is missing");
        let records: Vec<TraceRecord> = (0..events.len() * TIMES_NS.len())
            .map(|i| TraceRecord {
                // Each event meets each time; 7 is coprime to 12, so
                // neighbours are far apart on the clock.
                time: SimTime::from_nanos(TIMES_NS[i * 7 % TIMES_NS.len()]),
                event: events[i % events.len()],
            })
            .collect();
        assert_eq!(
            chrome_trace(&records).to_string(),
            tree::chrome_trace(&records).to_string()
        );
        assert_eq!(trace_jsonl(&records), tree::trace_jsonl(&records));
        // Split anywhere into older and newer halves, the records export
        // as the whole slice does.
        for at in [0, 1, records.len() / 2, records.len() - 1, records.len()] {
            let (older, newer) = records.split_at(at);
            assert_eq!(
                Document::ChromeTrace(older, newer).to_string(),
                tree::chrome_trace(&records).to_string(),
                "split at {at}"
            );
            assert_eq!(
                Document::TraceJsonl(older, newer).to_string(),
                tree::trace_jsonl(&records),
                "split at {at}"
            );
        }
        // Past 64 KiB the output crosses to the sink in chunks that end on
        // record boundaries, and nothing is lost between them.
        let many: Vec<TraceRecord> = records.iter().cycle().take(2_000).copied().collect();
        let mut chunks = Vec::new();
        let streamed: Result<(), ()> = chrome_trace(&many).stream(|chunk| {
            chunks.push(chunk.to_string());
            Ok(())
        });
        assert_eq!(streamed, Ok(()));
        assert!(chunks.len() >= 3, "{} chunks", chunks.len());
        for chunk in &chunks[..chunks.len() - 1] {
            assert!(chunk.len() >= CHUNK_BYTES && chunk.len() < CHUNK_BYTES + 1024);
            assert!(chunk.ends_with("}}"), "{}", &chunk[chunk.len() - 40..]);
        }
        assert_eq!(chunks.concat(), tree::chrome_trace(&many).to_string());

        let spans: Vec<SpanRecord> = (0..conzone_types::SpanKind::ALL.len() * TIMES_NS.len())
            .map(|i| {
                let start = TIMES_NS[i * 5 % TIMES_NS.len()];
                let end = TIMES_NS[i * 7 % TIMES_NS.len()];
                SpanRecord {
                    id: i as u64 + 1,
                    parent: i as u64 / 3,
                    io: u64::MAX - i as u64,
                    kind: conzone_types::SpanKind::ALL[i % conzone_types::SpanKind::KIND_COUNT],
                    start: SimTime::from_nanos(start.min(end)),
                    end: SimTime::from_nanos(start.max(end)),
                }
            })
            .collect();
        assert_eq!(
            Document::SpanChromeTrace(&spans).to_string(),
            tree::span_chrome_trace(&spans).to_string()
        );
        assert_eq!(span_jsonl(&spans), tree::span_jsonl(&spans));

        let samples: Vec<MetricsSample> = TIMES_NS
            .windows(2)
            .enumerate()
            .map(|(i, w)| {
                let mut delta = Counters::new();
                delta.host_write_bytes = w[0];
                delta.gc_runs = i as u64;
                delta.zone_resets = u64::MAX - w[1];
                MetricsSample {
                    start: SimTime::from_nanos(w[0]),
                    end: SimTime::from_nanos(w[1]),
                    delta,
                }
            })
            .collect();
        assert_eq!(metrics_jsonl(&samples), tree::metrics_jsonl(&samples));

        // Empty inputs keep the document frame.
        assert_eq!(
            chrome_trace(&[]).to_string(),
            tree::chrome_trace(&[]).to_string()
        );
        assert_eq!(span_jsonl(&[]), "");

        // The file path writes the same bytes, and names the path when it
        // cannot.
        let dir = std::env::temp_dir().join(format!("conzone-export-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("trace.json");
        write_file(path.to_str().unwrap(), chrome_trace(&records)).unwrap();
        assert_eq!(
            std::fs::read_to_string(&path).unwrap(),
            tree::chrome_trace(&records).to_string()
        );
        let missing = dir.join("no-such-dir").join("trace.json");
        let err = write_file(missing.to_str().unwrap(), chrome_trace(&records)).unwrap_err();
        assert!(err.starts_with(missing.to_str().unwrap()), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }
}
