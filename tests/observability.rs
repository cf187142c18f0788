//! End-to-end tests of the observability pipeline: device event tracing,
//! IO-lifecycle spans, interval metrics sampling, and the Chrome-trace /
//! JSONL exports — both through the library API and through the `conzone`
//! CLI.

use std::process::Command;
use std::sync::Arc;

use conzone_check::{check, Rng};

use conzone::host::{run_job, run_job_sampled, AccessPattern, FioJob};
use conzone::sim::{
    attribute_spans, breakdown_from_spans, export, json, RingBufferSink, SpanBuffer,
};
use conzone::types::{DeviceConfig, Probe, SimDuration, SpanRecord, StorageDevice};
use conzone::ConZone;

/// Library-level round-trip: run a workload with a ring sink attached and
/// an interval sampler, then check the Chrome trace parses back with
/// monotonic timestamps and the metrics samples tile the run exactly.
#[test]
fn trace_and_metrics_round_trip_through_exports() {
    let mut dev = ConZone::new(DeviceConfig::tiny_for_tests());
    let sink = Arc::new(RingBufferSink::with_capacity(64 * 1024));
    dev.set_probe(Probe::attached(sink.clone()));

    let before = dev.counters();
    let job = FioJob::new(AccessPattern::SeqWrite, 128 * 1024)
        .zone_bytes(dev.config().zone_size_bytes())
        .region(0, 4 * 1024 * 1024)
        .bytes_per_thread(4 * 1024 * 1024);
    let report = run_job_sampled(&mut dev, &job, SimDuration::from_micros(500)).expect("run");
    let after = dev.counters();

    // The trace round-trips through the Chrome trace-event export.
    let records = sink.drain();
    assert!(!records.is_empty());
    let parsed = json::parse(&export::chrome_trace(&records).to_string()).expect("valid JSON");
    let events = parsed
        .get("traceEvents")
        .and_then(|e| e.as_array())
        .expect("traceEvents array");
    assert_eq!(events.len(), records.len());
    let mut last_ts = f64::MIN;
    let mut names = std::collections::BTreeSet::new();
    for e in events {
        let ts = e.get("ts").and_then(|t| t.as_f64()).expect("ts");
        assert!(ts >= last_ts, "timestamps must be monotonic");
        last_ts = ts;
        names.insert(e.get("name").and_then(|n| n.as_str()).unwrap().to_string());
    }
    // A sequential write over whole zones drains the shared buffer in
    // full programming units.
    assert!(names.contains("buffer_flush_full"), "{names:?}");

    // Metrics samples tile [start, finished] with one Counters delta per
    // interval, and the deltas sum to the whole-run delta.
    assert!(!report.metrics.is_empty());
    for w in report.metrics.windows(2) {
        assert_eq!(w[0].end, w[1].start, "intervals must tile");
    }
    assert_eq!(report.metrics.first().unwrap().start, job.start);
    assert_eq!(report.metrics.last().unwrap().end, report.finished);
    let summed: u64 = report
        .metrics
        .iter()
        .map(|s| s.delta.host_write_bytes)
        .sum();
    assert_eq!(summed, after.since(&before).host_write_bytes);

    // And the JSONL export has one parseable line per interval.
    let jsonl = export::metrics_jsonl(&report.metrics);
    let lines: Vec<&str> = jsonl.lines().collect();
    assert_eq!(lines.len(), report.metrics.len());
    for line in lines {
        let obj = json::parse(line).expect("each line is one JSON object");
        assert!(obj.get("start_ns").and_then(|v| v.as_u64()).is_some());
        assert!(obj.get("end_ns").and_then(|v| v.as_u64()).is_some());
        assert!(obj.get("counters").is_some());
    }
}

/// A randwrite churn workload in conventional zones exercises SLC GC; the
/// paired GcBegin/GcEnd records become `B`/`E` spans in the Chrome trace.
#[test]
fn gc_events_pair_into_spans() {
    let mut dev = ConZone::new(
        DeviceConfig::builder(conzone::types::Geometry::tiny())
            .chunk_bytes(256 * 1024)
            .data_backing(true)
            .conventional_zones(2)
            .build()
            .expect("config"),
    );
    let sink = Arc::new(RingBufferSink::with_capacity(64 * 1024));
    dev.set_probe(Probe::attached(sink.clone()));

    // Overwrite 1 MiB four times over: SLC churn forces garbage collection.
    let job = FioJob::new(AccessPattern::RandWrite, 4096)
        .region(0, 1024 * 1024)
        .bytes_per_thread(4 * 1024 * 1024);
    run_job(&mut dev, &job).expect("churn");
    assert!(dev.counters().gc_runs > 0, "workload must trigger GC");

    let records = sink.drain();
    let parsed = json::parse(&export::chrome_trace(&records).to_string()).expect("valid JSON");
    let events = parsed
        .get("traceEvents")
        .and_then(|e| e.as_array())
        .unwrap();
    let mut begins = 0i64;
    let mut ends = 0i64;
    for e in events {
        if e.get("name").and_then(|n| n.as_str()) == Some("gc") {
            match e.get("ph").and_then(|p| p.as_str()) {
                Some("B") => begins += 1,
                Some("E") => {
                    ends += 1;
                    assert!(ends <= begins, "E before matching B");
                }
                other => panic!("gc event with phase {other:?}"),
            }
        }
    }
    assert!(begins > 0, "no GC spans in trace");
    assert_eq!(begins, ends, "every GC begin must have an end");
}

/// A tiny device whose small L2P cache, conventional zones and data
/// backing make a short workload touch every breakdown span kind: map
/// fetches, data reads, GC stalls and the write path.
fn spanful_device() -> ConZone {
    ConZone::new(
        DeviceConfig::builder(conzone::types::Geometry::tiny())
            .chunk_bytes(256 * 1024)
            .data_backing(true)
            .conventional_zones(2)
            .l2p_cache_bytes(256)
            .build()
            .expect("config"),
    )
}

/// Fill, churn (forces SLC GC), then cache-missing random reads — the
/// fig7-style phase mix. Returns the final finished time.
fn spanful_workload(dev: &mut ConZone, seed: u64) -> conzone::host::JobReport {
    let fill = FioJob::new(AccessPattern::SeqWrite, 128 * 1024)
        .region(0, 4 * 1024 * 1024)
        .bytes_per_thread(4 * 1024 * 1024);
    let fill_report = run_job(dev, &fill).expect("fill");
    let churn = FioJob::new(AccessPattern::RandWrite, 4096)
        .region(0, 1024 * 1024)
        .bytes_per_thread(4 * 1024 * 1024)
        .seed(seed)
        .start_at(fill_report.finished);
    let churn_report = run_job(dev, &churn).expect("churn");
    let reads = FioJob::new(AccessPattern::RandRead, 4096)
        .region(0, 4 * 1024 * 1024)
        .ops_per_thread(500)
        .bytes_per_thread(u64::MAX)
        .seed(seed.wrapping_add(1))
        .start_at(churn_report.finished);
    run_job(dev, &reads).expect("reads")
}

/// The tentpole acceptance check: per-category self-time sums over the
/// span dump must reconcile with the device's own `TimeBreakdown` — not
/// approximately, but nanosecond-exactly, because both sides charge the
/// same DES intervals.
#[test]
fn span_self_times_reconcile_with_time_breakdown() {
    let mut dev = spanful_device();
    let spans = Arc::new(SpanBuffer::with_capacity(1 << 20));
    dev.set_span_sink(spans.clone());
    spanful_workload(&mut dev, 11);

    assert!(dev.counters().gc_runs > 0, "workload must trigger GC");
    assert!(
        dev.counters().l2p_misses > 0,
        "workload must miss the cache"
    );
    assert_eq!(spans.dropped(), 0, "buffer must be large enough");

    let records = spans.drain();
    assert!(!records.is_empty());
    let from_spans = breakdown_from_spans(&records);
    let device_side = dev.time_breakdown();
    for (name, expected) in device_side.categories() {
        let got = from_spans
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, d)| *d)
            .unwrap_or(SimDuration::ZERO);
        assert_eq!(
            got.as_nanos(),
            expected.as_nanos(),
            "category `{name}` disagrees: spans say {got}, breakdown says {expected}"
        );
    }
    // The phase mix really exercised more than the write path.
    let attr = attribute_spans(&records);
    for kind in ["map_fetch", "data_read", "write_path", "gc_stall"] {
        assert!(
            attr.iter().any(|a| a.kind.name() == kind && a.count > 0),
            "no `{kind}` spans recorded"
        );
    }
}

/// Attaching the span sink must not perturb the simulation: same finish
/// time, same counters, bit for bit.
#[test]
fn attaching_spans_does_not_change_simulated_results() {
    let mut plain = spanful_device();
    let plain_report = spanful_workload(&mut plain, 23);

    let mut instrumented = spanful_device();
    let spans = Arc::new(SpanBuffer::with_capacity(1 << 20));
    instrumented.set_span_sink(spans.clone());
    let instrumented_report = spanful_workload(&mut instrumented, 23);

    assert!(spans.recorded() > 0);
    assert_eq!(plain_report.finished, instrumented_report.finished);
    assert_eq!(plain_report.counters, instrumented_report.counters);
    assert_eq!(plain.counters(), instrumented.counters());
}

/// Checks one IO's spans form a properly nested tree: exactly one root,
/// every child's interval inside its parent's, every parent id known.
fn assert_io_spans_nest(io: u64, spans: &[&SpanRecord]) {
    let roots: Vec<&&SpanRecord> = spans.iter().filter(|s| s.parent == 0).collect();
    assert_eq!(roots.len(), 1, "io {io} must have exactly one root span");
    let by_id: std::collections::BTreeMap<u64, &&SpanRecord> =
        spans.iter().map(|s| (s.id, s)).collect();
    assert_eq!(by_id.len(), spans.len(), "span ids must be unique");
    for s in spans {
        assert!(s.end >= s.start, "span {} ends before it starts", s.id);
        if s.parent != 0 {
            let parent = by_id.get(&s.parent).unwrap_or_else(|| {
                panic!("io {io}: span {} has unknown parent {}", s.id, s.parent)
            });
            assert!(parent.id < s.id, "parents open before children");
            assert!(
                parent.start <= s.start && s.end <= parent.end,
                "io {io}: child {} [{}, {}] escapes parent {} [{}, {}]",
                s.id,
                s.start,
                s.end,
                parent.id,
                parent.start,
                parent.end
            );
        } else {
            assert!(
                s.kind.breakdown_category().is_none(),
                "root spans must be IO-lifecycle kinds, got {}",
                s.kind.name()
            );
        }
    }
}

/// Whatever the workload shape, the recorder never emits a dangling or
/// crossing span: per IO the dump is one properly nested tree.
#[test]
fn span_nesting_is_balanced_per_io() {
    let generate = |rng: &mut Rng| {
        let shape = (rng.range(0..1024), rng.range(64..2048), rng.range(1..400));
        (shape, Vec::<()>::new())
    };
    let path = concat!(module_path!(), "::span_nesting_is_balanced_per_io");
    check(path, 16, generate, |&(seed, churn_kib, read_ops), _| {
        let mut dev = spanful_device();
        let spans = Arc::new(SpanBuffer::with_capacity(1 << 20));
        dev.set_span_sink(spans.clone());

        let fill = FioJob::new(AccessPattern::SeqWrite, 128 * 1024)
            .region(0, 2 * 1024 * 1024)
            .bytes_per_thread(2 * 1024 * 1024);
        let fill_report = run_job(&mut dev, &fill).expect("fill");
        let churn = FioJob::new(AccessPattern::RandWrite, 4096)
            .region(0, 1024 * 1024)
            .bytes_per_thread(churn_kib * 1024)
            .seed(seed)
            .start_at(fill_report.finished);
        let churn_report = run_job(&mut dev, &churn).expect("churn");
        let reads = FioJob::new(AccessPattern::RandRead, 4096)
            .region(0, 2 * 1024 * 1024)
            .ops_per_thread(read_ops)
            .bytes_per_thread(u64::MAX)
            .seed(seed.wrapping_add(1))
            .start_at(churn_report.finished);
        run_job(&mut dev, &reads).expect("reads");

        let records = spans.drain();
        assert!(!records.is_empty());
        let mut by_io: std::collections::BTreeMap<u64, Vec<&SpanRecord>> =
            std::collections::BTreeMap::new();
        for s in &records {
            assert!(s.io != 0, "every span belongs to an IO");
            by_io.entry(s.io).or_default().push(s);
        }
        for (io, group) in &by_io {
            assert_io_spans_nest(*io, group);
        }
    });
}

fn conzone_cli(args: &[&str]) -> (bool, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_conzone"))
        .args(args)
        .output()
        .expect("spawn conzone");
    (
        out.status.success(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

/// The acceptance scenario: `conzone run` with `--trace-out` and
/// `--metrics-out` produces a Perfetto-loadable trace containing GC,
/// buffer-flush and L2P-miss events with monotonic timestamps, plus a
/// metrics JSONL with one counters delta per interval.
#[test]
fn cli_trace_has_gc_flush_and_l2p_miss_events() {
    let dir = std::env::temp_dir().join("conzone-observability-e2e");
    std::fs::create_dir_all(&dir).unwrap();
    let job_path = dir.join("obs.fio");
    let trace_path = dir.join("events.json");
    let metrics_path = dir.join("metrics.jsonl");
    // Fill crosses from the conventional zones into sequential zones
    // (buffer flushes), the churn job forces SLC GC, and the small L2P
    // cache makes the read phase miss.
    std::fs::write(
        &job_path,
        "[global]\nbs=128k\nsize=4m\n\n[fill]\nrw=write\n\n\
         [churn]\nrw=randwrite\nbs=4k\nsize=1m\nio_size=4m\n\n\
         [reads]\nrw=randread\nbs=4k\nio_size=1m\n",
    )
    .unwrap();

    let (ok, _, stderr) = conzone_cli(&[
        "run",
        "--config",
        "tiny",
        "--job",
        job_path.to_str().unwrap(),
        "--conventional",
        "2",
        "--cache",
        "256",
        "--trace-out",
        trace_path.to_str().unwrap(),
        "--metrics-out",
        metrics_path.to_str().unwrap(),
        "--metrics-interval",
        "200us",
    ]);
    assert!(ok, "{stderr}");

    let trace = std::fs::read_to_string(&trace_path).unwrap();
    let parsed = json::parse(&trace).expect("trace file is valid JSON");
    let events = parsed
        .get("traceEvents")
        .and_then(|e| e.as_array())
        .expect("traceEvents");
    assert!(!events.is_empty());
    let mut last_ts = f64::MIN;
    let mut names = std::collections::BTreeSet::new();
    for e in events {
        let ts = e.get("ts").and_then(|t| t.as_f64()).expect("ts");
        assert!(ts >= last_ts, "timestamps must be monotonic");
        last_ts = ts;
        names.insert(e.get("name").and_then(|n| n.as_str()).unwrap().to_string());
    }
    for required in ["gc", "buffer_flush_full", "l2p_miss"] {
        assert!(names.contains(required), "missing {required} in {names:?}");
    }

    let metrics = std::fs::read_to_string(&metrics_path).unwrap();
    let mut intervals = 0usize;
    let mut write_bytes = 0u64;
    for line in metrics.lines() {
        let obj = json::parse(line).expect("metrics line parses");
        let start = obj
            .get("start_ns")
            .and_then(|v| v.as_u64())
            .expect("start_ns");
        let end = obj.get("end_ns").and_then(|v| v.as_u64()).expect("end_ns");
        assert!(end > start, "non-empty interval");
        let counters = obj.get("counters").expect("counters delta");
        write_bytes += counters
            .get("host_write_bytes")
            .and_then(|v| v.as_u64())
            .expect("host_write_bytes");
        intervals += 1;
    }
    assert!(
        intervals > 10,
        "expected many 200us intervals, got {intervals}"
    );
    // fill 4 MiB + churn 4 MiB of host writes, spread over the intervals.
    assert_eq!(write_bytes, 8 * 1024 * 1024);

    std::fs::remove_file(&job_path).ok();
    std::fs::remove_file(&trace_path).ok();
    std::fs::remove_file(&metrics_path).ok();
}

/// `conzone run --span-out --heatmap --stats-json`: the span file is a
/// Perfetto-loadable nested trace, the stats JSON carries the span
/// attribution table that reconciles with the breakdown it also reports,
/// and the heatmap snapshot has one row per zone.
#[test]
fn cli_span_out_heatmap_and_stats_json() {
    let dir = std::env::temp_dir().join("conzone-span-e2e");
    std::fs::create_dir_all(&dir).unwrap();
    let span_path = dir.join("spans.json");

    let (ok, stdout, stderr) = conzone_cli(&[
        "run",
        "--config",
        "tiny",
        "--pattern",
        "seqwrite",
        "--bs",
        "128k",
        "--size",
        "4m",
        "--region",
        "16m",
        "--span-out",
        span_path.to_str().unwrap(),
        "--heatmap",
        "--stats-json",
    ]);
    assert!(ok, "{stderr}");

    // The span file is a Chrome trace of X events with nesting args.
    let trace = std::fs::read_to_string(&span_path).unwrap();
    let parsed = json::parse(&trace).expect("span trace is valid JSON");
    let events = parsed
        .get("traceEvents")
        .and_then(|e| e.as_array())
        .expect("traceEvents");
    assert!(!events.is_empty());
    for e in events {
        assert_eq!(e.get("ph").unwrap().as_str(), Some("X"));
        assert!(e.get("dur").unwrap().as_f64().is_some());
        assert!(e.get("args").unwrap().get("io").unwrap().as_u64().is_some());
    }

    // The stats JSON reports the span table, and it reconciles with the
    // breakdown the same document reports.
    let stats = json::parse(&stdout).expect("stats JSON parses");
    let spans = stats.get("spans").expect("spans section");
    assert_eq!(
        spans.get("recorded").unwrap().as_u64(),
        Some(events.len() as u64)
    );
    assert_eq!(spans.get("dropped").unwrap().as_u64(), Some(0));
    let per_kind = spans.get("per_kind").expect("per_kind table");
    assert!(per_kind.get("io_write").is_some(), "{per_kind}");
    let device_breakdown = stats.get("breakdown_ns").expect("device breakdown");
    let span_breakdown = spans.get("breakdown_ns").expect("span breakdown");
    for name in [
        "mapping_fetch",
        "data_read",
        "write_path",
        "combine_read",
        "gc",
        "l2p_log",
        "erase",
    ] {
        assert_eq!(
            span_breakdown.get(name).unwrap().as_u64(),
            device_breakdown.get(name).unwrap().as_u64(),
            "category `{name}` must reconcile"
        );
    }

    // The heatmap snapshot has one row per zone and per physical block.
    let heatmap = stats.get("heatmap").expect("heatmap section");
    let zones = heatmap.get("zones").unwrap().as_array().unwrap();
    assert!(!zones.is_empty());
    for z in zones {
        for field in ["zone", "state", "wp_slices", "mapped_slices", "utilization"] {
            assert!(z.get(field).is_some(), "zone row missing `{field}`");
        }
    }
    assert!(!heatmap
        .get("blocks")
        .unwrap()
        .as_array()
        .unwrap()
        .is_empty());

    std::fs::remove_file(&span_path).ok();
}

/// `--span-out` and `--heatmap` only make sense for the ConZone device;
/// the CLI must refuse them for baselines rather than silently writing an
/// empty file.
#[test]
fn cli_rejects_span_out_for_baseline_devices() {
    let (ok, _, stderr) = conzone_cli(&[
        "run",
        "--config",
        "tiny",
        "--device",
        "legacy",
        "--pattern",
        "seqwrite",
        "--bs",
        "128k",
        "--size",
        "1m",
        "--span-out",
        "/tmp/never-written.json",
    ]);
    assert!(!ok);
    assert!(stderr.contains("--span-out"), "{stderr}");
}
