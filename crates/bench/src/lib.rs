//! Shared harness code for the figure/table regeneration binaries.
//!
//! Each binary in `src/bin/` regenerates one table or figure of the paper
//! (see DESIGN.md §4 for the experiment index). This library provides the
//! paper's §IV-A evaluation configuration, device factories, the workload
//! recipes behind each figure, and plain-text table printing.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::sync::Arc;

use conzone_core::ConZone;
use conzone_femu::FemuZns;
use conzone_host::{run_job, AccessPattern, FioJob, HostError, JobReport};
use conzone_legacy::LegacyDevice;
use conzone_sim::{export, LatencyHistogram, LatencySummary, RingBufferSink};
use conzone_types::{
    DeviceConfig, DeviceEvent, Geometry, MapGranularity, SearchStrategy, SimTime, StorageDevice,
    TraceRecord,
};

/// The paper's §IV-A configuration: TLC media, 2 channels × 2 chips,
/// 3200 MiB/s channels, 96 KiB programming unit, two 384 KiB write
/// buffers, 12 KiB L2P cache, ~1.5 GB flash with 16 MiB zones.
pub fn paper_config() -> DeviceConfig {
    DeviceConfig::paper_evaluation()
}

/// ConZone with the given mapping cap and search strategy on the paper
/// configuration.
pub fn conzone_device(max_aggregation: MapGranularity, strategy: SearchStrategy) -> ConZone {
    ConZone::new(
        DeviceConfig::builder(Geometry::consumer_1p5gb())
            .max_aggregation(max_aggregation)
            .search_strategy(strategy)
            .build()
            .expect("paper config"),
    )
}

/// The Legacy baseline on the paper configuration (prefetch window = one
/// chunk of entries, matching the paper's 1023-entry window).
pub fn legacy_device() -> LegacyDevice {
    LegacyDevice::new(paper_config())
}

/// The FEMU-like baseline on the paper configuration.
pub fn femu_device() -> FemuZns {
    FemuZns::new(paper_config())
}

/// Target I/O volume of the Fig. 6(a) sequential runs (rounded down to a
/// whole number of zones per thread for zoned devices).
pub const SEQ_VOLUME_BYTES: u64 = 256 * 1024 * 1024;

/// Fig. 6(a)'s fio recipe: 512 KiB sequential I/O over `region` bytes.
pub fn seq_job(pattern: AccessPattern, threads: usize, region: u64) -> FioJob {
    FioJob::new(pattern, 512 * 1024)
        .threads(threads)
        .bytes_per_thread(region / threads as u64)
        .region(0, region)
}

/// Runs write-then-read sequential jobs and returns `(write, read)`
/// reports, as Fig. 6(a) measures. For zoned devices the region rounds
/// down to a whole number of zones per thread so every thread's volume is
/// fully zone-covered (and thus fully readable afterwards).
///
/// # Errors
///
/// Propagates [`HostError`] from either phase.
pub fn run_seq_rw<D: StorageDevice + ?Sized>(
    dev: &mut D,
    threads: usize,
    zone_bytes: Option<u64>,
) -> Result<(JobReport, JobReport), HostError> {
    let region = match zone_bytes {
        Some(zb) => {
            let stride = zb * threads as u64;
            (SEQ_VOLUME_BYTES / stride) * stride
        }
        None => SEQ_VOLUME_BYTES,
    };
    let mut write = seq_job(AccessPattern::SeqWrite, threads, region);
    if let Some(zb) = zone_bytes {
        write = write.zone_bytes(zb);
    }
    let w = run_job(dev, &write)?;
    let r = run_job(
        dev,
        &seq_job(AccessPattern::SeqRead, threads, region).start_at(w.finished),
    )?;
    Ok((w, r))
}

/// Fills `[0, bytes)` of a zoned device sequentially, returning the finish
/// time.
///
/// # Errors
///
/// Propagates [`HostError`].
pub fn fill_zoned<D: StorageDevice + ?Sized>(
    dev: &mut D,
    bytes: u64,
    zone_bytes: u64,
    start: SimTime,
) -> Result<SimTime, HostError> {
    let job = FioJob::new(AccessPattern::SeqWrite, 512 * 1024)
        .zone_bytes(zone_bytes)
        .region(0, bytes)
        .bytes_per_thread(bytes)
        .start_at(start);
    Ok(run_job(dev, &job)?.finished)
}

/// A 4 KiB single-thread random-read job over `[0, range)` with a fixed op
/// count (the Fig. 7 / Fig. 8 recipe).
pub fn randread_job(range: u64, ops: u64, start: SimTime) -> FioJob {
    FioJob::new(AccessPattern::RandRead, 4096)
        .region(0, range)
        .ops_per_thread(ops)
        .bytes_per_thread(u64::MAX)
        .start_at(start)
}

/// Whether `--csv` was passed to the current binary (machine-readable
/// output for plotting scripts).
pub fn csv_mode() -> bool {
    std::env::args().any(|a| a == "--csv")
}

/// Renders a plain-text table, or CSV when the binary was invoked with
/// `--csv`.
pub fn print_table(title: &str, headers: &[&str], rows: &[Vec<String>]) {
    if csv_mode() {
        println!("# {title}");
        println!("{}", headers.join(","));
        for row in rows {
            println!("{}", row.join(","));
        }
        return;
    }
    println!("\n== {title} ==");
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let line = |cells: &[String]| {
        let mut s = String::new();
        for (i, c) in cells.iter().enumerate() {
            s.push_str(&format!("{:<w$}  ", c, w = widths[i]));
        }
        println!("{}", s.trim_end());
    };
    line(&headers.iter().map(|h| h.to_string()).collect::<Vec<_>>());
    line(
        &widths
            .iter()
            .map(|w| "-".repeat(*w))
            .collect::<Vec<String>>(),
    );
    for row in rows {
        line(row);
    }
}

/// Formats a bandwidth cell; non-finite values (degenerate zero-duration
/// reports) print as `n/a` instead of a misleading number.
pub fn mibs(report: &JobReport) -> String {
    let v = report.bandwidth_mibs();
    if v.is_finite() {
        format!("{v:.0}")
    } else {
        "n/a".to_string()
    }
}

/// Formats a KIOPS cell; non-finite values print as `n/a`.
pub fn kiops(report: &JobReport) -> String {
    let v = report.kiops();
    if v.is_finite() {
        format!("{v:.1}")
    } else {
        "n/a".to_string()
    }
}

/// Formats a microseconds latency cell.
pub fn us(d: conzone_types::SimDuration) -> String {
    format!("{:.1}", d.as_micros_f64())
}

/// A ring sink big enough for one measured phase of a figure run
/// (256 Ki events, ~10 MiB), for attaching to a device under test.
pub fn trace_sink() -> Arc<RingBufferSink> {
    Arc::new(RingBufferSink::with_capacity(256 * 1024))
}

/// Event counts per [`DeviceEvent::kind_index`] of a drained trace.
pub fn event_totals(records: &[TraceRecord]) -> [u64; DeviceEvent::KIND_COUNT] {
    let mut totals = [0u64; DeviceEvent::KIND_COUNT];
    for r in records {
        totals[r.event.kind_index()] += 1;
    }
    totals
}

/// Rows `(kind, count, first µs, last µs)` per event kind present in a
/// drained trace, ready for [`print_table`].
pub fn trace_summary_rows(records: &[TraceRecord]) -> Vec<Vec<String>> {
    // (kind index, name, count, first ns, last ns)
    let mut by_kind: Vec<(usize, &'static str, u64, u64, u64)> = Vec::new();
    for r in records {
        let idx = r.event.kind_index();
        let t = r.time.as_nanos();
        match by_kind.iter_mut().find(|e| e.0 == idx) {
            Some(e) => {
                e.2 += 1;
                e.3 = e.3.min(t);
                e.4 = e.4.max(t);
            }
            None => by_kind.push((idx, r.event.kind_name(), 1, t, t)),
        }
    }
    by_kind.sort_by_key(|e| e.0);
    by_kind
        .into_iter()
        .map(|(_, name, count, first, last)| {
            vec![
                name.to_string(),
                count.to_string(),
                format!("{:.1}", first as f64 / 1000.0),
                format!("{:.1}", last as f64 / 1000.0),
            ]
        })
        .collect()
}

/// GC pause distribution from paired `GcBegin`/`GcEnd` events in a
/// drained trace.
pub fn gc_pauses(records: &[TraceRecord]) -> LatencySummary {
    let mut hist = LatencyHistogram::new();
    let mut begin: Option<SimTime> = None;
    for r in records {
        match r.event {
            DeviceEvent::GcBegin { .. } => begin = Some(r.time),
            DeviceEvent::GcEnd { .. } => {
                if let Some(b) = begin.take() {
                    hist.record(r.time - b);
                }
            }
            _ => {}
        }
    }
    hist.summary()
}

/// `--trace-out <path>` passed to the current binary: where to write a
/// Chrome trace-event file of the measured run, if requested.
pub fn trace_out_path() -> Option<String> {
    let mut args = std::env::args();
    while let Some(a) = args.next() {
        if a == "--trace-out" {
            return args.next();
        }
    }
    None
}

/// Writes a drained trace as Chrome trace-event JSON (loadable in
/// Perfetto / about:tracing).
///
/// # Errors
///
/// A filesystem error, as `<path>: <reason>`.
pub fn write_chrome_trace(path: &str, records: &[TraceRecord]) -> Result<(), String> {
    export::write_file(path, export::chrome_trace(records))
}

/// A paper-stated relationship between two measured values, checked and
/// reported by the harness (the ZMS hardware itself is closed; the paper
/// gives these relations in §IV-B/§IV-C/§IV-D prose).
#[derive(Debug)]
pub struct ExpectedRelation {
    /// What the paper claims, verbatim-ish.
    pub claim: &'static str,
    /// Whether our measurements satisfy it.
    pub holds: bool,
    /// The measured evidence.
    pub evidence: String,
}

/// Prints a block of expectation checks.
pub fn print_expectations(expectations: &[ExpectedRelation]) {
    println!("\n-- paper-shape checks --");
    for e in expectations {
        println!(
            "[{}] {}  ({})",
            if e.holds { "ok" } else { "DEVIATES" },
            e.claim,
            e.evidence
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn factories_build() {
        let c = conzone_device(MapGranularity::Chunk, SearchStrategy::Bitmap);
        assert_eq!(c.config().zone_size_bytes(), 16 * 1024 * 1024);
        let l = legacy_device();
        assert!(l.capacity_bytes() > 1_000_000_000);
        let f = femu_device();
        assert!(!f.config().model_channel_bandwidth);
    }

    #[test]
    fn seq_job_recipe_matches_paper() {
        let j = seq_job(AccessPattern::SeqWrite, 4, 256 * 1024 * 1024);
        assert_eq!(j.block_bytes, 512 * 1024);
        assert_eq!(j.threads, 4);
        assert_eq!(j.bytes_per_thread, 64 * 1024 * 1024);
    }

    #[test]
    fn trace_helpers_summarize_a_real_run() {
        use conzone_types::Probe;
        let mut dev = ConZone::new(DeviceConfig::tiny_for_tests());
        let sink = trace_sink();
        dev.set_probe(Probe::attached(sink.clone()));
        let job = FioJob::new(AccessPattern::SeqWrite, 256 * 1024)
            .zone_bytes(1024 * 1024)
            .region(0, 2 * 1024 * 1024)
            .bytes_per_thread(2 * 1024 * 1024);
        run_job(&mut dev, &job).expect("write");
        let records = sink.drain();
        assert!(!records.is_empty());
        let totals = event_totals(&records);
        assert_eq!(totals.iter().sum::<u64>(), records.len() as u64);
        let rows = trace_summary_rows(&records);
        assert!(!rows.is_empty());
        for row in &rows {
            assert_eq!(row.len(), 4);
        }
        // A pure sequential write on a fresh device runs no GC.
        assert_eq!(gc_pauses(&records).count, 0);
    }

    #[test]
    fn table_printer_does_not_panic() {
        print_table(
            "t",
            &["a", "bb"],
            &[vec!["1".into(), "2".into()], vec!["333".into(), "4".into()]],
        );
    }
}
