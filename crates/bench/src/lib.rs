//! The paper's tables, figures and ablations as functions.
//!
//! Every entry of [`figures::ALL`] regenerates one table or figure of the
//! paper (see DESIGN.md §4 for the experiment index) into an [`Out`]: the
//! text a reader sees and the paper-stated relations it checked, as data.
//! Each binary in `src/bin/` hands one of them to [`cli`]; `all_figures`
//! runs them all in one process. This file holds what the figures share:
//! device factories on the paper's §IV-A evaluation configuration, the
//! workload recipes behind several figures, and plain-text table printing.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::process::ExitCode;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use conzone_core::ConZone;
use conzone_femu::FemuZns;
use conzone_host::{run_job, AccessPattern, FioJob, HostError, JobReport};
use conzone_legacy::LegacyDevice;
use conzone_sim::RingBufferSink;
use conzone_types::{
    DeviceConfig, Geometry, MapGranularity, SearchStrategy, SimTime, StorageDevice,
};

pub mod figures;

/// ConZone with the given mapping cap and search strategy on the paper
/// configuration.
pub(crate) fn conzone_device(max_aggregation: MapGranularity, strategy: SearchStrategy) -> ConZone {
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
pub(crate) fn legacy_device() -> LegacyDevice {
    LegacyDevice::new(DeviceConfig::paper_evaluation())
}

/// The FEMU-like baseline on the paper configuration.
pub(crate) fn femu_device() -> FemuZns {
    FemuZns::new(DeviceConfig::paper_evaluation())
}

/// Target I/O volume of the Fig. 6(a) sequential runs (rounded down to a
/// whole number of zones per thread for zoned devices).
const SEQ_VOLUME_BYTES: u64 = 256 * 1024 * 1024;

/// Fig. 6(a)'s fio recipe: 512 KiB sequential I/O over `region` bytes.
fn seq_job(pattern: AccessPattern, threads: usize, region: u64) -> FioJob {
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
pub(crate) fn run_seq_rw<D: StorageDevice + ?Sized>(
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
pub(crate) fn fill_zoned<D: StorageDevice + ?Sized>(
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
pub(crate) fn randread_job(range: u64, ops: u64, start: SimTime) -> FioJob {
    FioJob::new(AccessPattern::RandRead, 4096)
        .region(0, range)
        .ops_per_thread(ops)
        .bytes_per_thread(u64::MAX)
        .start_at(start)
}

/// Formats a bandwidth cell; non-finite values (degenerate zero-duration
/// reports) print as `n/a` instead of a misleading number.
pub(crate) fn mibs(report: &JobReport) -> String {
    let v = report.bandwidth_mibs();
    if v.is_finite() {
        format!("{v:.0}")
    } else {
        "n/a".to_string()
    }
}

/// Runs `run` on every point and returns the results in point order.
///
/// A figure's points are independent device runs: each builds its own
/// device and shares nothing, so they run on as many scoped workers as
/// [`std::thread::available_parallelism`] reports, each pulling the next
/// index off a shared counter. That keeps no more devices alive at once
/// than can make progress, and a slow point does not hold up the workers
/// behind it; list the slowest points first where the figure allows it.
/// The result is `points.iter().map(run)` whatever the worker count, so a
/// figure's output does not depend on the machine. A point that panics
/// fails the caller.
pub(crate) fn sweep<P: Sync, R: Send>(points: &[P], run: impl Fn(&P) -> R + Sync) -> Vec<R> {
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get().min(points.len()));
    let next = AtomicUsize::new(0);
    let mut results: Vec<Option<R>> = points.iter().map(|_| None).collect();
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                s.spawn(|| {
                    let mut done = Vec::new();
                    loop {
                        // Relaxed: the counter hands out indices and
                        // publishes nothing else.
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(point) = points.get(i) else {
                            break done;
                        };
                        done.push((i, run(point)));
                    }
                })
            })
            .collect();
        for handle in handles {
            for (i, result) in handle.join().expect("sweep thread") {
                results[i] = Some(result);
            }
        }
    });
    results
        .into_iter()
        .map(|r| r.expect("every point ran"))
        .collect()
}

/// A ring sink big enough for one measured phase of a figure run, for
/// attaching to a device under test: 256 Ki events, 8 MiB reserved, of
/// which only the records it holds are ever touched.
pub(crate) fn trace_sink() -> Arc<RingBufferSink> {
    Arc::new(RingBufferSink::with_capacity(256 * 1024))
}

/// A paper-stated relationship between two measured values, checked and
/// reported by the harness (the ZMS hardware itself is closed; the paper
/// gives these relations in §IV-B/§IV-C/§IV-D prose).
#[derive(Debug)]
pub struct ExpectedRelation {
    /// What the paper claims, verbatim-ish; unique across [`figures::ALL`].
    pub claim: &'static str,
    /// Whether our measurements satisfy it.
    pub holds: bool,
    /// The measured evidence.
    pub evidence: String,
}

/// What one figure produces: its text, as plain tables or CSV, the
/// paper-stated relations it checked, in print order, and the failure
/// that ended it early, if any.
#[derive(Debug, Default)]
pub struct Out {
    csv: bool,
    /// Where `fig7` writes a Chrome trace of its last measured phase.
    trace_out: Option<String>,
    text: String,
    relations: Vec<ExpectedRelation>,
    error: Option<String>,
}

impl Out {
    /// Everything the figure printed.
    pub fn text(&self) -> &str {
        &self.text
    }

    /// The relations the figure checked, in print order.
    pub fn relations(&self) -> &[ExpectedRelation] {
        &self.relations
    }

    /// Appends one line of text (which may itself hold line breaks).
    pub(crate) fn line(&mut self, text: impl AsRef<str>) {
        self.text.push_str(text.as_ref());
        self.text.push('\n');
    }

    /// Renders a plain-text table, or CSV in `--csv` mode.
    pub(crate) fn table(&mut self, title: &str, headers: &[&str], rows: &[Vec<String>]) {
        if self.csv {
            self.line(format!("# {title}"));
            self.line(headers.join(","));
            for row in rows {
                self.line(row.join(","));
            }
            return;
        }
        self.line(format!("\n== {title} =="));
        let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
        for row in rows {
            for (i, cell) in row.iter().enumerate() {
                if i < widths.len() {
                    widths[i] = widths[i].max(cell.len());
                }
            }
        }
        let line = |out: &mut Self, cells: &[String]| {
            let mut s = String::new();
            for (i, c) in cells.iter().enumerate() {
                s.push_str(&format!("{:<w$}  ", c, w = widths[i]));
            }
            out.line(s.trim_end());
        };
        line(
            self,
            &headers.iter().map(|h| h.to_string()).collect::<Vec<_>>(),
        );
        line(
            self,
            &widths
                .iter()
                .map(|w| "-".repeat(*w))
                .collect::<Vec<String>>(),
        );
        for row in rows {
            line(self, row);
        }
    }

    /// Prints a block of paper-shape checks and records them.
    pub(crate) fn check(&mut self, relations: impl IntoIterator<Item = ExpectedRelation>) {
        self.line("\n-- paper-shape checks --");
        for e in relations {
            self.line(format!(
                "[{}] {}  ({})",
                if e.holds { "ok" } else { "DEVIATES" },
                e.claim,
                e.evidence
            ));
            self.relations.push(e);
        }
    }
}

/// The whole of a figure binary: reads the two flags the binaries accept
/// from `args` (`--csv` for machine-readable tables, `--trace-out <path>`
/// for `fig7`'s Chrome trace; anything else is ignored), runs `figure`,
/// and prints its text to standard output. A failure goes to standard
/// error as `error: …` and makes the exit status 1.
pub fn cli(figure: figures::Figure, args: impl IntoIterator<Item = String>) -> ExitCode {
    let mut out = Out::default();
    let mut args = args.into_iter();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--csv" => out.csv = true,
            "--trace-out" => out.trace_out = args.next(),
            _ => {}
        }
    }
    figure(&mut out);
    print!("{}", out.text);
    match out.error {
        Some(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
        None => ExitCode::SUCCESS,
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

    /// `sweep` returns what the serial map returns, in point order, for no
    /// point, one point, and more points than workers whose costs differ so
    /// that they finish out of order.
    #[test]
    fn sweep_equals_the_serial_map() {
        let workers = std::thread::available_parallelism().map_or(1, |n| n.get());
        let cost = |&p: &u64| {
            // Uneven costs: a point can finish before the one ahead of it.
            std::thread::sleep(std::time::Duration::from_millis(p % 5 * 2));
            p * p + 1
        };
        for n in [0, 1, 4 * workers as u64 + 3] {
            let points: Vec<u64> = (0..n).collect();
            let serial: Vec<u64> = points.iter().map(cost).collect();
            assert_eq!(sweep(&points, cost), serial, "{n} points");
        }
    }

    #[test]
    fn a_panicking_point_fails_the_sweep() {
        let points: Vec<u32> = (0..8).collect();
        let swept = std::panic::catch_unwind(|| {
            sweep(&points, |&p| {
                assert_ne!(p, 5, "point 5 fails");
                p
            })
        });
        assert!(swept.is_err());
    }

    #[test]
    fn table_printer_does_not_panic() {
        let rows = [vec!["1".into(), "2".into()], vec!["333".into(), "4".into()]];
        let mut out = Out::default();
        out.table("t", &["a", "bb"], &rows);
        assert_eq!(out.text(), "\n== t ==\na    bb\n---  --\n1    2\n333  4\n");
        let mut csv = Out {
            csv: true,
            ..Out::default()
        };
        csv.table("t", &["a", "bb"], &rows);
        assert_eq!(csv.text(), "# t\na,bb\n1,2\n333,4\n");
    }
}
