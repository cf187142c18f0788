//! Run: the device under test as a value, and the one pipeline behind
//! `conzone run` — validate → configure → open → prefill → attach → run →
//! collect → report → export.

use std::sync::Arc;

use conzone::host::{
    parse_fio_jobs, power_cycle_and_verify, run_job, run_job_sampled, run_job_until, run_tenants,
    AccessPattern, FioJob, JobReport, NamedJob, TenantSpec,
};
use conzone::sim::export::{self, Document};
use conzone::sim::{MetricsSample, RingBufferSink, SpanBuffer};
use conzone::types::{
    DeviceConfig, Probe, SimDuration, SimTime, SpanSink, StorageDevice, ZonedDevice,
};
use conzone::{ConZone, FemuZns, LegacyDevice};

use crate::args::{build_config, parse_pattern, parse_qd_options, parse_tenant_weights, Args};
use crate::report::{emit, Extras, Report, SpanDump};

/// The device under test. Only this type knows the three models by name;
/// everything else drives [`Dut::dev`].
#[allow(clippy::large_enum_variant, reason = "one device per process")]
pub enum Dut {
    ConZone(ConZone),
    Legacy(LegacyDevice),
    Femu(FemuZns),
}

impl Dut {
    /// Builds the model `--device` names (ConZone when absent) from `cfg`.
    pub fn from_args(args: &Args, cfg: DeviceConfig) -> Result<Dut, String> {
        match args.get("device").unwrap_or("conzone") {
            "conzone" => Ok(Dut::ConZone(ConZone::new(cfg))),
            "legacy" => Ok(Dut::Legacy(LegacyDevice::new(cfg))),
            "femu" => Ok(Dut::Femu(FemuZns::new(cfg))),
            other => Err(format!("unknown --device '{other}'")),
        }
    }

    pub fn dev(&mut self) -> &mut dyn StorageDevice {
        match self {
            Dut::ConZone(d) => d,
            Dut::Legacy(d) => d,
            Dut::Femu(d) => d,
        }
    }

    /// Spans, the heatmap, the time breakdown and power loss are modelled by
    /// ConZone only; the baselines carry a probe and nothing else.
    pub fn conzone(&mut self) -> Option<&mut ConZone> {
        match self {
            Dut::ConZone(d) => Some(d),
            Dut::Legacy(_) | Dut::Femu(_) => None,
        }
    }

    /// The zoned command set, which the page-mapped legacy device lacks.
    pub fn zoned_dev(&mut self) -> Option<&mut dyn ZonedDevice> {
        match self {
            Dut::ConZone(d) => Some(d),
            Dut::Legacy(_) => None,
            Dut::Femu(d) => Some(d),
        }
    }

    /// The zone size sequential writers must respect: ConZone's zones,
    /// FEMU's superblocks, none on the legacy device.
    pub fn zone_bytes(&mut self) -> Option<u64> {
        self.zoned_dev().map(|d| d.zone_size())
    }

    /// `job`, told the zone size when the device has zones.
    pub fn zoned(&mut self, job: FioJob) -> FioJob {
        match self.zone_bytes() {
            Some(zb) => job.zone_bytes(zb),
            None => job,
        }
    }

    /// Writes `region` bytes from offset 0 so that reads find data; returns
    /// the region actually filled and when the fill finished. FEMU's zones
    /// are whole superblocks, so there the region is rounded down to them.
    pub fn prefill(&mut self, region: u64) -> Result<(u64, SimTime), String> {
        let region = match self {
            Dut::Femu(d) => (region / d.zone_size()) * d.zone_size(),
            Dut::ConZone(_) | Dut::Legacy(_) => region,
        };
        let fill = self
            .zoned(FioJob::new(AccessPattern::SeqWrite, 512 * 1024))
            .region(0, region)
            .bytes_per_thread(region);
        let report = run_job(self.dev(), &fill).map_err(|e| e.to_string())?;
        Ok((region, report.finished))
    }

    /// Points the model's events and, on ConZone, its spans at `obs`'s
    /// sinks.
    fn attach(&mut self, obs: &Obs) {
        if let Some((_, sink)) = &obs.trace {
            self.dev().set_probe(Probe::attached(sink.clone()));
        }
        if let (Some((_, sink)), Some(dev)) = (&obs.spans, self.conzone()) {
            dev.set_span_sink(sink.clone());
        }
    }

    /// FEMU is not driven through queue pairs: the front end has only ever
    /// been exercised against ConZone and Legacy (`crates/host/src/qd.rs`).
    pub fn require_queue_pairs(&self) -> Result<(), String> {
        match self {
            Dut::ConZone(_) | Dut::Legacy(_) => Ok(()),
            Dut::Femu(_) => {
                Err("--qd/--tenants support --device conzone|legacy, not 'femu'".to_string())
            }
        }
    }
}

/// The instruments of one `run`. A sink exists exactly when its export was
/// asked for, so each travels with its path.
struct Obs {
    /// `--trace-out` and the event ring behind it.
    trace: Option<(String, Arc<RingBufferSink>)>,
    /// `--span-out` and the device's span sink.
    spans: Option<(String, Arc<SpanBuffer>)>,
    /// `--metrics-out` and the sampling interval.
    metrics: Option<(String, SimDuration)>,
    stats_json: bool,
    heatmap: bool,
}

/// 1 Mi spans, ~60 MiB worst case — excess spans are counted, not kept.
fn span_sink() -> Arc<SpanBuffer> {
    Arc::new(SpanBuffer::with_capacity(1 << 20))
}

impl Obs {
    fn from_args(args: &Args) -> Result<Obs, String> {
        let interval = args.duration("metrics-interval")?;
        let interval = interval.unwrap_or(SimDuration::from_millis(100));
        let path = |key| args.get(key).map(str::to_string);
        Ok(Obs {
            trace: path("trace-out").map(|p| (p, Arc::new(RingBufferSink::new()))),
            spans: path("span-out").map(|p| (p, span_sink())),
            metrics: path("metrics-out").map(|p| (p, interval)),
            stats_json: args.has("stats-json"),
            heatmap: args.has("heatmap"),
        })
    }

    /// Runs a measured job, collecting interval metrics when requested.
    fn run_job(&self, dev: &mut dyn StorageDevice, job: &FioJob) -> Result<JobReport, String> {
        match &self.metrics {
            Some((_, interval)) => run_job_sampled(dev, job, *interval),
            None => run_job(dev, job),
        }
        .map_err(|e| e.to_string())
    }

    /// What the device and the event ring add to a stats object right now;
    /// the heatmap is an end state, so only the `last` report of a run
    /// carries it.
    fn extras(&self, dut: &mut Dut, last: bool) -> Extras<'_> {
        let dev = dut.conzone();
        Extras {
            breakdown: dev.as_ref().map(|d| d.time_breakdown()),
            trace: self.trace.as_ref().map(|(_, sink)| &**sink),
            heatmap: dev
                .filter(|_| self.heatmap && last)
                .map(|d| d.heatmap_snapshot()),
            ..Extras::default()
        }
    }

    /// Drains the device's span sink and, behind it in one id space, the
    /// queue front end's.
    fn collect_spans(&self, host: Option<&SpanBuffer>) -> Option<SpanDump> {
        let (_, dev) = self.spans.as_ref()?;
        let mut dump = SpanDump::drain(dev);
        if let Some(host) = host {
            dump.append(SpanDump::drain(host));
        }
        Some(dump)
    }

    /// Writes the Chrome trace-event file (loadable in Perfetto /
    /// about:tracing), the span dump and the metrics JSONL, as requested,
    /// and reports each with the wall time its export took. Span files
    /// ending in `.jsonl` get one span per line; any other extension gets a
    /// nested Chrome trace. Drops in either ring are surfaced loudly: a
    /// truncated dump that looks complete is worse than no dump.
    ///
    /// The files are independent, so each is formatted and written on a
    /// thread of its own; the trace is streamed from the event ring where
    /// it lies. The status lines follow in trace → spans → metrics order,
    /// and the first of those files that failed is the error.
    fn write(&self, spans: Option<&SpanDump>, samples: &[MetricsSample]) -> Result<(), String> {
        let trace = self
            .trace
            .as_ref()
            .map(|(path, sink)| (path, sink, sink.dropped()));
        let spans = self
            .spans
            .as_ref()
            .zip(spans)
            .map(|((path, _), dump)| (path, dump));
        let metrics = self.metrics.as_ref().map(|(path, _)| path);
        let (trace_ms, spans_ms, metrics_ms) = std::thread::scope(|s| {
            let trace_ms = trace.map(|(path, sink, _)| {
                s.spawn(move || {
                    sink.read(|older, newer| {
                        let ms = timed_export(path, Document::ChromeTrace(older, newer));
                        (older.len() + newer.len(), ms)
                    })
                })
            });
            let spans_ms = spans.map(|(path, dump)| {
                let document = if path.ends_with(".jsonl") {
                    Document::SpanJsonl(&dump.records)
                } else {
                    Document::SpanChromeTrace(&dump.records)
                };
                s.spawn(move || timed_export(path, document))
            });
            let metrics_ms = metrics
                .map(|path| s.spawn(move || timed_export(path, Document::MetricsJsonl(samples))));
            (joined(trace_ms), joined(spans_ms), joined(metrics_ms))
        });
        if let (Some((path, _, dropped)), Some((n, ms))) = (trace, trace_ms) {
            let ms = ms?;
            eprintln!("trace    : {n} events to {path} ({dropped} dropped) in {ms:.1} ms");
            if dropped > 0 {
                eprintln!(
                    "warning  : the event ring dropped {dropped} records — the trace is \
                     truncated; trace a shorter phase"
                );
            }
        }
        if let (Some((path, dump)), Some(ms)) = (spans, spans_ms) {
            let (ms, n, dropped) = (ms?, dump.records.len(), dump.dropped);
            eprintln!("spans    : {n} spans to {path} ({dropped} dropped) in {ms:.1} ms");
            if dropped > 0 {
                eprintln!(
                    "warning  : the span buffer dropped {dropped} spans — attribution \
                     and the dump are truncated; profile a shorter phase"
                );
            }
        }
        if let (Some(path), Some(ms)) = (metrics, metrics_ms) {
            let ms = ms?;
            eprintln!(
                "metrics  : {} intervals to {path} in {ms:.1} ms",
                samples.len()
            );
        }
        Ok(())
    }
}

/// What an export thread returned, if one ran; its panic, if it panicked.
fn joined<T>(thread: Option<std::thread::ScopedJoinHandle<'_, T>>) -> Option<T> {
    thread.map(|t| {
        t.join()
            .unwrap_or_else(|panic| std::panic::resume_unwind(panic))
    })
}

/// Streams `document` to `path`; returns the wall milliseconds it took, for
/// the status line.
#[allow(
    clippy::disallowed_methods,
    reason = "host-side cost of an export, printed to stderr only; no simulated result reads it"
)]
fn timed_export(path: &str, document: Document<'_>) -> Result<f64, String> {
    let start = std::time::Instant::now();
    export::write_file(path, document)?;
    Ok(start.elapsed().as_secs_f64() * 1e3)
}

/// The workload the shared `run` flags describe.
struct Shape {
    pattern: AccessPattern,
    bs: u64,
    size: u64,
    region: u64,
    threads: usize,
    seed: u64,
}

impl Shape {
    fn from_args(args: &Args) -> Result<Shape, String> {
        let size = args.size("size", 256 << 20)?;
        Ok(Shape {
            pattern: parse_pattern(args)?,
            bs: args.size("bs", 512 * 1024)?,
            size,
            region: args.size("region", size)?,
            threads: args.queue_count("threads", 1)?,
            seed: args.num("seed", 7)?,
        })
    }

    /// One job over the whole region.
    fn job(&self) -> FioJob {
        FioJob::new(self.pattern, self.bs)
            .threads(self.threads)
            .region(0, self.region)
            .bytes_per_thread(self.size / self.threads.max(1) as u64)
            .seed(self.seed)
    }

    /// One closed-loop job per weighted tenant. Sequential-write tenants
    /// get disjoint (zone-aligned, on zoned devices) slices of the region
    /// so their streams do not race each other's write pointers; read and
    /// random-write tenants share the whole region.
    fn tenant_specs(
        &self,
        weights: &[u32],
        qd: usize,
        zone_bytes: Option<u64>,
    ) -> Result<Vec<TenantSpec>, String> {
        let (region, n) = (self.region, weights.len() as u64);
        let split = self.pattern == AccessPattern::SeqWrite && n > 1;
        let mut share = region / n;
        if let (true, Some(zb)) = (split, zone_bytes) {
            share = (share / zb) * zb;
            if share == 0 {
                return Err(format!(
                    "--region {region} too small to give {n} \
                     sequential writers a zone-aligned share"
                ));
            }
        }
        Ok((0..n)
            .zip(weights)
            .map(|(i, &w)| {
                // Distinct streams per tenant, reproducible from the one --seed.
                let seed_i = self.seed ^ ((i + 1).wrapping_mul(0x517c_c1b7_2722_0a95));
                let mut job = self.job().queue_depth(qd).seed(seed_i);
                job = job.bytes_per_thread(self.size / n / self.threads.max(1) as u64);
                if split {
                    job = job.region(i * share, share);
                }
                TenantSpec::new(format!("t{i}"), job).weight(w)
            })
            .collect())
    }
}

pub fn cmd_run(args: &Args) -> Result<(), String> {
    // Validate: each restriction once, next to its reason.
    let obs = Obs::from_args(args)?;
    let power_cut = args.duration("power-cut-at")?;
    let qd = args.queue_count("qd", 1)?;
    let tenants = args.queue_count("tenants", 1)?;
    if qd == 0 || tenants == 0 {
        return Err("--qd and --tenants must be at least 1".to_string());
    }
    // Any queue-pair flag puts the NVMe-like front end before the device.
    let queued = qd > 1
        || tenants > 1
        || args.get("arbiter").is_some()
        || args.get("fetch-cost").is_some()
        || args.get("tenant-weights").is_some();
    let job_file = args.get("job");
    if queued {
        if job_file.is_some() {
            return Err("--qd/--tenants are not supported with --job".to_string());
        }
        if power_cut.is_some() {
            return Err("--power-cut-at is not supported with --qd/--tenants".to_string());
        }
        if obs.metrics.is_some() {
            return Err(
                "--metrics-out is not supported with --qd/--tenants (no interval sampler on \
                 the queue-pair path)"
                    .to_string(),
            );
        }
    }
    if job_file.is_some() && power_cut.is_some() {
        return Err("--power-cut-at is not supported with --job".to_string());
    }
    // A fio-style INI job file runs every section in order on one device.
    let sections = match job_file {
        Some(path) => {
            let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
            Some(parse_fio_jobs(&text).map_err(|e| e.to_string())?)
        }
        None => None,
    };

    // Configure and open.
    let mut cfg = build_config(args)?;
    if power_cut.is_some() {
        // The crash verifier byte-compares recovered data, which needs the
        // device to actually store payloads.
        cfg.data_backing = true;
    }
    let mut dut = Dut::from_args(args, cfg)?;
    if dut.conzone().is_none() {
        if power_cut.is_some() {
            return Err("--power-cut-at is only supported for --device conzone".to_string());
        }
        if obs.spans.is_some() || obs.heatmap {
            return Err(
                "--span-out and --heatmap are only supported for --device conzone".to_string(),
            );
        }
    }
    if queued {
        dut.require_queue_pairs()?;
    }

    // Run, report, export.
    let queue = queued.then_some((qd, tenants));
    match sections {
        Some(sections) => run_sections(dut, &obs, sections),
        None => run_shape(args, dut, &obs, queue, power_cut),
    }
}

/// Runs the sections of a job file back to back, reporting each as it
/// finishes. Sections bring their own fill, so the instruments cover the
/// whole file: breakdown and ring-sink health are cumulative, and spans
/// are dumped once at the end rather than reported per section.
fn run_sections(mut dut: Dut, obs: &Obs, sections: Vec<NamedJob>) -> Result<(), String> {
    dut.attach(obs);
    let mut start = SimTime::ZERO;
    let mut samples = Vec::new();
    let last = sections.len().saturating_sub(1);
    for (i, named) in sections.into_iter().enumerate() {
        let job = dut.zoned(named.job).start_at(start);
        let report = obs.run_job(dut.dev(), &job)?;
        start = report.finished;
        samples.extend_from_slice(&report.metrics);
        let mut extras = obs.extras(&mut dut, i == last);
        extras.job = Some(&named.name);
        emit(obs.stats_json, &Report::Job(report), extras);
    }
    if let (false, Some(dev)) = (obs.stats_json, dut.conzone()) {
        println!("time     : {}", dev.time_breakdown());
    }
    drop(dut); // the exports are the process's peak: let them reuse the device's memory
    obs.write(obs.collect_spans(None).as_ref(), &samples)
}

/// Runs the workload the flags describe: as tenants behind `queue` =
/// (depth, tenants) queue pairs, else as one job, cut short and audited at
/// `power_cut`.
fn run_shape(
    args: &Args,
    mut dut: Dut,
    obs: &Obs,
    queue: Option<(usize, usize)>,
    power_cut: Option<SimDuration>,
) -> Result<(), String> {
    let mut shape = Shape::from_args(args)?;
    // Reads need data on the device first. The instruments attach after
    // the fill so trace, spans and metrics cover only the measured work.
    let mut start = SimTime::ZERO;
    if shape.pattern.is_read() {
        (shape.region, start) = dut.prefill(shape.region)?;
    }
    dut.attach(obs);
    // Host queue spans land in their own buffer; the dump merges them behind
    // the device's.
    let host_spans = queue.and(obs.spans.as_ref()).map(|_| span_sink());
    let report = if let Some((qd, tenants)) = queue {
        let mut opts = parse_qd_options(args)?;
        if let Some((_, sink)) = &obs.trace {
            opts.probe = Probe::attached(sink.clone());
        }
        opts.spans = host_spans
            .clone()
            .map(|s| s as Arc<dyn SpanSink + Send + Sync>);
        let weights = parse_tenant_weights(args, tenants)?;
        let mut specs = shape.tenant_specs(&weights, qd, dut.zone_bytes())?;
        for s in &mut specs {
            s.job = dut.zoned(s.job.clone()).start_at(start);
        }
        Report::Tenants(run_tenants(dut.dev(), &specs, &opts).map_err(|e| e.to_string())?)
    } else {
        let job = dut.zoned(shape.job()).start_at(start);
        Report::Job(match (power_cut, dut.conzone()) {
            (Some(after), Some(dev)) => {
                // Cut power mid-workload, remount and audit the device's
                // recovery claims against regenerated payloads.
                let cut_at = start + after;
                let report =
                    run_job_until(dev, &job.verify(true), cut_at).map_err(|e| e.to_string())?;
                let verdict =
                    power_cycle_and_verify(dev, shape.seed, cut_at).map_err(|e| e.to_string())?;
                eprintln!("recovery : {verdict}");
                report
            }
            _ => obs.run_job(dut.dev(), &job)?,
        })
    };
    let spans = obs.collect_spans(host_spans.as_deref());
    let mut extras = obs.extras(&mut dut, true);
    drop(dut); // the exports are the process's peak: let them reuse the device's memory
    if let (false, Some(b)) = (obs.stats_json, extras.breakdown) {
        println!("time     : {b}");
    }
    extras.spans = spans.as_ref();
    emit(obs.stats_json, &report, extras);
    let samples = match &report {
        Report::Job(r) => r.metrics.as_slice(),
        Report::Tenants(_) => &[],
    };
    obs.write(spans.as_ref(), samples)
}

#[cfg(test)]
#[path = "argv_fuzz.rs"]
mod argv_fuzz;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::args::{args, cli};
    use conzone::sim::json::Json;

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

    /// The exports run side by side, but when several fail the error is
    /// the first of them in trace → spans → metrics order.
    #[test]
    fn the_first_failed_export_in_file_order_is_the_error() {
        let missing = std::env::temp_dir().join("conzone-cli-no-such-dir");
        let path = |name: &str| missing.join(name).to_string_lossy().into_owned();
        let (trace, spans, metrics) = (path("t.json"), path("s.jsonl"), path("m.jsonl"));
        let run = |flags: String| {
            let line = format!("run --config tiny --bs 128k --size 1m --region 1m {flags}");
            cmd_run(&cli(&line)).expect_err("an export into a missing directory")
        };
        let all = run(format!(
            "--trace-out {trace} --span-out {spans} --metrics-out {metrics}"
        ));
        assert!(all.starts_with(&format!("{trace}: ")), "{all}");
        let last_two = run(format!("--span-out {spans} --metrics-out {metrics}"));
        assert!(last_two.starts_with(&format!("{spans}: ")), "{last_two}");
    }

    #[test]
    fn run_with_power_cut_recovers() {
        let a = cli("run --config tiny --bs 8k --size 1m --region 1m \
             --fault-rates 0.05,0,0 --fault-seed 3 --power-cut-at 400us");
        cmd_run(&a).expect("power-cut run ok");
        // Baselines cannot power cycle; the CLI refuses up front.
        let a = cli("run --config tiny --device legacy --power-cut-at 400us");
        assert!(cmd_run(&a).is_err());
    }

    #[test]
    fn run_command_smoke() {
        // A tiny in-process run through the real command path.
        let a = cli("run --config tiny --bs 128k --size 2m --region 2m");
        cmd_run(&a).expect("run ok");
        let a = cli("run --config tiny --pattern randread --bs 4k --size 256k --region 2m");
        cmd_run(&a).expect("randread ok");
    }

    #[test]
    fn run_qd_multi_tenant_smoke() {
        // The queue-pair path through the real command parser: two
        // weighted tenants, a costly fetch stage, machine-readable stats.
        let a = cli(
            "run --config tiny --pattern randread --bs 4k --size 512k --region 2m --qd 4 \
             --tenants 2 --arbiter wrr --tenant-weights 3,1 --fetch-cost 5us --stats-json",
        );
        cmd_run(&a).expect("qd run ok");
    }

    #[test]
    fn qd_flags_are_validated() {
        // Queue flags are incompatible with job files and power cuts...
        let a = cli("run --qd 4 --job x.fio");
        assert!(cmd_run(&a).is_err());
        let a = cli("run --qd 4 --power-cut-at 400us");
        assert!(cmd_run(&a).is_err());
        // ...and with the femu baseline and the interval sampler.
        let a = cli("run --config tiny --qd 2 --device femu");
        assert!(cmd_run(&a).is_err());
        let a = cli("run --qd 2 --metrics-out m.jsonl");
        assert!(cmd_run(&a).is_err());
        // Weight lists must match the tenant count; policies must exist.
        let a = cli("run --tenants 2 --tenant-weights 1,2,3");
        assert!(cmd_run(&a).is_err());
        let a = cli("run --qd 2 --arbiter fifo");
        assert!(cmd_run(&a).is_err());
        // A zero depth or tenant count is refused, alone or together.
        for zero in ["--qd 0", "--tenants 0", "--qd 0 --tenants 2"] {
            let a = cli(&format!("run --config tiny {zero}"));
            let err = cmd_run(&a).expect_err(zero);
            assert!(err.contains("at least 1"), "{zero}: {err}");
        }
        assert!(parse_tenant_weights(&cli("run"), 3).unwrap() == vec![1, 1, 1]);
    }
}
