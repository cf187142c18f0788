use conzone_host::run_job;
use conzone_sim::export;
use conzone_types::{
    DeviceEvent, L2pOutcome, MapGranularity, Probe, SearchStrategy, SimTime, StorageDevice,
    TraceRecord,
};

use crate::{
    conzone_device, event_totals, fill_zoned, randread_job, sweep, trace_sink, ExpectedRelation,
    Out,
};

const RANGES: [(u64, &str); 3] = [(1 << 20, "1MiB"), (16 << 20, "16MiB"), (1 << 30, "1GiB")];
const OPS: u64 = 20_000;

/// One measured phase: a mapping mechanism at one read range.
struct Point {
    /// KIOPS, p99.9 µs and L2P miss rate.
    perf: (f64, f64, f64),
    /// Event counts by kind from the measured phase's trace.
    events: [u64; DeviceEvent::KIND_COUNT],
    /// The drained trace itself, when the point keeps it.
    trace: Option<Vec<TraceRecord>>,
}

fn run_point(max_aggregation: MapGranularity, range: u64, keep_trace: bool) -> Point {
    let mut dev = conzone_device(max_aggregation, SearchStrategy::Bitmap);
    // Same data volume in every case: fill 1 GiB once.
    let t = fill_zoned(&mut dev, 1 << 30, 16 << 20, SimTime::ZERO).expect("fill");
    // Warm the L2P cache to steady state so the measured tail
    // reflects capacity misses, not cold-start compulsory misses.
    let warm = run_job(&mut dev, &randread_job(range, OPS / 2, t).seed(7)).expect("warmup");
    // Trace only the measured phase: the probe attaches after warmup.
    let sink = trace_sink();
    dev.set_probe(Probe::attached(sink.clone()));
    let r = run_job(&mut dev, &randread_job(range, OPS, warm.finished)).expect("randread");
    let records = sink.drain();
    Point {
        perf: (
            r.kiops(),
            r.latency.p999.as_micros_f64(),
            r.counters.l2p_miss_rate(),
        ),
        events: event_totals(&records),
        trace: keep_trace.then_some(records),
    }
}

/// Fig. 7: impact of the mapping mechanism on 4 KiB random reads.
///
/// Same data volume, three read ranges (1 MiB / 16 MiB / 1 GiB). With
/// page mapping the 12 KiB L2P cache only covers ~12 MiB of mappings, so
/// KIOPS decays as the range grows (paper: −16.5 % at 16 MiB, −33.5 % at
/// 1 GiB) while hybrid mapping stays flat at ~20 KIOPS with ~50 µs tail
/// latency. With `--trace-out <path>`, the hybrid 1 GiB measured phase is
/// also written there as a Chrome trace.
pub fn fig7(out: &mut Out) {
    let points: Vec<(MapGranularity, u64)> = [MapGranularity::Page, MapGranularity::Zone]
        .into_iter()
        .flat_map(|mapping| RANGES.map(|(range, _)| (mapping, range)))
        .collect();
    let results = sweep(&points, |&(mapping, range)| {
        // Only the hybrid 1 GiB phase is ever written out as a trace.
        run_point(
            mapping,
            range,
            mapping == MapGranularity::Zone && range == 1 << 30,
        )
    });
    let (page, hybrid) = results.split_at(RANGES.len());
    let hybrid_trace = hybrid[2].trace.as_deref().unwrap_or_default();

    let mut rows = Vec::new();
    for (i, &(_, label)) in RANGES.iter().enumerate() {
        rows.push(vec![
            label.to_string(),
            format!("{:.1}", page[i].perf.0),
            format!("{:.1}", page[i].perf.1),
            format!("{:.1}%", page[i].perf.2 * 100.0),
            format!("{:.1}", hybrid[i].perf.0),
            format!("{:.1}", hybrid[i].perf.1),
            format!("{:.1}%", hybrid[i].perf.2 * 100.0),
        ]);
    }
    out.table(
        "Fig. 7: 4 KiB random reads, page vs hybrid mapping",
        &[
            "range",
            "page KIOPS",
            "page p99.9 us",
            "page miss",
            "hybrid KIOPS",
            "hybrid p99.9 us",
            "hybrid miss",
        ],
        &rows,
    );

    // The same story told by the event trace: hybrid mapping turns the
    // page-mapping misses into hits, request by request.
    let hit_idx = DeviceEvent::L2pLookup {
        outcome: L2pOutcome::HitZone,
    }
    .kind_index();
    let miss_idx = DeviceEvent::L2pLookup {
        outcome: L2pOutcome::Miss,
    }
    .kind_index();
    let mut event_rows = Vec::new();
    for (i, &(_, label)) in RANGES.iter().enumerate() {
        event_rows.push(vec![
            label.to_string(),
            page[i].events[hit_idx].to_string(),
            page[i].events[miss_idx].to_string(),
            hybrid[i].events[hit_idx].to_string(),
            hybrid[i].events[miss_idx].to_string(),
        ]);
    }
    out.table(
        "Fig. 7 trace: L2P lookup events in the measured phase",
        &[
            "range",
            "page hits",
            "page misses",
            "hybrid hits",
            "hybrid misses",
        ],
        &event_rows,
    );

    if let Some(path) = out.trace_out.clone() {
        // Chrome trace-event JSON, loadable in Perfetto / about:tracing.
        let trace = export::chrome_trace(hybrid_trace);
        if let Err(e) = export::write_file(&path, trace) {
            out.error = Some(e);
            return;
        }
        out.line(format!(
            "wrote Chrome trace of the hybrid 1 GiB measured phase \
             ({} events) to {path}",
            hybrid_trace.len()
        ));
    }

    let page_drop16 = (1.0 - page[1].perf.0 / page[0].perf.0) * 100.0;
    let page_drop1g = (1.0 - page[2].perf.0 / page[0].perf.0) * 100.0;
    out.line(format!(
        "\npage-mapping KIOPS drop vs 1 MiB range: 16 MiB {page_drop16:.1} % \
         (paper 16.5 %), 1 GiB {page_drop1g:.1} % (paper 33.5 %)"
    ));

    out.check([
        ExpectedRelation {
            claim: "both mechanisms match at 1 MiB (everything cached, ~20 KIOPS)",
            holds: (page[0].perf.0 / hybrid[0].perf.0 - 1.0).abs() < 0.05,
            evidence: format!("{:.1} vs {:.1} KIOPS", page[0].perf.0, hybrid[0].perf.0),
        },
        ExpectedRelation {
            claim: "page mapping degrades at 16 MiB (paper −16.5 %)",
            holds: page_drop16 > 5.0,
            evidence: format!("−{page_drop16:.1} %"),
        },
        ExpectedRelation {
            claim: "page mapping degrades further at 1 GiB (paper −33.5 %)",
            holds: page_drop1g > page_drop16,
            evidence: format!("−{page_drop1g:.1} %"),
        },
        ExpectedRelation {
            claim: "hybrid mapping stays flat across ranges",
            holds: (hybrid[2].perf.0 / hybrid[0].perf.0 - 1.0).abs() < 0.05,
            evidence: format!("{:.1} vs {:.1} KIOPS", hybrid[0].perf.0, hybrid[2].perf.0),
        },
        ExpectedRelation {
            claim: "hybrid tail latency stays ~50 us at 1 GiB",
            holds: hybrid[2].perf.1 < 80.0,
            evidence: format!("p99.9 {:.1} us", hybrid[2].perf.1),
        },
        ExpectedRelation {
            claim: "page-mapping tail latency grows with range",
            holds: page[2].perf.1 > hybrid[2].perf.1,
            evidence: format!("{:.1} vs {:.1} us", page[2].perf.1, hybrid[2].perf.1),
        },
    ]);
}
