use std::sync::Arc;

use conzone_host::run_job;
use conzone_sim::{export, RingBufferSink};
use conzone_types::{MapGranularity, Probe, SearchStrategy, SimTime, StorageDevice};

use crate::{conzone_device, fill_zoned, randread_job, sweep, trace_sink, ExpectedRelation, Out};

const RANGES: [(u64, &str); 3] = [(1 << 20, "1MiB"), (16 << 20, "16MiB"), (1 << 30, "1GiB")];
const OPS: u64 = 20_000;

/// One measured phase: a mapping mechanism at one read range.
struct Point {
    /// KIOPS, p99.9 µs and L2P miss rate.
    perf: (f64, f64, f64),
    /// L2P lookups of the measured phase that hit and that missed.
    lookups: (u64, u64),
    /// The event ring that recorded the measured phase, when the point
    /// was traced.
    trace: Option<Arc<RingBufferSink>>,
}

fn run_point(max_aggregation: MapGranularity, range: u64, traced: bool) -> Point {
    let mut dev = conzone_device(max_aggregation, SearchStrategy::Bitmap);
    // Same data volume in every case: fill 1 GiB once.
    let t = fill_zoned(&mut dev, 1 << 30, 16 << 20, SimTime::ZERO).expect("fill");
    // Warm the L2P cache to steady state so the measured tail
    // reflects capacity misses, not cold-start compulsory misses.
    let warm = run_job(&mut dev, &randread_job(range, OPS / 2, t).seed(7)).expect("warmup");
    // Trace only the measured phase: the probe attaches after warmup.
    let trace = traced.then(trace_sink);
    if let Some(sink) = &trace {
        dev.set_probe(Probe::attached(sink.clone()));
    }
    let r = run_job(&mut dev, &randread_job(range, OPS, warm.finished)).expect("randread");
    Point {
        perf: (
            r.kiops(),
            r.latency.p999.as_micros_f64(),
            r.counters.l2p_miss_rate(),
        ),
        lookups: (r.counters.l2p_hits(), r.counters.l2p_misses),
        trace,
    }
}

/// Fig. 7: impact of the mapping mechanism on 4 KiB random reads.
///
/// Same data volume, three read ranges (1 MiB / 16 MiB / 1 GiB). With
/// page mapping the 12 KiB L2P cache only covers ~12 MiB of mappings, so
/// KIOPS decays as the range grows (paper: −16.5 % at 16 MiB, −33.5 % at
/// 1 GiB) while hybrid mapping stays flat at ~20 KIOPS with ~50 µs tail
/// latency. With `--trace-out <path>`, the hybrid 1 GiB measured phase is
/// traced and written there as a Chrome trace; no other phase records
/// events.
pub fn fig7(out: &mut Out) {
    let points: Vec<(MapGranularity, u64)> = [MapGranularity::Page, MapGranularity::Zone]
        .into_iter()
        .flat_map(|mapping| RANGES.map(|(range, _)| (mapping, range)))
        .collect();
    let trace_out = out.trace_out.is_some();
    let results = sweep(&points, |&(mapping, range)| {
        let exported = mapping == MapGranularity::Zone && range == 1 << 30;
        run_point(mapping, range, trace_out && exported)
    });
    let (page, hybrid) = results.split_at(RANGES.len());

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

    // The same story told lookup by lookup: hybrid mapping turns the
    // page-mapping misses into hits. One `L2pLookup` event is emitted per
    // counted lookup (`l2p_events_equal_l2p_counters` in `conzone-core`),
    // so these are the trace's event counts without recording a trace.
    let mut event_rows = Vec::new();
    for (i, &(_, label)) in RANGES.iter().enumerate() {
        event_rows.push(vec![
            label.to_string(),
            page[i].lookups.0.to_string(),
            page[i].lookups.1.to_string(),
            hybrid[i].lookups.0.to_string(),
            hybrid[i].lookups.1.to_string(),
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

    if let (Some(path), Some(sink)) = (out.trace_out.clone(), &hybrid[2].trace) {
        // Chrome trace-event JSON, loadable in Perfetto / about:tracing,
        // streamed from the ring where it lies.
        let (written, events) = sink.read(|older, newer| {
            let trace = export::Document::ChromeTrace(older, newer);
            (export::write_file(&path, trace), older.len() + newer.len())
        });
        if let Err(e) = written {
            out.error = Some(e);
            return;
        }
        out.line(format!(
            "wrote Chrome trace of the hybrid 1 GiB measured phase \
             ({events} events) to {path}"
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
