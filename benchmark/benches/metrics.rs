//! The metric registry (every name `BENCHMARK.json` lists, with its unit
//! and direction) and the arithmetic that turns reps into metric values.
//!
//! Units say which clock a number is on: `ns`, `s` and `1/s` are host wall
//! time; anything starting `sim_` is simulated time and repeats exactly for
//! a given seed. A per-layer metric that does not apply to the workload
//! being run (a CLI metric on an in-process workload, `flush` cost where
//! nothing flushes) reads 0.

use conzone_sim::json::Json;

use crate::stats::{iqr_share, median, quartiles, supported_tail};
use crate::trace::{SpanAgg, SpanName, TimerCost};
use crate::workloads::Workload;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn name(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// End-to-end metrics only: the share of the parent's median by which
    /// the metric may worsen before a change counts as a regression.
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound,
    }
}

const fn lower(name: &'static str, unit: &'static str) -> MetricDef {
    e2e(name, unit, Better::Lower, 0.0)
}

const fn higher(name: &'static str, unit: &'static str) -> MetricDef {
    e2e(name, unit, Better::Higher, 0.0)
}

/// What a user of the emulator pays: host time per simulated op, host
/// memory, and the time before the first op. All measured with tracing
/// off. (`failed_ops_share`, bound 0, is the `failed` / `attempted` pair of
/// the result line.)
pub const END_TO_END: [MetricDef; 3] = [
    e2e("ops_per_wall_s", "1/s", Better::Higher, 0.25),
    e2e("peak_rss_mib", "MiB", Better::Lower, 0.10),
    e2e("setup_s", "s", Better::Lower, 0.25),
];

pub const PER_LAYER: [MetricDef; 85] = [
    // host: runner.rs, qd.rs
    lower("host.self_ns_per_op", "ns"),
    lower("host.round_ns_per_op_p50", "ns"),
    lower("host.round_ns_per_op_hi", "ns"),
    lower("host.counters_calls_per_op", "count"),
    higher("host.sim_s_per_wall_s", "sim_s/s"),
    higher("host.sim_kiops", "sim_kiops"),
    higher("host.sim_mibs", "sim_MiB/s"),
    lower("host.sim_lat_p50_us", "sim_us"),
    lower("host.sim_lat_p99_us", "sim_us"),
    lower("host.queue_wait_p99_us", "sim_us"),
    // core: ConZone, arbiter
    lower("core.submit_ns_per_op", "ns"),
    lower("core.submit_ns_per_slice", "ns"),
    lower("core.flush_ns_per_call", "ns"),
    lower("core.flush_calls_per_op", "count"),
    lower("core.reset_zone_ns_per_call", "ns"),
    lower("core.counters_ns_per_call", "ns"),
    lower("core.buffer_conflicts_per_op", "count"),
    lower("core.premature_flushes_per_op", "count"),
    lower("core.slc_combines_per_op", "count"),
    lower("core.gc_runs_per_kop", "count"),
    lower("core.gc_migrated_slices_per_op", "count"),
    lower("core.zone_resets_per_kop", "count"),
    lower("core.waf", "ratio"),
    lower("core.breakdown.mapping_fetch_share", "share"),
    lower("core.breakdown.data_read_share", "share"),
    lower("core.breakdown.write_path_share", "share"),
    lower("core.breakdown.combine_read_share", "share"),
    lower("core.breakdown.gc_stall_share", "share"),
    lower("core.breakdown.l2p_log_share", "share"),
    lower("core.breakdown.erase_share", "share"),
    lower("core.arbiter.doorbell_grant_rr_ns", "ns"),
    lower("core.arbiter.doorbell_grant_wrr_ns", "ns"),
    // ftl
    lower("ftl.l2p_lookups_per_op", "count"),
    lower("ftl.l2p_miss_rate", "share"),
    lower("ftl.l2p_evictions_per_op", "count"),
    lower("ftl.l2p.lookup_hit_zone_ns", "ns"),
    lower("ftl.l2p.lookup_hit_page_ns", "ns"),
    lower("ftl.l2p.lookup_miss_ns", "ns"),
    lower("ftl.l2p.insert_evict_ns", "ns"),
    lower("ftl.mapping.get_ns", "ns"),
    lower("ftl.mapping.set_ns", "ns"),
    lower("ftl.mapping.aggregate_chunk_ns", "ns"),
    lower("ftl.bitmap.get_ns", "ns"),
    // flash
    lower("flash.data_reads_per_op", "count"),
    lower("flash.mapping_reads_per_op", "count"),
    lower("flash.erases_per_kop", "count"),
    lower("flash.timed_page_read_ns", "ns"),
    lower("flash.read_slices_ns_per_slice", "ns"),
    lower("flash.read_slices_single_ns", "ns"),
    lower("flash.program_unit_ns", "ns"),
    lower("flash.program_slc_ns", "ns"),
    lower("flash.erase_block_ns", "ns"),
    // sim
    lower("sim.event_queue.push_pop_occ4_ns", "ns"),
    lower("sim.event_queue.push_pop_occ16_ns", "ns"),
    lower("sim.event_queue.push_pop_occ64k_ns", "ns"),
    lower("sim.histogram.record_ns", "ns"),
    lower("sim.rng.below_ns", "ns"),
    lower("sim.resource.acquire_ns", "ns"),
    lower("sim.sampler.observe_ns", "ns"),
    lower("sim.ring_sink.record_ns", "ns"),
    lower("sim.ring_sink.drain_ns_per_record", "ns"),
    lower("sim.span_buffer.record_ns", "ns"),
    lower("sim.export.trace_jsonl_ns_per_record", "ns"),
    lower("sim.export.span_jsonl_ns_per_record", "ns"),
    lower("sim.export.chrome_trace_ns_per_record", "ns"),
    // types
    lower("types.counters.since_ns", "ns"),
    lower("types.counters.merge_ns", "ns"),
    lower("types.probe.emit_null_ns", "ns"),
    lower("types.span.open_close_null_ns", "ns"),
    lower("types.events_per_op", "count"),
    lower("types.spans_per_op", "count"),
    lower("types.sink_dropped", "count"),
    // legacy, femu
    lower("legacy.randwrite_4k_ns_per_op", "ns"),
    lower("femu.randread_4k_ns_per_op", "ns"),
    // conzone CLI + figure binaries
    lower("cli.figures_wall_s", "s"),
    lower("cli.scenario_wall_s", "s"),
    lower("cli.run_export_wall_s", "s"),
    lower("cli.slowest_bin_s", "s"),
    lower("cli.export_bytes", "bytes"),
    higher("cli.paper_shape_ok", "count"),
    // bench: the benchmark checking itself
    lower("bench.timer_ns", "ns"),
    lower("bench.trace_overhead_ratio", "ratio"),
    lower("bench.obs_overhead_ratio", "ratio"),
    lower("bench.rep_iqr_share", "share"),
    higher("bench.layers_sum_ratio", "ratio"),
];

/// The registry entry of a metric this program reports.
pub fn def(name: &str) -> &'static MetricDef {
    END_TO_END
        .iter()
        .chain(&PER_LAYER)
        .find(|d| d.name == name)
        .unwrap_or_else(|| panic!("`{name}` is not a registered metric"))
}

/// One rep as its child process reported it.
#[derive(Debug, Clone)]
pub struct Rep(pub Json);

impl Rep {
    fn at(&self, path: &str) -> Option<&Json> {
        path.split('.').try_fold(&self.0, |j, key| j.get(key))
    }

    /// A number the child always reports; its absence is a bug in this
    /// program, not a measurement.
    pub fn num(&self, path: &str) -> f64 {
        self.at(path)
            .and_then(Json::as_f64)
            .unwrap_or_else(|| panic!("rep has no number at `{path}`"))
    }

    pub fn nums(&self, path: &str) -> Vec<f64> {
        self.at(path)
            .and_then(Json::as_array)
            .unwrap_or_else(|| panic!("rep has no array at `{path}`"))
            .iter()
            .filter_map(Json::as_f64)
            .collect()
    }

    pub fn text(&self, path: &str) -> &str {
        self.at(path)
            .and_then(Json::as_str)
            .unwrap_or_else(|| panic!("rep has no string at `{path}`"))
    }

    pub fn problems(&self) -> Vec<String> {
        self.at("problems")
            .and_then(Json::as_array)
            .map(|a| {
                a.iter()
                    .filter_map(Json::as_str)
                    .map(String::from)
                    .collect()
            })
            .unwrap_or_default()
    }

    /// Whether the rep passed every check it ran on itself.
    pub fn is_ok(&self) -> bool {
        self.at("problems")
            .and_then(Json::as_array)
            .is_some_and(<[Json]>::is_empty)
    }

    pub fn ops_per_wall_s(&self) -> f64 {
        self.num("completed") / self.num("window_s")
    }

    fn span(&self, name: SpanName) -> SpanAgg {
        self.at(&format!("spans.{}", name.name()))
            .and_then(SpanAgg::from_json)
            .unwrap_or_else(|| panic!("traced rep has no `{}` span aggregate", name.name()))
    }

    /// A field of `conzone_sim::export::counters_json`. Its two derived
    /// ratios print as `null` when they are not finite (flash programmed
    /// with nothing written); that reads 0 here.
    fn counter(&self, name: &str) -> f64 {
        match self.at(&format!("counters.{name}")) {
            Some(Json::Null) => 0.0,
            Some(v) => v.as_f64().unwrap_or(0.0),
            None => panic!("rep has no counter `{name}`"),
        }
    }
}

/// A metric value with the sample behind it.
#[derive(Debug, Clone, PartialEq)]
pub struct Value {
    pub value: f64,
    /// Samples the value is the median (or the stated percentile) of.
    pub n: usize,
    pub q1: f64,
    pub q3: f64,
    pub note: String,
}

impl Value {
    fn exact(value: f64) -> Value {
        Value {
            value: if value.is_finite() { value } else { 0.0 },
            n: 1,
            q1: value,
            q3: value,
            note: String::new(),
        }
    }

    fn of(samples: &[f64]) -> Value {
        let (q1, mid, q3) = quartiles(samples);
        Value {
            value: mid,
            n: samples.len(),
            q1,
            q3,
            note: String::new(),
        }
    }

    fn noted(mut self, note: impl Into<String>) -> Value {
        self.note = note.into();
        self
    }
}

pub type Values = Vec<(&'static str, Value)>;

/// Wall seconds one window takes when nothing else wants the machine.
///
/// Round `i` does exactly the same simulated work in every rep, so its
/// wall time differs between reps only by interference — and on this kind
/// of shared host that comes in spells of seconds during which everything
/// runs a third slower, which a median over reps follows and a minimum
/// does not. The quiet window is the sum over rounds of each round's best
/// time across the reps: every round still counts in full (a change that
/// speeds up only the rare expensive rounds shows), but one slow spell
/// costs nothing as long as each round ran undisturbed once.
pub fn quiet_window_s(reps: &[Rep]) -> f64 {
    let rounds: Vec<Vec<f64>> = reps.iter().map(|r| r.nums("round_ns")).collect();
    let n = rounds.iter().map(Vec::len).min().unwrap_or(0);
    let best = |i: usize| rounds.iter().map(|r| r[i]).fold(f64::INFINITY, f64::min);
    (0..n).map(best).sum::<f64>() / 1e9
}

/// End-to-end metrics of one workload over its untraced reps. The two wall
/// times are taken free of interference (see [`quiet_window_s`]; set-up is
/// one piece of work, so it is simply the best of the reps); the quartiles
/// beside them are of the per-rep figures and show how noisy the run was.
pub fn end_to_end(reps: &[Rep]) -> Values {
    let column = |f: &dyn Fn(&Rep) -> f64| reps.iter().map(f).collect::<Vec<f64>>();
    let ops = reps.first().map_or(0.0, |r| r.num("completed"));
    let setups = column(&|r| r.num("setup_s"));
    vec![
        (
            "ops_per_wall_s",
            Value {
                value: ratio(ops, quiet_window_s(reps)),
                ..Value::of(&column(&Rep::ops_per_wall_s))
            }
            .noted("per-round best of the reps; quartiles of whole reps"),
        ),
        (
            "peak_rss_mib",
            Value::of(&column(&|r| r.num("peak_rss_kib") / 1024.0)),
        ),
        (
            "setup_s",
            Value {
                value: setups.iter().copied().fold(f64::INFINITY, f64::min),
                ..Value::of(&setups)
            }
            .noted("best of the reps; quartiles of all"),
        ),
    ]
}

fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// How many nanoseconds of `submit` per op the microbenchmarks account
/// for: each lower-layer call the window's counters prove happened, times
/// what one such call costs in isolation.
fn explained_submit_ns_per_op(traced: &Rep, micro: &dyn Fn(&str) -> f64) -> f64 {
    let c = |name: &str| traced.counter(name);
    let slices_read = c("host_read_bytes") / 4096.0;
    let slices_written = c("host_write_bytes") / 4096.0;
    let unit_bytes = 96.0 * 1024.0;
    let page_bytes = 16.0 * 1024.0;
    // 4 KiB reads pay a whole `read_slices` call per slice; large reads
    // amortise it.
    let read_slice_ns = if slices_read == c("host_read_ops") {
        micro("flash.read_slices_single_ns")
    } else {
        micro("flash.read_slices_ns_per_slice")
    };
    let ns = c("l2p_hits_zone") * micro("ftl.l2p.lookup_hit_zone_ns")
        + (c("l2p_hits_chunk") + c("l2p_hits_page")) * micro("ftl.l2p.lookup_hit_page_ns")
        + c("l2p_misses")
            * (micro("ftl.l2p.lookup_miss_ns")
                + micro("ftl.mapping.get_ns")
                + micro("ftl.l2p.insert_evict_ns"))
        + c("flash_mapping_reads") * micro("flash.timed_page_read_ns")
        + slices_read * micro("ftl.mapping.get_ns")
        + slices_read * read_slice_ns
        + (slices_written + c("gc_migrated_slices")) * micro("ftl.mapping.set_ns")
        + slices_written / 1024.0 * micro("ftl.mapping.aggregate_chunk_ns")
        + c("flash_program_bytes_tlc") / unit_bytes * micro("flash.program_unit_ns")
        + c("flash_program_bytes_slc") / page_bytes * micro("flash.program_slc_ns")
        + c("gc_migrated_slices") * micro("flash.read_slices_ns_per_slice")
        + (c("erases_slc") + c("erases_normal")) * micro("flash.erase_block_ns");
    ratio(ns, traced.num("completed"))
}

/// What a traced run adds to the untraced reps it was taken beside.
pub struct LayerInputs<'a> {
    pub workload: Workload,
    pub untraced: &'a [Rep],
    pub traced: &'a Rep,
    pub micro: &'a [(&'static str, f64)],
    /// `ops_per_wall_s` of `seqwrite-512k-4t` reps run beside an `-obs`
    /// run; 0 otherwise.
    pub plain_seqwrite: f64,
}

/// Every per-layer metric, in registry order.
pub fn per_layer(inputs: &LayerInputs) -> Values {
    let LayerInputs {
        workload,
        untraced,
        traced,
        micro,
        plain_seqwrite,
    } = *inputs;
    let micro_ns = |name: &str| {
        micro
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |(_, ns)| *ns)
    };
    let in_process = workload != Workload::CliFigures;
    let mut out: Values = Vec::with_capacity(PER_LAYER.len());
    let mut put = |name: &'static str, v: Value| out.push((name, v));

    let wall: Vec<f64> = untraced.iter().map(Rep::ops_per_wall_s).collect();
    let quiet_s = quiet_window_s(untraced);

    if in_process {
        let ops = traced.num("completed");
        let timer = TimerCost {
            total_ns: traced.num("timer_ns"),
            inside_ns: traced.num("timer_inside_ns"),
        };
        let self_ns = |n: SpanName| traced.span(n).self_ns(&timer);
        let calls = |n: SpanName| traced.span(n).count as f64;
        let per_call = |n: SpanName| ratio(self_ns(n), calls(n));
        let ops_per_round = ops / traced.nums("round_ns").len() as f64;
        let rounds: Vec<f64> = untraced
            .iter()
            .flat_map(|r| r.nums("round_ns"))
            .map(|ns| ns / ops_per_round)
            .collect();
        let (pct, hi) = supported_tail(&rounds);
        let sim_s = traced.num("sim_ns") / 1e9;
        let c = |name: &str| traced.counter(name);
        let lookups =
            c("l2p_hits_zone") + c("l2p_hits_chunk") + c("l2p_hits_page") + c("l2p_misses");
        let breakdown_total: f64 = match traced.at("breakdown_ns") {
            Some(Json::Obj(categories)) => categories.iter().filter_map(|(_, v)| v.as_f64()).sum(),
            _ => 0.0,
        };
        let submit_ns = ratio(self_ns(SpanName::Submit), ops);

        put(
            "host.self_ns_per_op",
            Value::exact(ratio(
                self_ns(SpanName::RunJob) + self_ns(SpanName::RunTenants),
                ops,
            )),
        );
        put(
            "host.round_ns_per_op_p50",
            Value::of(&rounds).noted("untraced rounds"),
        );
        put(
            "host.round_ns_per_op_hi",
            Value {
                value: hi,
                ..Value::of(&rounds)
            }
            .noted(format!("p{pct:.1} of untraced rounds")),
        );
        put(
            "host.counters_calls_per_op",
            Value::exact(ratio(calls(SpanName::Counters), ops)),
        );
        put("host.sim_s_per_wall_s", Value::exact(ratio(sim_s, quiet_s)));
        put("host.sim_kiops", Value::exact(ratio(ops / 1000.0, sim_s)));
        put(
            "host.sim_mibs",
            Value::exact(ratio(traced.num("bytes") / (1024.0 * 1024.0), sim_s)),
        );
        let us = |path: &str| {
            Value::exact(median(&traced.nums(path)) / 1000.0).noted("median over rounds")
        };
        put("host.sim_lat_p50_us", us("lat_p50_ns"));
        put("host.sim_lat_p99_us", us("lat_p99_ns"));
        put("host.queue_wait_p99_us", us("wait_p99_ns"));

        put("core.submit_ns_per_op", Value::exact(submit_ns));
        put(
            "core.submit_ns_per_slice",
            Value::exact(ratio(
                self_ns(SpanName::Submit),
                traced.num("bytes") / 4096.0,
            )),
        );
        put(
            "core.flush_ns_per_call",
            Value::exact(per_call(SpanName::Flush)),
        );
        put(
            "core.flush_calls_per_op",
            Value::exact(ratio(calls(SpanName::Flush), ops)),
        );
        put(
            "core.reset_zone_ns_per_call",
            Value::exact(per_call(SpanName::ResetZone)),
        );
        put(
            "core.counters_ns_per_call",
            Value::exact(per_call(SpanName::Counters)),
        );
        // Exact counts per op (or per thousand ops), from the window's
        // counter delta.
        for (name, counter, per) in [
            ("core.buffer_conflicts_per_op", "buffer_conflicts", 1.0),
            ("core.premature_flushes_per_op", "premature_flushes", 1.0),
            ("core.slc_combines_per_op", "slc_combines", 1.0),
            ("core.gc_runs_per_kop", "gc_runs", 1000.0),
            ("core.gc_migrated_slices_per_op", "gc_migrated_slices", 1.0),
            ("core.zone_resets_per_kop", "zone_resets", 1000.0),
            ("ftl.l2p_evictions_per_op", "l2p_evictions", 1.0),
            ("flash.data_reads_per_op", "flash_data_reads", 1.0),
            ("flash.mapping_reads_per_op", "flash_mapping_reads", 1.0),
        ] {
            put(name, Value::exact(ratio(c(counter) * per, ops)));
        }
        put(
            "flash.erases_per_kop",
            Value::exact(ratio((c("erases_slc") + c("erases_normal")) * 1000.0, ops)),
        );
        put("ftl.l2p_lookups_per_op", Value::exact(ratio(lookups, ops)));
        put("ftl.l2p_miss_rate", Value::exact(c("l2p_miss_rate")));
        put("core.waf", Value::exact(c("write_amplification")));
        for (name, category) in [
            ("core.breakdown.mapping_fetch_share", "mapping_fetch"),
            ("core.breakdown.data_read_share", "data_read"),
            ("core.breakdown.write_path_share", "write_path"),
            ("core.breakdown.combine_read_share", "combine_read"),
            ("core.breakdown.gc_stall_share", "gc"),
            ("core.breakdown.l2p_log_share", "l2p_log"),
            ("core.breakdown.erase_share", "erase"),
        ] {
            let ns = traced.num(&format!("breakdown_ns.{category}"));
            put(name, Value::exact(ratio(ns, breakdown_total)));
        }
        put(
            "types.events_per_op",
            Value::exact(ratio(traced.num("events"), ops)),
        );
        put(
            "types.spans_per_op",
            Value::exact(ratio(traced.num("sim_spans"), ops)),
        );
        put(
            "types.sink_dropped",
            Value::exact(traced.num("sink_dropped")),
        );

        put("bench.timer_ns", Value::exact(timer.total_ns));
        put(
            "bench.layers_sum_ratio",
            Value::exact(ratio(
                explained_submit_ns_per_op(traced, &micro_ns),
                submit_ns,
            )),
        );
    } else {
        // Every rep of `cli-figures` times each invocation on its own (a
        // process spawn dwarfs a clock read), so all of them count.
        let all: Vec<&Rep> = untraced.iter().chain([traced]).collect();
        let cli = |key: &str| {
            Value::of(
                &all.iter()
                    .map(|r| r.num(&format!("cli.{key}")))
                    .collect::<Vec<_>>(),
            )
        };
        put("cli.figures_wall_s", cli("figures_wall_s"));
        put("cli.scenario_wall_s", cli("scenario_wall_s"));
        put("cli.run_export_wall_s", cli("run_export_wall_s"));
        put(
            "cli.slowest_bin_s",
            cli("slowest_bin_s").noted(traced.text("cli.slowest_bin")),
        );
        put("cli.export_bytes", cli("export_bytes"));
        put("cli.paper_shape_ok", cli("paper_shape_ok"));
    }

    for (name, ns) in micro {
        put(name, Value::exact(*ns).noted("median of 3 batches"));
    }
    put(
        "bench.trace_overhead_ratio",
        Value::exact(ratio(traced.num("window_s"), quiet_s)),
    );
    put(
        "bench.obs_overhead_ratio",
        Value::exact(ratio(
            plain_seqwrite,
            ratio(traced.num("completed"), quiet_s),
        )),
    );
    put(
        "bench.rep_iqr_share",
        Value::exact(iqr_share(&wall)).noted("ops_per_wall_s"),
    );

    // Registry order, with 0 for what does not apply to this workload.
    PER_LAYER
        .iter()
        .map(|def| {
            let v = out
                .iter()
                .find(|(n, _)| *n == def.name)
                .map_or_else(|| Value::exact(0.0).noted("n/a"), |(_, v)| v.clone());
            (def.name, v)
        })
        .collect()
}
