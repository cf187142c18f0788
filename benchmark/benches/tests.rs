//! Tests that span modules: the `Timed` wrapper is transparent, simulated
//! results are a function of the seed alone, and what the binary prints is
//! what `BENCHMARK.json` promises.

use conzone_core::ConZone;
use conzone_host::{run_job, run_tenants, AccessPattern, FioJob, QdOptions, TenantSpec};
use conzone_sim::json::{self, Json};
use conzone_types::{DeviceConfig, SimDuration, StorageDevice};

use crate::metrics::{Rep, END_TO_END, PER_LAYER};
use crate::trace::{SpanName, Timed};
use crate::workloads::{run_rep, Workload};
use crate::{report, result_line, Measured, Options};

const ZONE: u64 = 1024 * 1024;

fn tiny() -> ConZone {
    ConZone::new(DeviceConfig::tiny_for_tests())
}

fn fill_job() -> FioJob {
    FioJob::new(AccessPattern::SeqWrite, 128 * 1024)
        .threads(2)
        .zone_bytes(ZONE)
        .region(0, 4 * ZONE)
        .bytes_per_thread(2 * ZONE)
}

#[test]
fn a_wrapped_run_job_reports_what_the_bare_one_does() {
    let mut bare = tiny();
    let mut timed = Timed::new(tiny());
    let a = run_job(&mut bare, &fill_job()).expect("bare run");
    let b = run_job(&mut timed, &fill_job()).expect("timed run");
    assert_eq!(format!("{a:?}"), format!("{b:?}"));
    assert_eq!(bare.counters(), timed.counters());

    let (_, tracer) = timed.into_parts();
    assert_eq!(tracer.agg(SpanName::Submit).count, a.ops);
    // `run_job` snapshots the counters before and after; the assert above
    // took a third.
    assert_eq!(tracer.agg(SpanName::Counters).count, 3);
}

#[test]
fn a_wrapped_run_tenants_reports_what_the_bare_one_does() {
    let tenants = |start| {
        let reader = FioJob::new(AccessPattern::RandRead, 4096)
            .region(0, 2 * ZONE)
            .ops_per_thread(300)
            .bytes_per_thread(u64::MAX)
            .queue_depth(4)
            .seed(5)
            .start_at(start);
        let writer = FioJob::new(AccessPattern::SeqWrite, 64 * 1024)
            .zone_bytes(ZONE)
            .region(4 * ZONE, ZONE)
            .bytes_per_thread(ZONE)
            .fsync_every(4)
            .start_at(start);
        [
            TenantSpec::new("reader", reader),
            TenantSpec::new("writer", writer),
        ]
    };
    let opts = QdOptions {
        fetch_cost: SimDuration::from_nanos(500),
        ..QdOptions::default()
    };
    let mut bare = tiny();
    let mut timed = Timed::new(tiny());
    let t = run_job(&mut bare, &fill_job()).expect("fill").finished;
    run_job(&mut timed, &fill_job()).expect("fill");
    let a = run_tenants(&mut bare, &tenants(t), &opts).expect("bare run");
    let b = run_tenants(&mut timed, &tenants(t), &opts).expect("timed run");
    assert_eq!(format!("{a:?}"), format!("{b:?}"));
    assert!(b.tenants_sum_consistent());

    let (_, tracer) = timed.into_parts();
    assert!(tracer.agg(SpanName::Flush).count > 0);
    // Two snapshots around every dispatched command.
    assert!(tracer.agg(SpanName::Counters).count >= 2 * a.ops);
}

fn smoke_rep(workload: Workload, seed: u64, traced: bool) -> Rep {
    let (rep, records) = run_rep(workload, seed, true, traced).expect("smoke rep");
    assert_eq!(traced, !records.is_empty());
    let rep = Rep(rep);
    assert_eq!(rep.problems(), Vec::<String>::new(), "{}", workload.name());
    rep
}

#[test]
fn the_fingerprint_depends_on_the_seed_and_on_nothing_else() {
    for w in [Workload::RandReadPageMap, Workload::QdMixed] {
        let a = smoke_rep(w, 7, false);
        let b = smoke_rep(w, 7, false);
        let traced = smoke_rep(w, 7, true);
        let other = smoke_rep(w, 8, false);
        assert_eq!(a.text("fingerprint"), b.text("fingerprint"));
        assert_eq!(a.text("fingerprint"), traced.text("fingerprint"));
        assert_ne!(a.text("fingerprint"), other.text("fingerprint"));
    }
}

#[test]
fn instruments_do_not_change_simulated_results() {
    let plain = smoke_rep(Workload::SeqWrite, 7, false);
    let obs = smoke_rep(Workload::SeqWriteObs, 7, false);
    assert_eq!(plain.text("fingerprint"), obs.text("fingerprint"));
    assert!(obs.num("events") > 0.0 && obs.num("sim_spans") > 0.0);
    assert_eq!(obs.num("sink_dropped"), 0.0);
}

/// A `cli-figures` rep as its child would print it (the binaries it needs
/// are not built for unit tests).
fn cli_rep() -> Rep {
    let text = r#"{"requested":21,"completed":21,"problems":[],"setup_s":1.9,"window_s":1.8,
        "round_ns":[1800000000],"peak_rss_kib":70000,"fingerprint":"00000000000000aa",
        "cli":{"figures_wall_s":1.7,"scenario_wall_s":0.02,"run_export_wall_s":0.08,
        "slowest_bin_s":0.85,"slowest_bin":"lifespan","export_bytes":4000000,"paper_shape_ok":31}}"#;
    Rep(json::parse(text).expect("valid JSON"))
}

fn options(workload: Workload, end_to_end: bool, layers: bool) -> Options {
    Options {
        workload: Some(workload),
        seed: 7,
        seconds: 1.0,
        end_to_end,
        layers,
        smoke: true,
        check_repeat: false,
        trace_out: None,
    }
}

fn measured(workload: Workload, layers: bool) -> Measured {
    let (untraced, traced) = match workload {
        Workload::CliFigures => (vec![cli_rep(), cli_rep()], layers.then(cli_rep)),
        w => (
            vec![smoke_rep(w, 7, false), smoke_rep(w, 7, false)],
            layers.then(|| smoke_rep(w, 7, true)),
        ),
    };
    Measured {
        untraced,
        traced,
        ..Measured::new(workload, false)
    }
}

fn benchmark_json() -> Json {
    let path = crate::cli_figures::repo_root().join("BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
    json::parse(&text).expect("BENCHMARK.json parses")
}

fn names(list: &Json) -> Vec<String> {
    list.as_array()
        .expect("a list")
        .iter()
        .map(|m| {
            m.get("name")
                .and_then(Json::as_str)
                .expect("a name")
                .to_string()
        })
        .collect()
}

#[test]
fn the_result_line_holds_exactly_the_metrics_benchmark_json_lists() {
    let contract = benchmark_json();
    let micro = crate::micro::run(std::time::Duration::from_millis(1));
    for workload in [Workload::SeqRead, Workload::QdMixed, Workload::CliFigures] {
        for (layers, key) in [(false, "end_to_end"), (true, "per_layer")] {
            let opts = options(workload, !layers, layers);
            let set = [measured(workload, layers)];
            let reported = report(&opts, &set, if layers { &micro } else { &[] });
            let line = result_line(&opts, &set, &reported).to_string();
            let parsed = json::parse(&line).expect("the result line parses");

            let keys: Vec<&str> = match &parsed {
                Json::Obj(pairs) => pairs.iter().map(|(k, _)| k.as_str()).collect(),
                other => panic!("not an object: {other}"),
            };
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            assert_eq!(parsed.get("correct"), Some(&Json::Bool(true)));
            assert_eq!(parsed.get("failed").and_then(Json::as_u64), Some(0));
            assert!(parsed.get("attempted").and_then(Json::as_u64) >= Some(1));

            let Some(Json::Obj(metrics)) = parsed.get("metrics") else {
                panic!("no metrics object");
            };
            let printed: Vec<String> = metrics.iter().map(|(k, _)| k.clone()).collect();
            assert_eq!(printed, names(contract.get(key).expect(key)), "{key}");
            for (name, m) in metrics {
                let value = m.get("value").and_then(Json::as_f64);
                assert!(value.is_some_and(f64::is_finite), "{name}: {m}");
                assert!(m.get("unit").and_then(Json::as_str).is_some(), "{name}");
            }
        }
    }
}

#[test]
fn the_registry_matches_benchmark_json() {
    let contract = benchmark_json();
    let listed: Vec<String> = names(contract.get("workloads").expect("workloads"));
    let ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(listed, ours);
    assert_eq!(
        contract.get("run_seconds").and_then(Json::as_f64),
        Some(crate::DEFAULT_SECONDS)
    );

    for (key, defs) in [
        ("end_to_end", &END_TO_END[..]),
        ("per_layer", &PER_LAYER[..]),
    ] {
        let list = contract.get(key).and_then(Json::as_array).expect(key);
        assert_eq!(list.len(), defs.len(), "{key}");
        for (entry, def) in list.iter().zip(defs) {
            let field = |f: &str| entry.get(f).and_then(Json::as_str);
            assert_eq!(field("name"), Some(def.name));
            assert_eq!(field("unit"), Some(def.unit), "{}", def.name);
            assert_eq!(field("better"), Some(def.better.name()), "{}", def.name);
            if key == "end_to_end" {
                let bound = entry.get("bound").and_then(Json::as_f64);
                assert_eq!(bound, Some(def.bound), "{}", def.name);
            }
        }
    }
}

#[test]
fn a_failed_rep_fails_all_of_its_ops() {
    let mut m = measured(Workload::SeqRead, false);
    let requested = m.untraced[0].num("requested") as u64;
    assert_eq!((m.attempted(), m.failed()), (2 * requested, 0));
    if let Json::Obj(fields) = &mut m.untraced[1].0 {
        for (k, v) in fields.iter_mut() {
            if k == "problems" {
                *v = Json::Arr(vec![Json::from("completed 1 of 2 ops")]);
            }
        }
    }
    assert_eq!(m.failed(), requested);
    // A moved fingerprint condemns every rep of the workload.
    m.problems.push("fingerprints differ".to_string());
    assert_eq!(m.failed(), 2 * requested);
}
