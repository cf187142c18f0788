use conzone_core::ConZone;
use conzone_host::run_job;
use conzone_types::{DeviceConfig, Geometry, MapGranularity, SimTime};

use crate::{fill_zoned, randread_job, sweep, Out};

const RANGE: u64 = 1 << 30;
const OPS: u64 = 20_000;

fn run(agg: MapGranularity, iops: f64) -> (f64, f64, f64) {
    let cfg = DeviceConfig::builder(Geometry::consumer_1p5gb())
        .max_aggregation(agg)
        .build()
        .expect("config");
    let mut dev = ConZone::new(cfg);
    let t = fill_zoned(&mut dev, RANGE, 16 << 20, SimTime::ZERO).expect("fill");
    let warm = run_job(&mut dev, &randread_job(RANGE, OPS / 2, t).seed(5)).expect("warm");
    let job = randread_job(RANGE, OPS, warm.finished).arrival_iops(iops);
    let r = run_job(&mut dev, &job).expect("open loop");
    (
        r.kiops() * 1000.0,
        r.latency.mean.as_micros_f64(),
        r.latency.p999.as_micros_f64(),
    )
}

/// Latency versus offered load: open-loop Poisson 4 KiB random reads
/// against the paper device, for page vs hybrid mapping.
///
/// The closed-loop figures (Fig. 7/8) measure service latency at queue
/// depth 1; real phone workloads arrive asynchronously. This sweep offers
/// increasing read rates and reports mean and tail latency — the knee
/// arrives much earlier under page mapping because every L2P miss
/// consumes extra chip time on mapping fetches, shrinking the capacity
/// left for data.
pub fn latency_vs_load(out: &mut Out) {
    let loads = [5_000.0f64, 20_000.0, 40_000.0, 60_000.0, 70_000.0, 76_000.0];
    let points: Vec<(f64, MapGranularity)> = loads
        .iter()
        .flat_map(|&iops| [(iops, MapGranularity::Page), (iops, MapGranularity::Zone)])
        .collect();
    let results = sweep(&points, |&(iops, agg)| run(agg, iops));
    let rows: Vec<Vec<String>> = loads
        .iter()
        .zip(results.chunks(2))
        .map(|(offered, pair)| {
            let ((pa, pm, pt), (ha, hm, ht)) = (pair[0], pair[1]);
            vec![
                format!("{:.0}", offered),
                format!("{pa:.0}"),
                format!("{pm:.0}"),
                format!("{pt:.0}"),
                format!("{ha:.0}"),
                format!("{hm:.0}"),
                format!("{ht:.0}"),
            ]
        })
        .collect();
    out.table(
        "Latency vs offered load: open-loop 4 KiB random reads over 1 GiB",
        &[
            "offered IOPS",
            "page achieved",
            "page mean us",
            "page p99.9 us",
            "hybrid achieved",
            "hybrid mean us",
            "hybrid p99.9 us",
        ],
        &rows,
    );
    out.line(
        "\nexpectation: hybrid mapping rides flat to the media's capacity;\n\
         page mapping saturates earlier because ~99 % of reads burn an\n\
         extra mapping fetch — its achieved rate clips and the tail\n\
         explodes at lower offered load.",
    );
}
