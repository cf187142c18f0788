//! Scenario: canned tenant sets behind the queue front end, each on a
//! fresh prefilled device.

use conzone::host::{run_tenants, AccessPattern, FioJob, MultiReport, QdOptions, TenantSpec};
use conzone::types::DeviceConfig;

use crate::args::{build_config, parse_qd_options, parse_tenant_weights, Args};
use crate::report::{emit, Extras, Report};
use crate::run::Dut;

/// Opens the `--device` on `cfg`, fills `fill_region` bytes sequentially
/// (reads need data), then drives the tenant set through the queue-pair
/// front end. Sequential-write tenants must already carry their own
/// regions; zone size and start time are stamped onto every job here.
fn run_scenario_tenants(
    args: &Args,
    cfg: DeviceConfig,
    mut specs: Vec<TenantSpec>,
    opts: &QdOptions,
    fill_region: u64,
) -> Result<MultiReport, String> {
    let mut dut = Dut::from_args(args, cfg)?;
    dut.require_queue_pairs()?;
    let (_, start) = dut.prefill(fill_region)?;
    for s in &mut specs {
        s.job = dut.zoned(s.job.clone()).start_at(start);
    }
    run_tenants(dut.dev(), &specs, opts).map_err(|e| e.to_string())
}

/// A closed-loop random reader issuing `ops` commands per thread.
fn reader(bs: u64, region: u64, ops: u64, qd: usize, seed: u64) -> FioJob {
    FioJob::new(AccessPattern::RandRead, bs)
        .region(0, region)
        .ops_per_thread(ops)
        .bytes_per_thread(u64::MAX)
        .queue_depth(qd)
        .seed(seed)
}

/// Queue-depth sweep: one fresh prefilled device per depth, random 4 KiB
/// reads, reporting the throughput curve (and optionally a CSV for CI to
/// assert the curve rises until the chips saturate).
fn scenario_qd_sweep(args: &Args) -> Result<(), String> {
    let bs = args.size("bs", 4 * 1024)?;
    let region = args.size("region", 4 << 20)?;
    let ops = args.num("ops", 512)?;
    let wl_seed = args.num("seed", 7)?;
    let depths = [1usize, 2, 4, 8, 16, 32];
    let mut rows: Vec<(usize, MultiReport)> = Vec::with_capacity(depths.len());
    println!("  qd     KIOPS     MiB/s       mean        p99");
    for &qd in &depths {
        let specs = vec![TenantSpec::new(
            "sweep",
            reader(bs, region, ops, qd, wl_seed),
        )];
        let cfg = build_config(args)?;
        let m = run_scenario_tenants(args, cfg, specs, &QdOptions::default(), region)?;
        println!(
            "{qd:>4} {:>9.1} {:>9.1} {:>10} {:>10}",
            m.kiops(),
            m.bandwidth_mibs(),
            m.latency.mean.to_string(),
            m.latency.p99.to_string()
        );
        rows.push((qd, m));
    }
    if let Some(path) = args.get("csv") {
        let mut text = String::from("qd,kiops,bandwidth_mibs,mean_ns,p99_ns\n");
        for (qd, m) in &rows {
            text.push_str(&format!(
                "{qd},{:.3},{:.3},{},{}\n",
                m.kiops(),
                m.bandwidth_mibs(),
                m.latency.mean.as_nanos(),
                m.latency.p99.as_nanos()
            ));
        }
        std::fs::write(path, text).map_err(|e| format!("{path}: {e}"))?;
        eprintln!("csv      : {} rows to {path}", rows.len());
    }
    Ok(())
}

/// Two random-read tenants share one device behind a costly fetch stage;
/// weighted round-robin (3:1 by default) shows arbitration dividing the
/// device while per-tenant counters keep summing to the device totals.
fn scenario_interference(args: &Args) -> Result<(), String> {
    let args = &args
        .with_default("tenant-weights", "3,1")
        .with_default("arbiter", "wrr")
        .with_default("fetch-cost", "25us");
    let bs = args.size("bs", 4 * 1024)?;
    let region = args.size("region", 4 << 20)?;
    let qd = args.queue_count("qd", 8)?;
    let ops = args.num("ops", 1024)?;
    let wl_seed = args.num("seed", 7)?;
    let weights = parse_tenant_weights(args, 2)?;
    let mk = |name: &str, salt: u64, w: u32| {
        TenantSpec::new(name, reader(bs, region, ops, qd, wl_seed ^ salt)).weight(w)
    };
    let specs = vec![
        mk("hog", 0x9e37, weights[0]),
        mk("victim", 0x79b9, weights[1]),
    ];
    let opts = parse_qd_options(args)?;
    let m = run_scenario_tenants(args, build_config(args)?, specs, &opts, region)?;
    let json = args.has("stats-json");
    emit(json, &Report::Tenants(m), Extras::default());
    Ok(())
}

/// `mixed` and `flash-cache`: a random 4 KiB reader at depth `--qd`
/// (default `qd`, `ops` commands) against a zoned sequential writer of
/// `write_bs` blocks at depth 1, in disjoint halves of the region — they
/// contend for chips and channels, not for zones. The flash cache is the
/// deeper, hotter variant whose write-back stream fsyncs every 8 writes the
/// way a cache's metadata journal would.
fn scenario_read_write(
    args: &Args,
    [reader_name, writer_name]: [&str; 2],
    qd: u64,
    ops: u64,
    write_bs: u64,
    fsync_every: Option<u64>,
) -> Result<(), String> {
    let region = args.size("region", 8 << 20)?;
    let qd = args.queue_count("qd", qd)?;
    let ops = args.num("ops", ops)?;
    let wl_seed = args.num("seed", 7)?;
    let cfg = build_config(args)?;
    let zone_bytes = cfg.zone_size_bytes();
    let half = (region / 2 / zone_bytes) * zone_bytes;
    if half == 0 {
        return Err(format!("--region {region} smaller than two zones"));
    }
    let mut writer = FioJob::new(AccessPattern::SeqWrite, write_bs)
        .region(half, half)
        .bytes_per_thread(half.min(2 << 20))
        .seed(wl_seed ^ 0x79b9);
    if let Some(n) = fsync_every {
        writer = writer.fsync_every(n);
    }
    let specs = vec![
        TenantSpec::new(
            reader_name,
            reader(4 * 1024, half, ops, qd, wl_seed ^ 0x9e37),
        ),
        TenantSpec::new(writer_name, writer),
    ];
    let opts = parse_qd_options(args)?;
    let m = run_scenario_tenants(args, cfg, specs, &opts, half)?;
    let json = args.has("stats-json");
    emit(json, &Report::Tenants(m), Extras::default());
    Ok(())
}

pub fn cmd_scenario(args: &Args) -> Result<(), String> {
    let name = args
        .positional
        .get(1)
        .map(String::as_str)
        .ok_or("usage: conzone scenario <qd-sweep|interference|mixed|flash-cache>")?;
    // Scenarios run on the tiny geometry unless told otherwise, so sweeps
    // stay fast.
    let args = &args.with_default("config", "tiny");
    match name {
        "qd-sweep" => scenario_qd_sweep(args),
        "interference" => scenario_interference(args),
        "mixed" => scenario_read_write(args, ["reader", "writer"], 8, 1024, 64 << 10, None),
        "flash-cache" => scenario_read_write(
            args,
            ["hot-reads", "writeback"],
            16,
            2048,
            256 << 10,
            Some(8),
        ),
        other => Err(format!(
            "unknown scenario '{other}' (qd-sweep|interference|mixed|flash-cache)"
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::args::args;

    #[test]
    fn scenario_qd_sweep_writes_a_rising_curve() {
        let dir = std::env::temp_dir().join("conzone-cli-sweep-test");
        std::fs::create_dir_all(&dir).unwrap();
        let csv_path = dir.join("sweep.csv");
        let a = args(&[
            "scenario",
            "qd-sweep",
            "--region",
            "2m",
            "--ops",
            "256",
            "--csv",
            csv_path.to_str().unwrap(),
        ]);
        cmd_scenario(&a).expect("sweep ok");
        let csv = std::fs::read_to_string(&csv_path).unwrap();
        let kiops: Vec<f64> = csv
            .lines()
            .skip(1)
            .map(|l| l.split(',').nth(1).unwrap().parse().unwrap())
            .collect();
        assert_eq!(kiops.len(), 6);
        // Depth buys throughput until the chips saturate.
        assert!(kiops[2] > kiops[0], "qd4 {} <= qd1 {}", kiops[2], kiops[0]);
        assert!(kiops[5] >= kiops[2] * 0.8, "deep queues collapsed");
        std::fs::remove_file(csv_path).ok();
    }

    #[test]
    fn scenario_interference_smoke() {
        let a = args(&[
            "scenario",
            "interference",
            "--region",
            "2m",
            "--ops",
            "128",
            "--stats-json",
        ]);
        cmd_scenario(&a).expect("interference ok");
        let a = args(&["scenario", "nope"]);
        assert!(cmd_scenario(&a).is_err());
    }
}
