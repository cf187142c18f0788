//! Workload 7, `cli-figures`: the binaries users run, as child processes.
//!
//! One op is one invocation. A pass runs the fifteen figure, table and
//! ablation binaries `all_figures` lists, the four `conzone scenario`s and
//! two `conzone run`s with every exporter on. It is the only workload that
//! crosses CLI parsing, the file exporters, the Legacy and FEMU models,
//! `f2fs_lite`, the open-loop generator and the paper-shape checks.
//!
//! The binaries come from the emulator's own workspace; [`build`] asks
//! cargo for them (a no-op when they are fresh) before the first rep.

use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::Instant;

use conzone_sim::json::{self, Json};

use crate::fingerprint::Fingerprint;

/// The binaries `crates/bench/src/bin/all_figures.rs` runs, in its order.
const FIGURE_BINS: [&str; 15] = [
    "table1",
    "table2",
    "fig6a",
    "fig6b",
    "fig7",
    "fig8",
    "ablation_buffers",
    "ablation_cache",
    "ablation_slc",
    "ablation_l2p_log",
    "ablation_media",
    "ablation_planes",
    "ablation_sync",
    "latency_vs_load",
    "lifespan",
];
/// The quick ones `--smoke` keeps.
const SMOKE_FIGURE_BINS: [&str; 3] = ["table1", "fig6b", "ablation_planes"];

pub const SUITE_LEN: u64 = FIGURE_BINS.len() as u64 + 4 + 2;
pub const SMOKE_SUITE_LEN: u64 = SMOKE_FIGURE_BINS.len() as u64 + 1 + 1;

/// Paper-shape checks the full and the quick suite print, all of which
/// must read `[ok]`.
pub const PAPER_SHAPE_CHECKS: u64 = 31;
const SMOKE_PAPER_SHAPE_CHECKS: u64 = 4;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Group {
    Figures,
    Scenario,
    RunExport,
}

struct Invocation {
    group: Group,
    program: &'static str,
    args: Vec<String>,
    /// Standard output is one stats-JSON document.
    stats_json: bool,
    /// Files the invocation must leave behind.
    exports: Vec<PathBuf>,
}

/// The emulator's workspace root: the benchmark package sits directly
/// below it.
pub fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark package has a parent directory")
        .to_path_buf()
}

/// Where cargo puts build output: `CARGO_TARGET_DIR` (relative to the
/// working directory, as cargo reads it) or the workspace's `target/`.
pub fn target_dir() -> PathBuf {
    match std::env::var_os("CARGO_TARGET_DIR") {
        Some(dir) if !dir.is_empty() => std::env::current_dir()
            .map(|cwd| cwd.join(&dir))
            .unwrap_or_else(|_| PathBuf::from(dir)),
        _ => repo_root().join("target"),
    }
}

/// Builds the `conzone` CLI and the figure binaries in release mode.
pub fn build() -> Result<(), String> {
    let status = Command::new("cargo")
        .args(["build", "--release", "--quiet", "-p", "conzone", "-p"])
        .arg("conzone-bench")
        .arg("--manifest-path")
        .arg(repo_root().join("Cargo.toml"))
        .arg("--target-dir")
        .arg(target_dir())
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("cargo build: {e}"))?;
    if status.success() {
        Ok(())
    } else {
        Err(format!("cargo build of the emulator binaries: {status}"))
    }
}

fn strings(args: &[&str]) -> Vec<String> {
    args.iter().map(|s| (*s).to_string()).collect()
}

fn suite(seed: u64, smoke: bool, scratch: &Path) -> Vec<Invocation> {
    let figure = |bin: &'static str| Invocation {
        group: Group::Figures,
        program: bin,
        args: Vec::new(),
        stats_json: false,
        exports: Vec::new(),
    };
    let scenario = |args: &[&str], stats_json: bool, exports: Vec<PathBuf>| Invocation {
        group: Group::Scenario,
        program: "conzone",
        args: strings(args),
        stats_json,
        exports,
    };
    let file = |name: &str| scratch.join(name);
    let path = |name: &str| file(name).to_string_lossy().into_owned();
    let seed = seed.to_string();

    let mut v: Vec<Invocation> = if smoke {
        SMOKE_FIGURE_BINS.into_iter().map(figure).collect()
    } else {
        FIGURE_BINS.into_iter().map(figure).collect()
    };
    v.push(scenario(
        &["scenario", "qd-sweep", "--csv", &path("sweep.csv")],
        false,
        vec![file("sweep.csv")],
    ));
    if !smoke {
        for name in ["interference", "mixed", "flash-cache"] {
            v.push(scenario(&["scenario", name, "--stats-json"], true, vec![]));
        }
    }
    // Sized so the CLI's fixed 64 Ki-event ring drops nothing.
    v.push(Invocation {
        group: Group::RunExport,
        program: "conzone",
        args: strings(&[
            "run",
            "--pattern",
            "seqwrite",
            "--bs",
            "512k",
            "--threads",
            "4",
            "--size",
            "1g",
            "--region",
            "1g",
            "--seed",
            &seed,
            "--trace-out",
            &path("sync-events.json"),
            "--span-out",
            &path("sync-spans.jsonl"),
            "--metrics-out",
            &path("sync-metrics.jsonl"),
            "--metrics-interval",
            "1ms",
            "--heatmap",
            "--stats-json",
        ]),
        stats_json: true,
        exports: vec![
            file("sync-events.json"),
            file("sync-spans.jsonl"),
            file("sync-metrics.jsonl"),
        ],
    });
    if !smoke {
        // The queue-pair path has no interval sampler, hence no
        // `--metrics-out`.
        v.push(Invocation {
            group: Group::RunExport,
            program: "conzone",
            args: strings(&[
                "run",
                "--pattern",
                "randread",
                "--bs",
                "4k",
                "--qd",
                "8",
                "--tenants",
                "2",
                "--aggregation",
                "page",
                "--size",
                "32m",
                "--region",
                "128m",
                "--seed",
                &seed,
                "--trace-out",
                &path("qd-events.json"),
                "--span-out",
                &path("qd-spans.json"),
                "--heatmap",
                "--stats-json",
            ]),
            stats_json: true,
            exports: vec![file("qd-events.json"), file("qd-spans.json")],
        });
    }
    v
}

#[derive(Default)]
struct Pass {
    wall_ns: u64,
    /// Wall time of each invocation, in suite order.
    invocation_ns: Vec<u64>,
    group_ns: [u64; 3],
    slowest: Option<(&'static str, u64)>,
    export_bytes: u64,
    paper_shape_ok: u64,
    completed: u64,
    problems: Vec<String>,
    fp: Fingerprint,
}

/// `stats.<sink>.dropped`, when the stats document reports that sink.
fn dropped(stats: &Json, sink: &str) -> u64 {
    stats
        .get(sink)
        .and_then(|s| s.get("dropped"))
        .and_then(Json::as_u64)
        .unwrap_or(0)
}

/// Runs one invocation and checks what it produced; `Err` is a failed op.
fn invoke(inv: &Invocation, bin_dir: &Path, pass: &mut Pass) -> Result<(), String> {
    for f in &inv.exports {
        // A stale file from the previous pass must not satisfy the check.
        let _ = std::fs::remove_file(f);
    }
    let t0 = Instant::now();
    let out = Command::new(bin_dir.join(inv.program))
        .args(&inv.args)
        .stdin(Stdio::null())
        .output()
        .map_err(|e| format!("spawn: {e}"))?;
    let ns = t0.elapsed().as_nanos() as u64;
    pass.invocation_ns.push(ns);
    pass.group_ns[inv.group as usize] += ns;
    if inv.group == Group::Figures && pass.slowest.is_none_or(|(_, worst)| ns > worst) {
        pass.slowest = Some((inv.program, ns));
    }

    if !out.status.success() {
        let stderr = String::from_utf8_lossy(&out.stderr);
        return Err(format!("{}: {}", out.status, stderr.trim()));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    for byte in stdout.bytes() {
        pass.fp.u64(u64::from(byte));
    }
    if stdout.contains("[DEVIATES]") {
        return Err("a paper-shape check reads [DEVIATES]".to_string());
    }
    pass.paper_shape_ok += stdout.matches("[ok]").count() as u64;
    if inv.stats_json {
        let stats = json::parse(stdout.trim()).map_err(|e| format!("stats JSON: {e}"))?;
        let lost = dropped(&stats, "trace") + dropped(&stats, "spans");
        if lost > 0 {
            return Err(format!("the CLI's sinks dropped {lost} records"));
        }
    }
    for f in &inv.exports {
        let meta = std::fs::metadata(f).map_err(|e| format!("{}: {e}", f.display()))?;
        if meta.len() == 0 {
            return Err(format!("{} is empty", f.display()));
        }
        pass.export_bytes += meta.len();
    }
    Ok(())
}

fn run_pass(suite: &[Invocation], bin_dir: &Path) -> Pass {
    let mut pass = Pass::default();
    let t0 = Instant::now();
    for inv in suite {
        match invoke(inv, bin_dir, &mut pass) {
            Ok(()) => pass.completed += 1,
            Err(e) => pass
                .problems
                .push(format!("{} {}: {e}", inv.program, inv.args.join(" "))),
        }
    }
    pass.wall_ns = t0.elapsed().as_nanos() as u64;
    pass
}

/// One rep: set-up — the scratch directory and one untimed pass of the
/// quick `--smoke` suite, which touches the `conzone` binary, the loader
/// and the exporters' directory — then one timed pass. (A full untimed
/// pass would double the cost of a rep and so halve the number of times
/// each invocation is sampled in a run; every binary is already in the
/// page cache from the build.) Exporter files go to a scratch directory of
/// this process under the build directory.
pub fn run_rep(seed: u64, smoke: bool) -> Result<Json, String> {
    let bin_dir = target_dir().join("release");
    let scratch = target_dir()
        .join("benchmark-scratch")
        .join(std::process::id().to_string());

    let s0 = Instant::now();
    std::fs::create_dir_all(&scratch).map_err(|e| format!("{}: {e}", scratch.display()))?;
    let warm = run_pass(&suite(seed, true, &scratch), &bin_dir);
    let setup_s = s0.elapsed().as_secs_f64();

    let suite = suite(seed, smoke, &scratch);
    let mut pass = run_pass(&suite, &bin_dir);
    let _ = std::fs::remove_dir_all(&scratch);

    let requested = suite.len() as u64;
    if !warm.problems.is_empty() {
        pass.problems
            .push(format!("warm-up pass: {}", warm.problems.join("; ")));
    }
    let expected_ok = if smoke {
        SMOKE_PAPER_SHAPE_CHECKS
    } else {
        PAPER_SHAPE_CHECKS
    };
    if pass.paper_shape_ok != expected_ok {
        pass.problems.push(format!(
            "{} paper-shape checks read [ok], expected {expected_ok}",
            pass.paper_shape_ok
        ));
    }
    let (slowest_bin, slowest_ns) = pass.slowest.unwrap_or(("", 0));
    let secs = |ns: u64| Json::F64(ns as f64 / 1e9);
    Ok(Json::obj([
        ("requested", Json::U64(requested)),
        ("completed", Json::U64(pass.completed)),
        (
            "problems",
            Json::Arr(pass.problems.into_iter().map(Json::from).collect()),
        ),
        ("setup_s", Json::F64(setup_s)),
        ("window_s", secs(pass.wall_ns)),
        // The unit of equal work between reps is the invocation here.
        (
            "round_ns",
            Json::Arr(pass.invocation_ns.iter().map(|&n| Json::U64(n)).collect()),
        ),
        ("peak_rss_kib", Json::U64(crate::children_peak_rss_kib())),
        (
            "fingerprint",
            Json::from(format!("{:016x}", pass.fp.value())),
        ),
        (
            "cli",
            Json::obj([
                (
                    "figures_wall_s",
                    secs(pass.group_ns[Group::Figures as usize]),
                ),
                (
                    "scenario_wall_s",
                    secs(pass.group_ns[Group::Scenario as usize]),
                ),
                (
                    "run_export_wall_s",
                    secs(pass.group_ns[Group::RunExport as usize]),
                ),
                ("slowest_bin_s", secs(slowest_ns)),
                ("slowest_bin", Json::from(slowest_bin)),
                ("export_bytes", Json::U64(pass.export_bytes)),
                ("paper_shape_ok", Json::U64(pass.paper_shape_ok)),
            ]),
        ),
    ]))
}
