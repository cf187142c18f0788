//! The repo benchmark: host wall time per simulated IO, end to end and
//! layer by layer. See `README.md` beside this package for what runs and
//! why, and `BENCHMARK.json` at the repository root for the contract.
//!
//! ```text
//! benchmark [--workload <name>|all] [--seed N] [--seconds S] [--trace 0|1]
//!           [--smoke] [--check-repeat] [--trace-out spans.jsonl]
//! ```
//!
//! The process that is started is the *parent*: it runs no workload itself
//! but re-executes this binary once per rep (`--child <workload>`), so
//! every rep gets a fresh address space and its own peak RSS, and combines
//! the reps into one figure per metric. The last line of standard output
//! is one JSON object: `correct`, `attempted`, `failed`, `metrics`.

mod cli_figures;
mod fingerprint;
mod metrics;
mod micro;
mod stats;
#[cfg(test)]
mod tests;
mod trace;
mod workloads;

use std::io::Write;
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};
use std::time::Duration;

use conzone_sim::json::{self, Json};

use metrics::{Rep, Value, Values, END_TO_END};
use workloads::Workload;

/// `run_seconds` of `BENCHMARK.json`: how long the untraced reps of one
/// workload run for when `--seconds` is not given.
const DEFAULT_SECONDS: f64 = 10.0;
const DEFAULT_SEED: u64 = 7;
/// Fewest reps a metric is taken over (two under `--smoke`).
const MIN_REPS: usize = 3;
const MAX_REPS: usize = 15;

#[derive(Debug, Clone, PartialEq)]
struct Options {
    /// `None` is `all`.
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    /// Report end-to-end metrics (untraced reps for `seconds`).
    end_to_end: bool,
    /// Report per-layer metrics (a traced rep and the microbenchmarks).
    layers: bool,
    smoke: bool,
    check_repeat: bool,
    trace_out: Option<PathBuf>,
}

/// A `--child` invocation: one rep of one workload.
#[derive(Debug, Clone, PartialEq)]
struct ChildOptions {
    workload: Workload,
    seed: u64,
    smoke: bool,
    traced: bool,
    trace_out: Option<PathBuf>,
}

enum Invocation {
    Parent(Options),
    Child(ChildOptions),
}

const USAGE: &str = "usage: benchmark [--workload <name>|all] [--seed N] [--seconds S] \
[--trace 0|1] [--smoke] [--check-repeat] [--trace-out spans.jsonl]";

fn parse_args(args: &[String]) -> Result<Invocation, String> {
    let mut opts = Options {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        end_to_end: true,
        layers: true,
        smoke: false,
        check_repeat: false,
        trace_out: None,
    };
    let mut child: Option<Workload> = None;
    let mut traced = false;
    let workload = |name: &str| {
        Workload::from_name(name).ok_or_else(|| {
            let names: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
            format!(
                "unknown workload `{name}`; one of: all, {}",
                names.join(", ")
            )
        })
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .map(String::as_str)
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                opts.workload = if name == "all" {
                    None
                } else {
                    Some(workload(name)?)
                };
            }
            "--child" => child = Some(workload(value()?)?),
            "--seed" => {
                opts.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                opts.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(opts.seconds.is_finite() && opts.seconds > 0.0) {
                    return Err("--seconds must be positive".to_string());
                }
            }
            "--trace" => match value()? {
                "0" => (opts.end_to_end, opts.layers) = (true, false),
                "1" => (opts.end_to_end, opts.layers) = (false, true),
                other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
            },
            "--traced" => traced = true,
            "--smoke" => opts.smoke = true,
            "--check-repeat" => opts.check_repeat = true,
            "--trace-out" => opts.trace_out = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument `{other}`\n{USAGE}")),
        }
    }
    Ok(match child {
        Some(workload) => Invocation::Child(ChildOptions {
            workload,
            seed: opts.seed,
            smoke: opts.smoke,
            traced,
            trace_out: opts.trace_out,
        }),
        None => Invocation::Parent(opts),
    })
}

/// `VmHWM` of this process in KiB (0 where `/proc` does not exist).
pub fn peak_rss_kib() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find_map(|l| l.strip_prefix("VmHWM:"))?;
            line.trim().trim_end_matches("kB").trim().parse().ok()
        })
        .unwrap_or(0)
}

/// Largest peak RSS, in KiB, among the child processes this process has
/// waited for (0 off 64-bit Linux).
pub fn children_peak_rss_kib() -> u64 {
    #[cfg(all(target_os = "linux", target_pointer_width = "64"))]
    {
        /// `struct rusage` of 64-bit Linux: two `timeval`s, then fourteen
        /// `long`s of which `ru_maxrss` (KiB) is the first.
        #[repr(C)]
        struct RUsage {
            times: [i64; 4],
            max_rss: i64,
            rest: [i64; 13],
        }
        const RUSAGE_CHILDREN: i32 = -1;
        extern "C" {
            fn getrusage(who: i32, usage: *mut RUsage) -> i32;
        }
        let mut usage = RUsage {
            times: [0; 4],
            max_rss: 0,
            rest: [0; 13],
        };
        // SAFETY: `getrusage` writes one `struct rusage` through the
        // pointer and keeps nothing; `RUsage` has that struct's size and
        // layout on the targets this block is compiled for, and `usage`
        // outlives the call.
        let rc = unsafe { getrusage(RUSAGE_CHILDREN, &mut usage) };
        if rc == 0 {
            return u64::try_from(usage.max_rss).unwrap_or(0);
        }
    }
    0
}

fn run_child(opts: &ChildOptions) -> Result<(), String> {
    let (rep, records) = match opts.workload {
        Workload::CliFigures => (cli_figures::run_rep(opts.seed, opts.smoke)?, Vec::new()),
        w => workloads::run_rep(w, opts.seed, opts.smoke, opts.traced)?,
    };
    if let Some(path) = &opts.trace_out {
        let mut text = String::new();
        for r in &records {
            text.push_str(&r.json(opts.workload.name()).to_string());
            text.push('\n');
        }
        std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .and_then(|mut f| f.write_all(text.as_bytes()))
            .map_err(|e| format!("{}: {e}", path.display()))?;
    }
    println!("{rep}");
    Ok(())
}

/// Runs one rep in a fresh process. A child that dies or prints something
/// unreadable is a rep in which every op failed.
fn spawn_rep(opts: &Options, workload: Workload, traced: bool) -> Rep {
    let failed = |why: String| {
        Rep(Json::obj([
            (
                "requested",
                Json::U64(workload.scale(opts.smoke).requested_ops()),
            ),
            ("completed", Json::U64(0)),
            ("problems", Json::Arr(vec![Json::from(why)])),
        ]))
    };
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => return failed(format!("current_exe: {e}")),
    };
    let mut cmd = Command::new(exe);
    cmd.args(["--child", workload.name(), "--seed", &opts.seed.to_string()]);
    if opts.smoke {
        cmd.arg("--smoke");
    }
    if traced {
        cmd.arg("--traced");
        if let Some(path) = &opts.trace_out {
            cmd.arg("--trace-out").arg(path);
        }
    }
    let out = match cmd.stdin(Stdio::null()).stderr(Stdio::inherit()).output() {
        Ok(out) => out,
        Err(e) => return failed(format!("spawn: {e}")),
    };
    if !out.status.success() {
        return failed(format!("rep process: {}", out.status));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    match json::parse(stdout.trim()) {
        Ok(j) => Rep(j),
        Err(e) => failed(format!("rep output: {e}")),
    }
}

/// Everything measured for one workload in one set of runs.
struct Measured {
    workload: Workload,
    untraced: Vec<Rep>,
    traced: Option<Rep>,
    /// Run only as the reference another workload is checked against; not
    /// reported.
    reference: bool,
    problems: Vec<String>,
}

impl Measured {
    fn new(workload: Workload, reference: bool) -> Measured {
        Measured {
            workload,
            untraced: Vec::new(),
            traced: None,
            reference,
            problems: Vec::new(),
        }
    }

    fn reps(&self) -> impl Iterator<Item = &Rep> {
        self.untraced.iter().chain(&self.traced)
    }

    fn attempted(&self) -> u64 {
        self.reps().map(|r| r.num("requested") as u64).sum()
    }

    /// A rep with any problem fails as a whole; a cross-rep problem (a
    /// fingerprint that moved) fails every rep of the workload.
    fn failed(&self) -> u64 {
        if !self.problems.is_empty() {
            return self.attempted();
        }
        self.reps()
            .filter(|r| !r.is_ok())
            .map(|r| r.num("requested") as u64)
            .sum()
    }

    fn fingerprint(&self) -> Option<&str> {
        self.reps()
            .find(|r| r.is_ok())
            .map(|r| r.text("fingerprint"))
    }
}

/// One set of runs: for each selected workload, untraced reps until
/// `seconds` of set-up plus window have been spent on it (at least
/// `MIN_REPS`), then — for per-layer metrics — one traced rep. Rep `k` of
/// every workload runs before rep `k + 1` of any, so a slow spell of the
/// machine costs each workload one rep instead of one workload all of its
/// reps.
fn run_set(opts: &Options) -> Result<Vec<Measured>, String> {
    let selected: Vec<Workload> = match opts.workload {
        Some(w) => vec![w],
        None => Workload::ALL.to_vec(),
    };
    let mut set: Vec<Measured> = selected
        .iter()
        .map(|&workload| Measured::new(workload, false))
        .collect();
    // The `-obs` workload is checked against the plain one.
    if selected == [Workload::SeqWriteObs] {
        set.push(Measured::new(Workload::SeqWrite, true));
    }
    if selected.contains(&Workload::CliFigures) {
        cli_figures::build()?;
    }
    if let Some(path) = &opts.trace_out {
        std::fs::write(path, "").map_err(|e| format!("{}: {e}", path.display()))?;
    }

    let min_reps = if opts.smoke { 2 } else { MIN_REPS };
    let budget = if opts.smoke || !opts.end_to_end {
        0.0
    } else {
        opts.seconds
    };
    let mut spent = vec![0.0f64; set.len()];
    loop {
        let mut ran = false;
        for (m, spent) in set.iter_mut().zip(&mut spent) {
            let want = if m.reference && !opts.layers {
                1
            } else {
                min_reps
            };
            let budget = if m.reference { 0.0 } else { budget };
            let n = m.untraced.len();
            if n >= MAX_REPS || (n >= want && *spent >= budget) {
                continue;
            }
            let rep = spawn_rep(opts, m.workload, false);
            *spent += if rep.is_ok() {
                rep.num("setup_s") + rep.num("window_s")
            } else {
                // A failing workload gets the minimum number of reps.
                f64::INFINITY
            };
            m.untraced.push(rep);
            ran = true;
        }
        if !ran {
            break;
        }
    }
    if opts.layers {
        for m in set.iter_mut().filter(|m| !m.reference) {
            m.traced = Some(spawn_rep(opts, m.workload, true));
        }
    }

    // Cross-rep checks: same seed, same simulated results — across reps,
    // with and without tracing, with and without instruments.
    for m in &mut set {
        let mut prints: Vec<&str> = m
            .untraced
            .iter()
            .chain(&m.traced)
            .filter(|r| r.is_ok())
            .map(|r| r.text("fingerprint"))
            .collect();
        prints.dedup();
        if prints.len() > 1 {
            m.problems.push(format!(
                "fingerprints differ between reps: {}",
                prints.join(", ")
            ));
        }
    }
    let plain = set
        .iter()
        .find(|m| m.workload == Workload::SeqWrite)
        .and_then(|m| m.fingerprint().map(String::from));
    if let Some(obs) = set.iter_mut().find(|m| m.workload == Workload::SeqWriteObs) {
        if let (Some(plain), Some(own)) = (&plain, obs.fingerprint()) {
            if plain != own {
                let why = format!("fingerprint {own} differs from the uninstrumented {plain}");
                obs.problems.push(why);
            }
        }
    }
    Ok(set)
}

/// Metric values of one workload, as reported.
struct Reported {
    workload: Workload,
    values: Values,
}

fn report(opts: &Options, set: &[Measured], micro: &[(&'static str, f64)]) -> Vec<Reported> {
    let usable = |m: &Measured| -> Vec<Rep> {
        let ok = m.untraced.iter().filter(|r| r.is_ok());
        ok.cloned().collect()
    };
    let plain = set
        .iter()
        .find(|m| m.workload == Workload::SeqWrite)
        .map(|m| metrics::end_to_end(&usable(m)))
        .and_then(|v| v.first().map(|(_, v)| v.value))
        .unwrap_or(0.0);
    set.iter()
        .filter(|m| !m.reference)
        .map(|m| {
            let usable = usable(m);
            let mut values = Values::new();
            if opts.end_to_end && !usable.is_empty() {
                values.extend(metrics::end_to_end(&usable));
            }
            if let Some(traced) = m.traced.as_ref().filter(|t| t.is_ok()) {
                values.extend(metrics::per_layer(&metrics::LayerInputs {
                    workload: m.workload,
                    untraced: &usable,
                    traced,
                    micro,
                    plain_seqwrite: if m.workload == Workload::SeqWriteObs {
                        plain
                    } else {
                        0.0
                    },
                }));
            }
            Reported {
                workload: m.workload,
                values,
            }
        })
        .collect()
}

fn print_table(set: &[Measured], reported: &[Reported]) {
    for (m, r) in set.iter().filter(|m| !m.reference).zip(reported) {
        println!(
            "\n== {} — {} untraced reps{}, fingerprint {} ==",
            m.workload.name(),
            m.untraced.len(),
            if m.traced.is_some() {
                " + 1 traced"
            } else {
                ""
            },
            m.fingerprint().unwrap_or("n/a"),
        );
        println!(
            "{:<44} {:>16} {:<10} {:<6} {:>3}  q1 .. q3 / note",
            "metric", "value", "unit", "better", "n"
        );
        for (name, v) in &r.values {
            let def = metrics::def(name);
            let spread = if v.n > 1 {
                format!("{:.6} .. {:.6}  {}", v.q1, v.q3, v.note)
            } else {
                v.note.clone()
            };
            println!(
                "{name:<44} {:>16.6} {:<10} {:<6} {:>3}  {}",
                v.value,
                def.unit,
                def.better.name(),
                v.n,
                spread.trim()
            );
        }
        for p in m
            .problems
            .iter()
            .cloned()
            .chain(m.reps().flat_map(Rep::problems))
        {
            println!("FAILED: {p}");
        }
    }
}

/// The result line. With one workload the metric names are plain; with
/// `all` each is prefixed `<workload>/`.
fn result_line(opts: &Options, set: &[Measured], reported: &[Reported]) -> Json {
    let attempted: u64 = set.iter().map(Measured::attempted).sum();
    let failed: u64 = set.iter().map(Measured::failed).sum();
    let metrics = reported
        .iter()
        .flat_map(|r| {
            r.values.iter().map(|(name, v)| {
                let key = match opts.workload {
                    Some(_) => (*name).to_string(),
                    None => format!("{}/{name}", r.workload.name()),
                };
                let unit = Json::from(metrics::def(name).unit);
                (
                    key,
                    Json::obj([("value", Json::F64(v.value)), ("unit", unit)]),
                )
            })
        })
        .collect();
    Json::obj([
        ("correct", Json::Bool(failed == 0)),
        ("attempted", Json::U64(attempted.max(1))),
        ("failed", Json::U64(failed)),
        ("metrics", Json::Obj(metrics)),
    ])
}

/// `--check-repeat`: every end-to-end metric of every workload must agree
/// between two sets of runs of the same code within the metric's bound.
fn repeat_disagreements(a: &[Reported], b: &[Reported]) -> Vec<String> {
    let mut out = Vec::new();
    for (ra, rb) in a.iter().zip(b) {
        for def in &END_TO_END {
            let find = |r: &Reported| {
                r.values
                    .iter()
                    .find(|(n, _)| *n == def.name)
                    .map(|(_, v): &(&str, Value)| v.value)
            };
            let (Some(x), Some(y)) = (find(ra), find(rb)) else {
                continue;
            };
            let gap = (x - y).abs() / x.min(y).max(f64::MIN_POSITIVE);
            if gap > def.bound {
                out.push(format!(
                    "{} {}: {x} vs {y} differ by {:.1} % (bound {:.0} %)",
                    ra.workload.name(),
                    def.name,
                    gap * 100.0,
                    def.bound * 100.0
                ));
            }
        }
    }
    out
}

fn run_parent(opts: &Options) -> Result<ExitCode, String> {
    let micro = if opts.layers {
        // A hundredth of the run per batch: 100 ms at the default length.
        let window = if opts.smoke {
            0.002
        } else {
            (opts.seconds / 100.0).clamp(0.02, 0.2)
        };
        micro::run(Duration::from_secs_f64(window))
    } else {
        Vec::new()
    };
    let set = run_set(opts)?;
    let reported = report(opts, &set, &micro);
    print_table(&set, &reported);
    let mut failed: u64 = set.iter().map(Measured::failed).sum();

    if opts.check_repeat {
        let again = run_set(opts)?;
        let reported_again = report(opts, &again, &micro);
        println!("\n#### second set ####");
        print_table(&again, &reported_again);
        failed += again.iter().map(Measured::failed).sum::<u64>();
        let gaps = repeat_disagreements(&reported, &reported_again);
        for g in &gaps {
            println!("REPEAT: {g}");
        }
        if gaps.is_empty() {
            println!("\nrepeat check: every end-to-end metric agrees within its bound");
        } else {
            failed += 1;
        }
    }

    println!("\n{}", result_line(opts, &set, &reported));
    // The verdict of a plain run is in the result line; the self-checking
    // modes also say it with the exit code.
    Ok(if failed > 0 && (opts.smoke || opts.check_repeat) {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match parse_args(&args) {
        Ok(Invocation::Child(child)) => run_child(&child).map(|()| ExitCode::SUCCESS),
        Ok(Invocation::Parent(opts)) => run_parent(&opts),
        Err(e) => Err(e),
    };
    outcome.unwrap_or_else(|e| {
        eprintln!("benchmark: {e}");
        ExitCode::from(2)
    })
}
