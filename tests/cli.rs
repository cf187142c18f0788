//! End-to-end tests of the `conzone` CLI binary.

use std::process::Command;

fn conzone(args: &[&str]) -> (bool, String, String) {
    conzone_in(std::path::Path::new("."), args)
}

fn conzone_in(dir: &std::path::Path, args: &[&str]) -> (bool, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_conzone"))
        .current_dir(dir)
        .args(args)
        .output()
        .expect("spawn conzone");
    (
        out.status.success(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn help_and_unknown_command() {
    let (ok, stdout, _) = conzone(&[]);
    assert!(ok);
    assert!(stdout.contains("usage:"));
    let (ok, _, stderr) = conzone(&["frobnicate"]);
    assert!(!ok);
    assert!(stderr.contains("unknown command"));
}

#[test]
fn info_reports_paper_configuration() {
    let (ok, stdout, _) = conzone(&["info"]);
    assert!(ok);
    assert!(stdout.contains("96 x 16 MiB"), "{stdout}");
    assert!(stdout.contains("3072 entry cache"), "{stdout}");
    let (ok, stdout, _) = conzone(&["info", "--config", "tiny", "--conventional", "2"]);
    assert!(ok);
    assert!(stdout.contains("2 conventional zones"), "{stdout}");
    let (ok, _, stderr) = conzone(&["info", "--config", "bogus"]);
    assert!(!ok);
    assert!(stderr.contains("unknown --config"));
}

#[test]
fn run_seqwrite_and_randread() {
    let (ok, stdout, stderr) = conzone(&[
        "run", "--config", "tiny", "--bs", "128k", "--size", "2m", "--region", "2m",
    ]);
    assert!(ok, "{stderr}");
    assert!(stdout.contains("MiB/s"), "{stdout}");
    assert!(stdout.contains("time     :"), "breakdown printed: {stdout}");

    let (ok, stdout, stderr) = conzone(&[
        "run",
        "--config",
        "tiny",
        "--pattern",
        "randread",
        "--bs",
        "4k",
        "--size",
        "512k",
        "--region",
        "2m",
        "--device",
        "femu",
    ]);
    assert!(ok, "{stderr}");
    assert!(stdout.contains("femu:"), "{stdout}");
}

#[test]
fn zones_lists_states() {
    let (ok, stdout, _) = conzone(&["zones", "--config", "tiny", "--conventional", "1"]);
    assert!(ok);
    assert!(stdout.contains("conventional"), "{stdout}");
    assert!(stdout.contains("sequential"), "{stdout}");
    assert!(stdout.contains("Full"), "{stdout}");
}

#[test]
fn gen_trace_replay_roundtrip() {
    let dir = std::env::temp_dir().join("conzone-cli-e2e");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("e2e-trace.txt");
    let path = path.to_str().unwrap();
    let (ok, stdout, stderr) = conzone(&["gen-trace", "--config", "tiny", "--out", path]);
    assert!(ok, "{stderr}");
    assert!(stdout.contains("wrote"), "{stdout}");
    let (ok, stdout, stderr) = conzone(&["replay", path, "--config", "tiny"]);
    assert!(ok, "{stderr}");
    assert!(stdout.contains("replaying"), "{stdout}");
    assert!(stdout.contains("conzone:"), "{stdout}");
    std::fs::remove_file(path).ok();
    // Replay of a missing file fails cleanly.
    let (ok, _, stderr) = conzone(&["replay", "/nonexistent/trace.txt"]);
    assert!(!ok);
    assert!(stderr.contains("error"), "{stderr}");
}

/// Seeded runs of the tiny device reproduce the committed stats and span
/// dumps byte for byte, one row per path through `conzone run`: the plain
/// job (with its event trace — 128 L2P lookup events per 512 KiB read,
/// however the host walks the range), queue pairs (host and device spans
/// merged into one id space), FEMU (the superblock-rounded prefill) and a
/// job file (`job` key first, cumulative `trace` counts, no `spans`
/// member). `tests/golden/README.md` has the command behind each directory
/// and the commit whose binary wrote it.
#[test]
fn runs_match_the_golden_outputs() {
    let cases: [(&str, &str, &[&str]); 5] = [
        (
            "seqread-512k-tiny",
            "--pattern seqread --bs 512k --size 2m --region 2m \
             --trace-out trace.json --span-out spans.jsonl \
             --metrics-out metrics.jsonl --metrics-interval 1ms",
            &["trace.json", "spans.jsonl", "metrics.jsonl"],
        ),
        (
            "qd-randread-tiny",
            "--pattern randread --bs 4k --size 64k --region 2m --qd 8 --tenants 2 \
             --aggregation page --span-out spans.jsonl",
            &["spans.jsonl"],
        ),
        // The same run again with the span dump as a Chrome trace (any
        // extension but `.jsonl`): the one export format no other case pins.
        (
            "qd-randread-tiny",
            "--pattern randread --bs 4k --size 64k --region 2m --qd 8 --tenants 2 \
             --aggregation page --span-out spans.json",
            &["spans.json"],
        ),
        (
            "femu-seqread-tiny",
            "--device femu --pattern seqread --bs 512k --size 3m --region 2560k",
            &[],
        ),
        ("jobfile-tiny", "--job job.fio --trace-out trace.json", &[]),
    ];
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden");
    for (name, flags, exports) in cases {
        let golden = root.join(name);
        let dir = std::env::temp_dir().join("conzone-cli-golden").join(name);
        std::fs::create_dir_all(&dir).unwrap();
        if golden.join("job.fio").exists() {
            std::fs::copy(golden.join("job.fio"), dir.join("job.fio")).unwrap();
        }
        let line = format!("run --config tiny --seed 7 --stats-json {flags}");
        let args: Vec<&str> = line.split_whitespace().collect();
        let (ok, stdout, stderr) = conzone_in(&dir, &args);
        assert!(ok, "{name}: {stderr}");
        let expect = |file: &str| std::fs::read_to_string(golden.join(file)).unwrap();
        assert_eq!(stdout, expect("stats.json"), "{name}: stats JSON moved");
        for file in exports {
            let got = std::fs::read_to_string(dir.join(file)).unwrap();
            // Not assert_eq: a 60 KB one-line diff helps nobody.
            assert!(
                got == expect(file),
                "{file} differs from tests/golden/{name}/{file}"
            );
        }
        std::fs::remove_dir_all(&dir).ok();
    }
    // The seqread golden itself is per-slice: 4 × 128 lookups, two of them
    // misses.
    let trace = std::fs::read_to_string(root.join("seqread-512k-tiny/trace.json")).unwrap();
    assert_eq!(trace.matches("hit_zone").count(), 510);
}

#[test]
fn run_fio_job_file() {
    let dir = std::env::temp_dir().join("conzone-cli-e2e");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("job.fio");
    std::fs::write(
        &path,
        "[global]\nbs=256k\nsize=2m\n\n[fill]\nrw=write\n\n[reads]\nrw=randread\nbs=4k\nio_size=256k\n",
    )
    .unwrap();
    let (ok, stdout, stderr) =
        conzone(&["run", "--config", "tiny", "--job", path.to_str().unwrap()]);
    assert!(ok, "{stderr}");
    assert!(stdout.contains("[fill]"), "{stdout}");
    assert!(stdout.contains("[reads]"), "{stdout}");
    assert!(stdout.contains("time     :"), "{stdout}");
    // The file runs on the device `--device` names, like every other run.
    let (ok, stdout, stderr) = conzone(&[
        "run",
        "--config",
        "tiny",
        "--job",
        path.to_str().unwrap(),
        "--device",
        "legacy",
    ]);
    assert!(ok, "{stderr}");
    assert!(stdout.contains("[reads]\nlegacy:"), "{stdout}");
    assert!(!stdout.contains("time     :"), "{stdout}");
    let (ok, _, stderr) = conzone(&[
        "run",
        "--config",
        "tiny",
        "--job",
        path.to_str().unwrap(),
        "--device",
        "bogus",
    ]);
    assert!(!ok);
    assert_eq!(stderr, "error: unknown --device 'bogus'\n");
    std::fs::remove_file(&path).ok();
    // Unsupported keys fail loudly.
    std::fs::write(&path, "[j]\nioengine=libaio\n").unwrap();
    let (ok, _, stderr) = conzone(&["run", "--config", "tiny", "--job", path.to_str().unwrap()]);
    assert!(!ok);
    assert!(stderr.contains("unsupported key"), "{stderr}");
    std::fs::remove_file(&path).ok();
}

/// An export that cannot be written ends the run with `error: <path>: …`
/// and a failing status — for each of the three export flags, after the
/// simulation has run — not with a panic.
#[test]
fn unwritable_export_paths_exit_with_the_path() {
    let missing = std::env::temp_dir().join("conzone-cli-no-such-dir/out.json");
    let path = missing.to_str().unwrap();
    for flag in ["--trace-out", "--span-out", "--metrics-out"] {
        let (ok, _, stderr) = conzone(&[
            "run", "--config", "tiny", "--bs", "128k", "--size", "1m", "--region", "1m", flag, path,
        ]);
        assert!(!ok, "{flag}");
        let last = stderr.lines().last().unwrap_or_default();
        assert!(
            last.starts_with(&format!("error: {path}: ")),
            "{flag}: {stderr}"
        );
        assert!(!stderr.contains("panicked"), "{flag}: {stderr}");
    }
}

/// Hostile flag values end in a one-line `error:`, never in a panic or
/// an allocation abort (ROADMAP: "nothing reachable from a CLI flag …
/// panics").
#[test]
fn hostile_flag_values_are_rejected_cleanly() {
    let dir = std::env::temp_dir().join("conzone-cli-hostile");
    std::fs::create_dir_all(&dir).unwrap();
    let hostile_job = dir.join("numjobs.fio");
    std::fs::write(&hostile_job, "[j]\nrw=randread\nnumjobs=99999999999\n").unwrap();
    let huge_size_job = dir.join("size.fio");
    std::fs::write(&huge_size_job, "[j]\nrw=write\nsize=99999999999g\n").unwrap();
    // Two reads and writes of u64::MAX bytes each: their sum is past u64.
    let huge_trace = dir.join("huge.trace");
    std::fs::write(
        &huge_trace,
        "0 W 0 18446744073709551615\n0 W 0 18446744073709551615\n",
    )
    .unwrap();
    // A write timestamped 615 ns before the end of `SimTime`.
    let late_trace = dir.join("late.trace");
    std::fs::write(&late_trace, "18446744073709551000 W 0 4096\n").unwrap();
    let run_flags = [
        "--threads 0",
        "--threads 99999999999",
        "--pattern randread --region 4m --qd 99999999999",
        "--qd 65536",
        "--tenants 999999999999",
        "--bs 0",
        "--bs 3",
        "--cache 0",
        "--buffers 0",
        "--metrics-interval 0",
        "--power-cut-at 0",
        "--fault-rates nan,0,0",
        "--conventional 9999",
        "--pattern randread --qd 65535 --threads 65535",
        "--pattern randread --qd 65535 --tenants 65535",
        "--size 99999999999g",
        "--metrics-interval 99999999999s",
        "--power-cut-at 99999999999s",
        &format!("--job {}", hostile_job.display()),
        &format!("--job {}", huge_size_job.display()),
    ];
    let scenarios = [
        "interference --qd 99999999999",
        "mixed --qd 99999999999",
        "flash-cache --qd 99999999999",
        "mixed --region 0",
        "mixed --device bogus",
        "mixed --device femu",
    ];
    let runs = run_flags
        .iter()
        .map(|f| format!("run --config tiny --region 1m --size 1m {f}"));
    let scenarios = scenarios
        .iter()
        .map(|s| format!("scenario {s} --config tiny"));
    let replays = [
        format!("replay {} --config tiny", huge_trace.display()),
        format!("replay {} --config tiny --open-loop", late_trace.display()),
    ];
    for case in runs.chain(scenarios).chain(replays) {
        let args: Vec<&str> = case.split(' ').collect();
        let (ok, stdout, stderr) = conzone(&args);
        assert!(!ok, "`{case}` succeeded: {stdout}");
        assert!(stderr.starts_with("error:"), "`{case}`: {stderr}");
        for bad in ["panicked", "memory allocation"] {
            assert!(
                !stdout.contains(bad) && !stderr.contains(bad),
                "`{case}`: {stdout}{stderr}"
            );
        }
    }
}

/// The usage text is the flag vocabulary: a flag outside it is an error,
/// and every command line the docs, CI and the benchmark spell out stays
/// inside it.
#[test]
fn unknown_flags_are_rejected_and_documented_ones_are_known() {
    for (flag, line) in [
        ("--patern", "run --config tiny --patern randread"),
        ("--q", "run --config tiny --q 4"),
        ("--verbose", "info --verbose"),
    ] {
        let args: Vec<&str> = line.split(' ').collect();
        let (ok, stdout, stderr) = conzone(&args);
        assert!(!ok, "`{line}` succeeded: {stdout}");
        assert_eq!(stderr, format!("error: unknown flag '{flag}'\n"));
    }

    let (_, usage, _) = conzone(&["help"]);
    let is_word = |c: char| c.is_ascii_alphanumeric() || c == '-';
    let known = |flag: &str| usage.split(|c| !is_word(c)).any(|token| token == flag);
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    let read = |file: &str| std::fs::read_to_string(root.join(file)).unwrap();
    let mut checked = 0;
    let mut check = |file: &str, flags: &str| {
        for flag in flags.split(|c| !is_word(c)).filter(|t| t.starts_with("--")) {
            assert!(known(flag), "{file}: `{flag}` is not in `conzone help`");
            checked += 1;
        }
    };
    // Shell command lines: everything after `conzone <subcommand>` up to a
    // pipe, redirect, comment or closing backtick, continuation lines joined.
    let commands = ["run", "scenario", "info", "zones", "replay", "gen-trace"];
    for file in [
        ".github/workflows/ci.yml",
        "README.md",
        "EXPERIMENTS.md",
        "docs/internals.md",
        "tests/golden/README.md",
    ] {
        let text = read(file).replace("\\\n", " ");
        for line in text.lines() {
            for cmd in commands {
                for lead in ["conzone ", "conzone -- "] {
                    if let Some((_, rest)) = line.split_once(&format!("{lead}{cmd} ")) {
                        let end = rest.find(['|', '>', '#', '`']).unwrap_or(rest.len());
                        check(file, &rest[..end]);
                    }
                }
            }
        }
    }
    // The benchmark's invocations are string literals in `fn suite`.
    let bench = read("benchmark/benches/cli_figures.rs");
    let suite = bench.split("\nfn suite(").nth(1).expect("fn suite");
    check("cli_figures.rs", suite.split("\n}\n").next().unwrap());
    assert!(checked > 100, "only {checked} documented flags found");
}

/// The first `"name":N` of a stats report.
fn counter(report: &str, name: &str) -> u64 {
    let key = format!("\"{name}\":");
    let (_, rest) = report
        .split_once(&key)
        .unwrap_or_else(|| panic!("no {key} in {report}"));
    let digits = rest.split(|c: char| !c.is_ascii_digit()).next().unwrap();
    digits.parse().unwrap()
}

/// Seeded fault injection fires every fault class, and the same seed
/// writes the same report byte for byte.
#[test]
fn seeded_fault_runs_fire_and_reproduce() {
    let run = |rates: &str| {
        let (ok, stdout, stderr) = conzone(&[
            "run",
            "--config",
            "tiny",
            "--pattern",
            "seqwrite",
            "--bs",
            "8k",
            "--threads",
            "4",
            "--size",
            "4m",
            "--region",
            "4m",
            "--fault-rates",
            rates,
            "--fault-seed",
            "42",
            "--stats-json",
        ]);
        assert!(ok, "{stderr}");
        stdout
    };
    let report = run("0.05,0,0.1");
    for name in ["program_failures", "read_retries", "blocks_retired"] {
        assert!(counter(&report, name) > 0, "{name}: {report}");
    }
    assert_eq!(run("0.05,0.2,0.1"), run("0.05,0.2,0.1"));
}

/// A power cut in the middle of a faulty run is followed by a remount
/// that reports what it recovered.
#[test]
fn a_power_cut_run_reports_its_recovery() {
    let (ok, stdout, stderr) = conzone(&[
        "run",
        "--config",
        "tiny",
        "--pattern",
        "seqwrite",
        "--bs",
        "8k",
        "--threads",
        "4",
        "--size",
        "4m",
        "--region",
        "4m",
        "--fault-rates",
        "0.05,0,0.1",
        "--fault-seed",
        "42",
        "--power-cut-at",
        "100us",
    ]);
    assert!(ok, "{stderr}");
    assert!(
        stdout.contains("recovery :") || stderr.contains("recovery :"),
        "{stdout}{stderr}"
    );
}

/// Two tenants behind the weighted arbiter: per-tenant counters sum to the
/// device's, and a second process with the same seed writes the same
/// report.
#[test]
fn a_two_tenant_run_conserves_counters_and_reruns_identically() {
    let args = [
        "run",
        "--config",
        "tiny",
        "--pattern",
        "randread",
        "--bs",
        "4k",
        "--size",
        "2m",
        "--region",
        "4m",
        "--qd",
        "8",
        "--tenants",
        "2",
        "--arbiter",
        "wrr",
        "--tenant-weights",
        "3,1",
        "--fetch-cost",
        "25us",
        "--seed",
        "42",
        "--stats-json",
    ];
    let (ok, report, stderr) = conzone(&args);
    assert!(ok, "{stderr}");
    assert!(
        report.contains("\"tenants_sum_consistent\":true"),
        "{report}"
    );
    assert_eq!(conzone(&args).1, report);
}

/// Page-only mapping sends every read through the L2P cache's index
/// (lookup, miss, insert, evict). Two processes write the same report, so
/// hash order leaking into results could not hide behind one process.
#[test]
fn page_mapped_reads_miss_and_rerun_identically() {
    let args = [
        "run",
        "--config",
        "tiny",
        "--pattern",
        "randread",
        "--bs",
        "4k",
        "--size",
        "2m",
        "--region",
        "4m",
        "--aggregation",
        "page",
        "--seed",
        "42",
        "--stats-json",
    ];
    let (ok, report, stderr) = conzone(&args);
    assert!(ok, "{stderr}");
    assert_eq!(conzone(&args).1, report);
    assert!(counter(&report, "l2p_misses") > 0, "{report}");
}

/// The multi-tenant scenarios conserve counters across tenants.
#[test]
fn tenant_scenarios_conserve_counters() {
    for args in [
        [
            "scenario",
            "interference",
            "--region",
            "2m",
            "--ops",
            "256",
            "--stats-json",
        ],
        [
            "scenario",
            "flash-cache",
            "--region",
            "4m",
            "--ops",
            "512",
            "--stats-json",
        ],
    ] {
        let (ok, report, stderr) = conzone(&args);
        assert!(ok, "{args:?}: {stderr}");
        assert!(
            report.contains("\"tenants_sum_consistent\":true"),
            "{args:?}: {report}"
        );
    }
}
