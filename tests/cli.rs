//! End-to-end tests of the `conzone` CLI binary.

use std::process::Command;

fn conzone(args: &[&str]) -> (bool, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_conzone"))
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
    let (ok, stdout, stderr) = conzone(&[
        "gen-trace",
        "--config",
        "tiny",
        "--bursts",
        "2",
        "--burst-bytes",
        "512k",
        "--reads",
        "100",
        "--out",
        path,
    ]);
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

/// A seeded 512 KiB sequential read of the tiny device reproduces the
/// committed stats, event trace and span dump byte for byte — 128 L2P
/// lookup events per read included, however the host walks the range. The
/// golden files were written by the last commit whose read path resolved
/// every 4 KiB slice on its own; `tests/golden/README.md` has the command.
#[test]
fn seqread_512k_matches_the_golden_outputs() {
    let golden =
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/seqread-512k-tiny");
    let dir = std::env::temp_dir().join("conzone-cli-golden");
    std::fs::create_dir_all(&dir).unwrap();
    let out = |name: &str| dir.join(name).to_str().unwrap().to_string();
    let (ok, stdout, stderr) = conzone(&[
        "run",
        "--config",
        "tiny",
        "--pattern",
        "seqread",
        "--bs",
        "512k",
        "--size",
        "2m",
        "--region",
        "2m",
        "--seed",
        "7",
        "--trace-out",
        &out("trace.json"),
        "--span-out",
        &out("spans.jsonl"),
        "--stats-json",
    ]);
    assert!(ok, "{stderr}");
    let expect = |name: &str| std::fs::read_to_string(golden.join(name)).unwrap();
    assert_eq!(stdout, expect("stats.json"), "stats JSON moved");
    for name in ["trace.json", "spans.jsonl"] {
        let got = std::fs::read_to_string(out(name)).unwrap();
        // Not assert_eq: a 60 KB one-line diff helps nobody.
        assert!(
            got == expect(name),
            "{name} differs from tests/golden/seqread-512k-tiny/{name}"
        );
        std::fs::remove_file(out(name)).ok();
    }
    // The golden itself is per-slice: 4 × 128 lookups, two of them misses.
    assert_eq!(expect("trace.json").matches("hit_zone").count(), 510);
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
    std::fs::remove_file(&path).ok();
    // Unsupported keys fail loudly.
    std::fs::write(&path, "[j]\nioengine=libaio\n").unwrap();
    let (ok, _, stderr) = conzone(&["run", "--config", "tiny", "--job", path.to_str().unwrap()]);
    assert!(!ok);
    assert!(stderr.contains("unsupported key"), "{stderr}");
    std::fs::remove_file(&path).ok();
}

/// Hostile flag values end in a one-line `error:`, never in a panic or
/// an allocation abort (ROADMAP: "nothing reachable from a CLI flag …
/// panics").
#[test]
fn hostile_flag_values_are_rejected_cleanly() {
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
    ];
    let scenarios = [
        "interference --qd 99999999999",
        "mixed --qd 99999999999",
        "flash-cache --qd 99999999999",
        "mixed --region 0",
    ];
    let runs = run_flags
        .iter()
        .map(|f| format!("run --config tiny --region 1m --size 1m {f}"));
    let scenarios = scenarios
        .iter()
        .map(|s| format!("scenario {s} --config tiny"));
    for case in runs.chain(scenarios) {
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
