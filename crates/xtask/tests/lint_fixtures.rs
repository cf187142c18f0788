//! Fixture tests for the determinism-hygiene lint pass: one passing tree
//! plus one violating tree per rule under `tests/fixtures/`, asserting the
//! exact diagnostics, the binary's exit status, and — as a self-check —
//! that the live workspace itself scans clean.
//!
//! The fixture trees mimic the workspace layout (`crates/<name>/src/*.rs`)
//! because the scanner derives the crate name (and the float-exempt
//! boundary files) from the path.
//! They live under `tests/`, which `collect_sources` skips, so the real
//! workspace lint never descends into them.

use std::path::{Path, PathBuf};
use std::process::Command;

use xtask::{lint_workspace, lint_workspace_report, Violation};

fn fixture(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

fn lint(name: &str) -> Vec<Violation> {
    lint_workspace(&fixture(name)).expect("fixture tree scans")
}

#[test]
fn clean_tree_has_no_violations() {
    let v = lint("clean");
    assert!(v.is_empty(), "clean fixture should pass every rule: {v:#?}");
}

#[test]
fn float_determinism_fires_with_exact_diagnostic() {
    let v = lint("float");
    assert_eq!(v.len(), 2, "{v:#?}");
    for (violation, line, what) in [(&v[0], 5, "field"), (&v[1], 8, "type alias")] {
        assert_eq!(violation.file, Path::new("crates/flash/src/model.rs"));
        assert_eq!(violation.line, line);
        assert_eq!(violation.rule, "float-determinism");
        assert_eq!(
            violation.message,
            format!(
                "f64 {what} feeds sim-visible state: float rounding varies with \
                 platform and optimization level and breaks bit-identical seeded \
                 reruns; store fixed-point integers (ppm, nanoseconds) and \
                 convert at the export boundary"
            )
        );
    }
}

#[test]
fn truncating_cast_fires_with_exact_diagnostic() {
    let v = lint("cast");
    assert_eq!(v.len(), 1, "{v:#?}");
    assert_eq!(v[0].file, Path::new("crates/sim/src/decode.rs"));
    assert_eq!(v[0].line, 4);
    assert_eq!(v[0].rule, "truncating-cast");
    assert_eq!(
        v[0].message,
        "`as u32` narrows a runtime value: sim times, counters and \
         addresses are u64, and a silent wrap skews results without \
         failing; use try_from with a typed error or an explicit \
         documented mask"
    );
}

/// Nested allow anchors: the directive closest to the offending line is
/// the one consumed, and every directive that suppressed nothing is
/// reported as a warning — without failing the lint.
#[test]
fn unused_and_stale_allows_are_reported_as_warnings() {
    let report = lint_workspace_report(&fixture("allows")).expect("tree scans");
    assert!(
        report.violations.is_empty(),
        "the inner allow suppresses the narrowing cast: {:#?}",
        report.violations
    );
    let w = &report.warnings;
    assert_eq!(w.len(), 4, "{w:#?}");
    for warning in w {
        assert_eq!(warning.file, Path::new("crates/sim/src/state.rs"));
    }
    assert_eq!(
        w[0].to_string(),
        "crates/sim/src/state.rs:5: warning: unused allow(truncating-cast): \
         nothing on this anchor trips the rule"
    );
    assert_eq!(w[1].message, "allow(bogus-rule) names an unknown rule");
    assert_eq!(
        w[2].message,
        "allow(hash-collections) names an unknown rule"
    );
    assert_eq!(
        w[3].message,
        "unused allow(float-determinism): nothing on this anchor trips the rule"
    );
}

/// The walker must never descend into `target/`, `vendor/`, hidden
/// directories, or through symlinks — a stale build artifact or a link
/// pointing outside the tree must not produce phantom violations.
#[test]
fn walker_skips_target_vendor_hidden_and_symlinks() {
    let tmp = std::env::temp_dir().join(format!("xtask-walker-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&tmp);
    let decoys = [
        // The classic decoy: a crate-shaped tree inside target/.
        "target/src",
        "crates/sim/target/debug",
        "vendor/evil/src",
        ".hidden/src",
    ];
    for d in decoys {
        std::fs::create_dir_all(tmp.join(d)).expect("mkdir");
    }
    std::fs::create_dir_all(tmp.join("crates/sim/src")).expect("mkdir");
    let bad = "pub fn bad(x: u64) -> u32 { x as u32 }\n";
    std::fs::write(tmp.join("target/src/bad.rs"), bad).expect("write");
    std::fs::write(tmp.join("crates/sim/target/debug/bad.rs"), bad).expect("write");
    std::fs::write(tmp.join("vendor/evil/src/bad.rs"), bad).expect("write");
    std::fs::write(tmp.join(".hidden/src/bad.rs"), bad).expect("write");
    std::fs::write(tmp.join("crates/sim/src/ok.rs"), "pub fn ok() {}\n").expect("write");
    #[cfg(unix)]
    {
        // A symlinked file and a symlinked directory cycle.
        std::os::unix::fs::symlink(
            tmp.join("vendor/evil/src/bad.rs"),
            tmp.join("crates/sim/src/linked.rs"),
        )
        .expect("symlink file");
        std::os::unix::fs::symlink(&tmp, tmp.join("crates/sim/src/loop")).expect("symlink dir");
    }
    let v = lint_workspace(&tmp).expect("decoy tree scans");
    std::fs::remove_dir_all(&tmp).expect("cleanup");
    assert!(v.is_empty(), "decoys leaked into the scan: {v:#?}");
}

fn run_binary(root: &Path, json: bool) -> std::process::Output {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_xtask"));
    cmd.args(["lint", "--root"]).arg(root);
    if json {
        cmd.arg("--json");
    }
    cmd.output().expect("xtask binary runs")
}

#[test]
fn binary_exit_status_reflects_findings() {
    let clean = run_binary(&fixture("clean"), false);
    let stdout = String::from_utf8_lossy(&clean.stdout);
    assert!(clean.status.success(), "clean fixture: {stdout}");
    assert!(stdout.contains("xtask lint: clean"), "{stdout}");

    // Warnings print but never affect the exit status.
    let allows = run_binary(&fixture("allows"), false);
    let stdout = String::from_utf8_lossy(&allows.stdout);
    assert!(
        allows.status.success(),
        "warnings are not failures: {stdout}"
    );
    assert!(
        stdout.contains("warning: unused allow(truncating-cast)"),
        "{stdout}"
    );
    assert!(stdout.contains("xtask lint: clean"), "{stdout}");

    for tree in ["float", "cast"] {
        let out = run_binary(&fixture(tree), false);
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(
            !out.status.success(),
            "fixture `{tree}` should exit nonzero: {stdout}"
        );
        assert!(stdout.contains("violation(s)"), "`{tree}`: {stdout}");
    }
}

/// `--json` output is a stable snapshot: fixed key order, one violation
/// object per line, trailing newline. CI consumers diff this textually.
#[test]
fn json_output_matches_snapshot() {
    let out = run_binary(&fixture("cast"), true);
    assert!(!out.status.success(), "violations still exit nonzero");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let expected = concat!(
        "{\n",
        "  \"rules\": [\"float-determinism\", \"truncating-cast\"],\n",
        "  \"violation_count\": 1,\n",
        "  \"violations\": [\n",
        "    {\"file\": \"crates/sim/src/decode.rs\", \"line\": 4, ",
        "\"rule\": \"truncating-cast\", \"message\": \"`as u32` narrows a runtime value: ",
        "sim times, counters and addresses are u64, and a silent wrap skews results ",
        "without failing; use try_from with a typed error or an explicit documented mask\"}\n",
        "  ],\n",
        "  \"warning_count\": 0,\n",
        "  \"warnings\": [],\n",
        "  \"parse\": {\"files\": 1, \"items\": 1, \"fallback\": 0, \"by_kind\": {\"fn\": 1}}\n",
        "}\n",
    );
    assert_eq!(stdout, expected);

    let clean = run_binary(&fixture("clean"), true);
    assert!(clean.status.success());
    let stdout = String::from_utf8_lossy(&clean.stdout);
    assert!(stdout.contains("\"violation_count\": 0"), "{stdout}");
}

#[test]
fn live_workspace_is_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("workspace root above crates/xtask")
        .to_path_buf();
    let report = lint_workspace_report(&root).expect("workspace scans");
    assert_eq!(xtask::RULES.len(), 2);
    let v = &report.violations;
    assert!(v.is_empty(), "live workspace has lint violations: {v:#?}");
    // A directive still naming a retired rule lands here too, as
    // "names an unknown rule".
    let w = &report.warnings;
    assert!(w.is_empty(), "unused or stale allow directives: {w:#?}");
    // A form the hand-rolled parser does not model would be invisible to
    // every rule that reads item structure; the live tree has none.
    assert!(report.files_parsed > 40, "{} files", report.files_parsed);
    assert_eq!(
        report.fallback_items, 0,
        "unrecognised items: {:?}",
        report.items_parsed
    );
}
