//! `cargo xtask` — repo-local developer tasks.
//!
//! The `.cargo/config.toml` alias makes `cargo xtask lint` run the
//! determinism-hygiene pass described in the library crate (and in
//! `docs/internals.md` §8). Exit status is nonzero when any lint rule
//! fires, so CI can gate on it.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

fn workspace_root() -> PathBuf {
    // crates/xtask/ → the workspace root two levels up.
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("."))
}

fn usage() -> ExitCode {
    eprintln!("usage: cargo xtask lint [--root <path>] [--json]");
    eprintln!();
    eprintln!("lint — runs the determinism-hygiene pass over the workspace:");
    for rule in xtask::RULES {
        eprintln!("  - {rule}");
    }
    ExitCode::FAILURE
}

fn cmd_lint(root: &Path, json: bool) -> ExitCode {
    let report = match xtask::lint_workspace_report(root) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("xtask lint: failed to scan {}: {e}", root.display());
            return ExitCode::FAILURE;
        }
    };
    if json {
        print!("{}", xtask::report_to_json(&report));
    } else {
        for v in &report.violations {
            println!("{v}");
        }
        for w in &report.warnings {
            println!("{w}");
        }
        let by_kind: Vec<String> = report
            .items_parsed
            .iter()
            .map(|(kind, n)| format!("{kind} {n}"))
            .collect();
        println!(
            "xtask lint: parsed {} files, {} items, {} unrecognised ({})",
            report.files_parsed,
            report.items_parsed.values().sum::<usize>(),
            report.fallback_items,
            by_kind.join(", ")
        );
        if report.violations.is_empty() {
            println!("xtask lint: clean ({} rules)", xtask::RULES.len());
        } else {
            println!("xtask lint: {} violation(s)", report.violations.len());
        }
    }
    if report.violations.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut root = workspace_root();
    let mut cmd = None;
    let mut json = false;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "lint" if cmd.is_none() => cmd = Some(a.as_str()),
            "--root" => match it.next() {
                Some(p) => root = PathBuf::from(p),
                None => return usage(),
            },
            "--json" if cmd == Some("lint") => json = true,
            _ => return usage(),
        }
    }
    match cmd {
        Some("lint") => cmd_lint(&root, json),
        _ => usage(),
    }
}
