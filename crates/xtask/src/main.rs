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
    eprintln!("usage: cargo xtask lint [--root <path>] [--json] [--changed]");
    eprintln!();
    eprintln!("lint — runs the determinism-hygiene pass over the workspace:");
    for rule in xtask::RULES {
        eprintln!("  - {rule}");
    }
    eprintln!();
    eprintln!("--changed scopes the per-file rules to files reported modified or");
    eprintln!("untracked by git; workspace rules (coverage, effect analysis)");
    eprintln!("always see the whole tree. Unused-allow warnings are suppressed");
    eprintln!("on scoped runs.");
    ExitCode::FAILURE
}

/// Root-relative paths of files git reports as modified or untracked,
/// for `lint --changed`. Errors (not a repo, git missing) are fatal: a
/// silently empty scope would make the lint vacuously pass.
fn changed_paths(root: &Path) -> Result<Vec<PathBuf>, String> {
    let mut paths = Vec::new();
    for args in [
        &["diff", "--name-only", "HEAD"][..],
        &["ls-files", "--others", "--exclude-standard"][..],
    ] {
        let out = std::process::Command::new("git")
            .current_dir(root)
            .args(args)
            .output()
            .map_err(|e| format!("failed to run git: {e}"))?;
        if !out.status.success() {
            return Err(format!(
                "git {} failed: {}",
                args.join(" "),
                String::from_utf8_lossy(&out.stderr).trim()
            ));
        }
        for line in String::from_utf8_lossy(&out.stdout).lines() {
            let line = line.trim();
            if !line.is_empty() {
                paths.push(PathBuf::from(line));
            }
        }
    }
    paths.sort();
    paths.dedup();
    Ok(paths)
}

fn cmd_lint(root: &Path, json: bool, changed: bool) -> ExitCode {
    let scope = if changed {
        match changed_paths(root) {
            Ok(paths) => Some(paths),
            Err(e) => {
                eprintln!("xtask lint: --changed: {e}");
                return ExitCode::FAILURE;
            }
        }
    } else {
        None
    };
    match xtask::lint_workspace_report(root, scope.as_deref()) {
        Ok(report) if json => {
            print!("{}", xtask::report_to_json(&report));
            if report.violations.is_empty() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Ok(report) => {
            for v in &report.violations {
                println!("{v}");
            }
            for w in &report.warnings {
                println!("{w}");
            }
            if report.violations.is_empty() {
                let scoped = scope
                    .as_ref()
                    .map(|s| format!(", {} changed file(s)", s.len()))
                    .unwrap_or_default();
                println!("xtask lint: clean ({} rules{scoped})", xtask::RULES.len());
                ExitCode::SUCCESS
            } else {
                println!("xtask lint: {} violation(s)", report.violations.len());
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("xtask lint: failed to scan {}: {e}", root.display());
            ExitCode::FAILURE
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut root = workspace_root();
    let mut cmd = None;
    let mut json = false;
    let mut changed = false;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "lint" if cmd.is_none() => cmd = Some(a.as_str()),
            "--root" => match it.next() {
                Some(p) => root = PathBuf::from(p),
                None => return usage(),
            },
            "--json" if cmd == Some("lint") => json = true,
            "--changed" if cmd == Some("lint") => changed = true,
            _ => return usage(),
        }
    }
    match cmd {
        Some("lint") => cmd_lint(&root, json, changed),
        _ => usage(),
    }
}
