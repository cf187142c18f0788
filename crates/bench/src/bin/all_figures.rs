//! Runs every table and figure binary in sequence (the paper's full
//! evaluation). Equivalent to executing `table1`, `table2`, `fig6a`,
//! `fig6b`, `fig7` and `fig8` one after another, plus the three
//! ablations. Standard output is the binaries' own and nothing else (CI
//! diffs it against `figures_output.txt`); the wall time of each binary
//! and the total go to standard error.

use std::process::Command;
use std::time::Instant;

#[allow(
    clippy::disallowed_methods,
    reason = "host-side budget of the figure suite, printed to stderr only; no simulated result reads it"
)]
fn main() {
    let bins = [
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
    // When invoked via `cargo run --bin all_figures`, the sibling binaries
    // live next to this executable.
    let me = std::env::current_exe().expect("current exe");
    let dir = me.parent().expect("exe dir");
    let mut failures = Vec::new();
    let suite = Instant::now();
    for bin in bins {
        println!("\n########## {bin} ##########");
        let path = dir.join(bin);
        let started = Instant::now();
        let status = if path.exists() {
            Command::new(&path).status()
        } else {
            // Fall back to cargo for `cargo run` without prebuilt siblings.
            Command::new("cargo")
                .args(["run", "--release", "-p", "conzone-bench", "--bin", bin])
                .status()
        };
        match status {
            Ok(s) if s.success() => {}
            Ok(s) => failures.push(format!("{bin}: exit {s}")),
            Err(e) => failures.push(format!("{bin}: {e}")),
        }
        eprintln!("{bin:<18}{:>8.1} ms", started.elapsed().as_secs_f64() * 1e3);
    }
    eprintln!(
        "{:<18}{:>8.1} ms",
        "total",
        suite.elapsed().as_secs_f64() * 1e3
    );
    if failures.is_empty() {
        println!("\nall tables and figures regenerated");
    } else {
        eprintln!("\nfailures:\n{}", failures.join("\n"));
        std::process::exit(1);
    }
}
