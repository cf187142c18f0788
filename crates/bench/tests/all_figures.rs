//! The whole figure suite against `figures_output.txt`, release only: two
//! of its fifteen figures take minutes or seconds in a debug build, where
//! `figures::golden` checks the other thirteen one by one.
#![cfg(not(debug_assertions))]

use std::process::Command;

use conzone_bench::{figures, Out};

/// The `all_figures` binary prints the golden, byte for byte.
#[test]
fn all_figures_prints_the_golden() {
    let run = Command::new(env!("CARGO_BIN_EXE_all_figures"))
        .output()
        .expect("all_figures runs");
    assert!(run.status.success(), "all_figures: {}", run.status);
    let golden = include_str!("../../../figures_output.txt");
    assert!(run.stdout == golden.as_bytes(), "stdout != the golden");
}

/// The paper-shape checks, enumerated as data: 31 distinct claims, all
/// holding.
#[test]
fn the_figures_check_31_distinct_claims() {
    let mut claims = Vec::new();
    for (name, figure) in figures::ALL {
        let mut out = Out::default();
        figure(&mut out);
        for r in out.relations() {
            assert!(r.holds, "{name}: {} ({})", r.claim, r.evidence);
            claims.push(r.claim);
        }
    }
    claims.sort_unstable();
    claims.dedup();
    assert_eq!(claims.len(), 31, "distinct claims");
}
