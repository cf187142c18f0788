//! The whole figure suite against `figures_output.txt`, release only: two
//! of its sixteen figures take minutes or seconds in a debug build, where
//! `figures::golden` checks the other fourteen one by one.
#![cfg(not(debug_assertions))]

use std::process::Command;

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
