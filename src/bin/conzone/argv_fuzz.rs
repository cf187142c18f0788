//! Seeded token-mutation fuzz of the argument path, the command-line half
//! of the library's `parse_fuzz`. It starts from the command lines of the
//! golden-output recipes and from every string literal of the CLI tests
//! that begins with a flag (the hostile table among them). Flags are
//! dropped or duplicated, and values become `u64::MAX`, 40 digits or
//! nothing. Each result goes through `Args::parse`, `build_config`,
//! `parse_qd_options`, `parse_tenant_weights` and the `Shape` / `Obs`
//! builders. Nothing runs a device, and nothing may panic; a panic is
//! shrunk to the fewest edits of its seed line.

use std::cell::Cell;
use std::panic::{catch_unwind, AssertUnwindSafe};

use conzone_check::{check, Rng, Simpler};

use super::{Obs, Shape};
use crate::args::{build_config, parse_qd_options, parse_tenant_weights, Args};

/// Mutated command lines.
const ROUNDS: u32 = 4_000;
/// The command lines to mutate, split into tokens.
fn seeds() -> Vec<Vec<String>> {
    let readme = include_str!("../../../tests/golden/README.md");
    let cli = include_str!("../../../tests/cli.rs").replace("\\\n", " ");
    let golden = readme.split("conzone -- ").skip(1);
    let golden = golden.map(|rest| {
        rest.split(['>', '`'])
            .next()
            .unwrap_or_default()
            .to_string()
    });
    let literals = cli.split("\"--").skip(1);
    let literals =
        literals.map(|rest| format!("run --{}", rest.split('"').next().unwrap_or_default()));
    let lines = golden.chain(literals);
    lines
        .map(|line| line.split_whitespace().map(str::to_string).collect())
        .collect()
}

/// One edit of a command line, at a token drawn modulo its length then.
#[derive(Debug, Clone, PartialEq)]
enum Edit {
    Drop(u64),
    /// The token and the one after it, duplicated.
    Repeat(u64),
    /// A value (a token that is not a flag) replaced.
    Value(u64, String),
}

impl Simpler for Edit {}

/// A token dropped, a flag and its value duplicated, or a value replaced
/// by `u64::MAX`, by 40 digits or by an empty string.
fn edit(rng: &mut Rng) -> Edit {
    let at = rng.next_u64();
    match rng.below(9) {
        0..3 => Edit::Drop(at),
        3..6 => Edit::Repeat(at),
        6 => Edit::Value(at, u64::MAX.to_string()),
        7 => Edit::Value(at, (0..40).map(|_| rng.range(b'0'..b':') as char).collect()),
        _ => Edit::Value(at, String::new()),
    }
}

/// `seed` with `edits` applied in order; never empty.
fn mutate(seed: &[String], edits: &[Edit]) -> Vec<String> {
    let mut argv = seed.to_vec();
    for edit in edits {
        if argv.is_empty() {
            argv.push("run".to_string());
        }
        let at = |raw: &u64| (raw % argv.len() as u64) as usize;
        match edit {
            Edit::Drop(raw) => drop(argv.remove(at(raw))),
            Edit::Repeat(raw) => {
                let (at, end) = (at(raw), (at(raw) + 2).min(argv.len()));
                argv.splice(end..end, argv[at..end].to_vec());
            }
            Edit::Value(raw, value) => {
                let at = at(raw);
                if !argv[at].starts_with("--") {
                    argv[at].clone_from(value);
                }
            }
        }
    }
    if argv.is_empty() {
        argv.push("run".to_string());
    }
    argv
}

/// Whether every stage accepted `argv`.
fn accepts(argv: &[String]) -> bool {
    let Ok(args) = Args::parse(argv) else {
        return false;
    };
    let tenants = args.queue_count("tenants", 1);
    let weights = tenants.map(|n| parse_tenant_weights(&args, n));
    let shape = Shape::from_args(&args).map(|shape| shape.job());
    let obs = Obs::from_args(&args);
    let config = build_config(&args);
    let qd = parse_qd_options(&args);
    matches!(weights, Ok(Ok(_))) && shape.is_ok() && obs.is_ok() && config.is_ok() && qd.is_ok()
}

#[test]
fn mutated_command_lines_never_panic() {
    let seeds = seeds();
    assert!(seeds.len() > 30, "{} seed lines", seeds.len());
    let generate = |rng: &mut Rng| (rng.range(0..seeds.len()), rng.vec(1..4, edit));
    let accepted = Cell::new(0);
    let path = concat!(module_path!(), "::mutated_command_lines_never_panic");
    check(path, ROUNDS, generate, |&seed, edits| {
        let argv = mutate(&seeds[seed], edits);
        let ok = catch_unwind(AssertUnwindSafe(|| accepts(&argv)))
            .unwrap_or_else(|_| panic!("panicked on {argv:?}"));
        accepted.set(accepted.get() + u64::from(ok));
    });
    // Both outcomes are reached, so the mutations exercise the parsers.
    let (accepted, rounds) = (accepted.get(), u64::from(ROUNDS));
    assert!(
        accepted > rounds / 10 && accepted < rounds * 9 / 10,
        "{accepted} accepted"
    );
}
