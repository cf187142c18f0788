//! Seeded token-mutation fuzz of the argument path, the command-line half
//! of the library's `parse_fuzz`. It starts from the command lines of the
//! golden-output recipes and from every string literal of the CLI tests
//! that begins with a flag (the hostile table among them). Flags are
//! dropped or duplicated, and values become `u64::MAX`, 40 digits or
//! nothing. Each result goes through `Args::parse`, `build_config`,
//! `parse_qd_options`, `parse_tenant_weights` and the `Shape` / `Obs`
//! builders. Nothing runs a device, and nothing may panic.

use std::panic::{catch_unwind, AssertUnwindSafe};

use conzone::sim::SimRng;

use super::{Obs, Shape};
use crate::args::{build_config, parse_qd_options, parse_tenant_weights, Args};

/// Mutated command lines.
const ROUNDS: u64 = 4_000;

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

/// `seed` with one to three mutations: a token dropped, a flag and its
/// value duplicated, or a value replaced by `u64::MAX`, by 40 digits or by
/// an empty string.
fn mutate(rng: &mut SimRng, seed: &[String]) -> Vec<String> {
    let mut argv = seed.to_vec();
    for _ in 0..=rng.below(3) {
        let at = rng.below(argv.len() as u64) as usize;
        match rng.below(3) {
            0 => {
                argv.remove(at);
            }
            1 => {
                let end = (at + 2).min(argv.len());
                let flag = argv[at..end].to_vec();
                argv.splice(end..end, flag);
            }
            _ if !argv[at].starts_with("--") => {
                argv[at] = match rng.below(3) {
                    0 => u64::MAX.to_string(),
                    1 => (0..40)
                        .map(|_| char::from(b'0' + rng.below(10) as u8))
                        .collect(),
                    _ => String::new(),
                };
            }
            _ => {}
        }
        if argv.is_empty() {
            argv.push("run".to_string());
        }
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
    let mut rng = SimRng::new(29);
    let mut accepted = 0;
    for round in 0..ROUNDS {
        let seed = &seeds[rng.below(seeds.len() as u64) as usize];
        let argv = mutate(&mut rng, seed);
        match catch_unwind(AssertUnwindSafe(|| accepts(&argv))) {
            Ok(ok) => accepted += u64::from(ok),
            Err(_) => panic!("round {round} panicked on {argv:?}"),
        }
    }
    // Both outcomes are reached, so the mutations exercise the parsers.
    assert!(
        accepted > ROUNDS / 10 && accepted < ROUNDS * 9 / 10,
        "{accepted} accepted"
    );
}
