//! ConZone, FEMU, Legacy and the zone table alone, each run in lock-step
//! with the one naive zoned device of `tests/oracle/` (its module doc says
//! what is compared at every step). Streams are seeded; a failure prints
//! the configuration, the seed and the stream shrunk to what still fails.

#[path = "oracle/mod.rs"]
mod oracle;

use conzone::types::ZoneTable;
use conzone_check::shrink;

use oracle::{build, check, lockstep, run, stream, Cmd, NaiveZones};

/// Seeds per configuration, and commands per seed. Release builds run
/// more and longer streams.
#[cfg(debug_assertions)]
const RUNS: (u64, usize) = (1, 4000);
#[cfg(not(debug_assertions))]
const RUNS: (u64, usize) = (8, 10_000);

fn agree(names: &[&str]) {
    for name in names {
        for seed in 0..RUNS.0 {
            check(name, 0x0c1e + seed, RUNS.1);
        }
    }
}

/// ConZone streams include power cuts. The tiny geometry, and a
/// non-power-of-two zone with an SLC tail patch.
#[test]
fn conzone_agrees_with_the_oracle() {
    agree(&["tiny", "tail"]);
}

/// One or two conventional zones, under open limits of 1, 2 and 6.
#[test]
fn conzone_with_conventional_zones_agrees_with_the_oracle() {
    agree(&["conv1-open1", "conv2-open2", "conv1-open6"]);
}

/// Program and erase failures retire blocks; SLC runs out, and every
/// refusal changes no zone, no byte and no later answer.
#[test]
fn conzone_under_faults_agrees_with_the_oracle() {
    let (mut retired, mut refused) = (0, 0);
    for seed in 0..RUNS.0 {
        let (mut dut, n) = check("faults", 0x0c1e + seed, RUNS.1);
        (retired, refused) = (retired + dut.dev().counters().blocks_retired, refused + n);
    }
    assert!(
        retired > 0 && refused > 0,
        "{retired} blocks retired, {refused} refusals"
    );
}

/// Two SLC blocks a chip: flushes that run out of SLC space are refused,
/// and a refusal changes no zone, no byte and no later answer. The streams
/// do run out, dozens of times.
#[test]
fn starved_conzone_refuses_cleanly() {
    let refused: usize = (0..RUNS.0)
        .map(|seed| check("starved", 0x0c1e + seed, RUNS.1).1)
        .sum();
    assert!(refused >= 24, "{refused} refusals");
}

/// FEMU, with no open limit; Legacy, one conventional region.
#[test]
fn femu_and_legacy_agree_with_the_oracle() {
    agree(&["femu", "legacy"]);
}

/// `ZoneTable` alone against the naive zones, over the zone command
/// alphabet with ids past the end, the open limit at 1 / 2 / 6, up to two
/// conventional zones and power cycles that lose a zone's last slices: the
/// same accept or refusal, and every zone's state and write pointer equal,
/// at every step. Five zones of eight slices, so that streams fill zones,
/// cross their ends and run into the open limit.
#[test]
fn zone_table_equals_the_naive_contract() {
    for seed in 0..96 {
        let (limit, conventional) = ([1, 2, 6][seed as usize % 3], seed / 3 % 3);
        let fresh = || {
            let table = ZoneTable::new(5, 8, Some(limit), conventional as usize);
            (table, NaiveZones::new(5, 8, limit, conventional))
        };
        let cmds = stream(seed, 100 + 2 * seed as usize, &fresh().1, true, true);
        lockstep(&format!("zone table, seed {seed}"), fresh, cmds);
    }
}

/// A planted bug, a device that refuses to open a third zone where its
/// contract allows three, fails a 600-command stream, and the shrinker
/// brings the failure down to at most five commands.
#[test]
fn a_planted_bug_shrinks_to_a_few_commands() {
    let fresh = || {
        let (dut, mut naive) = build("conv2-open2");
        naive.limit = 3;
        (dut, naive)
    };
    let fails = |cmds: &[Cmd]| {
        let (mut dut, naive) = fresh();
        run(&mut dut, naive, cmds).err().map(|(step, _)| step)
    };
    let cmds = stream(7, 600, &fresh().1, true, true);
    let step = fails(&cmds).expect("the planted bug is found");
    let minimal = shrink(cmds, fails);
    assert!(
        minimal.len() <= 5,
        "failed at step {step}, shrunk to {minimal:?}"
    );
    assert!(fails(&minimal).is_some());
}
