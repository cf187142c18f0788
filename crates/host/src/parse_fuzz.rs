//! Seeded byte-mutation fuzz of the two input-file parsers,
//! [`parse_fio_jobs`] and [`Trace::parse`]. Mutated copies of a real job
//! file and of a generated trace must never panic; every trace the parser
//! accepts must come back unchanged from `parse(to_text())` and answer
//! `total_bytes()`. Seeds and mutations are fixed, so a failure
//! reproduces, and it prints the input that caused it.

use std::panic::{catch_unwind, AssertUnwindSafe};

use conzone_sim::SimRng;

use crate::fio_file::parse_fio_jobs;
use crate::trace::{MobileTraceBuilder, Trace};

/// Mutated inputs per parser.
const ROUNDS: u64 = 10_000;

/// Bytes an insertion draws from: the parsers' own syntax, digits and
/// size suffixes, whitespace, and a lone UTF-8 lead byte.
const ALPHABET: &[u8] = b"0123456789kKmMgGrRwWdD=[]#; \t\n\xc3";

/// `seed` with one to four mutations: a bit flip, an inserted or deleted
/// byte, the number at a position (or none) replaced by `u64::MAX` or by
/// up to 40 random digits, or a duplicated line.
fn mutate(rng: &mut SimRng, seed: &[u8]) -> String {
    let mut bytes = seed.to_vec();
    for _ in 0..=rng.below(4) {
        let n = bytes.len() as u64;
        let at = rng.below(n.max(1)) as usize;
        match rng.below(5) {
            0 if n > 0 => bytes[at] ^= 1 << rng.below(8),
            1 => bytes.insert(at, ALPHABET[rng.below(ALPHABET.len() as u64) as usize]),
            2 if n > 0 => {
                bytes.remove(at);
            }
            3 => {
                let start = at
                    - bytes[..at]
                        .iter()
                        .rev()
                        .take_while(|b| b.is_ascii_digit())
                        .count();
                let end = at
                    + bytes[at..]
                        .iter()
                        .take_while(|b| b.is_ascii_digit())
                        .count();
                let digits: Vec<u8> = if rng.below(2) == 0 {
                    u64::MAX.to_string().into_bytes()
                } else {
                    (0..=rng.below(40))
                        .map(|_| b'0' + rng.below(10) as u8)
                        .collect()
                };
                bytes.splice(start..end, digits);
            }
            _ => {
                let start = bytes[..at]
                    .iter()
                    .rposition(|&b| b == b'\n')
                    .map_or(0, |i| i + 1);
                let end = bytes[at..]
                    .iter()
                    .position(|&b| b == b'\n')
                    .map_or(bytes.len(), |i| at + i + 1);
                let line = bytes[start..end].to_vec();
                bytes.splice(end..end, line);
            }
        }
    }
    String::from_utf8_lossy(&bytes).into_owned()
}

/// Runs `check` on `ROUNDS` mutations of `seed` and returns how many it
/// accepted; a panic fails the test with the input that caused it.
fn fuzz(seed: &str, rng_seed: u64, check: impl Fn(&str) -> bool) -> u64 {
    let mut rng = SimRng::new(rng_seed);
    let mut accepted = 0;
    for round in 0..ROUNDS {
        let text = mutate(&mut rng, seed.as_bytes());
        match catch_unwind(AssertUnwindSafe(|| check(&text))) {
            Ok(ok) => accepted += u64::from(ok),
            Err(_) => panic!("round {round} panicked on input {text:?}"),
        }
    }
    accepted
}

#[test]
fn mutated_job_files_never_panic() {
    let seed = include_str!("../../../tests/golden/jobfile-tiny/job.fio");
    assert!(parse_fio_jobs(seed).is_ok());
    let accepted = fuzz(seed, 1, |text| parse_fio_jobs(text).is_ok());
    // Both outcomes are reached, so the mutations exercise the parser.
    assert!(
        accepted > ROUNDS / 10 && accepted < ROUNDS * 9 / 10,
        "{accepted} accepted"
    );
}

#[test]
fn mutated_traces_never_panic_and_accepted_ones_round_trip() {
    let seed = MobileTraceBuilder::new(1 << 20, 8)
        .bursts(2)
        .burst_bytes(256 * 1024)
        .reads(8)
        .build()
        .to_text();
    let accepted = fuzz(&seed, 2, |text| {
        let Ok(trace) = Trace::parse(text) else {
            return false;
        };
        let again = Trace::parse(&trace.to_text()).expect("a printed trace parses");
        assert_eq!(again.ops(), trace.ops());
        assert_eq!(again.total_bytes(), trace.total_bytes());
        true
    });
    assert!(
        accepted > ROUNDS / 10 && accepted < ROUNDS * 9 / 10,
        "{accepted} accepted"
    );
}
