//! Seeded byte-mutation fuzz of the two input-file parsers,
//! [`parse_fio_jobs`] and [`Trace::parse`]. Mutated copies of a real job
//! file and of a short mobile-like trace must never panic; every trace the parser
//! accepts must come back unchanged from `parse(to_text())` and answer
//! `total_bytes()`. Each case is a list of edits drawn by the property
//! engine, so a failure reproduces, and it is shrunk to the fewest edits
//! of the seed text that still panic.

use std::cell::Cell;
use std::panic::{catch_unwind, AssertUnwindSafe};

use conzone_check::{check, Rng, Simpler};

use crate::fio_file::parse_fio_jobs;
use crate::trace::Trace;

/// Mutated inputs per parser.
const ROUNDS: u32 = 10_000;

/// Bytes an insertion draws from: the parsers' own syntax, digits and
/// size suffixes, whitespace, and a lone UTF-8 lead byte.
const ALPHABET: &[u8] = b"0123456789kKmMgGrRwWdD=[]#; \t\n\xc3";

/// One edit of the text, at a position drawn modulo its length then: a
/// bit flipped, a byte inserted or deleted, the number there (or none)
/// replaced by digits, or the line there duplicated.
#[derive(Debug, Clone, PartialEq)]
enum Edit {
    Flip(u64, u8),
    Insert(u64, u8),
    Delete(u64),
    Number(u64, String),
    Line(u64),
}

impl Simpler for Edit {}

/// One to four edits; a number becomes `u64::MAX` or up to 40 random
/// digits, an insertion draws from [`ALPHABET`].
fn edits(rng: &mut Rng) -> ((), Vec<Edit>) {
    let edit = |rng: &mut Rng| {
        let at = rng.next_u64();
        match rng.below(5) {
            0 => Edit::Flip(at, rng.range(0..8)),
            1 => Edit::Insert(at, ALPHABET[rng.range(0..ALPHABET.len())]),
            2 => Edit::Delete(at),
            3 if rng.bool() => Edit::Number(at, u64::MAX.to_string()),
            3 => Edit::Number(
                at,
                (0..=rng.below(40))
                    .map(|_| rng.range(b'0'..b':') as char)
                    .collect(),
            ),
            _ => Edit::Line(at),
        }
    };
    ((), rng.vec(1..5, edit))
}

/// `seed` with `edits` applied in order.
fn mutate(seed: &[u8], edits: &[Edit]) -> String {
    let mut bytes = seed.to_vec();
    for edit in edits {
        let n = bytes.len() as u64;
        let at = |raw: &u64| (raw % n.max(1)) as usize;
        match edit {
            Edit::Flip(raw, bit) if n > 0 => bytes[at(raw)] ^= 1 << bit,
            Edit::Insert(raw, byte) => bytes.insert(at(raw), *byte),
            Edit::Delete(raw) if n > 0 => {
                bytes.remove(at(raw));
            }
            Edit::Number(raw, digits) => {
                let (at, digit) = (at(raw), |b: &&u8| b.is_ascii_digit());
                let start = at - bytes[..at].iter().rev().take_while(digit).count();
                let end = at + bytes[at..].iter().take_while(digit).count();
                bytes.splice(start..end, digits.bytes());
            }
            Edit::Line(raw) => {
                let at = at(raw);
                let start = bytes[..at]
                    .iter()
                    .rposition(|&b| b == b'\n')
                    .map_or(0, |i| i + 1);
                let end = bytes[at..].iter().position(|&b| b == b'\n');
                let end = end.map_or(bytes.len(), |i| at + i + 1);
                let line = bytes[start..end].to_vec();
                bytes.splice(end..end, line);
            }
            Edit::Flip(..) | Edit::Delete(_) => {}
        }
    }
    String::from_utf8_lossy(&bytes).into_owned()
}

/// Runs `parse` on `ROUNDS` edited copies of `seed` and returns how many
/// it accepted; a panic fails the test with the input that caused it,
/// shrunk to the fewest edits.
fn fuzz(path: &str, seed: &str, parse: impl Fn(&str) -> bool) -> u64 {
    let accepted = Cell::new(0);
    check(path, ROUNDS, edits, |(), edits| {
        let text = mutate(seed.as_bytes(), edits);
        let ok = catch_unwind(AssertUnwindSafe(|| parse(&text)))
            .unwrap_or_else(|_| panic!("panicked on input {text:?}"));
        accepted.set(accepted.get() + u64::from(ok));
    });
    accepted.get()
}

/// Both outcomes are reached, so the mutations exercise the parser.
fn assert_both_outcomes(accepted: u64) {
    let rounds = u64::from(ROUNDS);
    assert!(
        accepted > rounds / 10 && accepted < rounds * 9 / 10,
        "{accepted} accepted"
    );
}

#[test]
fn mutated_job_files_never_panic() {
    let seed = include_str!("../../../tests/golden/jobfile-tiny/job.fio");
    assert!(parse_fio_jobs(seed).is_ok());
    let path = concat!(module_path!(), "::mutated_job_files_never_panic");
    assert_both_outcomes(fuzz(path, seed, |text| parse_fio_jobs(text).is_ok()));
}

#[test]
fn mutated_traces_never_panic_and_accepted_ones_round_trip() {
    // Two media writes, then eight 4 KiB reads of them.
    let seed = "\
# time_ns op offset_bytes length_bytes
0 W 0 524288
5200000 W 524288 524288
10400000 R 53248 4096
10450000 R 16384 4096
10500000 R 20480 4096
10550000 R 393216 4096
10600000 R 933888 4096
10650000 R 331776 4096
10700000 R 245760 4096
10750000 R 425984 4096
";
    let path = concat!(
        module_path!(),
        "::mutated_traces_never_panic_and_accepted_ones_round_trip"
    );
    let accepted = fuzz(path, seed, |text| {
        let Ok(trace) = Trace::parse(text) else {
            return false;
        };
        let again = Trace::parse(&trace.to_text()).expect("a printed trace parses");
        assert_eq!(again.ops(), trace.ops());
        assert_eq!(again.total_bytes(), trace.total_bytes());
        true
    });
    assert_both_outcomes(accepted);
}
