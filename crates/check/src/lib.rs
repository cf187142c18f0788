//! The workspace's property engine. [`check`] runs a property on seeded
//! random inputs; a failing input is shrunk to a short one and reported
//! with the seed that found it.
//!
//! An input is a list of items (the commands of a stream, the reads of a
//! scenario) and parameters drawn alongside it, which stay fixed while the
//! list shrinks. Generators build valid items by construction: there is no
//! rejection, so every drawn case is checked. Shrinking hands the property
//! sub-lists of what was drawn, so it must hold on every sub-list (the
//! empty one too) of a valid list. The seed is the FNV-1a hash
//! of the test's path, and cases are drawn one after another from one
//! [`Rng`], so a failure reproduces run to run.
//!
//! [`shrink`] is the one shrinker: it cuts the list after the failing
//! item, drops chunks of halving size down to single items while the
//! failure persists, then replaces items by their [`Simpler`] variant, and
//! repeats until nothing changes.

#![forbid(unsafe_code)]

use std::any::Any;
use std::fmt::Debug;
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Deterministic splitmix64 generator that draws every input.
#[derive(Debug, Clone)]
pub struct Rng {
    state: u64,
}

impl Rng {
    /// A generator from a seed.
    pub fn new(seed: u64) -> Rng {
        Rng {
            state: seed ^ 0x9e37_79b9_7f4a_7c15,
        }
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A value in `[0, bound)`; `bound` must be non-zero. (The modulo
    /// bias does not matter for test inputs.)
    pub fn below(&mut self, bound: u64) -> u64 {
        self.next_u64() % bound
    }

    /// A value in `range`, which must not be empty.
    pub fn range<N: TryFrom<u64> + TryInto<u64>>(&mut self, range: Range<N>) -> N {
        let wide = |n: N| {
            n.try_into()
                .unwrap_or_else(|_| unreachable!("an unsigned integer"))
        };
        let (start, end) = (wide(range.start), wide(range.end));
        let v = start + self.below(end - start);
        N::try_from(v).unwrap_or_else(|_| unreachable!("drawn inside the range"))
    }

    /// A fair coin.
    pub fn bool(&mut self) -> bool {
        self.next_u64() & 1 == 1
    }

    /// A list of `item`s whose length is drawn from `len`.
    pub fn vec<T>(&mut self, len: Range<usize>, mut item: impl FnMut(&mut Rng) -> T) -> Vec<T> {
        let n = self.range(len);
        (0..n).map(|_| item(self)).collect()
    }
}

/// The seed of the test at `path`: its FNV-1a hash.
fn seed_for(path: &str) -> u64 {
    path.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// An item the shrinker can replace by a simpler one, which must still be
/// valid input: fewer slices, no payload, no fault. The default has none.
pub trait Simpler: Clone + Debug + PartialEq {
    /// The simpler variant, if there is one.
    fn simpler(&self) -> Option<Self> {
        None
    }
}

impl Simpler for () {}
impl Simpler for bool {}
impl Simpler for u16 {}
impl Simpler for u64 {}
impl<A: Simpler, B: Simpler> Simpler for (A, B) {}

/// A shorter list that still fails. `fails` gives the index of the item a
/// list fails at, or `None` if it passes; each kept candidate is cut after
/// that item. Drops chunks of halving size down to single items while the
/// failure persists, then simplifies the items one at a time, and repeats
/// until nothing shrinks.
pub fn shrink<T: Simpler>(mut items: Vec<T>, fails: impl Fn(&[T]) -> Option<usize>) -> Vec<T> {
    // Keeps `candidate`, cut after its failing item, if it fails.
    let keep = |items: &mut Vec<T>, mut candidate: Vec<T>| match fails(&candidate) {
        Some(at) => {
            candidate.truncate(at + 1);
            *items = candidate;
            true
        }
        None => false,
    };
    let whole = items.clone();
    keep(&mut items, whole);
    loop {
        let before = items.clone();
        let mut size = items.len() / 2;
        while size > 0 {
            let mut at = 0;
            while at < items.len() {
                let mut candidate = items.clone();
                candidate.drain(at..(at + size).min(items.len()));
                if !keep(&mut items, candidate) {
                    at += size;
                }
            }
            size /= 2;
        }
        let mut at = 0;
        while at < items.len() {
            let mut candidate = items.clone();
            match items[at].simpler() {
                Some(simpler) => candidate[at] = simpler,
                None => {
                    at += 1;
                    continue;
                }
            }
            if !keep(&mut items, candidate) {
                at += 1;
            }
        }
        if items == before {
            return items;
        }
    }
}

/// Checks `property` on `cases` inputs drawn by `generate` from the seed of
/// `path`, the test's path. A panic in the property fails its case; the
/// failing input's list is shrunk (its parameters stay as drawn), and the
/// test panics with the path, the seed, the case, the parameters, the
/// shrunk list and what went wrong on it.
pub fn check<P: Debug, T: Simpler>(
    path: &str,
    cases: u32,
    generate: impl Fn(&mut Rng) -> (P, Vec<T>),
    property: impl Fn(&P, &[T]),
) {
    let seed = seed_for(path);
    let mut rng = Rng::new(seed);
    for case in 1..=cases {
        let (params, items) = generate(&mut rng);
        let run = |items: &[T]| catch_unwind(AssertUnwindSafe(|| property(&params, items)));
        if run(&items).is_ok() {
            continue;
        }
        let drawn = items.len();
        let fails = |items: &[T]| run(items).err().map(|_| items.len().saturating_sub(1));
        let minimal = shrink(items, fails);
        let why = run(&minimal)
            .err()
            .map_or_else(String::new, |p| message(&*p));
        let list = match drawn {
            0 => String::new(),
            _ => format!(
                "\nshrunk from {drawn} to {} items: {minimal:?}",
                minimal.len()
            ),
        };
        panic!("{path}: case {case} of seed {seed:#x} failed: {why}\nparameters: {params:?}{list}");
    }
}

/// The text of a panic payload.
pub fn message(payload: &(dyn Any + Send)) -> String {
    let text = payload.downcast_ref::<&str>().map(|s| (*s).to_string());
    text.or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_default()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A count that halves to 1.
    #[derive(Debug, Clone, Copy, PartialEq)]
    struct Count(u64);

    impl Simpler for Count {
        fn simpler(&self) -> Option<Count> {
            (self.0 > 1).then_some(Count(self.0 / 2))
        }
    }

    /// Fails at the second count of 4 or more: two items, each of which
    /// would pass halved.
    #[test]
    fn a_failure_shrinks_to_the_items_that_cause_it() {
        let counts = Rng::new(1).vec(200..201, |rng| Count(rng.below(100)));
        let fails_at = |items: &[Count]| {
            let big = items.iter().enumerate().filter(|(_, c)| c.0 >= 4);
            big.map(|(i, _)| i).nth(1)
        };
        let minimal = shrink(counts, fails_at);
        assert!(minimal.len() == 2 && minimal.iter().all(|c| (4..8).contains(&c.0)));
    }

    #[test]
    fn a_passing_property_runs_every_case_in_range() {
        let ran = std::cell::Cell::new(0);
        let generate = |rng: &mut Rng| (rng.range(3u8..17), rng.vec(0..5, |rng| rng.below(3)));
        check("tests::passing", 64, generate, |&p, items| {
            ran.set(ran.get() + 1);
            assert!((3..17).contains(&p) && items.iter().all(|&x| x < 3));
        });
        assert_eq!(ran.get(), 64);
    }

    #[test]
    #[should_panic(expected = "shrunk from 40 to 1 items: [7]")]
    fn a_failing_property_reports_the_shrunk_list() {
        let generate = |rng: &mut Rng| ((), rng.vec(40..41, |rng| rng.below(8)));
        check("tests::failing", 8, generate, |(), items| {
            assert!(!items.contains(&7), "a seven");
        });
    }
}
