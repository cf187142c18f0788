//! Property-based tests of the DES kernel: histogram quantiles against
//! exact order statistics, resource reservation invariants, and event
//! ordering.

use conzone_check::{check, Rng, Simpler};

use crate::{EventQueue, LatencyHistogram, Resource, SimRng};
use conzone_types::{SimDuration, SimTime};

fn nanos(rng: &mut Rng, len: std::ops::Range<usize>, below: u64) -> Vec<u64> {
    rng.vec(len, |rng| rng.range(1..below))
}

/// Histogram quantiles stay within the documented ~3 % relative error
/// of the exact order statistic.
#[test]
fn quantiles_match_exact() {
    let path = concat!(module_path!(), "::quantiles_match_exact");
    let generate = |rng: &mut Rng| ((), nanos(rng, 10..500, 10_000_000));
    check(path, 64, generate, |(), samples| {
        if samples.is_empty() {
            return;
        }
        let mut hist = LatencyHistogram::new();
        for &s in samples {
            hist.record(SimDuration::from_nanos(s));
        }
        let mut sorted = samples.to_vec();
        sorted.sort_unstable();
        for q in [0.1, 0.5, 0.9, 0.99] {
            let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
            let exact = sorted[rank - 1] as f64;
            let approx = hist.quantile(q).as_nanos() as f64;
            let err = (approx - exact).abs() / exact;
            assert!(err <= 0.05, "q={q}: approx {approx} vs exact {exact}");
        }
        assert_eq!(hist.summary().count, samples.len() as u64);
        assert_eq!(hist.min().as_nanos(), sorted[0]);
        assert_eq!(hist.max().as_nanos(), sorted[sorted.len() - 1]);
        let exact_mean = samples.iter().sum::<u64>() / samples.len() as u64;
        let mean_err = (hist.mean().as_nanos() as i64 - exact_mean as i64).abs();
        assert!(mean_err <= 1, "mean off by {mean_err}");
    });
}

/// Merging histograms equals recording into one.
#[test]
fn merge_is_homomorphic() {
    let generate = |rng: &mut Rng| (nanos(rng, 1..100, 1_000_000), nanos(rng, 1..100, 1_000_000));
    let path = concat!(module_path!(), "::merge_is_homomorphic");
    check(path, 64, generate, |a, b| {
        let mut ha = LatencyHistogram::new();
        let mut hb = LatencyHistogram::new();
        let mut hc = LatencyHistogram::new();
        for &s in a {
            ha.record(SimDuration::from_nanos(s));
            hc.record(SimDuration::from_nanos(s));
        }
        for &s in b {
            hb.record(SimDuration::from_nanos(s));
            hc.record(SimDuration::from_nanos(s));
        }
        ha.merge(&hb);
        assert_eq!(ha.summary().count, hc.summary().count);
        assert_eq!(ha.mean(), hc.mean());
        for q in [0.25, 0.5, 0.75, 0.99] {
            assert_eq!(ha.quantile(q), hc.quantile(q));
        }
    });
}

/// A resource serialises any sequence of reservations: spans never
/// overlap, never start before submission, and total busy time equals
/// the sum of durations.
#[test]
fn resource_reservations_never_overlap() {
    let generate = |rng: &mut Rng| ((), rng.vec(1..100, |r| (r.range(0..1000), r.range(1..500))));
    let path = concat!(module_path!(), "::resource_reservations_never_overlap");
    check(path, 64, generate, |(), ops| {
        let mut resource = Resource::new();
        let mut last_end = SimTime::ZERO;
        let mut busy_total = 0u64;
        let mut now = SimTime::ZERO;
        for &(advance, dur) in ops {
            now += SimDuration::from_nanos(advance);
            let r = resource.acquire(now, SimDuration::from_nanos(dur));
            assert!(r.start >= now, "no time travel");
            assert!(r.start >= last_end, "no overlap");
            assert_eq!(r.end - r.start, SimDuration::from_nanos(dur));
            last_end = r.end;
            busy_total += dur;
        }
        assert!(resource.free_at() >= SimTime::from_nanos(busy_total));
    });
}

/// One step of an event-queue stream: schedule at a time, or pop.
#[derive(Debug, Clone, Copy, PartialEq)]
enum QueueOp {
    Push(u64),
    Pop,
}

impl Simpler for QueueOp {}

/// The event queue is a stable priority queue: under any interleaving of
/// pushes and pops, every pop returns the earliest `(time, push order)`
/// still queued, as a linear scan of a plain list finds it. Times come
/// from a small range, so ties are common, and pushes follow pops, which
/// is where a popped root is overwritten in place.
#[test]
fn event_queue_is_stable_sorted() {
    let path = concat!(module_path!(), "::event_queue_is_stable_sorted");
    let op = |rng: &mut Rng| match rng.below(5) {
        0..3 => QueueOp::Push(rng.below(8)),
        _ => QueueOp::Pop,
    };
    let generate = |rng: &mut Rng| ((), rng.vec(1..200, op));
    check(path, 64, generate, |(), ops| {
        let mut q = EventQueue::new();
        let mut model: Vec<(u64, usize)> = Vec::new();
        for (i, &op) in ops.iter().enumerate() {
            match op {
                QueueOp::Push(t) => {
                    q.push(SimTime::from_nanos(t), i);
                    model.push((t, i));
                }
                QueueOp::Pop => {
                    let earliest = (0..model.len()).min_by_key(|&k| model[k]);
                    let want = earliest.map(|k| model.remove(k));
                    let got = q.pop().map(|(t, i)| (t.as_nanos(), i));
                    assert_eq!(got, want, "pop at step {i}");
                }
            }
        }
        // What is left drains in order, and then the queue is empty. The
        // pops are counted: a queue that never empties must fail, not hang.
        model.sort_unstable();
        let want: Vec<_> = model.into_iter().map(Some).chain([None]).collect();
        let rest: Vec<_> = (0..want.len())
            .map(|_| q.pop().map(|(t, i)| (t.as_nanos(), i)))
            .collect();
        assert_eq!(rest, want, "drain");
    });
}

/// The RNG's `below` is uniform enough over small bounds (chi-squared
/// style sanity bound) and deterministic per seed.
#[test]
fn rng_below_uniform() {
    let path = concat!(module_path!(), "::rng_below_uniform");
    let generate = |rng: &mut Rng| (rng.next_u64(), Vec::<()>::new());
    check(path, 64, generate, |&seed, _| {
        let mut rng = SimRng::new(seed);
        let bound = 8u64;
        let n = 8000;
        let mut counts = [0u32; 8];
        for _ in 0..n {
            counts[rng.below(bound) as usize] += 1;
        }
        let expect = f64::from(n) / bound as f64;
        for (i, &c) in counts.iter().enumerate() {
            let dev = (f64::from(c) - expect).abs() / expect;
            assert!(dev < 0.15, "bucket {i}: {c} vs {expect}");
        }
        let mut a = SimRng::new(seed);
        let mut b = SimRng::new(seed);
        for _ in 0..32 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    });
}
