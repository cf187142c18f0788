//! Property-based tests of the DES kernel: histogram quantiles against
//! exact order statistics, resource reservation invariants, and event
//! ordering.

use proptest::prelude::*;

use crate::{EventQueue, LatencyHistogram, Resource, SimRng};
use conzone_types::{SimDuration, SimTime};

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// Histogram quantiles stay within the documented ~3 % relative error
    /// of the exact order statistic.
    #[test]
    fn quantiles_match_exact(samples in prop::collection::vec(1u64..10_000_000, 10..500)) {
        let mut hist = LatencyHistogram::new();
        for &s in &samples {
            hist.record(SimDuration::from_nanos(s));
        }
        let mut sorted = samples.clone();
        sorted.sort_unstable();
        for q in [0.1, 0.5, 0.9, 0.99] {
            let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
            let exact = sorted[rank - 1] as f64;
            let approx = hist.quantile(q).as_nanos() as f64;
            let err = (approx - exact).abs() / exact;
            prop_assert!(err <= 0.05, "q={q}: approx {approx} vs exact {exact}");
        }
        prop_assert_eq!(hist.summary().count, samples.len() as u64);
        prop_assert_eq!(hist.min().as_nanos(), sorted[0]);
        prop_assert_eq!(hist.max().as_nanos(), *sorted.last().unwrap());
        let exact_mean = samples.iter().sum::<u64>() / samples.len() as u64;
        let mean_err = (hist.mean().as_nanos() as i64 - exact_mean as i64).abs();
        prop_assert!(mean_err <= 1, "mean off by {mean_err}");
    }

    /// Merging histograms equals recording into one.
    #[test]
    fn merge_is_homomorphic(
        a in prop::collection::vec(1u64..1_000_000, 1..100),
        b in prop::collection::vec(1u64..1_000_000, 1..100),
    ) {
        let mut ha = LatencyHistogram::new();
        let mut hb = LatencyHistogram::new();
        let mut hc = LatencyHistogram::new();
        for &s in &a {
            ha.record(SimDuration::from_nanos(s));
            hc.record(SimDuration::from_nanos(s));
        }
        for &s in &b {
            hb.record(SimDuration::from_nanos(s));
            hc.record(SimDuration::from_nanos(s));
        }
        ha.merge(&hb);
        prop_assert_eq!(ha.summary().count, hc.summary().count);
        prop_assert_eq!(ha.mean(), hc.mean());
        for q in [0.25, 0.5, 0.75, 0.99] {
            prop_assert_eq!(ha.quantile(q), hc.quantile(q));
        }
    }

    /// A resource serialises any sequence of reservations: spans never
    /// overlap, never start before submission, and total busy time equals
    /// the sum of durations.
    #[test]
    fn resource_reservations_never_overlap(
        ops in prop::collection::vec((0u64..1000, 1u64..500), 1..100)
    ) {
        let mut resource = Resource::new();
        let mut last_end = SimTime::ZERO;
        let mut busy_total = 0u64;
        let mut now = SimTime::ZERO;
        for (advance, dur) in ops {
            now += SimDuration::from_nanos(advance);
            let r = resource.acquire(now, SimDuration::from_nanos(dur));
            prop_assert!(r.start >= now, "no time travel");
            prop_assert!(r.start >= last_end, "no overlap");
            prop_assert_eq!(r.end - r.start, SimDuration::from_nanos(dur));
            last_end = r.end;
            busy_total += dur;
        }
        prop_assert!(resource.free_at() >= SimTime::from_nanos(busy_total));
    }

    /// The event queue is a stable priority queue: pops come out sorted by
    /// time, FIFO within equal times.
    #[test]
    fn event_queue_is_stable_sorted(times in prop::collection::vec(0u64..50, 1..200)) {
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.push(SimTime::from_nanos(t), i);
        }
        let mut last: Option<(u64, usize)> = None;
        while let Some((t, i)) = q.pop() {
            if let Some((lt, li)) = last {
                prop_assert!(t.as_nanos() >= lt, "time ordered");
                if t.as_nanos() == lt {
                    prop_assert!(i > li, "FIFO at equal times");
                }
            }
            prop_assert_eq!(times[i], t.as_nanos());
            last = Some((t.as_nanos(), i));
        }
    }

    /// The RNG's `below` is uniform enough over small bounds (chi-squared
    /// style sanity bound) and deterministic per seed.
    #[test]
    fn rng_below_uniform(seed in any::<u64>()) {
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
            prop_assert!(dev < 0.15, "bucket {i}: {c} vs {expect}");
        }
        let mut a = SimRng::new(seed);
        let mut b = SimRng::new(seed);
        for _ in 0..32 {
            prop_assert_eq!(a.next_u64(), b.next_u64());
        }
    }
}
