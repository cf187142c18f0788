//! Latency statistics: an HDR-style log-bucketed histogram and a compact
//! summary used in benchmark reports.

use conzone_types::{to_index, SimDuration};

/// Number of linear sub-buckets per power-of-two magnitude. 32 gives a
/// worst-case quantile error of ~3 %.
const SUBBUCKETS: usize = 32;
const SUBBUCKET_BITS: u32 = 5;

/// A log-bucketed latency histogram with bounded relative error.
///
/// Records nanosecond durations; exposes quantiles, mean, min and max.
///
/// ```
/// use conzone_sim::LatencyHistogram;
/// use conzone_types::SimDuration;
///
/// let mut h = LatencyHistogram::new();
/// for us in [10u64, 20, 30, 40, 1000] {
///     h.record(SimDuration::from_micros(us));
/// }
/// assert_eq!(h.summary().count, 5);
/// assert!(h.quantile(0.99) >= SimDuration::from_micros(900));
/// ```
#[derive(Debug, Clone)]
pub struct LatencyHistogram {
    buckets: Vec<u64>,
    count: u64,
    sum_ns: u128,
    min_ns: u64,
    max_ns: u64,
}

fn bucket_index(value: u64) -> usize {
    // Values below SUBBUCKETS go to their own linear bucket; above that,
    // each power of two is split into SUBBUCKETS linear sub-buckets.
    if value < SUBBUCKETS as u64 {
        to_index(value)
    } else {
        let magnitude = 63 - value.leading_zeros();
        let shift = magnitude - SUBBUCKET_BITS;
        let sub = to_index((value >> shift) - SUBBUCKETS as u64);
        ((magnitude - SUBBUCKET_BITS + 1) as usize) * SUBBUCKETS + sub
    }
}

fn bucket_low(index: usize) -> u64 {
    if index < SUBBUCKETS {
        index as u64
    } else {
        let tier = index / SUBBUCKETS - 1;
        let sub = index % SUBBUCKETS;
        ((SUBBUCKETS + sub) as u64) << tier
    }
}

/// Midpoint of a bucket: the unbiased point estimate for samples known
/// only to lie somewhere inside it. Exact (== the value) for the linear
/// buckets below `SUBBUCKETS` and for the first tier, whose width is 1.
fn bucket_mid(index: usize) -> u64 {
    if index < SUBBUCKETS {
        index as u64
    } else {
        let tier = index / SUBBUCKETS - 1;
        // The bucket spans 2^tier values starting at its lower bound.
        bucket_low(index) + ((1u64 << tier) >> 1)
    }
}

impl LatencyHistogram {
    /// Creates an empty histogram.
    pub fn new() -> LatencyHistogram {
        LatencyHistogram {
            buckets: Vec::new(),
            count: 0,
            sum_ns: 0,
            min_ns: u64::MAX,
            max_ns: 0,
        }
    }

    /// Records one sample.
    pub fn record(&mut self, sample: SimDuration) {
        let ns = sample.as_nanos();
        let idx = bucket_index(ns);
        if idx >= self.buckets.len() {
            self.buckets.resize(idx + 1, 0);
        }
        self.buckets[idx] += 1;
        self.count += 1;
        self.sum_ns += u128::from(ns);
        self.min_ns = self.min_ns.min(ns);
        self.max_ns = self.max_ns.max(ns);
    }

    /// Merges another histogram into this one.
    pub fn merge(&mut self, other: &LatencyHistogram) {
        if other.buckets.len() > self.buckets.len() {
            self.buckets.resize(other.buckets.len(), 0);
        }
        for (dst, src) in self.buckets.iter_mut().zip(&other.buckets) {
            *dst += src;
        }
        self.count += other.count;
        self.sum_ns += other.sum_ns;
        self.min_ns = self.min_ns.min(other.min_ns);
        self.max_ns = self.max_ns.max(other.max_ns);
    }

    /// Mean latency; zero if empty.
    pub(crate) fn mean(&self) -> SimDuration {
        if self.count == 0 {
            SimDuration::ZERO
        } else {
            // A mean of u64 samples fits a u64.
            let mean = self.sum_ns / u128::from(self.count);
            SimDuration::from_nanos(u64::try_from(mean).unwrap_or(u64::MAX))
        }
    }

    /// Smallest recorded sample; zero if empty.
    pub(crate) fn min(&self) -> SimDuration {
        if self.count == 0 {
            SimDuration::ZERO
        } else {
            SimDuration::from_nanos(self.min_ns)
        }
    }

    /// Largest recorded sample; zero if empty.
    pub(crate) fn max(&self) -> SimDuration {
        SimDuration::from_nanos(self.max_ns)
    }

    /// The `q`-quantile (`0.0 ..= 1.0`) with ~1.6 % relative error; zero
    /// if empty.
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `[0, 1]`.
    pub fn quantile(&self, q: f64) -> SimDuration {
        assert!((0.0..=1.0).contains(&q), "quantile {q} out of range");
        if self.count == 0 {
            return SimDuration::ZERO;
        }
        #[expect(
            clippy::cast_possible_truncation,
            reason = "a float-to-int `as` saturates, and the rank is clamped to the sample count"
        )]
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (idx, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                // Report the bucket's midpoint clamped to the observed
                // range: the lower bound systematically under-reports by
                // up to a full sub-bucket width, the midpoint is unbiased.
                return SimDuration::from_nanos(bucket_mid(idx).clamp(self.min_ns, self.max_ns));
            }
        }
        SimDuration::from_nanos(self.max_ns)
    }

    /// Condensed percentile summary for reports.
    pub fn summary(&self) -> LatencySummary {
        LatencySummary {
            count: self.count,
            mean: self.mean(),
            min: self.min(),
            p50: self.quantile(0.50),
            p90: self.quantile(0.90),
            p99: self.quantile(0.99),
            p999: self.quantile(0.999),
            max: self.max(),
        }
    }
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram::new()
    }
}

/// Percentile summary of a latency distribution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LatencySummary {
    /// Samples recorded.
    pub count: u64,
    /// Mean latency.
    pub mean: SimDuration,
    /// Minimum latency.
    pub min: SimDuration,
    /// Median.
    pub p50: SimDuration,
    /// 90th percentile.
    pub p90: SimDuration,
    /// 99th percentile.
    pub p99: SimDuration,
    /// 99.9th percentile (the paper's tail-latency metric, Figs. 7–8).
    pub p999: SimDuration,
    /// Maximum latency.
    pub max: SimDuration,
}

impl core::fmt::Display for LatencySummary {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "n={} mean={} p50={} p99={} p99.9={} max={}",
            self.count, self.mean, self.p50, self.p99, self.p999, self.max
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_monotonic() {
        let mut last = 0usize;
        for v in 0..100_000u64 {
            let idx = bucket_index(v);
            assert!(idx >= last, "index decreased at {v}");
            last = idx;
        }
    }

    #[test]
    fn bucket_low_bounds_value() {
        for v in [
            0u64,
            1,
            31,
            32,
            33,
            100,
            1_000,
            123_456,
            u64::from(u32::MAX),
        ] {
            let idx = bucket_index(v);
            let low = bucket_low(idx);
            assert!(low <= v, "low {low} > value {v}");
            // Relative error bounded by one sub-bucket width.
            if v >= SUBBUCKETS as u64 {
                assert!((v - low) as f64 / v as f64 <= 1.0 / SUBBUCKETS as f64 + 1e-9);
            } else {
                assert_eq!(low, v);
            }
        }
    }

    #[test]
    fn exact_for_small_values() {
        let mut h = LatencyHistogram::new();
        for ns in [1u64, 2, 3, 4, 5] {
            h.record(SimDuration::from_nanos(ns));
        }
        assert_eq!(h.quantile(0.0).as_nanos(), 1);
        assert_eq!(h.quantile(0.5).as_nanos(), 3);
        assert_eq!(h.quantile(1.0).as_nanos(), 5);
        assert_eq!(h.mean().as_nanos(), 3);
        assert_eq!(h.min().as_nanos(), 1);
        assert_eq!(h.max().as_nanos(), 5);
    }

    #[test]
    fn quantile_relative_error_bounded() {
        let mut h = LatencyHistogram::new();
        for us in 1..=10_000u64 {
            h.record(SimDuration::from_micros(us));
        }
        for (q, expect_us) in [(0.5, 5_000.0), (0.9, 9_000.0), (0.99, 9_900.0)] {
            let got = h.quantile(q).as_nanos() as f64 / 1000.0;
            let err = (got - expect_us).abs() / expect_us;
            // Midpoint reporting halves the one-sided bucket-width error
            // of the old lower-bound estimate.
            assert!(err < 0.02, "q={q}: got {got}, want ~{expect_us}");
        }
    }

    #[test]
    fn merge_equals_combined_recording() {
        let mut a = LatencyHistogram::new();
        let mut b = LatencyHistogram::new();
        let mut c = LatencyHistogram::new();
        for i in 0..1000u64 {
            let d = SimDuration::from_nanos(i * 37 % 100_000);
            if i % 2 == 0 {
                a.record(d);
            } else {
                b.record(d);
            }
            c.record(d);
        }
        a.merge(&b);
        assert_eq!(a.summary().count, c.summary().count);
        assert_eq!(a.mean(), c.mean());
        assert_eq!(a.quantile(0.99), c.quantile(0.99));
    }

    #[test]
    fn empty_histogram_is_zeroes() {
        let h = LatencyHistogram::new();
        assert_eq!(h.summary().count, 0);
        assert_eq!(h.mean(), SimDuration::ZERO);
        assert_eq!(h.quantile(0.99), SimDuration::ZERO);
        let s = h.summary();
        assert_eq!(s.count, 0);
    }

    #[test]
    fn summary_orders_percentiles() {
        let mut h = LatencyHistogram::new();
        let mut rng = crate::SimRng::new(11);
        for _ in 0..10_000 {
            h.record(SimDuration::from_nanos(1_000 + rng.below(999_000)));
        }
        let s = h.summary();
        assert!(s.min <= s.p50 && s.p50 <= s.p90);
        assert!(s.p90 <= s.p99 && s.p99 <= s.p999 && s.p999 <= s.max);
    }

    #[test]
    fn merge_with_empty_is_identity_both_ways() {
        let mut full = LatencyHistogram::new();
        for ns in [7u64, 400, 65_000, 1_000_000] {
            full.record(SimDuration::from_nanos(ns));
        }
        let reference = full.clone();

        // full ∪ ∅ = full.
        full.merge(&LatencyHistogram::new());
        assert_eq!(full.summary().count, reference.summary().count);
        assert_eq!(full.min(), reference.min());
        assert_eq!(full.max(), reference.max());
        assert_eq!(full.mean(), reference.mean());
        assert_eq!(full.summary(), reference.summary());

        // ∅ ∪ full = full — the empty side's sentinel min must not leak.
        let mut empty = LatencyHistogram::new();
        empty.merge(&reference);
        assert_eq!(empty.summary().count, reference.summary().count);
        assert_eq!(empty.min(), reference.min());
        assert_eq!(empty.summary(), reference.summary());

        // ∅ ∪ ∅ stays empty.
        let mut e = LatencyHistogram::new();
        e.merge(&LatencyHistogram::new());
        assert_eq!(e.summary().count, 0);
        assert_eq!(e.min(), SimDuration::ZERO);
        assert_eq!(e.summary().p999, SimDuration::ZERO);
    }

    #[test]
    fn single_sample_pins_every_quantile() {
        let mut h = LatencyHistogram::new();
        let d = SimDuration::from_micros(123);
        h.record(d);
        for q in [0.0, 0.001, 0.5, 0.9, 0.99, 0.999, 1.0] {
            assert_eq!(h.quantile(q), d, "q={q}");
        }
        let s = h.summary();
        assert_eq!(s.count, 1);
        assert_eq!(s.mean, d);
        assert_eq!(s.min, d);
        assert_eq!(s.p50, d);
        assert_eq!(s.p999, d);
        assert_eq!(s.max, d);
    }

    mod bucket_props {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

            /// Every bucket's lower bound really is a lower bound, over the
            /// whole u64 domain (including the top tier near `u64::MAX`).
            #[test]
            fn bucket_low_is_a_lower_bound(v in any::<u64>()) {
                let low = bucket_low(bucket_index(v));
                prop_assert!(low <= v, "bucket_low {low} > value {v}");
            }

            /// Round-tripping the lower bound through `bucket_index` lands
            /// back in the same bucket (lower bounds are canonical).
            #[test]
            fn bucket_low_is_in_its_own_bucket(v in any::<u64>()) {
                let idx = bucket_index(v);
                prop_assert_eq!(bucket_index(bucket_low(idx)), idx);
            }
        }
    }
}
