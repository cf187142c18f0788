//! Order statistics over small samples of wall-clock measurements.
//!
//! The quartile rule is the one Python's `statistics.quantiles(v, n=4)`
//! uses (method "exclusive"), because that is what the acceptance driver
//! computes run-to-run spread with: `bench.rep_iqr_share` then means the
//! same thing inside one run as the driver's figure does across runs.

/// Sorted copy of `values` (NaN-free input; wall times and counts only).
fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("benchmark samples are never NaN"));
    v
}

/// Median; 0 for an empty sample.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First quartile, median and third quartile. With fewer than two samples
/// all three are the median.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let v = sorted(values);
    let m = v.len();
    let mid = median(&v);
    if m < 2 {
        return (mid, mid, mid);
    }
    let cut = |i: usize| {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), mid, cut(3))
}

/// Distance between the quartiles as a share of the median; 0 when the
/// median is 0.
pub fn iqr_share(values: &[f64]) -> f64 {
    let (q1, mid, q3) = quartiles(values);
    if mid == 0.0 {
        0.0
    } else {
        (q3 - q1) / mid
    }
}

/// The highest percentile that still has at least ten samples beyond it,
/// as `(percentile in 0..=100, value)`. A sample of fewer than eleven has
/// no such percentile; it reports its maximum as percentile 100 so the
/// reader sees the tail is unsupported.
pub fn supported_tail(values: &[f64]) -> (f64, f64) {
    let v = sorted(values);
    let n = v.len();
    if n == 0 {
        return (100.0, 0.0);
    }
    if n < 11 {
        return (100.0, v[n - 1]);
    }
    let idx = n - 11;
    ((idx + 1) as f64 * 100.0 / n as f64, v[idx])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([7, 1, 5, 3, 9, 11, 13], n=4) == [3.0, 7.0, 11.0]
        assert_eq!(
            quartiles(&[7.0, 1.0, 5.0, 3.0, 9.0, 11.0, 13.0]),
            (3.0, 7.0, 11.0)
        );
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 1.5, 2.25));
        assert_eq!(quartiles(&[5.0]), (5.0, 5.0, 5.0));
    }

    #[test]
    fn iqr_share_is_relative_to_the_median() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((iqr_share(&v) - 1.0).abs() < 1e-12);
        assert_eq!(iqr_share(&[0.0, 0.0, 0.0]), 0.0);
    }

    #[test]
    fn supported_tail_leaves_ten_samples_beyond() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(supported_tail(&v), (90.0, 90.0));
        let v: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(supported_tail(&v), (50.0, 10.0));
        // Too few samples: the maximum, flagged as percentile 100.
        assert_eq!(supported_tail(&[3.0, 9.0, 1.0]), (100.0, 9.0));
    }
}
