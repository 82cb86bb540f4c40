//! Sample statistics: medians, nearest-rank percentiles, and the tail rule.
//!
//! A latency is reported as its median plus the highest percentile of the
//! ladder [`TAIL_LADDER`] that still has at least [`TAIL_MIN_BEYOND`]
//! samples beyond it, so a tail figure never rests on a handful of points.

/// Percentiles a tail may be reported at, highest first.
pub const TAIL_LADDER: [f64; 3] = [99.0, 90.0, 50.0];

/// Samples that must lie beyond a percentile before it is reported.
pub const TAIL_MIN_BEYOND: usize = 10;

/// The nearest-rank `p`-th percentile (`0 < p <= 100`) of ascending
/// `sorted`: the smallest sample with at least `p`% of samples at or
/// below it.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    sorted[rank(sorted.len(), p) - 1]
}

/// 1-based nearest rank of the `p`-th percentile among `n` samples.
fn rank(n: usize, p: f64) -> usize {
    ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n)
}

/// The highest ladder percentile with at least [`TAIL_MIN_BEYOND`] samples
/// strictly beyond its rank among `n` samples, or `None` when even the
/// median has fewer.
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAIL_LADDER.into_iter().find(|&p| n >= rank(n.max(1), p) + TAIL_MIN_BEYOND)
}

/// Median plus tail of a latency sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub n: usize,
    /// The median.
    pub p50: f64,
    /// The percentile the tail was taken at. A sample too small for any
    /// ladder percentile has no tail beyond its median, so the tail is
    /// the median.
    pub tail_at: f64,
    /// The tail value.
    pub tail: f64,
}

/// Summarises `samples` (any order).
pub fn summarize(samples: &[f64]) -> Summary {
    let mut sorted = samples.to_vec();
    sorted.sort_unstable_by(f64::total_cmp);
    let p50 = percentile(&sorted, 50.0);
    let tail_at = tail_percentile(sorted.len()).unwrap_or(50.0);
    let tail = percentile(&sorted, tail_at);
    Summary { n: sorted.len(), p50, tail_at, tail }
}

/// The median of `values` (mean of the middle pair for even counts).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let mut v = values.to_vec();
    v.sort_unstable_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// The `p`-th percentile of `values`, or 0 for an empty sample — for
/// per-layer figures of a layer that did no work in the run.
pub fn percentile_or_zero(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_unstable_by(f64::total_cmp);
    percentile(&v, p)
}

/// The mean of `values`, or 0 for an empty sample.
pub fn mean_or_zero(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
    }

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
        // p99 of 1000 samples is rank 990: exactly 10 beyond it.
        assert_eq!(tail_percentile(1000), Some(99.0));
        // 999 samples: p99 is rank 990, only 9 beyond -> fall to p90.
        assert_eq!(tail_percentile(999), Some(90.0));
        // p90 of 100 is rank 90: 10 beyond.
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(99), Some(50.0));
        // p50 of 20 is rank 10: 10 beyond.
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(0), None);
    }

    #[test]
    fn summary_falls_back_to_the_median_on_small_samples() {
        let s = summarize(&[3.0, 1.0, 2.0]);
        assert_eq!((s.n, s.p50, s.tail_at, s.tail), (3, 2.0, 50.0, 2.0));
        let big: Vec<f64> = (1..=1000).rev().map(f64::from).collect();
        let s = summarize(&big);
        assert_eq!((s.p50, s.tail_at, s.tail), (500.0, 99.0, 990.0));
    }

    #[test]
    fn medians_and_empty_fallbacks() {
        assert_eq!(median(&[4.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(percentile_or_zero(&[], 50.0), 0.0);
        assert_eq!(mean_or_zero(&[]), 0.0);
        assert_eq!(mean_or_zero(&[1.0, 3.0]), 2.0);
    }
}
