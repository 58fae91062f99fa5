//! Summary statistics for timing samples.
//!
//! The percentile rule: a tail percentile is only reported when at least
//! [`MIN_BEYOND`] samples lie beyond it, and every summary carries its
//! sample count, so a tail never rests on a handful of outliers.

use std::collections::BTreeMap;

/// Samples that must lie strictly beyond a reported tail percentile.
pub const MIN_BEYOND: usize = 10;

/// Candidate tail percentiles, highest first.
const TAILS: [f64; 6] = [0.999, 0.99, 0.95, 0.90, 0.80, 0.50];

/// 1-based rank of the nearest-rank percentile `p` among `n` samples.
fn rank(n: usize, p: f64) -> usize {
    ((n as f64 * p).ceil() as usize).clamp(1, n.max(1))
}

/// `true` when `n` samples leave at least [`MIN_BEYOND`] beyond the
/// nearest-rank percentile `p`.
pub fn supports(n: usize, p: f64) -> bool {
    n > 0 && n - rank(n, p) >= MIN_BEYOND
}

/// The highest candidate percentile that `n` samples support, if any.
pub fn highest_supported(n: usize) -> Option<f64> {
    TAILS.iter().copied().find(|&p| supports(n, p))
}

/// Nearest-rank percentile of an ascending-sorted slice (`0.0` if empty).
pub fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    sorted[rank(sorted.len(), p) - 1]
}

/// Median of unsorted samples (mean of the middle pair for even counts).
pub fn median(samples: &[f64]) -> f64 {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => v[n / 2],
        _ => 0.5 * (v[n / 2 - 1] + v[n / 2]),
    }
}

/// Median rate over consecutive windows of `per_window` operations: each
/// window's rate is `items_per_op * ops / sum(durations)`. A slow outlier
/// then moves one window, not the whole run's rate; a trailing partial
/// window is dropped unless it is the only one.
pub fn windowed_rate(durations_s: &[f64], per_window: usize, items_per_op: f64) -> f64 {
    let rates: Vec<f64> = durations_s
        .chunks(per_window.max(1))
        .filter(|w| w.len() == per_window || durations_s.len() < per_window)
        .map(|w| items_per_op * w.len() as f64 / w.iter().sum::<f64>())
        .collect();
    median(&rates)
}

/// Median over time windows of `window` seconds of each window's median
/// value, for `(time, value)` samples. Windows with fewer than
/// [`MIN_BEYOND`] samples are skipped unless none has that many.
pub fn windowed_median(samples: &[(f64, f64)], window: f64) -> f64 {
    let mut by_window: BTreeMap<i64, Vec<f64>> = BTreeMap::new();
    for &(t, v) in samples {
        by_window
            .entry((t / window).floor() as i64)
            .or_default()
            .push(v);
    }
    let full: Vec<f64> = by_window
        .values()
        .filter(|v| v.len() >= MIN_BEYOND)
        .map(|v| median(v))
        .collect();
    if full.is_empty() {
        median(&samples.iter().map(|s| s.1).collect::<Vec<_>>())
    } else {
        median(&full)
    }
}

/// Latency summary: median, a named tail, and the sample count.
#[derive(Clone, Debug, PartialEq)]
pub struct Summary {
    /// Sample count.
    pub n: usize,
    /// Median.
    pub p50: f64,
    /// The highest percentile the sample count supports (`None` below
    /// [`MIN_BEYOND`] + 1 samples).
    pub tail_p: Option<f64>,
    /// Value at `tail_p`.
    pub tail: f64,
}

impl Summary {
    /// Summarizes unsorted samples.
    pub fn of(samples: &[f64]) -> Self {
        let mut v = samples.to_vec();
        v.sort_by(f64::total_cmp);
        let tail_p = highest_supported(v.len());
        Self {
            n: v.len(),
            p50: median(&v),
            tail_p,
            tail: tail_p.map(|p| percentile_sorted(&v, p)).unwrap_or(0.0),
        }
    }

    /// Value at percentile `p`, or `None` when the sample count does not
    /// support it.
    pub fn at(samples: &[f64], p: f64) -> Option<f64> {
        let mut v = samples.to_vec();
        v.sort_by(f64::total_cmp);
        supports(v.len(), p).then(|| percentile_sorted(&v, p))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p90_needs_a_hundred_samples() {
        // rank(100, 0.9) = 90, leaving exactly 10 beyond.
        assert!(supports(100, 0.90));
        assert!(!supports(99, 0.90));
        assert_eq!(highest_supported(100), Some(0.90));
        assert_eq!(highest_supported(99), Some(0.80));
    }

    #[test]
    fn p99_needs_a_thousand_samples() {
        assert!(supports(1000, 0.99));
        assert!(!supports(999, 0.99));
        assert_eq!(highest_supported(1000), Some(0.99));
        assert_eq!(highest_supported(10_000), Some(0.999));
    }

    #[test]
    fn too_few_samples_support_no_tail() {
        assert_eq!(highest_supported(0), None);
        assert_eq!(highest_supported(10), None);
        assert_eq!(highest_supported(20), Some(0.50));
        let s = Summary::of(&[3.0, 1.0, 2.0]);
        assert_eq!((s.n, s.p50, s.tail_p), (3, 2.0, None));
    }

    #[test]
    fn windowed_rate_ignores_one_slow_window() {
        // Windows of 2 ops: rates 10, 10, 1 and 10 items/s; median 10.
        let d = [0.1, 0.1, 0.1, 0.1, 1.0, 1.0, 0.1, 0.1];
        assert_eq!(windowed_rate(&d, 2, 1.0), 10.0);
        // A trailing partial window is dropped...
        assert_eq!(windowed_rate(&[0.5, 0.5, 9.0], 2, 4.0), 8.0);
        // ...unless it is all there is.
        assert_eq!(windowed_rate(&[0.25], 2, 1.0), 4.0);
    }

    #[test]
    fn windowed_median_damps_one_bad_window() {
        // Three one-second windows of 10 samples: medians 2, 9 and 3.
        let mut s: Vec<(f64, f64)> = Vec::new();
        for (w, v) in [(0.0, 2.0), (1.0, 9.0), (2.0, 3.0)] {
            s.extend((0..10).map(|i| (w + 0.05 * f64::from(i), v)));
        }
        assert_eq!(windowed_median(&s, 1.0), 3.0);
        // A sparse window is ignored; with no full window, plain median.
        s.push((3.5, 100.0));
        assert_eq!(windowed_median(&s, 1.0), 3.0);
        assert_eq!(
            windowed_median(&[(0.0, 1.0), (5.0, 4.0), (9.0, 7.0)], 1.0),
            4.0
        );
    }

    #[test]
    fn nearest_rank_values() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile_sorted(&v, 0.90), 90.0);
        assert_eq!(percentile_sorted(&v, 0.50), 50.0);
        assert_eq!(Summary::at(&v, 0.90), Some(90.0));
        assert_eq!(Summary::at(&v, 0.99), None);
        let s = Summary::of(&v);
        assert_eq!((s.n, s.tail_p, s.tail), (100, Some(0.90), 90.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}
