//! Order statistics over latency samples.
//!
//! A failed operation enters a sample as `f64::INFINITY`: it counts as
//! missing every latency percentile instead of being dropped.

/// Percentiles the tail ladder considers, highest first.
const LADDER: [f64; 4] = [99.9, 99.0, 90.0, 50.0];

/// Samples that must lie beyond a percentile for it to be reported.
pub const MIN_BEYOND: usize = 10;

/// Sorts a latency sample ascending (failures, as infinities, last).
pub fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(f64::total_cmp);
    values
}

/// Nearest-rank index of percentile `p` in a sample of `n`, computed in
/// integer per-mille so that e.g. p99.9 of 10 000 lands exactly on rank
/// 9 990.
fn rank(n: usize, p: f64) -> usize {
    let per_mille = (p * 10.0).round() as usize;
    let r = (per_mille * n).div_ceil(1000);
    r.clamp(1, n.max(1)) - 1
}

/// Nearest-rank percentile `p` (0–100) of an ascending sample.
///
/// # Panics
///
/// Panics on an empty sample.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    sorted[rank(sorted.len(), p)]
}

/// Samples that lie beyond percentile `p` in a sample of `n`.
pub fn beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - rank(n, p) - 1
    }
}

/// The highest ladder percentile (99.9, 99, 90, 50) that leaves at least
/// [`MIN_BEYOND`] samples beyond it in a sample of `n`, if any does.
pub fn highest_reportable(n: usize) -> Option<f64> {
    LADDER.into_iter().find(|&p| beyond(n, p) >= MIN_BEYOND)
}

/// The smallest sample size that leaves [`MIN_BEYOND`] samples beyond
/// percentile `p`.
pub fn min_samples(p: f64) -> usize {
    (1..)
        .find(|&n| beyond(n, p) >= MIN_BEYOND)
        .expect("some size qualifies")
}

/// Percentile `p` of a sample kept in completion order, estimated as the
/// median over `windows` consecutive equal blocks of each block's
/// percentile: a burst of host noise then moves one block, not the
/// estimate. One window is the plain percentile.
///
/// # Panics
///
/// Panics on an empty sample.
pub fn windowed_percentile(in_order: &[f64], p: f64, windows: usize) -> f64 {
    let windows = windows.clamp(1, in_order.len().max(1));
    let size = in_order.len() / windows;
    let per_window: Vec<f64> = (0..windows)
        .map(|w| {
            let end = if w + 1 == windows {
                in_order.len()
            } else {
                (w + 1) * size
            };
            percentile(&sorted(in_order[w * size..end].to_vec()), p)
        })
        .collect();
    median(&per_window)
}

/// Median of an unsorted sample (mean of the middle pair for even sizes).
///
/// # Panics
///
/// Panics on an empty sample.
pub fn median(values: &[f64]) -> f64 {
    let s = sorted(values.to_vec());
    let n = s.len();
    assert!(n > 0, "median of an empty sample");
    if n % 2 == 1 {
        s[n / 2]
    } else {
        0.5 * (s[n / 2 - 1] + s[n / 2])
    }
}

/// Arithmetic mean; 0 for an empty sample.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Geometric mean of positive values; 0 for an empty sample.
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn highest_reportable_leaves_ten_samples_beyond() {
        assert_eq!(highest_reportable(10_000), Some(99.9));
        assert_eq!(highest_reportable(9_999), Some(99.0));
        assert_eq!(highest_reportable(1_000), Some(99.0));
        assert_eq!(highest_reportable(999), Some(90.0));
        assert_eq!(highest_reportable(100), Some(90.0));
        assert_eq!(highest_reportable(99), Some(50.0));
        assert_eq!(highest_reportable(20), Some(50.0));
        assert_eq!(highest_reportable(19), None);
        assert_eq!(highest_reportable(0), None);
        for n in 0..3_000 {
            if let Some(p) = highest_reportable(n) {
                assert!(beyond(n, p) >= MIN_BEYOND, "n={n} p={p}");
                let higher = LADDER.iter().take_while(|&&q| q > p);
                for &q in higher {
                    assert!(beyond(n, q) < MIN_BEYOND, "n={n}: p{q} also qualifies");
                }
            }
        }
    }

    #[test]
    fn nearest_rank_percentiles() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&s, 50.0), 50.0);
        assert_eq!(percentile(&s, 90.0), 90.0);
        assert_eq!(percentile(&s, 99.0), 99.0);
        assert_eq!(percentile(&s, 100.0), 100.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
    }

    #[test]
    fn failures_count_as_missing_the_percentile() {
        let mut v: Vec<f64> = (1..=100).map(f64::from).collect();
        v.extend([f64::INFINITY; 12]);
        let s = sorted(v);
        assert!(percentile(&s, 90.0).is_infinite());
        assert_eq!(percentile(&s, 50.0), 56.0);
    }

    #[test]
    fn minimum_sizes_leave_ten_beyond() {
        assert_eq!(min_samples(50.0), 20);
        assert_eq!(min_samples(90.0), 100);
        assert_eq!(min_samples(99.0), 1_000);
    }

    #[test]
    fn windowed_percentile_ignores_one_noisy_window() {
        let mut v: Vec<f64> = (0..400).map(|i| f64::from(i % 100)).collect();
        // A burst in the second window only.
        for x in &mut v[100..200] {
            *x += 1000.0;
        }
        assert_eq!(windowed_percentile(&v, 90.0, 1), 1059.0);
        assert_eq!(windowed_percentile(&v, 90.0, 4), 89.0);
    }

    #[test]
    fn median_mean_geomean() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(mean(&[1.0, 2.0, 3.0]), 2.0);
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
    }
}
