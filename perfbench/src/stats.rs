//! Order statistics over measured samples.

/// Median of a sample (mean of the two middle values for an even count).
///
/// # Panics
///
/// Panics on an empty sample or a NaN.
pub fn median(samples: &[f64]) -> f64 {
    let sorted = sorted(samples);
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile of an ascending sample: the smallest value
/// with at least `p` percent of the sample at or below it.
///
/// # Panics
///
/// Panics on an empty sample.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    sorted[rank(sorted.len(), p) - 1]
}

/// 1-based nearest rank of the `p`-th percentile in a sample of `n`.
fn rank(n: usize, p: f64) -> usize {
    ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n)
}

/// Number of samples strictly beyond the `p`-th percentile's rank.
pub fn beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - rank(n, p)
    }
}

/// A latency sample reduced to what the benchmark reports: the count, the
/// median, and the 99th percentile with whether at least ten samples lie
/// beyond it (the smallest tail a percentile is trusted on).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    /// Sample count.
    pub n: usize,
    /// Median (nearest rank).
    pub p50: f64,
    /// 99th percentile (nearest rank).
    pub p99: f64,
    /// `true` when at least ten samples lie beyond `p99`.
    pub p99_supported: bool,
    /// Largest sample.
    pub max: f64,
}

impl Summary {
    /// Summarizes a non-empty sample.
    ///
    /// # Panics
    ///
    /// Panics on an empty sample or a NaN.
    pub fn of(samples: &[f64]) -> Summary {
        let sorted = sorted(samples);
        Summary {
            n: sorted.len(),
            p50: percentile(&sorted, 50.0),
            p99: percentile(&sorted, 99.0),
            p99_supported: beyond(sorted.len(), 99.0) >= 10,
            max: *sorted.last().expect("non-empty"),
        }
    }
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    assert!(!samples.is_empty(), "statistic of an empty sample");
    let mut v = samples.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("NaN in sample"));
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[5.0], 99.0), 5.0);
    }

    #[test]
    fn p99_needs_ten_samples_beyond_it() {
        // 999 samples: rank 990, nine beyond. 1000 samples: ten beyond.
        assert_eq!(beyond(999, 99.0), 9);
        assert_eq!(beyond(1000, 99.0), 10);
        let small: Vec<f64> = (0..999).map(f64::from).collect();
        assert!(!Summary::of(&small).p99_supported);
        let big: Vec<f64> = (0..1000).map(f64::from).collect();
        let s = Summary::of(&big);
        assert!(s.p99_supported);
        assert_eq!((s.n, s.p50, s.p99, s.max), (1000, 499.0, 989.0, 999.0));
    }

    #[test]
    fn summary_ignores_input_order() {
        let a = Summary::of(&[5.0, 1.0, 4.0, 2.0, 3.0]);
        let b = Summary::of(&[1.0, 2.0, 3.0, 4.0, 5.0]);
        assert_eq!(a, b);
        assert_eq!(a.p50, 3.0);
    }
}
