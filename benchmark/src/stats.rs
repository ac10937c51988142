//! Exact order statistics. Latency samples are kept whole and sorted —
//! no histogram, so a percentile is a value that was actually observed.

/// 1-based nearest rank of the `p`-th percentile among `n` samples (0
/// when there are none).
fn rank(n: usize, p: f64) -> usize {
    ((p / 100.0 * n as f64).ceil() as usize).clamp(n.min(1), n)
}

/// Nearest-rank percentile of an ascending slice: the smallest sample
/// with at least `p`% of the samples at or below it. `None` when empty.
pub fn percentile<T: Copy>(sorted: &[T], p: f64) -> Option<T> {
    sorted.get(rank(sorted.len(), p).checked_sub(1)?).copied()
}

/// How many of `n` samples lie strictly beyond the `p`-th percentile's
/// rank (the guide wants at least ten).
pub fn samples_beyond(n: usize, p: f64) -> usize {
    n - rank(n, p)
}

/// Median with the two middle values averaged on even counts.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First and third quartile exactly as Python's
/// `statistics.quantiles(values, n=4)` computes them (the exclusive
/// method), which is what the driver's spread check uses.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 2 {
        let only = v.first().copied().unwrap_or(f64::NAN);
        return (only, only);
    }
    let at = |quarter: usize| {
        let j = (quarter * (n + 1) / 4).clamp(1, n - 1);
        let delta = (quarter * (n + 1)) as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    (at(1), at(3))
}

/// Interquartile range as a share of the median — the driver's spread.
pub fn spread(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    (q3 - q1) / median(values)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank_on_observed_values() {
        let s: Vec<u64> = (1..=10).collect();
        assert_eq!(percentile(&s, 50.0), Some(5));
        assert_eq!(percentile(&s, 90.0), Some(9));
        assert_eq!(percentile(&s, 91.0), Some(10));
        assert_eq!(percentile(&s, 100.0), Some(10));
        assert_eq!(percentile(&s, 0.0), Some(1));
        assert_eq!(percentile(&[7u64], 90.0), Some(7));
        assert_eq!(percentile::<u64>(&[], 50.0), None);
        // 101 samples: p90 is the 91st, ten lie beyond it.
        let s: Vec<u64> = (0..101).collect();
        assert_eq!(percentile(&s, 90.0), Some(90));
        assert_eq!(samples_beyond(101, 90.0), 10);
        assert_eq!(samples_beyond(10, 50.0), 5);
        assert_eq!(samples_beyond(0, 50.0), 0);
    }

    #[test]
    fn median_and_quartiles_match_python_statistics() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        assert!((spread(&v) - 1.0).abs() < 1e-12);
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(quartiles(&[16.0, 1.0, 8.0, 2.0, 4.0]), (1.5, 12.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
    }
}
