//! Order statistics and frequency tables.
//!
//! The paper identifies "median calculations and counts over predicates"
//! as the two database operations Charles performs (§5.1), and notes that
//! medians are "a major bottleneck" for which sampling is the proposed
//! remedy (§5.2). This module provides:
//!
//! * [`exact_median`] / [`quantile_value`] — linear-time selection
//!   (`slice::select_nth_unstable_by`) over a scratch buffer;
//! * [`FrequencyTable`] — per-value counts for nominal columns, with the
//!   paper's two orderings (by descending frequency for low-cardinality
//!   columns, alphabetical otherwise) and the accumulated-frequency split
//!   search used by nominal CUTs.

use crate::error::{StoreError, StoreResult};

/// Exact median of a slice (destructive: reorders the buffer).
///
/// For even counts this returns the lower-median/upper-median midpoint,
/// i.e. the conventional arithmetic median the paper calls for.
pub fn exact_median(values: &mut [f64]) -> StoreResult<f64> {
    if values.is_empty() {
        return Err(StoreError::Empty("median of empty set".into()));
    }
    let n = values.len();
    if n % 2 == 1 {
        Ok(select_kth(values, n / 2))
    } else {
        let hi = select_kth(values, n / 2);
        // After select_kth, elements left of n/2 are all ≤ hi; the lower
        // median is the max of that (non-empty) prefix. Taken in the same
        // total order it is the rank n/2 − 1 element — one bit pattern,
        // -0.0 and +0.0 included, however the selection arranged them.
        let below = values[..n / 2].iter().copied();
        let lo = below.max_by(f64::total_cmp).unwrap_or(hi);
        Ok((lo + hi) / 2.0)
    }
}

/// The value at quantile `q ∈ [0,1]` (nearest-rank; destructive).
pub fn quantile_value(values: &mut [f64], q: f64) -> StoreResult<f64> {
    if values.is_empty() {
        return Err(StoreError::Empty("quantile of empty set".into()));
    }
    if !(0.0..=1.0).contains(&q) {
        return Err(StoreError::Parse(format!("quantile {q} outside [0,1]")));
    }
    let n = values.len();
    let k = ((q * n as f64).ceil() as usize).clamp(1, n) - 1;
    Ok(select_kth(values, k))
}

/// Value of rank `k` (0-based) in ascending `total_cmp` order, by the
/// standard library's introselect: O(n) worst case, and under a total
/// order the rank-`k` element is one bit pattern whatever the partition.
pub fn select_kth(values: &mut [f64], k: usize) -> f64 {
    assert!(k < values.len(), "rank {k} out of range {}", values.len());
    *values.select_nth_unstable_by(k, f64::total_cmp).1
}

/// Mean and population variance of a slice, in index order. `None` for an
/// empty slice. Shared by every backend: each gathers in row order and
/// folds here, which is what makes the results bitwise identical.
pub fn mean_and_var_of(values: &[f64]) -> Option<(f64, f64)> {
    if values.is_empty() {
        return None;
    }
    let n = values.len() as f64;
    let mean = values.iter().sum::<f64>() / n;
    let var = values.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / n;
    Some((mean, var))
}

/// Per-value frequency counts for a nominal column restricted to a
/// selection. Entries hold `(dictionary code, count)`.
#[derive(Debug, Clone)]
pub struct FrequencyTable {
    entries: Vec<(u32, usize)>,
    total: usize,
}

impl FrequencyTable {
    /// Build from raw per-code counts (index = dictionary code).
    pub fn from_counts(counts: Vec<usize>) -> FrequencyTable {
        let total = counts.iter().sum();
        let entries = counts
            .into_iter()
            .enumerate()
            .filter(|&(_, c)| c > 0)
            .map(|(code, c)| (code as u32, c))
            .collect();
        FrequencyTable { entries, total }
    }

    /// Number of distinct values present.
    pub fn cardinality(&self) -> usize {
        self.entries.len()
    }

    /// Total number of counted rows.
    pub fn total(&self) -> usize {
        self.total
    }

    /// Entries `(code, count)` in unspecified order.
    pub fn entries(&self) -> &[(u32, usize)] {
        &self.entries
    }

    /// Entries sorted by descending frequency (count ties broken by code so
    /// the order is deterministic). The paper's ordering for
    /// low-cardinality nominal columns.
    pub fn by_frequency(&self) -> Vec<(u32, usize)> {
        let mut v = self.entries.clone();
        v.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        v
    }

    /// Entries sorted alphabetically by their dictionary string. The
    /// paper's ordering for high-cardinality nominal columns.
    pub fn alphabetical(&self, dict: &[String]) -> Vec<(u32, usize)> {
        let mut v = self.entries.clone();
        v.sort_by(|a, b| dict[a.0 as usize].cmp(&dict[b.0 as usize]));
        v
    }

    /// Given an ordering of the entries, find the split position whose
    /// accumulated frequency is closest to 50% ("we set medk at the value
    /// for which the accumulated frequency is the closest to 50%").
    ///
    /// Returns `(split_index, prefix_count)` where the "left" piece is
    /// `ordered[..split_index]` — guaranteed non-empty on both sides when
    /// `ordered.len() ≥ 2`; returns `None` otherwise.
    pub fn half_split(ordered: &[(u32, usize)]) -> Option<(usize, usize)> {
        if ordered.len() < 2 {
            return None;
        }
        let total: usize = ordered.iter().map(|e| e.1).sum();
        let half = total as f64 / 2.0;
        let mut best: Option<(usize, usize)> = None;
        let mut acc = 0usize;
        // Split positions 1..len keep both sides non-empty.
        for (i, e) in ordered.iter().enumerate().take(ordered.len() - 1) {
            acc += e.1;
            let dist = (acc as f64 - half).abs();
            match best {
                Some((_, best_acc)) if (best_acc as f64 - half).abs() <= dist => {}
                _ => best = Some((i + 1, acc)),
            }
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even() {
        let mut v = vec![5.0, 1.0, 3.0];
        assert_eq!(exact_median(&mut v).unwrap(), 3.0);
        let mut v = vec![4.0, 1.0, 3.0, 2.0];
        assert_eq!(exact_median(&mut v).unwrap(), 2.5);
    }

    #[test]
    fn median_empty_errors() {
        assert!(exact_median(&mut []).is_err());
    }

    #[test]
    fn median_with_duplicates() {
        let mut v = vec![7.0; 100];
        assert_eq!(exact_median(&mut v).unwrap(), 7.0);
        let mut v = vec![1.0, 1.0, 1.0, 9.0];
        assert_eq!(exact_median(&mut v).unwrap(), 1.0);
    }

    #[test]
    fn select_kth_matches_sort() {
        let base: Vec<f64> = (0..500).map(|i| ((i * 37) % 101) as f64).collect();
        let mut sorted = base.clone();
        sorted.sort_by(f64::total_cmp);
        for k in [0, 1, 250, 499] {
            let mut work = base.clone();
            assert_eq!(select_kth(&mut work, k), sorted[k], "k={k}");
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn select_kth_out_of_range_panics() {
        select_kth(&mut [1.0], 1);
    }

    #[test]
    fn quantiles() {
        let mut v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile_value(&mut v.clone(), 0.5).unwrap(), 50.0);
        assert_eq!(quantile_value(&mut v.clone(), 0.25).unwrap(), 25.0);
        assert_eq!(quantile_value(&mut v.clone(), 1.0).unwrap(), 100.0);
        assert_eq!(quantile_value(&mut v, 0.0).unwrap(), 1.0);
        assert!(quantile_value(&mut [1.0], 1.5).is_err());
    }

    #[test]
    fn mean_and_var_of_basics() {
        assert_eq!(mean_and_var_of(&[]), None);
        let (m, v) = mean_and_var_of(&[2.0, 4.0, 6.0]).unwrap();
        assert_eq!(m, 4.0);
        assert!((v - 8.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn frequency_table_orders() {
        // code 0 appears 1x, code 1 appears 3x, code 2 appears 2x.
        let ft = FrequencyTable::from_counts(vec![1, 3, 2]);
        assert_eq!(ft.cardinality(), 3);
        assert_eq!(ft.total(), 6);
        assert_eq!(ft.by_frequency(), vec![(1, 3), (2, 2), (0, 1)]);
        let dict = vec!["zeeland".into(), "bantam".into(), "surat".into()];
        assert_eq!(ft.alphabetical(&dict), vec![(1, 3), (2, 2), (0, 1)]);
    }

    #[test]
    fn frequency_table_skips_absent_codes() {
        let ft = FrequencyTable::from_counts(vec![0, 2, 0, 1]);
        assert_eq!(ft.cardinality(), 2);
        assert_eq!(ft.entries().len(), 2);
    }

    #[test]
    fn half_split_balances() {
        // counts 3,2,1: prefix sums 3 (dist 0), 5 (dist 2) → split after 1st.
        let ordered = vec![(0u32, 3usize), (1, 2), (2, 1)];
        assert_eq!(FrequencyTable::half_split(&ordered), Some((1, 3)));
    }

    #[test]
    fn half_split_prefers_closest_to_half() {
        // counts 1,1,8: prefix 1 (dist 4), 2 (dist 3) → split after 2nd.
        let ordered = vec![(0u32, 1usize), (1, 1), (2, 8)];
        assert_eq!(FrequencyTable::half_split(&ordered), Some((2, 2)));
    }

    #[test]
    fn half_split_needs_two_values() {
        assert_eq!(FrequencyTable::half_split(&[(0, 10)]), None);
        assert_eq!(FrequencyTable::half_split(&[]), None);
    }
}
