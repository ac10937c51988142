//! Order statistics and frequency tables.
//!
//! The paper identifies "median calculations and counts over predicates"
//! as the two database operations Charles performs (§5.1), and notes that
//! medians are "a major bottleneck" for which sampling is the proposed
//! remedy (§5.2). This module provides:
//!
//! * `OrderKeys` and [`quantile_value`] — the one rank selection every
//!   median and quantile in the store goes through: `i64` order keys, one
//!   histogram pass over their top bits, then at most one more pass — or,
//!   for a column of narrow integer span, a count per value, no keys;
//! * [`FrequencyTable`] — per-value counts for nominal columns, with the
//!   paper's two orderings (by descending frequency for low-cardinality
//!   columns, alphabetical otherwise) and the accumulated-frequency split
//!   search used by nominal CUTs.

use crate::datatype::DataType;
use crate::error::{StoreError, StoreResult};
use crate::value::{numeric_value, Value};

/// Bits of a bucket index in the rank selection's histogram: 2¹² `u32`
/// counts, 16 KiB on the stack — and the widest integer span counted
/// value by value. Every `Int` column of a `sweep_table` and VOC's
/// `tonnage` and `trip` span fewer values than that, so their ranks are
/// read off counts. Measured against 10, 11 and 13 bits (ADR 0014).
const BUCKET_BITS: u32 = 12;

/// Below this many values neither the histogram nor the counters pay for
/// themselves, and the ranks are selected directly (ADR 0014).
const SMALL_N: usize = 256;

/// The value at quantile `q ∈ [0,1]` (nearest-rank). Any other `q`, NaN
/// included, is a [`StoreError::Parse`], whether or not there are values.
pub fn quantile_value(values: &[f64], q: f64) -> StoreResult<f64> {
    OrderKeys::of_floats(values)
        .quantile_f64(q)?
        .ok_or_else(|| StoreError::Empty("quantile of empty set".into()))
}

/// The order key of an `f64`: ascending keys are ascending
/// `f64::total_cmp` order, which compares exactly these keys. The map
/// is its own inverse on the bits ([`key_float`]).
pub(crate) fn float_key(x: f64) -> i64 {
    flip(x.to_bits() as i64)
}

/// The `f64` whose order key is `key`.
fn key_float(key: i64) -> f64 {
    f64::from_bits(flip(key) as u64)
}

/// Flip every bit but the sign of a negative number: what turns an
/// IEEE 754 bit pattern into a two's-complement total order and back.
fn flip(bits: i64) -> i64 {
    bits ^ (((bits >> 63) as u64) >> 1) as i64
}

/// Where a numeric column's selected values wait for their ranks to be
/// read: as order keys, or — when the column's values span fewer than
/// 2^[`BUCKET_BITS`] integers and there are enough of them to pay for
/// the counters — as one count per integer of that span.
pub(crate) enum Ranked {
    /// The keys, in no particular order.
    Keys(Vec<i64>),
    /// `counts[i]` values equal `base + i`; `n` values in all.
    Counts {
        base: i64,
        counts: Vec<u32>,
        n: usize,
    },
    /// Of `n` values, only the keys of `ranks`, already selected (a
    /// column's binned bitmaps, `crate::index`): what was [`Wanted`].
    Selected {
        ranks: (usize, usize),
        keys: (i64, i64),
        n: usize,
    },
}

/// Which ranks a caller of [`OrderKeys`] reads: a median's two, or one
/// quantile's. A kernel that can select them without gathering every
/// value is told this up front.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Wanted {
    /// The lower and upper median.
    Median,
    /// The nearest rank of `q`.
    Quantile(f64),
}

impl Wanted {
    /// The 0-based ranks `(lo, hi)` of `n` values this reads (`hi` is
    /// `lo` or `lo + 1`); `None` when there is no value or `q` lies
    /// outside `[0, 1]`.
    pub(crate) fn ranks(self, n: usize) -> Option<(usize, usize)> {
        if n == 0 {
            return None;
        }
        match self {
            Wanted::Median => Some((n.div_ceil(2) - 1, n / 2)),
            Wanted::Quantile(q) if (0.0..=1.0).contains(&q) => {
                let k = ((q * n as f64).ceil() as usize).clamp(1, n) - 1;
                Some((k, k))
            }
            Wanted::Quantile(_) => None,
        }
    }
}

/// Zeroed counters, one per integer of `span` from its least, for `n`
/// values of a column whose values all lie in `span` — when counting them
/// pays (`Ranked::Counts`); `None` when they should be keys.
pub(crate) fn counters(n: usize, span: Option<(i64, i64)>) -> Option<(i64, Vec<u32>)> {
    let (lo, hi) = span?;
    let width = hi.wrapping_sub(lo) as u64;
    let fits = n >= SMALL_N && u32::try_from(n).is_ok() && width < 1 << BUCKET_BITS;
    fits.then(|| (lo, vec![0; width as usize + 1]))
}

/// A numeric column's selected values as order keys, with their
/// extremes: what every rank the store reports is selected from. Ranks
/// are found on the keys and only then turned into `f64`s, so a median
/// is the arithmetic the `f64` values would give — `i64 as f64` is
/// monotone, and a `Float` key maps back to the bit pattern `total_cmp`
/// would have picked.
pub(crate) struct OrderKeys {
    ty: DataType,
    ranked: Ranked,
    min: i64,
    max: i64,
}

impl OrderKeys {
    /// The values `ranked` holds, of a column of type `ty`, whose least
    /// and greatest are `min` and `max` (any pair when there are none).
    pub(crate) fn from_parts(ty: DataType, ranked: Ranked, (min, max): (i64, i64)) -> OrderKeys {
        OrderKeys {
            ty,
            ranked,
            min,
            max,
        }
    }

    /// The keys of `keys`, of a column of type `ty`.
    pub(crate) fn collect(ty: DataType, keys: impl IntoIterator<Item = i64>) -> OrderKeys {
        let (mut min, mut max) = (i64::MAX, i64::MIN);
        let keys = keys.into_iter().inspect(|&k| {
            min = min.min(k);
            max = max.max(k);
        });
        let keys = Ranked::Keys(keys.collect());
        OrderKeys::from_parts(ty, keys, (min, max))
    }

    fn of_floats(values: &[f64]) -> OrderKeys {
        OrderKeys::collect(DataType::Float, values.iter().map(|&x| float_key(x)))
    }

    /// How many values there are.
    pub(crate) fn len(&self) -> usize {
        match &self.ranked {
            Ranked::Keys(keys) => keys.len(),
            Ranked::Counts { n, .. } | Ranked::Selected { n, .. } => *n,
        }
    }

    /// The least and greatest value, `None` when there is none.
    pub(crate) fn extremes(&self) -> Option<(Value, Value)> {
        let value = |key| match self.ty {
            DataType::Int => Value::Int(key),
            DataType::Date => Value::Date(key),
            _ => Value::Float(key_float(key)),
        };
        (self.len() > 0).then(|| (value(self.min), value(self.max)))
    }

    /// Exact median in the column's value space ([`numeric_value`]),
    /// `None` when there is no value. Reorders the keys.
    pub(crate) fn median(&mut self) -> Option<Value> {
        Some(numeric_value(self.ty, self.median_f64()?))
    }

    /// The value at quantile `q` in the column's value space, `None`
    /// when there is no value. Reorders the keys.
    pub(crate) fn quantile(&mut self, q: f64) -> StoreResult<Option<Value>> {
        Ok(self.quantile_f64(q)?.map(|v| numeric_value(self.ty, v)))
    }

    fn to_f64(&self, key: i64) -> f64 {
        match self.ty {
            DataType::Float => key_float(key),
            _ => key as f64,
        }
    }

    fn median_f64(&mut self) -> Option<f64> {
        let n = self.len();
        let (lo, hi) = self.select(Wanted::Median.ranks(n)?);
        Some(if n % 2 == 1 {
            self.to_f64(hi)
        } else {
            (self.to_f64(lo) + self.to_f64(hi)) / 2.0
        })
    }

    /// `q` is checked before anything else: a `q` outside `[0, 1]`, NaN
    /// included, is an error over no value as over many.
    fn quantile_f64(&mut self, q: f64) -> StoreResult<Option<f64>> {
        if !(0.0..=1.0).contains(&q) {
            return Err(StoreError::Parse(format!("quantile {q} outside [0,1]")));
        }
        let Some(ranks) = Wanted::Quantile(q).ranks(self.len()) else {
            return Ok(None);
        };
        let (key, _) = self.select(ranks);
        Ok(Some(self.to_f64(key)))
    }

    /// The keys of ranks `lo` and `hi` (0-based, ascending; `hi` is `lo`
    /// or `lo + 1`). Reorders the keys.
    fn select(&mut self, (lo, hi): (usize, usize)) -> (i64, i64) {
        debug_assert!(lo <= hi && hi <= lo + 1 && hi < self.len());
        match &mut self.ranked {
            Ranked::Selected { ranks, keys, .. } => {
                assert_eq!(*ranks, (lo, hi), "the ranks selected are the ranks read");
                *keys
            }
            Ranked::Keys(keys) => select_ranks(keys, (self.min, self.max), lo, hi),
            Ranked::Counts { base, counts, .. } => {
                // No count below the least value is set.
                let least = self.min.wrapping_sub(*base) as usize;
                let (at_lo, at_hi, _) = locate(&counts[least..], lo, hi);
                let key = |at: usize| self.min.wrapping_add(at as i64);
                (key(at_lo), key(at_hi))
            }
        }
    }
}

/// Ranks `lo` and `hi` (`hi` is `lo` or `lo + 1`) of `keys`, whose least
/// and greatest are `min` and `max`. Reorders the keys.
///
/// One pass counts the keys into 2^[`BUCKET_BITS`] buckets by the top
/// bits of their distance from `min` (a wrapping difference: any two
/// `i64`s are less than 2⁶⁴ apart). Then:
/// * when the keys span fewer values than there are buckets, each bucket
///   is one value and the ranks are read off the counts;
/// * when the two ranks fall in two buckets, they are the greatest key
///   of the first and the least of the second, one more pass;
/// * otherwise the one bucket holding both is compacted to the front and
///   selected in.
fn select_ranks(keys: &mut [i64], (min, max): (i64, i64), lo: usize, hi: usize) -> (i64, i64) {
    let n = keys.len();
    if n < SMALL_N || u32::try_from(n).is_err() {
        return select_in(keys, lo, hi);
    }
    let span = max.wrapping_sub(min) as u64;
    let shift = (u64::BITS - span.leading_zeros()).saturating_sub(BUCKET_BITS);
    let bucket = |k: i64| (k.wrapping_sub(min) as u64 >> shift) as usize;
    let mut counts = [0u32; 1 << BUCKET_BITS];
    let counts = &mut counts[..=bucket(max)];
    for &k in keys.iter() {
        counts[bucket(k)] += 1;
    }
    let (at_lo, at_hi, below) = locate(counts, lo, hi);
    if shift == 0 {
        let key = |at: usize| min.wrapping_add(at as i64);
        return (key(at_lo), key(at_hi));
    }
    if at_lo != at_hi {
        let (mut greatest, mut least) = (i64::MIN, i64::MAX);
        for &k in keys.iter() {
            let b = bucket(k);
            if b == at_lo {
                greatest = greatest.max(k);
            } else if b == at_hi {
                least = least.min(k);
            }
        }
        return (greatest, least);
    }
    let mut m = 0;
    for i in 0..n {
        let k = keys[i];
        if bucket(k) == at_lo {
            keys[m] = k;
            m += 1;
        }
    }
    select_in(&mut keys[..m], lo - below, hi - below)
}

/// The buckets of `counts` holding ranks `lo` and `hi` (`hi` is `lo` or
/// `lo + 1`), and how many values lie in the buckets before `lo`'s:
/// rank `hi` is in `lo`'s bucket too, or is the least of the next one
/// that holds any.
fn locate(counts: &[u32], lo: usize, hi: usize) -> (usize, usize, usize) {
    let (mut at_lo, mut below) = (0, 0);
    while below + counts[at_lo] as usize <= lo {
        below += counts[at_lo] as usize;
        at_lo += 1;
    }
    let at_hi = if hi - below < counts[at_lo] as usize {
        at_lo
    } else {
        let next = counts[at_lo + 1..].iter().position(|&c| c > 0);
        at_lo + 1 + next.expect("rank hi is below n")
    };
    (at_lo, at_hi, below)
}

/// Ranks `lo` and `hi` (`hi` is `lo` or `lo + 1`) by the standard
/// library's introselect: O(n) worst case.
fn select_in(keys: &mut [i64], lo: usize, hi: usize) -> (i64, i64) {
    let (below, &mut at_hi, _) = keys.select_nth_unstable(hi);
    let at_lo = if lo < hi {
        *below.iter().max().expect("rank hi is above rank 0")
    } else {
        at_hi
    };
    (at_lo, at_hi)
}

/// Mean and population variance of a slice, in index order. `None` for an
/// empty slice. Shared by every backend: each gathers in row order and
/// folds here, which is what makes the results bitwise identical.
pub(crate) fn mean_and_var_of(values: &[f64]) -> Option<(f64, f64)> {
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

    /// The median of a slice: for even counts the midpoint of the two
    /// middle values, each taken in `f64::total_cmp` order.
    fn median(values: &[f64]) -> Option<f64> {
        OrderKeys::of_floats(values).median_f64()
    }

    #[test]
    fn median_odd_even() {
        assert_eq!(median(&[5.0, 1.0, 3.0]), Some(3.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn median_empty_errors() {
        assert_eq!(median(&[]), None);
        assert!(quantile_value(&[], 0.5).is_err());
    }

    #[test]
    fn median_with_duplicates() {
        assert_eq!(median(&[7.0; 100]), Some(7.0));
        assert_eq!(median(&[1.0, 1.0, 1.0, 9.0]), Some(1.0));
        // Two equal middle values still average: f64::MAX twice is ∞.
        assert_eq!(median(&[f64::MAX; 2]), Some(f64::INFINITY));
    }

    #[test]
    fn float_keys_order_as_total_cmp() {
        let xs = [
            f64::NEG_INFINITY,
            -1.5,
            -f64::MIN_POSITIVE / 4.0,
            -0.0,
            0.0,
            f64::MIN_POSITIVE / 4.0,
            2.0,
            f64::INFINITY,
            f64::NAN,
        ];
        for a in xs {
            assert_eq!(key_float(float_key(a)).to_bits(), a.to_bits());
            for b in xs {
                assert_eq!(float_key(a).cmp(&float_key(b)), a.total_cmp(&b), "{a} {b}");
            }
        }
    }

    /// Ranks of `keys` through `OrderKeys::select`, against a sort — as
    /// keys, and as counts where a column two wider than them could be
    /// counted.
    fn assert_ranks(keys: &[i64]) {
        let mut sorted = keys.to_vec();
        sorted.sort_unstable();
        let n = keys.len();
        let extremes = (sorted[0], sorted[n - 1]);
        let span = Some((extremes.0.saturating_sub(1), extremes.1.saturating_add(1)));
        let counted = || {
            let (base, mut counts) = counters(n, span)?;
            keys.iter()
                .for_each(|k| counts[k.wrapping_sub(base) as usize] += 1);
            let ranked = Ranked::Counts { base, counts, n };
            Some(OrderKeys::from_parts(DataType::Int, ranked, extremes))
        };
        for lo in [0, 1, n / 3, n / 2 - 1, n / 2, n - 2] {
            for hi in [lo, lo + 1] {
                let want = (sorted[lo], sorted[hi]);
                let mut ok = OrderKeys::collect(DataType::Int, keys.iter().copied());
                assert_eq!(ok.select((lo, hi)), want, "keys: n={n} {lo} {hi}");
                if let Some(mut ok) = counted() {
                    assert_eq!(ok.select((lo, hi)), want, "counts: n={n} {lo} {hi}");
                }
            }
        }
    }

    #[test]
    fn select_reads_every_path_as_a_sort_would() {
        let n = 3 * SMALL_N;
        let scatter = |i: usize, range: u64| (i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15) % range;
        // Fewer values than buckets: the counts alone, or counted.
        assert_ranks(
            &(0..n)
                .map(|i| scatter(i, 37) as i64 - 18)
                .collect::<Vec<_>>(),
        );
        let top = (1 << BUCKET_BITS) - 3;
        assert_ranks(&(0..n).map(|i| scatter(i, top) as i64).collect::<Vec<_>>());
        // Far more: two neighbouring buckets or one, selected in.
        assert_ranks(
            &(0..n)
                .map(|i| scatter(i, 1 << 40) as i64)
                .collect::<Vec<_>>(),
        );
        // One bucket holds all but the extremes.
        let mut skew: Vec<i64> = (0..n as i64).collect();
        skew[0] = i64::MIN;
        skew[1] = i64::MAX;
        assert_ranks(&skew);
        // Below the cut-over.
        assert_ranks(
            &(0..SMALL_N - 1)
                .map(|i| scatter(i, 1 << 50) as i64)
                .collect::<Vec<_>>(),
        );
    }

    #[test]
    fn quantiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile_value(&v, 0.5).unwrap(), 50.0);
        assert_eq!(quantile_value(&v, 0.25).unwrap(), 25.0);
        assert_eq!(quantile_value(&v, 1.0).unwrap(), 100.0);
        assert_eq!(quantile_value(&v, 0.0).unwrap(), 1.0);
        assert!(quantile_value(&[1.0], 1.5).is_err());
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
