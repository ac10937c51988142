//! Binned bitmaps: one bitmap per bin of a column's values.
//!
//! A bin is a closed interval of a column's values, held as `i64` bounds:
//! a dictionary code, a boolean (0 or 1), or an `Int`/`Date` value. Bit
//! `i` of bin `k` is set ⇔ row `i` is valid and its value lies in bin
//! `k`; the bins are disjoint, so every valid row is in exactly one. A
//! column keeps at most [`MAX_BINS`] of them:
//!
//! * *exact* bins, one value each, when its values fit: a dictionary of
//!   that many strings, the two booleans, or an `Int`/`Date` column whose
//!   span holds that many integers;
//! * *equi-depth* bins for every other `Int`/`Date` column of at least
//!   [`MIN_ROWS`] valid rows: each holds about as many valid rows as the
//!   next ([`ValueIndex::ints`] has the edge rule).
//!
//! A table builds them once, when it fills the column's slot
//! (`Table::from_parts`, an opened file's first touch); the row store's
//! projections never get any, so `Table ⇔ RowTable` compares the answers
//! read off these bitmaps with the row walks they replace.
//!
//! Three kernels read them. A range or set scan asks each bin for a
//! verdict — every value passes, none does, or some may — ORs the bins
//! that pass whole and walks only the rows of the others
//! ([`ValueIndex::select`]). An `Int`/`Date` column's order statistics
//! AND-count the selection against each bin, then read each wanted rank
//! off an exact bin's value or select it among the rows of the one bin
//! that holds it ([`ValueIndex::ranks`]). A nominal column's frequencies
//! are the exact bins' AND-counts ([`ValueIndex::counts`]). Each answers
//! exactly what the row walk answers. The choices and their cut-overs are
//! measured (`docs/adr/0021-per-value-bitmaps-for-few-valued-columns.md`,
//! `docs/adr/0024-binned-bitmaps-for-wide-integer-columns.md`); not
//! settings.

// No call outside the tests may panic: every scan, frequency and
// counted rank of an indexed column reads these bitmaps.
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented
    )
)]
#![deny(clippy::allow_attributes, clippy::allow_attributes_without_reason)]

use crate::bitmap::Bitmap;
use crate::stats::{select_ranks, Ranked};

/// The most bins a column is indexed with (ADRs 0021 and 0024).
pub(crate) const MAX_BINS: usize = 16;

/// The fewest valid rows an `Int`/`Date` column of more than
/// [`MAX_BINS`] values needs for equi-depth bins (ADR 0024).
pub(crate) const MIN_ROWS: usize = 1024;

/// The most values the equi-depth edges are read from: a span of fewer
/// integers is counted value by value, a wider one sampled at a stride
/// down to this many valid values (ADR 0024).
const EDGE_SAMPLE: usize = 4096;

/// What a predicate says of every value of one bin.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Verdict {
    /// Every value passes: the bin's rows are ORed in whole.
    All,
    /// No value passes: the bin is skipped.
    Nothing,
    /// Some may: the bin's rows are asked one by one.
    Partial,
}

/// One validity-masked bitmap per bin of a column's values.
#[derive(Debug, Clone)]
pub(crate) struct ValueIndex {
    /// Bin `k`'s rows: valid and holding a value in `bounds[k]`.
    bins: Vec<Bitmap>,
    /// Bin `k`'s least and greatest value, ascending and disjoint.
    bounds: Vec<(i64, i64)>,
}

impl ValueIndex {
    /// The index of `values` over bins bounded by `bounds`, where
    /// `bin_of` maps a value to its bin. Only valid rows are read, so
    /// null placeholders are never indexed. `None` when there are more
    /// than [`MAX_BINS`] bins, or a valid row's value has no bin.
    pub(crate) fn build<T: Copy>(
        values: &[T],
        validity: &Bitmap,
        bounds: Vec<(i64, i64)>,
        bin_of: impl Fn(T) -> Option<usize>,
    ) -> Option<ValueIndex> {
        if bounds.len() > MAX_BINS || values.len() != validity.len() {
            return None;
        }
        let words = validity.words().len();
        let mut bits = vec![vec![0u64; words]; bounds.len()];
        for (w, &valid) in validity.words().iter().enumerate() {
            let mut word = valid;
            while word != 0 {
                let b = word.trailing_zeros();
                let value = *values.get(w * 64 + b as usize)?;
                *bits.get_mut(bin_of(value)?)?.get_mut(w)? |= 1 << b;
                word &= word - 1; // clear lowest set bit
            }
        }
        let len = validity.len();
        let bins = bits.into_iter().map(|b| Bitmap::from_words(b, len));
        Some(ValueIndex {
            bins: bins.collect::<Option<_>>()?,
            bounds,
        })
    }

    /// The bins of an `Int`/`Date` column whose valid values span
    /// `(lo, hi)` and number `valid`: one per integer of the span when
    /// it holds at most [`MAX_BINS`]; otherwise, from [`MIN_ROWS`] valid
    /// rows up, equi-depth bins.
    ///
    /// The edges cost O(rows), not a sort: a span of fewer than
    /// [`EDGE_SAMPLE`] integers is counted value by value and cut at
    /// exact ranks; a wider one is sampled at a fixed stride of rows
    /// down to at most [`EDGE_SAMPLE`] valid values, sorted, and cut at
    /// the sample's ranks. Bin `b` starts at the value of rank
    /// `b · m / MAX_BINS` of those `m`; a start no greater than the one
    /// before is dropped, so a value holding more than a bin's share
    /// collapses edges rather than splitting. Each row then finds its
    /// bin among at most [`MAX_BINS`] starts.
    pub(crate) fn ints(
        values: &[i64],
        validity: &Bitmap,
        (lo, hi): (i64, i64),
        valid: usize,
    ) -> Option<ValueIndex> {
        let width = hi.wrapping_sub(lo) as u64;
        let offset = move |v: i64| v.wrapping_sub(lo) as u64;
        if width < MAX_BINS as u64 {
            let bounds = (0..=width).map(|k| lo.wrapping_add(k as i64));
            let bounds = bounds.map(|v| (v, v)).collect();
            return ValueIndex::build(values, validity, bounds, |v| {
                usize::try_from(offset(v)).ok()
            });
        }
        if valid < MIN_ROWS {
            return None;
        }
        let mut starts = vec![lo];
        let mut cut = |at: i64| {
            if starts.last().is_some_and(|&last| at > last) {
                starts.push(at);
            }
        };
        // Counted edges keep their counts, to tighten each bin's upper
        // bound to the greatest value it holds.
        let mut counted = None;
        if width < EDGE_SAMPLE as u64 {
            let mut counts = vec![0usize; width as usize + 1];
            for (w, &word) in validity.words().iter().enumerate() {
                let mut word = word;
                while word != 0 {
                    let i = w * 64 + word.trailing_zeros() as usize;
                    *counts.get_mut(offset(*values.get(i)?) as usize)? += 1;
                    word &= word - 1; // clear lowest set bit
                }
            }
            let (mut below, mut b) = (0, 1);
            for (k, &count) in counts.iter().enumerate() {
                // Every bin edge whose rank falls on this value.
                while b < MAX_BINS && b * valid / MAX_BINS < below + count {
                    cut(lo.wrapping_add(k as i64));
                    b += 1;
                }
                below += count;
            }
            counted = Some(counts);
        } else {
            let stride = values.len().div_ceil(EDGE_SAMPLE).max(1);
            let rows = (0..values.len()).step_by(stride);
            let mut sample: Vec<i64> = rows
                .filter(|&i| validity.get(i))
                .filter_map(|i| values.get(i).copied())
                .collect();
            sample.sort_unstable();
            for b in 1..MAX_BINS {
                if let Some(&at) = sample.get(b * sample.len() / MAX_BINS) {
                    cut(at);
                }
            }
        }
        if starts.len() < 2 {
            return None;
        }
        // Bin `k` runs from its start, a value some row holds, up to the
        // next start, or — counted — up to the greatest value it holds: a
        // bin of one value is exact.
        let mut bounds = Vec::with_capacity(starts.len());
        for (k, &least) in starts.iter().enumerate() {
            let next = starts.get(k + 1).map_or(hi, |&s| s - 1);
            let held = |counts: &Vec<usize>| {
                let range = offset(least)..=offset(next);
                let top = range
                    .rev()
                    .find(|&o| counts.get(o as usize).is_some_and(|&c| c > 0));
                top.map(|o| lo.wrapping_add(o as i64))
            };
            bounds.push((least, counted.as_ref().and_then(held).unwrap_or(next)));
        }
        // Each row's bin is the number of later starts at or below its
        // value: a branch-free count over at most 15 of them.
        let later = starts.split_off(1);
        ValueIndex::build(values, validity, bounds, |v| {
            Some(later.iter().filter(|&&s| s <= v).count())
        })
    }

    /// Each bin's least and greatest value.
    pub(crate) fn bounds(&self) -> &[(i64, i64)] {
        &self.bounds
    }

    /// How many of the `live` rows a selection holds (selected and valid)
    /// fall in each bin — or `None` when walking those rows is cheaper
    /// than an AND-count per bin over every word. The walk that counts
    /// frequencies pays about twice per row what an AND-count pays per
    /// word (ADR 0021); the walk that gathers order keys and selects
    /// among them about four times (ADR 0024). So the counts win once
    /// `per_row · live ≥ bins · words`. The last bin's count is what the
    /// others leave of `live`.
    pub(crate) fn counts(&self, sel: &Bitmap, live: usize, per_row: usize) -> Option<Vec<usize>> {
        let (last, rest) = self.bins.split_last()?;
        if per_row * live < self.bins.len() * last.words().len() {
            return None;
        }
        let mut counts: Vec<usize> = rest.iter().map(|bin| sel.and_count(bin)).collect();
        counts.push(live.checked_sub(counts.iter().sum())?);
        Some(counts)
    }

    /// Whether the rows a selection holds (selected and `valid`) hold two
    /// values, where the bins tell: when the bin of the first row is one
    /// value's, the rows hold another exactly where one lies outside it.
    /// One AND-NOT per word and no row read, where a walk reads every row
    /// of a selection of one value. `None` when the first row's bin is a
    /// wider one.
    pub(crate) fn varies(&self, sel: &Bitmap, valid: &Bitmap) -> Option<bool> {
        let live = sel.words().iter().zip(valid.words()).map(|(s, v)| s & v);
        let Some((w, word)) = live.clone().enumerate().find(|&(_, word)| word != 0) else {
            return Some(false);
        };
        let row = w * 64 + word.trailing_zeros() as usize;
        let at = self.bins.iter().position(|bin| bin.get(row))?;
        let (lo, hi) = self.bounds[at];
        let mut others = live.zip(self.bins[at].words()).map(|(l, b)| l & !b);
        (lo == hi).then(|| others.any(|word| word != 0))
    }

    /// The ranks `lo` and `hi` (`hi` is `lo` or `lo + 1`) and the least
    /// and greatest of the `live` values of `values` that a selection
    /// holds, read off the bins — or `None` where [`ValueIndex::counts`]
    /// would walk instead, or there is no value.
    ///
    /// The per-bin counts locate the bins holding the least value, the
    /// greatest and the two ranks. An exact bin's value is the answer; a
    /// wider bin's selected rows are walked, and the answer selected
    /// among them. So at most four bins' rows are read, each once.
    pub(crate) fn ranks(
        &self,
        values: &[i64],
        sel: &Bitmap,
        live: usize,
        (lo, hi): (usize, usize),
    ) -> Option<(Ranked, (i64, i64))> {
        let counts = self.counts(sel, live, 4)?;
        let first = counts.iter().position(|&c| c > 0)?;
        let last = counts.iter().rposition(|&c| c > 0)?;
        let (mut at_lo, mut below) = (0, 0);
        while below + counts.get(at_lo)? <= lo {
            below += counts.get(at_lo)?;
            at_lo += 1;
        }
        // Rank `hi` is in `lo`'s bin, or is the least of the next one
        // that holds any value.
        let at_hi = if hi - below < *counts.get(at_lo)? {
            at_lo
        } else {
            at_lo + 1 + counts.get(at_lo + 1..)?.iter().position(|&c| c > 0)?
        };
        // The one bin both ranks fall in, walked for its selected values
        // unless it is exact.
        let (least, greatest) = *self.bounds.get(at_lo)?;
        let mut walked = None;
        if at_lo == at_hi && least != greatest {
            walked = Some(self.selected(values, sel, at_lo)?);
        }
        // The least or greatest selected value of a bin: a fold of the
        // values walked, or what `extreme` finds.
        let extreme = |bin: usize, greatest: bool| -> Option<i64> {
            match &walked {
                Some(keys) if bin == at_lo && greatest => keys.iter().copied().max(),
                Some(keys) if bin == at_lo => keys.iter().copied().min(),
                _ => self.extreme(values, sel, bin, greatest),
            }
        };
        let (min, max) = (extreme(first, false)?, extreme(last, true)?);
        let keys = match walked.as_mut() {
            Some(keys) => select_ranks(keys, (least, greatest), lo - below, hi - below),
            // Rank `lo` is the greatest of its bin and `hi` the least of
            // the next; or both are an exact bin's value.
            None => (
                self.extreme(values, sel, at_lo, true)?,
                self.extreme(values, sel, at_hi, false)?,
            ),
        };
        let ranked = Ranked::Selected {
            ranks: (lo, hi),
            keys,
            n: live,
        };
        Some((ranked, (min, max)))
    }

    /// The values of `values` at the rows `sel` selects in `bin`.
    fn selected(&self, values: &[i64], sel: &Bitmap, bin: usize) -> Option<Vec<i64>> {
        let mut keys = Vec::new();
        let words = sel.words().iter().zip(self.bins.get(bin)?.words());
        for (w, (&picked, &held)) in words.enumerate() {
            let mut word = picked & held;
            while word != 0 {
                keys.push(*values.get(w * 64 + word.trailing_zeros() as usize)?);
                word &= word - 1; // clear lowest set bit
            }
        }
        Some(keys)
    }

    /// The least (or, when `greatest`, the greatest) of the values of
    /// `values` at the rows `sel` selects in `bin`, which holds at least
    /// one: an exact bin's value, or a walk of its rows from one end
    /// that stops at the bin's own bound, since no row holds a value
    /// beyond it.
    fn extreme(&self, values: &[i64], sel: &Bitmap, bin: usize, greatest: bool) -> Option<i64> {
        let &(least, most) = self.bounds.get(bin)?;
        if least == most {
            return Some(least);
        }
        let words = sel.words().iter().zip(self.bins.get(bin)?.words());
        let mut words = words
            .enumerate()
            .map(|(w, (&picked, &held))| (w, picked & held));
        let mut best: Option<i64> = None;
        if greatest {
            for (w, mut word) in words.rev() {
                while word != 0 {
                    let b = 63 - word.leading_zeros();
                    let v = *values.get(w * 64 + b as usize)?;
                    if v == most {
                        return Some(v);
                    }
                    best = Some(best.map_or(v, |m| m.max(v)));
                    word &= !(1 << b);
                }
            }
        } else {
            for (w, mut word) in words.by_ref() {
                while word != 0 {
                    let v = *values.get(w * 64 + word.trailing_zeros() as usize)?;
                    if v == least {
                        return Some(v);
                    }
                    best = Some(best.map_or(v, |m| m.min(v)));
                    word &= word - 1; // clear lowest set bit
                }
            }
        }
        best
    }

    /// Whether [`ValueIndex::select`] costs less than walking the rows
    /// of `within` (all valid rows when there is none) under these
    /// verdicts. It ORs the bins on the smaller side and the partial
    /// ones, one pass over every word each; the walk pays per row, about
    /// twice what a pass pays per word (ADR 0021). So the bins run once
    /// `2 · rows ≥ passes · words`, and never when every bin is partial.
    pub(crate) fn pays(&self, verdicts: &[Verdict], within: Option<&Bitmap>) -> bool {
        let count = |v: Verdict| verdicts.iter().filter(|&&w| w == v).count();
        let (all, partial) = (count(Verdict::All), count(Verdict::Partial));
        let passes = all.min(verdicts.len() - all) + partial;
        let words = self.bins.first().map_or(0, |bin| bin.words().len());
        partial < verdicts.len() && within.is_none_or(|sel| 2 * sel.count_ones() >= passes * words)
    }

    /// The rows whose bin `verdict` passes — all of a bin's rows when it
    /// says [`Verdict::All`], none when [`Verdict::Nothing`], and those
    /// of a [`Verdict::Partial`] bin that `walk(word, rows)` keeps of
    /// each word's rows — of those `within` holds when given, of every
    /// valid row otherwise. The smaller side is ORed: when more bins
    /// pass whole than not, the result is the valid rows outside the
    /// others, the partial rows walked added back.
    pub(crate) fn select(
        &self,
        validity: &Bitmap,
        within: Option<Bitmap>,
        verdicts: &[Verdict],
        walk: impl Fn(usize, u64) -> u64,
    ) -> Bitmap {
        let passes = verdicts.iter().filter(|&&v| v == Verdict::All).count();
        let flipped = 2 * passes > verdicts.len();
        let listed = |v: Verdict| (v == Verdict::All) != flipped;
        let flip = if flipped { u64::MAX } else { 0 };
        // One OR pass per listed bin: faster than folding the bins word
        // by word, even where `within` leaves words empty (ADR 0021).
        let words = validity.words().len();
        let or = |wanted: &dyn Fn(Verdict) -> bool| {
            let mut acc = vec![0u64; words];
            let bins = self.bins.iter().zip(verdicts).filter(|(_, &v)| wanted(v));
            for (bin, _) in bins {
                for (a, &b) in acc.iter_mut().zip(bin.words()) {
                    *a |= b;
                }
            }
            acc
        };
        let acc = or(&listed);
        let partial = verdicts.contains(&Verdict::Partial);
        let partial = partial.then(|| or(&|v| v == Verdict::Partial));
        let walked = |w: usize, rows: u64| match &partial {
            Some(part) => walk(w, rows & part[w]),
            None => 0,
        };
        let valid = validity.words();
        match within {
            None => validity.and_words((0..words).map(|w| (acc[w] ^ flip) | walked(w, valid[w]))),
            Some(mut sel) => {
                sel.narrow_words(|w, picked| {
                    ((acc[w] ^ flip) & valid[w] & picked) | walked(w, picked)
                });
                sel
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Rows 0..130 holding `i % 3`, every fifth row null.
    fn fixture() -> (Vec<u32>, Bitmap, ValueIndex) {
        let values: Vec<u32> = (0..130).map(|i| i % 3).collect();
        let validity = Bitmap::from_indices(130, (0..130).filter(|i| i % 5 != 0));
        let bounds = vec![(0, 0), (1, 1), (2, 2)];
        let index = ValueIndex::build(&values, &validity, bounds, |v| Some(v as usize)).unwrap();
        (values, validity, index)
    }

    #[test]
    fn bins_partition_the_valid_rows() {
        let (values, validity, index) = fixture();
        assert_eq!(index.bins.len(), 3);
        for (k, bin) in index.bins.iter().enumerate() {
            let want = validity.iter_ones().filter(|&i| values[i] as usize == k);
            assert_eq!(bin, &Bitmap::from_indices(130, want));
        }
    }

    #[test]
    fn too_many_bins_or_a_value_without_one_builds_nothing() {
        let values = vec![0u32; 4];
        let validity = Bitmap::ones(4);
        let bounds = |n: i64| (0..n).map(|k| (k, k)).collect::<Vec<_>>();
        let too_many = bounds(MAX_BINS as i64 + 1);
        assert!(ValueIndex::build(&values, &validity, too_many, |_| Some(0)).is_none());
        assert!(ValueIndex::build(&values, &validity, bounds(2), |_| Some(2)).is_none());
        assert!(ValueIndex::build(&values, &validity, bounds(2), |_| None).is_none());
        // A null row's placeholder is never asked about.
        let nulls = Bitmap::new(4);
        assert!(ValueIndex::build(&values, &nulls, bounds(2), |_| None).is_some());
    }

    #[test]
    fn counts_are_the_walks_or_nothing_below_the_cut_over() {
        let (values, validity, index) = fixture();
        let sel = Bitmap::from_indices(130, (0..130).filter(|i| i % 2 == 0));
        let live = sel.and_count(&validity);
        let mut want = vec![0; 3];
        for i in sel.and(&validity).iter_ones() {
            want[values[i] as usize] += 1;
        }
        assert_eq!(index.counts(&sel, live, 2), Some(want));
        // Three bins over three words cost more than walking one row.
        let one = Bitmap::from_indices(130, [1]);
        assert_eq!(index.counts(&one, 1, 2), None);
    }

    #[test]
    fn select_is_the_passing_valid_rows_from_either_side() {
        use Verdict::{All, Nothing, Partial};
        let (values, validity, index) = fixture();
        let within = Bitmap::from_indices(130, (0..130).filter(|i| i % 7 < 3));
        // A partial bin keeps its even rows.
        let even = 0x5555_5555_5555_5555u64;
        let walk = |_: usize, rows: u64| rows & even;
        for verdicts in [
            [Nothing; 3],
            [All; 3],
            [All, Nothing, Nothing],
            [All, Nothing, All],
            [Partial, Nothing, All],
            [All, Partial, All],
            [Partial; 3],
        ] {
            let keep = |i: usize| match verdicts[values[i] as usize] {
                All => true,
                Nothing => false,
                Partial => i.is_multiple_of(2),
            };
            let want = Bitmap::from_indices(130, validity.iter_ones().filter(|&i| keep(i)));
            assert_eq!(index.select(&validity, None, &verdicts, walk), want);
            let narrowed = index.select(&validity, Some(within.clone()), &verdicts, walk);
            assert_eq!(narrowed, want.and(&within));
        }
    }

    /// `values` as a fully valid `Int` column's bins.
    fn ints(values: &[i64]) -> Option<ValueIndex> {
        let validity = Bitmap::ones(values.len());
        let lo = *values.iter().min().unwrap();
        let hi = *values.iter().max().unwrap();
        ValueIndex::ints(values, &validity, (lo, hi), values.len())
    }

    #[test]
    fn equi_depth_bins_hold_about_a_sixteenth_each() {
        // 2 000 rows over 500 values: counted edges, exact ranks.
        let values: Vec<i64> = (0..2_000).map(|i| (i * 7919) % 500).collect();
        let index = ints(&values).unwrap();
        assert_eq!(index.bins.len(), MAX_BINS);
        for bin in &index.bins {
            assert!(bin.count_ones().abs_diff(2_000 / MAX_BINS) <= 4);
        }
        // Sampled edges: a span wider than the sample.
        let wide: Vec<i64> = values.iter().map(|v| v * 1_000_003).collect();
        let index = ints(&wide).unwrap();
        assert!(index.bins.len() >= MAX_BINS - 2);
        let biggest = index.bins.iter().map(Bitmap::count_ones).max().unwrap();
        assert!(biggest < 2_000 / 8, "{biggest}");
    }

    #[test]
    fn a_heavy_value_collapses_edges_and_bins_stay_a_partition() {
        // Half the rows hold 0; the rest spread over 1..=999.
        let values: Vec<i64> = (0..4_000)
            .map(|i| if i % 2 == 0 { 0 } else { i % 999 + 1 })
            .collect();
        let index = ints(&values).unwrap();
        assert!(index.bins.len() < MAX_BINS);
        let mut seen = Bitmap::new(values.len());
        for (bin, &(lo, hi)) in index.bins.iter().zip(&index.bounds) {
            assert!(bin.is_disjoint(&seen));
            seen = seen.or(bin);
            assert!(bin.iter_ones().all(|i| (lo..=hi).contains(&values[i])));
        }
        assert_eq!(seen, Bitmap::ones(values.len()));
        assert!(index.bounds.windows(2).all(|b| b[0].1 < b[1].0));
        // Counted edges bound each bin by the values it holds: the heavy
        // value's bin is exact.
        assert_eq!(index.bounds[0], (0, 0));
    }

    #[test]
    fn few_rows_or_one_value_get_no_equi_depth_bins() {
        let values: Vec<i64> = (0..1_000).collect();
        assert!(ints(&values).is_none());
        // 16 values are exact bins at any row count; a 17th needs rows.
        let values: Vec<i64> = (0..100).map(|i| i % 16).collect();
        assert_eq!(ints(&values).unwrap().bins.len(), 16);
        let values: Vec<i64> = (0..100).map(|i| i % 17).collect();
        assert!(ints(&values).is_none());
    }

    #[test]
    fn ranks_are_the_sorted_selections() {
        let values: Vec<i64> = (0..3_000).map(|i| (i * 7919) % 1_000 - 300).collect();
        let index = ints(&values).unwrap();
        for density in [2, 3, 5] {
            let sel = Bitmap::from_indices(3_000, (0..3_000).filter(|i| i % density != 1));
            let mut sorted: Vec<i64> = sel.iter_ones().map(|i| values[i]).collect();
            sorted.sort_unstable();
            let n = sorted.len();
            for (lo, hi) in [(0, 0), (0, 1), (n / 2 - 1, n / 2), (n - 1, n - 1)] {
                let (ranked, extremes) = index.ranks(&values, &sel, n, (lo, hi)).unwrap();
                assert_eq!(extremes, (sorted[0], sorted[n - 1]));
                let Ranked::Selected { keys, .. } = ranked else {
                    panic!("ranks are selected")
                };
                assert_eq!(keys, (sorted[lo], sorted[hi]), "{density} {lo}");
            }
        }
    }
}
