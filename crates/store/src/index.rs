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
//! Each *wide* bin — an equi-depth one holding more than one value —
//! also keeps its *run*: the ids of its rows in ascending order of value,
//! one `u32` per row, the runs of all wide bins in one vector
//! (`docs/adr/0027-value-ordered-bins.md`). An exact bin needs none: its
//! bound is its value.
//!
//! Four kernels read them. A range or set scan asks each bin for a
//! verdict — every value passes, none does, or some may — ORs the bins
//! that pass whole, and of the others scatters the stretch of the run
//! that a range's bounds cut out or walks the rows
//! ([`ValueIndex::select`]). An `Int`/`Date` column's order statistics
//! find the first and last bins the selection holds rows of, AND-count
//! the bins up to the one holding the wanted rank, and read it off an
//! exact bin's value or the run's selected rows ([`ValueIndex::ranks`]);
//! its extremes and the next value above a floor are the first selected
//! row from one end of a run ([`ValueIndex::extremes`],
//! [`ValueIndex::next_above`]). A nominal column's frequencies are the
//! exact bins' AND-counts ([`ValueIndex::counts`]). Each answers exactly
//! what the row walk answers. The choices and their cut-overs are
//! measured (`docs/adr/0021-per-value-bitmaps-for-few-valued-columns.md`,
//! `docs/adr/0024-binned-bitmaps-for-wide-integer-columns.md`,
//! `docs/adr/0027-value-ordered-bins.md`); not settings.

// No call outside the tests may panic: every scan, frequency and
// counted rank of an indexed column reads these bitmaps and runs.
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
use crate::stats::Ranked;
use std::ops::Range;

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
    /// Some may: the bin's rows are asked one by one, or its run cut.
    Partial,
}

/// One validity-masked bitmap per bin of a column's values, and each
/// wide bin's rows in value order.
#[derive(Debug, Clone)]
pub(crate) struct ValueIndex {
    /// Bin `k`'s rows: valid and holding a value in `bounds[k]`.
    bins: Vec<Bitmap>,
    /// Bin `k`'s least and greatest value, ascending and disjoint.
    bounds: Vec<(i64, i64)>,
    /// The rows of every wide bin, ascending by value, bins concatenated:
    /// bin `k`'s *run* is `order[runs[k]..runs[k + 1]]`, and an exact
    /// bin's is empty — its bound is its value.
    order: Vec<u32>,
    /// Where each bin's run starts in `order`, and the last one ends.
    runs: Vec<usize>,
    /// How many valid rows the bins hold.
    valid: usize,
}

impl ValueIndex {
    /// The index of `values` over bins bounded by `bounds`, where
    /// `bin_of` maps a value to its bin. Only valid rows are read, so
    /// null placeholders are never indexed. `None` when there are more
    /// than [`MAX_BINS`] bins, or a valid row's value has no bin. No bin
    /// has a run yet.
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
            runs: vec![0; bounds.len() + 1],
            bounds,
            order: Vec::new(),
            valid: validity.count_ones(),
        })
    }

    /// The bins of an `Int`/`Date` column whose valid values span
    /// `(lo, hi)` and number `valid`: one per integer of the span when
    /// it holds at most [`MAX_BINS`]; otherwise, from [`MIN_ROWS`] valid
    /// rows up, equi-depth bins, each wide one with its run.
    ///
    /// The edges cost O(rows), not a sort: a span of fewer than
    /// [`EDGE_SAMPLE`] integers is counted value by value and cut at
    /// exact ranks; a wider one is sampled at a fixed stride of rows
    /// down to at most [`EDGE_SAMPLE`] valid values, sorted, and cut at
    /// the sample's ranks. Bin `b` starts at the value of rank
    /// `b · m / MAX_BINS` of those `m`; a start no greater than the one
    /// before is dropped, so a value holding more than a bin's share
    /// collapses edges rather than splitting. Each row then finds its
    /// bin among at most [`MAX_BINS`] starts, and each wide bin's rows
    /// are sorted into its run ([`ValueIndex::order_rows`]).
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
        // A run names its rows as `u32`s.
        if valid < MIN_ROWS || u32::try_from(values.len()).is_err() {
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
        let mut index = ValueIndex::build(values, validity, bounds, |v| {
            Some(later.iter().filter(|&&s| s <= v).count())
        })?;
        index.order_rows(values)?;
        Some(index)
    }

    /// Fill every wide bin's run. A bin spanning fewer than eight values
    /// per row it holds is counting-sorted: its rows counted per value,
    /// then placed in a second walk of them. A wider one sorts its rows
    /// as packed `(value − least) << 32 | row` keys: `u64`s, or `u128`s
    /// where the bin spans 2³² values or more.
    fn order_rows(&mut self, values: &[i64]) -> Option<()> {
        let bins = self.bins.iter().zip(&self.bounds).enumerate();
        let wide: Vec<_> = bins.filter(|(_, (_, &(lo, hi)))| lo != hi).collect();
        let mut at = 0;
        for (k, slot) in self.runs.iter_mut().enumerate() {
            *slot = at;
            at += wide
                .iter()
                .find(|w| w.0 == k)
                .map_or(0, |(_, (bin, _))| bin.count_ones());
        }
        let mut order = vec![0u32; at];
        let mut next = Vec::new();
        for (k, (bin, &(least, greatest))) in wide {
            let run = order.get_mut(*self.runs.get(k)?..*self.runs.get(k + 1)?)?;
            let above = |row: usize| Some(values.get(row)?.wrapping_sub(least) as u64);
            let width = greatest.wrapping_sub(least) as u64;
            if width < 8 * run.len() as u64 {
                // Where each value's next row goes, by its offset.
                next.clear();
                next.resize(width as usize + 2, 0u32);
                for row in bin.iter_ones() {
                    *next.get_mut(above(row)? as usize + 1)? += 1;
                }
                for o in 1..next.len() {
                    next[o] += next[o - 1];
                }
                for row in bin.iter_ones() {
                    let slot = next.get_mut(above(row)? as usize)?;
                    *run.get_mut(*slot as usize)? = row as u32;
                    *slot += 1;
                }
            } else if width >> 32 == 0 {
                let pack = |row: usize| Some(above(row)? << 32 | row as u64);
                sort_packed(run, bin.iter_ones().map(pack), |key| key as u32)?;
            } else {
                let pack = |row: usize| Some(u128::from(above(row)?) << 32 | row as u128);
                sort_packed(run, bin.iter_ones().map(pack), |key| key as u32)?;
            }
        }
        self.order = order;
        Some(())
    }

    /// Each bin's least and greatest value.
    pub(crate) fn bounds(&self) -> &[(i64, i64)] {
        &self.bounds
    }

    /// Bin `k`'s run: its rows, ascending by value; empty for an exact
    /// bin.
    fn run(&self, bin: usize) -> &[u32] {
        let at = |k: usize| self.runs.get(k).copied().unwrap_or(0);
        self.order.get(at(bin)..at(bin + 1)).unwrap_or(&[])
    }

    /// Whether `sel` selects a row of bin `k`: an AND of their words that
    /// stops at the first block of 16 they share a bit in. A block is
    /// folded without a branch: where no bit is shared, about twice as
    /// fast as a test word by word (ADR 0027).
    fn holds(&self, sel: &Bitmap, bin: usize) -> bool {
        let Some(bin) = self.bins.get(bin) else {
            return false;
        };
        let blocks = sel.words().chunks(16).zip(bin.words().chunks(16));
        let shared = |(s, b): (&[u64], &[u64])| s.iter().zip(b).fold(0, |acc, (s, b)| acc | s & b);
        blocks.map(shared).any(|word| word != 0)
    }

    /// The first and the last bin `sel` selects a row of.
    fn ends(&self, sel: &Bitmap) -> Option<(usize, usize)> {
        let first = (0..self.bins.len()).find(|&k| self.holds(sel, k))?;
        let last = (first..self.bins.len())
            .rev()
            .find(|&k| self.holds(sel, k))?;
        Some((first, last))
    }

    /// The values of the rows of `run` that `sel` selects, in the run's
    /// order: a walk of the run that tests one `sel` bit per row and
    /// reads only the values it keeps.
    fn picked<'a>(
        values: &'a [i64],
        sel: &'a Bitmap,
        run: &'a [u32],
    ) -> impl DoubleEndedIterator<Item = i64> + 'a {
        let words = sel.words();
        run.iter()
            .map(|&row| row as usize)
            .filter(move |&row| {
                words
                    .get(row / 64)
                    .is_some_and(|w| w >> (row % 64) & 1 == 1)
            })
            .filter_map(move |row| values.get(row).copied())
    }

    /// Where in `run` the `nth` row (from 0) that `sel` selects lies. The
    /// walk counts each block of 64 rows' `sel` bits without a branch and
    /// steps into the block only where the row lies in it: a selection's
    /// bits are as good as random to the branch predictor.
    fn nth(sel: &Bitmap, run: &[u32], mut nth: usize) -> Option<usize> {
        let words = sel.words();
        let bit = |&row: &u32| {
            let row = row as usize;
            words
                .get(row / 64)
                .map_or(0, |w| (w >> (row % 64) & 1) as usize)
        };
        for (b, block) in run.chunks(64).enumerate() {
            let count: usize = block.iter().map(bit).sum();
            if nth >= count {
                nth -= count;
                continue;
            }
            let mut picked = block.iter().enumerate().filter(|&(_, row)| bit(row) == 1);
            return picked.nth(nth).map(|(i, _)| b * 64 + i);
        }
        None
    }

    /// The least value of the rows `sel` selects in bin `k`, which holds
    /// one: an exact bin's value, or the first such row of its run.
    fn least(&self, values: &[i64], sel: &Bitmap, bin: usize) -> Option<i64> {
        match *self.bounds.get(bin)? {
            (lo, hi) if lo == hi => Some(lo),
            _ => Self::picked(values, sel, self.run(bin)).next(),
        }
    }

    /// The greatest value of the rows `sel` selects in bin `k`, which
    /// holds one: an exact bin's value, or the last such row of its run.
    fn greatest(&self, values: &[i64], sel: &Bitmap, bin: usize) -> Option<i64> {
        match *self.bounds.get(bin)? {
            (lo, hi) if lo == hi => Some(hi),
            _ => Self::picked(values, sel, self.run(bin)).next_back(),
        }
    }

    /// Whether walking `live` rows at `per_row` units a row costs less
    /// than `passes` passes over the bins' words at a unit a word: the
    /// cut-overs below, each measured (ADRs 0021, 0024, 0027 and 0029).
    fn walks(&self, live: usize, per_row: usize, passes: usize) -> bool {
        self.words() * passes > per_row * live
    }

    /// Words per bitmap.
    fn words(&self) -> usize {
        self.bins.first().map_or(0, |bin| bin.words().len())
    }

    /// How many of the `live` rows a selection holds (selected and valid)
    /// fall in each bin — or `None` when walking those rows is cheaper
    /// than an AND-count per bin over every word. With hardware popcount
    /// an AND-count of 2·10⁵ rows takes ≈ 1 µs, and the walk that counts
    /// frequencies pays about six times per row what the AND-count pays
    /// per word, so the counts win once `6 · live ≥ bins · words` (ADRs
    /// 0021 and 0029). The last bin's count is what the others leave of
    /// `live`.
    pub(crate) fn counts(&self, sel: &Bitmap, live: usize) -> Option<Vec<usize>> {
        let (_, rest) = self.bins.split_last()?;
        if self.walks(live, 6, self.bins.len()) {
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

    /// The least and greatest of the values of `values` at the valid
    /// rows a selection holds, read off the bins — or `None` where the
    /// selection holds fewer than four rows per word ([`about`] them),
    /// or no value.
    ///
    /// Intersection tests that stop at the first shared block find the
    /// first and the last bin the selection holds a row of
    /// ([`ValueIndex::holds`]); the least value is the first selected
    /// row of the first one's run, the greatest the last of the last
    /// one's, or an exact bin's value. At worst — rows of one bin only —
    /// that is a test of every bin, each a whole pass (≈ 15–25 µs in
    /// all at 2·10⁵ rows): from four rows per word up, still no more
    /// than the walk (ADRs 0027 and 0029).
    pub(crate) fn extremes(&self, values: &[i64], sel: &Bitmap) -> Option<(i64, i64)> {
        if self.walks(about(sel), 1, 4) {
            return None;
        }
        let (first, last) = self.ends(sel)?;
        Some((
            self.least(values, sel, first)?,
            self.greatest(values, sel, last)?,
        ))
    }

    /// The least of the values of `values` at the valid rows a selection
    /// holds that `above` passes — `above` is monotone: false up to some
    /// value, true from it on — or `None` where the selection holds fewer
    /// than a row per two words ([`about`] them): the walk builds a
    /// `Value` per row, so its cost passes the bins' worst case, as in
    /// [`ValueIndex::extremes`], about eight times sooner.
    /// `Some(None)` when no such value is selected.
    ///
    /// The bins are asked in order of value, skipping those whose
    /// greatest value does not pass or that hold no selected row; in the
    /// first one left, a binary search of its run finds the first row
    /// that passes, and the walk goes on from there.
    pub(crate) fn next_above(
        &self,
        values: &[i64],
        sel: &Bitmap,
        above: impl Fn(i64) -> bool,
    ) -> Option<Option<i64>> {
        if self.walks(about(sel), 2, 1) {
            return None;
        }
        for (k, &(least, greatest)) in self.bounds.iter().enumerate() {
            if !above(greatest) || !self.holds(sel, k) {
                continue;
            }
            if least == greatest {
                return Some(Some(least));
            }
            let run = self.run(k);
            let below = |&row: &u32| values.get(row as usize).is_some_and(|&v| !above(v));
            let from = run.get(run.partition_point(below)..).unwrap_or(&[]);
            if let Some(value) = Self::picked(values, sel, from).next() {
                return Some(Some(value));
            }
        }
        Some(None)
    }

    /// The ranks `lo` and `hi` (`hi` is `lo` or `lo + 1`) and the least
    /// and greatest of the `live` values of `values` that a selection
    /// holds, read off the bins — or `None` where walking the selection
    /// costs less, or there is no value. The bins' path costs ≈ 10–35 µs
    /// at 2·10⁵ rows whatever the density, a handful of ≈ 1 µs
    /// AND-counts among it; the walk gathers and selects order keys at
    /// about eight times what an AND-count pays per word (≈ 30–95 µs
    /// just below 1/16), so the bins run once `8 · live ≥ bins · words`
    /// (ADRs 0024, 0027 and 0029).
    ///
    /// The first and last bins the selection holds a row of give the
    /// extremes, as in [`ValueIndex::extremes`]. The selection is AND-counted
    /// against the bins from the first up to the one holding rank `lo`
    /// (the last one's count is what the others leave of `live`), and the
    /// rank is the value of an exact bin or the `(lo − below)`-th
    /// selected row of that bin's run; rank `hi` the next selected row,
    /// or the least of the next bin holding one. No value is read but
    /// the four answers'.
    pub(crate) fn ranks(
        &self,
        values: &[i64],
        sel: &Bitmap,
        live: usize,
        (lo, hi): (usize, usize),
    ) -> Option<(Ranked, (i64, i64))> {
        if self.walks(live, 8, self.bins.len()) {
            return None;
        }
        let (first, last) = self.ends(sel)?;
        let mut below = 0;
        let (at, count) = (first..=last).find_map(|at| {
            let count = if at == last {
                live.checked_sub(below)?
            } else {
                sel.and_count(self.bins.get(at)?)
            };
            if below + count > lo {
                return Some((at, count));
            }
            below += count;
            None
        })?;
        let (least, greatest) = *self.bounds.get(at)?;
        let exact = least == greatest;
        let (key_lo, rest) = if exact {
            (least, &[][..])
        } else {
            let run = self.run(at);
            let at = Self::nth(sel, run, lo - below)?;
            (*values.get(*run.get(at)? as usize)?, run.get(at + 1..)?)
        };
        let key_hi = if hi - below == count {
            // Rank `hi` is the least of the next bin holding a row.
            let next = (at + 1..=last).find(|&k| self.holds(sel, k))?;
            self.least(values, sel, next)?
        } else if hi == lo || exact {
            key_lo
        } else {
            Self::picked(values, sel, rest).next()?
        };
        let extremes = (
            self.least(values, sel, first)?,
            self.greatest(values, sel, last)?,
        );
        let ranked = Ranked::Selected {
            ranks: (lo, hi),
            keys: (key_lo, key_hi),
            n: live,
        };
        Some((ranked, extremes))
    }

    /// How many rows `within` holds (`None` when there is no `within`:
    /// every valid row), where [`ValueIndex::select`] costs less than
    /// walking them under these verdicts — and `None` where it does not.
    /// It ORs the bins on the smaller side and the partial ones, one pass
    /// over every word each; the walk pays per row, about twice what a
    /// pass pays per word (ADR 0021). So the bins run once
    /// `2 · rows ≥ passes · words`, and never when every bin is partial.
    pub(crate) fn pays(
        &self,
        verdicts: &[Verdict],
        within: Option<&Bitmap>,
    ) -> Option<Option<usize>> {
        let count = |v: Verdict| verdicts.iter().filter(|&&w| w == v).count();
        let (all, partial) = (count(Verdict::All), count(Verdict::Partial));
        let passes = all.min(verdicts.len() - all) + partial;
        if partial == verdicts.len() {
            return None;
        }
        let rows = within.map(Bitmap::count_ones);
        rows.is_none_or(|rows| !self.walks(rows, 2, passes))
            .then_some(rows)
    }

    /// Whether a partial bin's `hits` — the rows of its run of
    /// `run` rows that pass — cost less to scatter into the result than
    /// the bin costs to walk: one OR pass over its words, and a visit of
    /// each row of the bin that `within`'s `rows` hold, estimated at
    /// their share of the valid rows. Measured (ADR 0027).
    fn scatters(&self, hits: usize, run: usize, rows: Option<usize>) -> bool {
        let walked = rows.map_or(run, |rows| rows.saturating_mul(run) / self.valid.max(1));
        hits <= self.words() + 2 * walked
    }

    /// The rows whose bin `verdict` passes — all of a bin's rows when it
    /// says [`Verdict::All`], none when [`Verdict::Nothing`], and those
    /// of a [`Verdict::Partial`] bin that pass — of the `rows` that
    /// `within` holds when given, of every valid row otherwise. The
    /// smaller side is ORed: when more bins pass whole than not, the
    /// result is the valid rows outside the others, the partial rows
    /// added back.
    ///
    /// A partial bin's passing rows are the stretch of its run that
    /// `cut` finds, scattered into the result, where that costs less
    /// than walking it ([`ValueIndex::scatters`]); otherwise, and where
    /// `cut` finds none, they are what `walk(word, rows)` keeps of each
    /// word's rows of the bin.
    pub(crate) fn select(
        &self,
        validity: &Bitmap,
        (within, rows): (Option<Bitmap>, Option<usize>),
        verdicts: &[Verdict],
        walk: impl Fn(usize, u64) -> u64,
        cut: impl Fn(&[u32]) -> Option<Range<usize>>,
    ) -> Bitmap {
        let passes = verdicts.iter().filter(|&&v| v == Verdict::All).count();
        let flipped = 2 * passes > verdicts.len();
        let listed = |k: usize| {
            verdicts
                .get(k)
                .is_some_and(|&v| (v == Verdict::All) != flipped)
        };
        let flip = if flipped { u64::MAX } else { 0 };
        // One OR pass per listed bin: faster than folding the bins word
        // by word, even where `within` leaves words empty (ADR 0021).
        let words = validity.words().len();
        let or = |wanted: &dyn Fn(usize) -> bool| {
            let mut acc = vec![0u64; words];
            let bins = self.bins.iter().enumerate().filter(|&(k, _)| wanted(k));
            for (_, bin) in bins {
                for (a, &b) in acc.iter_mut().zip(bin.words()) {
                    *a |= b;
                }
            }
            acc
        };
        let mut acc = or(&listed);
        // A scattered row flips its bit: set where its bin is not listed,
        // cleared where it is — either way, in the result once `flip`
        // is applied.
        // Bit `k`: partial bin `k` is walked.
        let mut walked = 0u32;
        for (k, _) in verdicts
            .iter()
            .enumerate()
            .filter(|&(_, &v)| v == Verdict::Partial)
        {
            let run = self.run(k);
            let hits = cut(run).and_then(|range| run.get(range));
            match hits {
                Some(hits) if !run.is_empty() && self.scatters(hits.len(), run.len(), rows) => {
                    for &row in hits {
                        if let Some(word) = acc.get_mut(row as usize / 64) {
                            *word ^= 1 << (row % 64);
                        }
                    }
                }
                _ => walked |= 1 << k,
            }
        }
        let partial = (walked != 0).then(|| or(&|k| walked >> k & 1 == 1));
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

/// Fill `run` with the rows whose `packed` keys — each `Some` key
/// ordered as its row's `(value, row)` — come in, in the keys' order;
/// `row` reads a key's row back.
fn sort_packed<K: Ord>(
    run: &mut [u32],
    packed: impl Iterator<Item = Option<K>>,
    row: impl Fn(K) -> u32,
) -> Option<()> {
    let mut keys = packed.collect::<Option<Vec<K>>>()?;
    keys.sort_unstable();
    for (slot, key) in run.iter_mut().zip(keys) {
        *slot = row(key);
    }
    Some(())
}

/// About how many rows `sel` selects: the set bits of one word in 64,
/// times 64 — a sixty-fourth of a pass, for a cut-over that needs no
/// more.
fn about(sel: &Bitmap) -> usize {
    let sampled = sel
        .words()
        .iter()
        .step_by(64)
        .map(|w| w.count_ones() as usize);
    64 * sampled.sum::<usize>()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn no_run(_: &[u32]) -> Option<Range<usize>> {
        None
    }

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
        assert_eq!(index.counts(&sel, live), Some(want));
        // Three bins over three words cost more than walking one row.
        let one = Bitmap::from_indices(130, [1]);
        assert_eq!(index.counts(&one, 1), None);
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
            assert_eq!(
                index.select(&validity, (None, None), &verdicts, walk, no_run),
                want
            );
            let rows = Some(within.count_ones());
            let narrowed = index.select(
                &validity,
                (Some(within.clone()), rows),
                &verdicts,
                walk,
                no_run,
            );
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

    /// How many column shapes [`shaped`] draws from.
    const SHAPES: u64 = 7;

    /// `n` values of shape `shape`, each wide enough for equi-depth bins:
    /// 0. uniform over ±10⁶: sampled edges;
    /// 1. uniform over 3 000 integers: counted edges;
    /// 2. a third of the rows on one value, the rest over 600: collapsed
    ///    edges, the heavy value's bin exact;
    /// 3. clustered at both ends of `i64`: bins wider than 2³² values;
    /// 4. the 2 000 integers up to `i64::MAX`;
    /// 5. the 2 000 integers from `i64::MIN`;
    /// 6. exactly 17 values: counted, most bins exact.
    fn shaped(shape: u64, n: usize, rng: &mut StdRng) -> Vec<i64> {
        let base: i64 = rng.gen_range(-1_000..1_000);
        let mut below = |n: i64| rng.gen_range(0..n);
        (0..n)
            .map(|_| match shape {
                0 => below(2_000_001) - 1_000_000,
                1 => base + below(3_000),
                2 if below(3) == 0 => base + 300,
                2 => base + below(600),
                3 if below(2) == 0 => i64::MIN + below(1 << 40),
                3 => i64::MAX - below(1 << 40),
                4 => i64::MAX - below(2_000),
                5 => i64::MIN + below(2_000),
                _ => base + below(17),
            })
            .collect()
    }

    /// `values` where `valid`, binned as a column's values are: over the
    /// span of the valid ones.
    fn binned(values: &[i64], valid: &Bitmap) -> ValueIndex {
        let held = || valid.iter_ones().map(|i| values[i]);
        let span = (held().min().unwrap(), held().max().unwrap());
        ValueIndex::ints(values, valid, span, valid.count_ones()).unwrap()
    }

    /// The values of the valid rows `sel` selects, sorted.
    fn sorted(values: &[i64], valid: &Bitmap, sel: &Bitmap) -> Vec<i64> {
        let mut held: Vec<i64> = sel.and(valid).iter_ones().map(|i| values[i]).collect();
        held.sort_unstable();
        held
    }

    #[test]
    fn each_wide_bin_runs_its_rows_in_value_order() {
        let mut rng = StdRng::seed_from_u64(5);
        for shape in 0..SHAPES {
            let values = shaped(shape, 3_000, &mut rng);
            let valid = Bitmap::from_indices(3_000, (0..3_000).filter(|i| i % 7 != 3));
            let index = binned(&values, &valid);
            let mut wide = 0;
            for (k, bin) in index.bins.iter().enumerate() {
                let run: Vec<usize> = index.run(k).iter().map(|&r| r as usize).collect();
                let (lo, hi) = index.bounds[k];
                if lo == hi {
                    assert!(run.is_empty(), "shape {shape}: exact bin {k} has a run");
                    continue;
                }
                wide += run.len();
                assert!(run.windows(2).all(|w| values[w[0]] <= values[w[1]]));
                let mut rows = run.clone();
                rows.sort_unstable();
                assert_eq!(rows, bin.iter_ones().collect::<Vec<_>>(), "shape {shape}");
            }
            assert_eq!(index.order.len(), wide, "shape {shape}: 4 B per wide row");
        }
        // A value holding half the rows gets an exact bin, and no run;
        // shape 3's bins are wider than 2³² values, sorted by value
        // rather than packed.
        let values: Vec<i64> = (0..4_000)
            .map(|i| if i % 2 == 0 { 0 } else { i % 999 + 1 })
            .collect();
        let heavy = binned(&values, &Bitmap::ones(4_000));
        assert_eq!((heavy.bounds[0], heavy.run(0)), ((0, 0), &[][..]));
        assert!(!heavy.run(1).is_empty());
        let ends = binned(&shaped(3, 3_000, &mut rng), &Bitmap::ones(3_000));
        assert!(ends
            .bounds
            .iter()
            .any(|&(lo, hi)| hi.wrapping_sub(lo) as u64 >> 32 != 0));
    }

    #[test]
    fn nth_is_the_nth_selected_row_of_a_run() {
        let mut rng = StdRng::seed_from_u64(9);
        let mut keyed: Vec<(u32, u32)> = (0..1_000).map(|row| (rng.gen(), row)).collect();
        keyed.sort_unstable();
        let run: Vec<u32> = keyed.into_iter().map(|(_, row)| row).collect();
        for p in [1.0, 0.5, 0.03] {
            let sel = Bitmap::from_indices(1_000, (0..1_000).filter(|_| rng.gen_bool(p)));
            let picked: Vec<usize> = (0..run.len())
                .filter(|&i| sel.get(run[i] as usize))
                .collect();
            for (nth, &at) in picked.iter().enumerate() {
                assert_eq!(ValueIndex::nth(&sel, &run, nth), Some(at), "{p} {nth}");
            }
            assert_eq!(ValueIndex::nth(&sel, &run, picked.len()), None);
        }
    }

    #[test]
    fn a_partial_bin_scatters_where_its_hits_cost_less_than_its_walk() {
        let values: Vec<i64> = (0..6_400).map(|i| (i * 7_919) % 3_000).collect();
        let index = binned(&values, &Bitmap::ones(6_400));
        // 100 words; a bin of 400 rows.
        assert!(index.scatters(400, 400, None));
        assert!(index.scatters(900, 400, None));
        assert!(!index.scatters(901, 400, None));
        // `within` holding one row in 64 visits about 6 of the bin's.
        assert!(index.scatters(112, 400, Some(100)));
        assert!(!index.scatters(113, 400, Some(100)));
    }

    /// Selections for the runs of `index` over `len` rows: every row,
    /// uniform ones from 1/2 to 1/64, rows of one wide bin, of the first
    /// or of the last bin, of both with the bins between them empty, and
    /// a single row.
    fn run_selections(index: &ValueIndex, len: usize, rng: &mut StdRng) -> Vec<(String, Bitmap)> {
        let mut sels = vec![("all".to_string(), Bitmap::ones(len))];
        for k in [2u32, 4, 8, 16, 32, 64] {
            let drawn = (0..len).filter(|_| rng.gen_range(0..k) == 0);
            sels.push((format!("1/{k}"), Bitmap::from_indices(len, drawn)));
        }
        let half = Bitmap::from_indices(len, (0..len).filter(|_| rng.gen_bool(0.5)));
        let bins = index.bins.len();
        let mut wide = (0..bins).filter(|&k| index.bounds[k].0 != index.bounds[k].1);
        let one = wide.next_back().unwrap_or(0);
        sels.push((format!("bin {one}"), index.bins[one].and(&half)));
        sels.push(("first bin".into(), index.bins[0].clone()));
        sels.push(("last bin".into(), index.bins[bins - 1].and(&half)));
        let ends = index.bins[0].or(&index.bins[bins - 1]).and(&half);
        sels.push(("first and last bins".into(), ends));
        sels.push(("one row".into(), Bitmap::from_indices(len, [len / 2])));
        sels
    }

    /// Every kernel that reads the runs against a sort of the selected
    /// values, on a column of shape `seed % SHAPES` with or without nulls.
    fn check_runs(seed: u64) -> Result<(), TestCaseError> {
        use crate::column::{Column, ColumnData};
        use crate::predicate::{eval_range, RangePred};
        use crate::value::Value;
        use std::cmp::Ordering;
        use std::sync::Arc;

        let mut rng = StdRng::seed_from_u64(seed);
        let shape = seed % SHAPES;
        let len = rng.gen_range(1_600..3_200);
        let nulls = [0.0, 0.3][rng.gen_range(0..2usize)];
        let values = shaped(shape, len, &mut rng);
        let valid = Bitmap::from_indices(len, (0..len).filter(|_| !rng.gen_bool(nulls)));
        let index = binned(&values, &valid);
        let col = Column::from_parts(
            "x".into(),
            ColumnData::Int(values.clone()),
            valid.clone(),
            Arc::default(),
        )
        .indexed();
        prop_assert!(col.index().is_some());
        let words = valid.words().len();
        let what = format!("shape {shape}, {len} rows, {nulls} nulls");
        for (label, sel) in run_selections(&index, len, &mut rng) {
            let held = sorted(&values, &valid, &sel);
            let n = held.len();
            let ends = (n > 0).then(|| (held[0], held[n - 1]));
            let extremes = index.extremes(&values, &sel);
            prop_assert!(
                extremes.is_none_or(|e| Some(e) == ends),
                "{} {}",
                what,
                label
            );
            prop_assert!(
                about(&sel) < 4 * words || extremes.is_some() || n == 0,
                "{}",
                label
            );
            if n > 0 {
                let mut pairs = vec![
                    (0, 0),
                    (n.div_ceil(2) - 1, n / 2),
                    (n / 4, n / 4),
                    (n - 1, n - 1),
                ];
                if n > 1 {
                    let lo = rng.gen_range(0..n - 1);
                    pairs.push((lo, lo + 1));
                }
                for (lo, hi) in pairs {
                    let ranked = index.ranks(&values, &sel, n, (lo, hi));
                    prop_assert!(
                        ranked.is_some() || 8 * n < MAX_BINS * words,
                        "{} {}",
                        what,
                        label
                    );
                    if let Some((Ranked::Selected { keys, .. }, got)) = ranked {
                        prop_assert_eq!(
                            keys,
                            (held[lo], held[hi]),
                            "{} {} ranks {} {}",
                            what,
                            label,
                            lo,
                            hi
                        );
                        prop_assert_eq!(Some(got), ends, "{} {}", what, label);
                    }
                }
            }
            let mut floors = vec![i64::MIN, i64::MAX];
            for _ in 0..4 {
                let v = values[rng.gen_range(0..len)];
                floors.extend([v.saturating_sub(1), v, v.saturating_add(1)]);
            }
            for &floor in &floors {
                let want = held.iter().copied().find(|&v| v > floor);
                if let Some(got) = index.next_above(&values, &sel, |v| v > floor) {
                    prop_assert_eq!(got, want, "{} {} next_above {}", what, label, floor);
                }
            }
            // Ranges: integer bounds on and beside values, or `Float`
            // ones between them, inclusive and half-open, within the
            // selection and alone.
            let ints: Vec<Value> = floors.iter().map(|&v| Value::Int(v)).collect();
            let floats: Vec<Value> = floors
                .iter()
                .map(|&v| Value::Float(v as f64 + 0.5))
                .collect();
            for k in 0..8 {
                let bounds = if k % 2 == 0 { &ints } else { &floats };
                let a = bounds[rng.gen_range(0..bounds.len())].clone();
                let b = bounds[rng.gen_range(0..bounds.len())].clone();
                let (lo, hi) = match a.try_cmp(&b) {
                    Ok(Ordering::Greater) => (b, a),
                    _ => (a, b),
                };
                let pred = RangePred {
                    column: "x".into(),
                    lo,
                    hi,
                    hi_inclusive: rng.gen_bool(0.5),
                };
                let passes = |i: usize| {
                    let v = Value::Int(values[i]);
                    let upper = if pred.hi_inclusive {
                        Ordering::Greater
                    } else {
                        Ordering::Equal
                    };
                    valid.get(i)
                        && v.try_cmp(&pred.lo).unwrap() != Ordering::Less
                        && v.try_cmp(&pred.hi).unwrap() < upper
                };
                let want = Bitmap::from_indices(len, (0..len).filter(|&i| passes(i)));
                let got = eval_range(&col, &pred, Some(sel.clone())).unwrap();
                prop_assert_eq!(got, want.and(&sel), "{} {} {:?}", what, label, pred);
                prop_assert_eq!(
                    eval_range(&col, &pred, None).unwrap(),
                    want,
                    "{} {:?}",
                    what,
                    pred
                );
            }
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(28))]

        #[test]
        fn value_ordered_runs_answer_what_a_sort_answers(seed in any::<u64>()) {
            check_runs(seed)?;
        }
    }

    #[test]
    fn value_ordered_runs_answer_what_a_sort_answers_on_every_shape() {
        for seed in 0..SHAPES {
            check_runs(seed).unwrap();
        }
    }
}
