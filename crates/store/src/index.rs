//! Per-value bitmaps for a column of few distinct values.
//!
//! A column whose values fit in [`MAX_VALUES`] slots — a dictionary of
//! that many strings, the two booleans, or an `Int`/`Date` column whose
//! span holds that many integers — keeps one bitmap per slot: bit `i` of
//! slot `k` is set ⇔ row `i` is valid and holds slot `k`'s value. A
//! table builds it once, when it fills the column's slot
//! (`Table::from_parts`, an opened file's first touch); the row store's
//! projections never get one, so `Table ⇔ RowTable` compares the answers
//! read off these bitmaps with the row walks they replace.
//!
//! Three kernels read it: a nominal column's frequencies and a narrow
//! integer column's counted ranks (one AND-count per slot, where the
//! selection's rows outnumber what the counts cost — [`ValueIndex::counts`]),
//! and every range or set scan (one verdict per slot, the passing
//! slots ORed — [`ValueIndex::select`]). Each answers exactly what the
//! row walk answers: every valid row is in one slot, and every slot gets
//! the verdict its value would. The choice and its cut-over are measured
//! (`docs/adr/0021-per-value-bitmaps-for-few-valued-columns.md`); not a
//! setting.

// No call outside the tests may panic: every scan, frequency and
// counted rank of a few-valued column reads these bitmaps.
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

/// The most slots a column is indexed with (ADR 0021).
pub(crate) const MAX_VALUES: usize = 16;

/// One validity-masked bitmap per slot of a column's values.
#[derive(Debug, Clone)]
pub(crate) struct ValueIndex {
    /// Slot `k`'s rows: valid and holding its value.
    slots: Vec<Bitmap>,
    /// An `Int`/`Date` column's least value, whose slot is 0; 0 for a
    /// column whose slots are its dictionary codes or its booleans.
    base: i64,
}

impl ValueIndex {
    /// The index of `values` over `slots` slots, where `slot_of` maps a
    /// value to its slot and `base` is slot 0's value (see the field).
    /// Only valid rows are read, so null placeholders are never indexed.
    /// `None` when there are more than [`MAX_VALUES`] slots, or a valid
    /// row's value has no slot.
    pub(crate) fn build<T: Copy>(
        values: &[T],
        validity: &Bitmap,
        (base, slots): (i64, usize),
        slot_of: impl Fn(T) -> Option<usize>,
    ) -> Option<ValueIndex> {
        if slots > MAX_VALUES || values.len() != validity.len() {
            return None;
        }
        let words = validity.words().len();
        let mut bits = vec![vec![0u64; words]; slots];
        for (w, &valid) in validity.words().iter().enumerate() {
            let mut word = valid;
            while word != 0 {
                let b = word.trailing_zeros();
                let value = *values.get(w * 64 + b as usize)?;
                *bits.get_mut(slot_of(value)?)?.get_mut(w)? |= 1 << b;
                word &= word - 1; // clear lowest set bit
            }
        }
        let len = validity.len();
        let slots = bits.into_iter().map(|b| Bitmap::from_words(b, len));
        Some(ValueIndex {
            slots: slots.collect::<Option<_>>()?,
            base,
        })
    }

    /// Slot 0's value, for an `Int`/`Date` column.
    pub(crate) fn base(&self) -> i64 {
        self.base
    }

    /// How many of the `live` rows a selection holds (selected and valid)
    /// fall in each slot — or `None` when walking those rows is cheaper
    /// than an AND-count per slot over every word. An AND-count of a
    /// word costs about half what the walk pays per row (ADR 0021), so
    /// the counts win once `2 · live ≥ slots · words`. The last slot's
    /// count is what the others leave of `live`.
    pub(crate) fn counts(&self, sel: &Bitmap, live: usize) -> Option<Vec<usize>> {
        let (last, rest) = self.slots.split_last()?;
        if 2 * live < self.slots.len() * last.words().len() {
            return None;
        }
        let mut counts: Vec<usize> = rest.iter().map(|slot| sel.and_count(slot)).collect();
        counts.push(live.checked_sub(counts.iter().sum())?);
        Some(counts)
    }

    /// The rows whose slot `keep` passes: of those `within` holds when
    /// given, of every valid row otherwise. The smaller side is ORed:
    /// when more slots pass than fail, the result is the valid rows
    /// outside the failing ones.
    pub(crate) fn select(
        &self,
        validity: &Bitmap,
        within: Option<Bitmap>,
        keep: impl Fn(usize) -> bool,
    ) -> Bitmap {
        let (pass, fail): (Vec<_>, Vec<_>) =
            self.slots.iter().enumerate().partition(|(k, _)| keep(*k));
        let (listed, flip) = if pass.len() <= fail.len() {
            (pass, 0)
        } else {
            (fail, u64::MAX)
        };
        // One OR pass per listed slot: faster than folding the slots word
        // by word, even where `within` leaves words empty (ADR 0021).
        let mut acc = vec![0u64; validity.words().len()];
        for (_, slot) in listed {
            for (a, &b) in acc.iter_mut().zip(slot.words()) {
                *a |= b;
            }
        }
        match within {
            None => validity.and_words(acc.iter().map(|&a| a ^ flip)),
            Some(mut sel) => {
                let valid = validity.words();
                sel.narrow_words(|w, _| (acc[w] ^ flip) & valid[w]);
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
        let index = ValueIndex::build(&values, &validity, (0, 3), |v| Some(v as usize)).unwrap();
        (values, validity, index)
    }

    #[test]
    fn slots_partition_the_valid_rows() {
        let (values, validity, index) = fixture();
        assert_eq!(index.slots.len(), 3);
        for (k, slot) in index.slots.iter().enumerate() {
            let want = validity.iter_ones().filter(|&i| values[i] as usize == k);
            assert_eq!(slot, &Bitmap::from_indices(130, want));
        }
    }

    #[test]
    fn too_many_slots_or_a_value_without_one_builds_nothing() {
        let values = vec![0u32; 4];
        let validity = Bitmap::ones(4);
        assert!(ValueIndex::build(&values, &validity, (0, MAX_VALUES + 1), |_| Some(0)).is_none());
        assert!(ValueIndex::build(&values, &validity, (0, 2), |_| Some(2)).is_none());
        assert!(ValueIndex::build(&values, &validity, (0, 2), |_| None).is_none());
        // A null row's placeholder is never asked about.
        let nulls = Bitmap::new(4);
        assert!(ValueIndex::build(&values, &nulls, (0, 2), |_| None).is_some());
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
        // Three slots over three words cost more than walking one row.
        let one = Bitmap::from_indices(130, [1]);
        assert_eq!(index.counts(&one, 1), None);
    }

    #[test]
    fn select_is_the_passing_valid_rows_from_either_side() {
        let (values, validity, index) = fixture();
        let within = Bitmap::from_indices(130, (0..130).filter(|i| i % 7 < 3));
        for keep in [
            [false; 3],
            [true; 3],
            [true, false, false],
            [true, false, true],
        ] {
            let want = Bitmap::from_indices(
                130,
                validity.iter_ones().filter(|&i| keep[values[i] as usize]),
            );
            assert_eq!(index.select(&validity, None, |k| keep[k]), want);
            let narrowed = index.select(&validity, Some(within.clone()), |k| keep[k]);
            assert_eq!(narrowed, want.and(&within));
        }
    }
}
