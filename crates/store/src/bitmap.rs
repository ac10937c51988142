//! Selection bitmaps: the vectorised "selection vector" of the engine.
//!
//! Every predicate evaluation produces a [`Bitmap`] with one bit per row of
//! the table. Conjunctions are bitwise ANDs, segment disjointness checks
//! are AND + count, covers are popcounts. Keeping selections as bitmaps is
//! what makes the advisor's inner loop (thousands of intersection counts
//! during INDEP search) cheap.
//!
//! There is one layout: a flat `Vec<u64>`, bit `i` at word `i / 64`, and
//! no bit set beyond `len`. `docs/FORMAT.md` serialises it verbatim, and
//! `tests/bitmap_model.rs` replays random op sequences against a
//! `Vec<bool>` model of it. `docs/adr/0003-one-bitmap-layout-one-build.md`
//! records why the Roaring-style compressed twin was removed and what
//! measurement would bring a second layout back.

// No call outside the tests may panic: every selection flows through
// this file.
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

use std::fmt;

const WORD_BITS: usize = 64;

/// A fixed-length bitmap over row indices `0..len`.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Bitmap {
    /// Flat little-endian word layout: bit `i` at word `i/64`.
    words: Vec<u64>,
    len: usize,
}

impl Bitmap {
    /// All-zeros bitmap of the given length.
    pub fn new(len: usize) -> Bitmap {
        Bitmap {
            words: vec![0; len.div_ceil(WORD_BITS)],
            len,
        }
    }

    /// All-ones bitmap of the given length.
    pub fn ones(len: usize) -> Bitmap {
        let mut bm = Bitmap {
            words: vec![u64::MAX; len.div_ceil(WORD_BITS)],
            len,
        };
        bm.clear_tail();
        bm
    }

    /// Build from an iterator of row indices (need not be sorted).
    pub fn from_indices(len: usize, indices: impl IntoIterator<Item = usize>) -> Bitmap {
        let mut bm = Bitmap::new(len);
        for i in indices {
            bm.set(i);
        }
        bm
    }

    /// Number of addressable rows.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the bitmap addresses zero rows.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Set bit `i`. Panics if out of range (programming error).
    pub fn set(&mut self, i: usize) {
        assert!(i < self.len, "bit {i} out of range {}", self.len);
        self.words[i / WORD_BITS] |= 1u64 << (i % WORD_BITS);
    }

    /// Read bit `i`.
    pub fn get(&self, i: usize) -> bool {
        assert!(i < self.len, "bit {i} out of range {}", self.len);
        self.words[i / WORD_BITS] >> (i % WORD_BITS) & 1 == 1
    }

    /// Number of set bits (the *count over a predicate* of the paper).
    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// True if no bit is set.
    pub fn none(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Word-wise combination of two bitmaps of the same length. `op`
    /// must map `(0, 0)` to `0` so the tail beyond `len` stays clear.
    fn zip_words(&self, other: &Bitmap, op: impl Fn(u64, u64) -> u64) -> Bitmap {
        assert_eq!(self.len, other.len, "bitmap length mismatch");
        Bitmap {
            words: self
                .words
                .iter()
                .zip(&other.words)
                .map(|(&a, &b)| op(a, b))
                .collect(),
            len: self.len,
        }
    }

    /// New bitmap: `self ∩ other`, with `other` arriving word by word in
    /// layout order (words it does not supply are zero). The scan kernels
    /// build their result this way from a validity bitmap: null rows
    /// never match, and the tail beyond `len` is clear because `self`'s is.
    pub(crate) fn and_words(&self, other: impl IntoIterator<Item = u64>) -> Bitmap {
        let mut words: Vec<u64> = self.words.iter().zip(other).map(|(a, b)| a & b).collect();
        words.resize(self.words.len(), 0);
        Bitmap {
            words,
            len: self.len,
        }
    }

    /// Narrow in place, one word at a time: each word that has a bit set
    /// keeps what `keep(word_index, word)` returns of it; an empty word is
    /// not visited. The restricted scan kernel narrows a selection this
    /// way, and the tail beyond `len` stays clear because bits are only
    /// ever cleared.
    pub(crate) fn narrow_words(&mut self, mut keep: impl FnMut(usize, u64) -> u64) {
        for (w, word) in self.words.iter_mut().enumerate() {
            if *word != 0 {
                *word &= keep(w, *word);
            }
        }
    }

    /// In-place intersection with another bitmap of the same length.
    pub fn and_inplace(&mut self, other: &Bitmap) {
        assert_eq!(self.len, other.len, "bitmap length mismatch");
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a &= *b;
        }
    }

    /// New bitmap: `self ∩ other`.
    pub fn and(&self, other: &Bitmap) -> Bitmap {
        self.zip_words(other, |a, b| a & b)
    }

    /// New bitmap: `self ∪ other`.
    pub fn or(&self, other: &Bitmap) -> Bitmap {
        self.zip_words(other, |a, b| a | b)
    }

    /// New bitmap: `self \ other`.
    pub fn and_not(&self, other: &Bitmap) -> Bitmap {
        self.zip_words(other, |a, b| a & !b)
    }

    /// New bitmap: complement within `0..len`.
    pub fn not(&self) -> Bitmap {
        let mut out = Bitmap {
            words: self.words.iter().map(|w| !w).collect(),
            len: self.len,
        };
        out.clear_tail();
        out
    }

    /// `|self ∩ other|` without materialising the intersection — the hot
    /// operation of INDEP search (pairwise product cell counts).
    pub fn and_count(&self, other: &Bitmap) -> usize {
        assert_eq!(self.len, other.len, "bitmap length mismatch");
        self.words
            .iter()
            .zip(&other.words)
            .map(|(a, b)| (a & b).count_ones() as usize)
            .sum()
    }

    /// True if the two bitmaps share no set bit (segment disjointness).
    pub fn is_disjoint(&self, other: &Bitmap) -> bool {
        assert_eq!(self.len, other.len, "bitmap length mismatch");
        self.words.iter().zip(&other.words).all(|(a, b)| a & b == 0)
    }

    /// Append one bit, growing the bitmap by one row (amortized O(1)).
    /// Used by load paths that build validity masks incrementally.
    pub fn push(&mut self, value: bool) {
        // Invariant: no bit beyond `len` may be set in the last word —
        // otherwise the pushed position could inherit a stale bit from a
        // previous occupant of the word. All constructors uphold this
        // (see `clear_tail`), so a dirty tail is a bug; restore it anyway
        // so `push` never silently corrupts the new row.
        debug_assert!(self.tail_is_clear(), "stale bits beyond len {}", self.len);
        self.clear_tail();
        let i = self.len;
        self.len += 1;
        if self.words.len() * WORD_BITS < self.len {
            self.words.push(0);
        }
        if value {
            self.words[i / WORD_BITS] |= 1u64 << (i % WORD_BITS);
        }
    }

    /// The flat 64-bit word layout (bit `i` lives at word `i / 64`, bit
    /// position `i % 64`; bits beyond `len` in the last word are zero).
    /// This is the layout the on-disk `.charles` format serialises
    /// verbatim — see `docs/FORMAT.md`.
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Rebuild a bitmap from its word layout (inverse of
    /// [`Bitmap::words`]). Returns `None` when `words` is not exactly
    /// `len.div_ceil(64)` words long or a bit beyond `len` is set — the
    /// two ways a deserialised buffer can violate the invariants every
    /// other operation assumes.
    pub fn from_words(words: Vec<u64>, len: usize) -> Option<Bitmap> {
        if words.len() != len.div_ceil(WORD_BITS) {
            return None;
        }
        let bm = Bitmap { words, len };
        bm.tail_is_clear().then_some(bm)
    }

    /// Iterator over the indices of set bits, ascending.
    pub fn iter_ones(&self) -> OnesIter<'_> {
        OnesIter {
            words: &self.words,
            word_idx: 0,
            current: self.words.first().copied().unwrap_or(0),
        }
    }

    /// True when no bit beyond `len` is set in the last word — the
    /// invariant every public operation must preserve (popcounts,
    /// complements and pushes all assume it).
    fn tail_is_clear(&self) -> bool {
        let tail = self.len % WORD_BITS;
        tail == 0
            || self
                .words
                .last()
                .is_none_or(|last| last & !((1u64 << tail) - 1) == 0)
    }

    /// Zero out the bits beyond `len` in the last word so popcounts and
    /// complements stay correct.
    fn clear_tail(&mut self) {
        let tail = self.len % WORD_BITS;
        if tail != 0 {
            if let Some(last) = self.words.last_mut() {
                *last &= (1u64 << tail) - 1;
            }
        }
    }
}

impl fmt::Debug for Bitmap {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Bitmap[{}/{}]", self.count_ones(), self.len)
    }
}

/// Iterator over set-bit indices of a [`Bitmap`].
pub struct OnesIter<'a> {
    words: &'a [u64],
    word_idx: usize,
    current: u64,
}

impl Iterator for OnesIter<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        while self.current == 0 {
            self.word_idx += 1;
            if self.word_idx >= self.words.len() {
                return None;
            }
            self.current = self.words[self.word_idx];
        }
        let bit = self.current.trailing_zeros() as usize;
        self.current &= self.current - 1; // clear lowest set bit
        Some(self.word_idx * WORD_BITS + bit)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn words_round_trip_and_reject_bad_layouts() {
        let bm = Bitmap::from_indices(130, [0, 63, 64, 129]);
        let rebuilt = Bitmap::from_words(bm.words().to_vec(), 130).unwrap();
        assert_eq!(rebuilt, bm);
        // Wrong word count.
        assert!(Bitmap::from_words(vec![0; 2], 130).is_none());
        assert!(Bitmap::from_words(vec![0; 4], 130).is_none());
        // Dirty tail: bit 130 set in the last word.
        let mut words = bm.words().to_vec();
        words[2] |= 1 << 2;
        assert!(Bitmap::from_words(words, 130).is_none());
        // Degenerate empty bitmap.
        assert_eq!(Bitmap::from_words(Vec::new(), 0).unwrap(), Bitmap::new(0));
    }

    #[test]
    fn new_is_all_zero_ones_is_all_one() {
        let z = Bitmap::new(130);
        assert_eq!(z.count_ones(), 0);
        let o = Bitmap::ones(130);
        assert_eq!(o.count_ones(), 130);
    }

    #[test]
    fn ones_tail_is_clean() {
        // 70 bits spans two words; second word must only have 6 bits set.
        let o = Bitmap::ones(70);
        assert_eq!(o.count_ones(), 70);
        assert_eq!(o.not().count_ones(), 0);
    }

    #[test]
    fn set_get() {
        let mut bm = Bitmap::new(100);
        bm.set(0);
        bm.set(63);
        bm.set(64);
        bm.set(99);
        assert!(bm.get(0) && bm.get(63) && bm.get(64) && bm.get(99));
        assert!(!bm.get(1));
        assert_eq!(bm.count_ones(), 4);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn get_out_of_range_panics() {
        Bitmap::new(10).get(10);
    }

    #[test]
    fn boolean_algebra() {
        let a = Bitmap::from_indices(10, [0, 1, 2, 3]);
        let b = Bitmap::from_indices(10, [2, 3, 4, 5]);
        assert_eq!(a.and(&b).iter_ones().collect::<Vec<_>>(), vec![2, 3]);
        assert_eq!(
            a.or(&b).iter_ones().collect::<Vec<_>>(),
            vec![0, 1, 2, 3, 4, 5]
        );
        assert_eq!(a.and_not(&b).iter_ones().collect::<Vec<_>>(), vec![0, 1]);
        assert_eq!(a.and_count(&b), 2);
        assert!(!a.is_disjoint(&b));
        assert!(a.and_not(&b).is_disjoint(&b));
    }

    #[test]
    fn complement_partitions_universe() {
        let a = Bitmap::from_indices(77, [0, 10, 76]);
        let c = a.not();
        assert_eq!(a.count_ones() + c.count_ones(), 77);
        assert!(a.is_disjoint(&c));
        assert_eq!(a.or(&c).count_ones(), 77);
    }

    #[test]
    fn iter_ones_crosses_word_boundaries() {
        let idx = vec![0usize, 63, 64, 65, 127, 128];
        let bm = Bitmap::from_indices(200, idx.clone());
        assert_eq!(bm.iter_ones().collect::<Vec<_>>(), idx);
    }

    #[test]
    fn iter_ones_empty() {
        assert_eq!(Bitmap::new(0).iter_ones().count(), 0);
        assert_eq!(Bitmap::new(64).iter_ones().count(), 0);
    }

    #[test]
    fn none_detects_empty_selection() {
        assert!(Bitmap::new(100).none());
        assert!(!Bitmap::from_indices(100, [50]).none());
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn and_length_mismatch_panics() {
        let _ = Bitmap::new(10).and(&Bitmap::new(11));
    }

    /// Manufacture an invariant violation (as a future length-mutating
    /// refactor might): a stale bit exactly where the next push lands.
    fn dirty_tail_bitmap() -> Bitmap {
        let mut bm = Bitmap::ones(3);
        bm.words[0] |= 1u64 << 3;
        assert!(!bm.tail_is_clear());
        bm
    }

    // `push` on a dirty tail has one pinned behaviour per build mode:
    // debug trips the assertion, release silently repairs. Each test is
    // compiled only into the mode whose behaviour it checks, so neither
    // is ever a silent no-op.

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "stale bits beyond len")]
    fn push_asserts_on_dirty_tail_in_debug() {
        dirty_tail_bitmap().push(false);
    }

    #[test]
    #[cfg(not(debug_assertions))]
    fn push_restores_dirty_tail_in_release() {
        let mut bm = dirty_tail_bitmap();
        bm.push(false);
        assert!(!bm.get(3), "stale tail bit leaked into pushed row");
        assert_eq!(bm.count_ones(), 3);
        assert!(bm.tail_is_clear());
    }

    /// Every public operation preserves "no bits set beyond len".
    mod invariant_props {
        use super::*;
        use proptest::prelude::*;

        fn arb_bitmap() -> impl Strategy<Value = Bitmap> {
            proptest::collection::vec(any::<bool>(), 0usize..200).prop_map(|bits| {
                let mut bm = Bitmap::new(bits.len());
                for (i, b) in bits.into_iter().enumerate() {
                    if b {
                        bm.set(i);
                    }
                }
                bm
            })
        }

        /// Long bitmaps with structure — sparse strides, a solid
        /// prefix, alternating bits — over lengths around 2¹⁶, so the
        /// word loops run over a thousand words and end on every kind
        /// of last word.
        fn arb_structured() -> impl Strategy<Value = Bitmap> {
            (
                0usize..3,
                proptest::sample::select(vec![
                    0usize, 1, 100, 65_535, 65_536, 65_537, 70_000, 131_072,
                ]),
            )
                .prop_map(|(kind, len)| match kind {
                    0 => Bitmap::from_indices(len, (0..len).step_by(97)),
                    1 => Bitmap::from_indices(len, 0..len * 3 / 4),
                    _ => Bitmap::from_indices(len, (0..len).step_by(2)),
                })
        }

        fn check_invariants(a: &Bitmap, b: &Bitmap, extra: &[bool]) -> Result<(), TestCaseError> {
            prop_assert!(a.tail_is_clear());
            prop_assert!(Bitmap::ones(a.len()).tail_is_clear());
            prop_assert!(a.not().tail_is_clear());
            // Same-length algebra: `b` re-cut to `a`'s length.
            let y = Bitmap::from_indices(a.len(), b.iter_ones().take_while(|&i| i < a.len()));
            prop_assert!(y.tail_is_clear());
            prop_assert!(a.and(&y).tail_is_clear());
            prop_assert!(a.or(&y).tail_is_clear());
            prop_assert!(a.and_not(&y).tail_is_clear());
            // Incremental pushes from wherever `a` ends.
            let mut grown = a.clone();
            for &bit in extra {
                grown.push(bit);
                prop_assert!(grown.tail_is_clear());
            }
            let pushed_ones = extra.iter().filter(|&&v| v).count();
            prop_assert_eq!(grown.count_ones(), a.count_ones() + pushed_ones);
            Ok(())
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(128))]

            #[test]
            fn every_public_op_keeps_tail_clear(
                a in arb_bitmap(),
                b in arb_bitmap(),
                extra in proptest::collection::vec(any::<bool>(), 0..130),
            ) {
                check_invariants(&a, &b, &extra)?;
            }

            #[test]
            fn long_structured_bitmaps_keep_tail_clear(
                a in arb_structured(),
                b in arb_structured(),
                extra in proptest::collection::vec(any::<bool>(), 0..70),
            ) {
                check_invariants(&a, &b, &extra)?;
            }
        }
    }
}
