//! Model-based battery for the selection `Bitmap`.
//!
//! Every public operation is driven against a `Vec<bool>` model — the
//! ground truth for each operation's meaning — from outside the crate.
//! After every step the bitmap must agree with the model on length,
//! cardinality, the `words()` stream bit for bit (which also proves no
//! bit beyond `len` is ever set — the tail invariant), iteration order,
//! and equality and hashing against a bitmap built afresh from the
//! model.
//!
//! Lengths are chosen to cross word seams (0, 1, 63, 64, 65, 127–129)
//! and to exceed 65 537 bits, so the word loops run over a thousand
//! words and end on every kind of last word.
//!
//! Regression seeds live in `proptest-regressions/bitmap_model.txt`.

use charles_store::Bitmap;
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

/// Bits past which a bitmap spans more than a thousand words.
const LONG: usize = 65536;
/// Lengths on either side of every word seam the kernels special-case.
const SEAM_LENS: [usize; 8] = [0, 1, 63, 64, 65, 127, 128, 129];

fn build(bits: &[bool]) -> Bitmap {
    Bitmap::from_indices(bits.len(), (0..bits.len()).filter(|&i| bits[i]))
}

fn hash_of(bm: &Bitmap) -> u64 {
    let mut h = DefaultHasher::new();
    bm.hash(&mut h);
    h.finish()
}

/// Assert the bitmap matches the model exactly.
fn check(model: &[bool], bm: &Bitmap) -> Result<(), TestCaseError> {
    prop_assert_eq!(bm.len(), model.len());
    prop_assert_eq!(bm.is_empty(), model.is_empty());

    let expected_ones = model.iter().filter(|&&b| b).count();
    prop_assert_eq!(bm.count_ones(), expected_ones);
    prop_assert_eq!(bm.none(), expected_ones == 0);

    // Building the expected words from the model also proves the tail
    // invariant from outside the crate — a stray bit beyond `len` would
    // differ.
    let mut expected_words = vec![0u64; model.len().div_ceil(64)];
    for (i, &b) in model.iter().enumerate() {
        if b {
            expected_words[i / 64] |= 1u64 << (i % 64);
        }
    }
    prop_assert_eq!(bm.words(), &expected_words[..]);

    // Iteration agrees with the model in order.
    let expect_iter: Vec<usize> = (0..model.len()).filter(|&i| model[i]).collect();
    prop_assert_eq!(bm.iter_ones().collect::<Vec<_>>(), expect_iter);

    // However the bitmap got here, it equals — and hashes like — the
    // bitmap built directly from the same content.
    let fresh = build(model);
    prop_assert_eq!(bm, &fresh);
    prop_assert_eq!(hash_of(bm), hash_of(&fresh));
    Ok(())
}

/// An operand with structure the word kernels can get wrong: empty,
/// full, strided, one solid run, dense noise, or sparse noise.
fn operand(len: usize, rng: &mut StdRng) -> Vec<bool> {
    match rng.gen_range(0u8..6) {
        0 => vec![false; len],
        1 => vec![true; len],
        2 => {
            let stride = rng.gen_range(1usize..=130);
            (0..len).map(|i| i % stride == 0).collect()
        }
        3 => {
            let a = if len == 0 { 0 } else { rng.gen_range(0..len) };
            let b = if len == 0 { 0 } else { rng.gen_range(a..=len) };
            (0..len).map(|i| i >= a && i < b).collect()
        }
        4 => (0..len).map(|_| rng.gen_bool(0.5)).collect(),
        _ => (0..len).map(|_| rng.gen_bool(1.0 / 400.0)).collect(),
    }
}

/// Apply one random operation to the model and the bitmap.
fn step(rng: &mut StdRng, model: &mut Vec<bool>, bm: &mut Bitmap) {
    match rng.gen_range(0u8..7) {
        0 => {
            // A burst of pushes (occasionally enough to cross several
            // word seams from wherever the length stands).
            let n = if rng.gen_bool(0.2) {
                rng.gen_range(1..=300)
            } else {
                rng.gen_range(1..=48)
            };
            for _ in 0..n {
                let b = rng.gen_bool(0.5);
                model.push(b);
                bm.push(b);
            }
        }
        1 if !model.is_empty() => {
            let i = rng.gen_range(0..model.len());
            model[i] = true;
            bm.set(i);
        }
        2 if !model.is_empty() => {
            let i = rng.gen_range(0..model.len());
            model[i] = false;
            *bm = bm.and_not(&Bitmap::from_indices(model.len(), [i]));
        }
        op @ 3..=5 => {
            let other = operand(model.len(), rng);
            let other_bm = build(&other);
            match op {
                3 => {
                    for (m, &o) in model.iter_mut().zip(&other) {
                        *m = *m && o;
                    }
                    // Both spellings of intersection, at random.
                    if rng.gen_bool(0.5) {
                        *bm = bm.and(&other_bm);
                    } else {
                        bm.and_inplace(&other_bm);
                    }
                }
                4 => {
                    for (m, &o) in model.iter_mut().zip(&other) {
                        *m = *m || o;
                    }
                    *bm = bm.or(&other_bm);
                }
                _ => {
                    for (m, &o) in model.iter_mut().zip(&other) {
                        *m = *m && !o;
                    }
                    *bm = bm.and_not(&other_bm);
                }
            }
        }
        6 => {
            for m in model.iter_mut() {
                *m = !*m;
            }
            *bm = bm.not();
        }
        _ => {} // set/unset on an empty bitmap: no-op round
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The headline property: a random sequence of every public
    /// mutating operation leaves the bitmap bitwise identical to the
    /// model.
    #[test]
    fn random_op_sequences_match_the_model(
        seed in any::<u64>(),
        start_len in 0usize..1200,
        steps in 1usize..24,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut model = operand(start_len, &mut rng);
        let mut bm = build(&model);
        check(&model, &bm)?;
        for _ in 0..steps {
            step(&mut rng, &mut model, &mut bm);
            check(&model, &bm)?;
        }
    }

    /// The query surface (no mutation): counting, disjointness
    /// and random-access reads agree with the model.
    #[test]
    fn query_ops_match_the_model(
        seed in any::<u64>(),
        len in 0usize..(2 * LONG + 500),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let a = operand(len, &mut rng);
        let b = operand(len, &mut rng);
        let expected_and = a.iter().zip(&b).filter(|(&x, &y)| x && y).count();
        let (x, y) = (build(&a), build(&b));
        prop_assert_eq!(x.and_count(&y), expected_and);
        prop_assert_eq!(x.is_disjoint(&y), expected_and == 0);
        prop_assert_eq!(x.and(&y).count_ones(), expected_and);
        for _ in 0..64.min(len) {
            let i = rng.gen_range(0..len.max(1));
            prop_assert_eq!(x.get(i), a[i]);
        }
    }

    /// `from_words` round-trips `words()` and rejects malformed
    /// streams.
    #[test]
    fn word_streams_round_trip(
        seed in any::<u64>(),
        len in 0usize..(LONG + 500),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let bm = build(&operand(len, &mut rng));
        let round = Bitmap::from_words(bm.words().to_vec(), len)
            .expect("words() output is always a valid stream");
        prop_assert_eq!(&round, &bm);
        // Wrong word count is rejected, both ways.
        let mut long = bm.words().to_vec();
        long.push(0);
        prop_assert!(Bitmap::from_words(long, len).is_none());
        if len > 0 {
            let short = bm.words()[1..].to_vec();
            prop_assert!(Bitmap::from_words(short, len).is_none());
        }
        // A bit beyond len is rejected.
        if len % 64 != 0 {
            let mut dirty = bm.words().to_vec();
            *dirty.last_mut().unwrap() |= 1u64 << (len % 64);
            prop_assert!(Bitmap::from_words(dirty, len).is_none());
        }
    }
}

// ---------------------------------------------------------------------
// Deterministic word-seam edges.
// ---------------------------------------------------------------------

#[test]
fn every_op_is_exact_at_word_seam_lengths() {
    let mut rng = StdRng::seed_from_u64(0x5EA7);
    for len in SEAM_LENS.into_iter().chain([LONG - 1, LONG, LONG + 1]) {
        let (a, b) = (operand(len, &mut rng), operand(len, &mut rng));
        let (x, y) = (build(&a), build(&b));
        check(&a, &x).unwrap();
        check(&vec![true; len], &Bitmap::ones(len)).unwrap();
        check(&vec![false; len], &Bitmap::new(len)).unwrap();
        let zip = |f: fn(bool, bool) -> bool| -> Vec<bool> {
            a.iter().zip(&b).map(|(&p, &q)| f(p, q)).collect()
        };
        check(&zip(|p, q| p && q), &x.and(&y)).unwrap();
        check(&zip(|p, q| p || q), &x.or(&y)).unwrap();
        check(&zip(|p, q| p && !q), &x.and_not(&y)).unwrap();
        let inv: Vec<bool> = a.iter().map(|&p| !p).collect();
        check(&inv, &x.not()).unwrap();
    }
}
