//! Binned bitmaps against the row walk.
//!
//! A `Table` keeps bitmaps over bins of every `Int`/`Date` column of
//! more than 16 values and at least 1 024 valid rows, and of every
//! column whose values fit in 16 exact bins
//! (`docs/adr/0024-binned-bitmaps-for-wide-integer-columns.md`). Its
//! scans OR the bins a predicate covers and walk the rest; its order
//! statistics AND-count the selection per bin and walk at most four
//! bins. `RowTable` projects its selected tuples into columns that never
//! get bins, so every answer below is `Table`'s bins against
//! `RowTable`'s walks.
//!
//! Each case draws one column of a shape that stresses the edge rule —
//! counted or sampled edges, a value holding more than a bin's share,
//! exactly 16 and 17 distinct values, spans touching `i64::MIN` and
//! `i64::MAX` — with or without nulls, and compares:
//! * `eval` of ranges (`Int`/`Date` bounds on and beside the column's
//!   values and bin edges, `Float` bounds including `-0.0`, `0.0`, NaN
//!   and infinities, inclusive and half-open) and of sets (with `Float`
//!   members), alone and within empty, sparse, dense, mixed and full
//!   selections;
//! * `cut_stats`, `median`, `quantile`, `min_max` and `next_above` over
//!   those selections.
//!
//! The shape is the seed modulo [`SHAPES`], so the committed regression
//! seeds 0–7 (`proptest-regressions/bins_vs_walk.txt`) pin one case of
//! each.

use charles_store::{Backend, Bitmap, DataType, RowTable, StorePredicate, TableBuilder, Value};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// How many column shapes [`column`] draws from.
const SHAPES: u64 = 8;

/// `n` values of shape `shape`:
/// 0. uniform over ±10⁶: wider than the edge sample, so sampled edges;
/// 1. uniform over 3 000 integers: counted edges;
/// 2. a third of the rows on one value, the rest over 600: edges collapse;
/// 3. exactly 16 distinct values: one exact bin each;
/// 4. exactly 17 distinct values: equi-depth bins from counts;
/// 5. clustered at both `i64::MIN` and `i64::MAX`: a span of 2⁶⁴ − 1;
/// 6. the 2 000 integers up to `i64::MAX`;
/// 7. the 2 000 integers from `i64::MIN`.
fn column(shape: u64, n: usize, rng: &mut StdRng) -> Vec<i64> {
    let base: i64 = rng.gen_range(-1_000..1_000);
    let mut below = |n: i64| rng.gen_range(0..n);
    (0..n)
        .map(|_| match shape {
            0 => below(2_000_001) - 1_000_000,
            1 => base + below(3_000),
            2 if below(3) == 0 => base + 300,
            2 => base + below(600),
            3 => base + below(16),
            4 => base + below(17),
            5 if below(2) == 0 => i64::MIN + below(500),
            5 => i64::MAX - below(500),
            6 => i64::MAX - below(2_000),
            _ => i64::MIN + below(2_000),
        })
        .collect()
}

/// Selections of `len` rows: empty, about 1% and 60% dense, every row,
/// and one whose words are each empty, sparse or dense.
fn selections(len: usize, rng: &mut StdRng) -> Vec<Bitmap> {
    let mut drawn = |p: f64| Bitmap::from_indices(len, (0..len).filter(|_| rng.gen_bool(p)));
    let (sparse, dense) = (drawn(0.01), drawn(0.6));
    let mut mixed = Bitmap::new(len);
    for word in (0..len).step_by(64) {
        let p = [0.0, 0.05, 0.5, 1.0][rng.gen_range(0..4usize)];
        for i in word..len.min(word + 64) {
            if rng.gen_bool(p) {
                mixed.set(i);
            }
        }
    }
    vec![Bitmap::new(len), sparse, dense, mixed, Bitmap::ones(len)]
}

/// Range and set predicates on `x`, whose values are `values` of type
/// `ty`.
fn predicates(ty: DataType, values: &[i64], rng: &mut StdRng) -> Vec<StorePredicate> {
    let wrap = |v: i64| match ty {
        DataType::Date => Value::Date(v),
        _ => Value::Int(v),
    };
    let mut sorted = values.to_vec();
    sorted.sort_unstable();
    // Integer bounds: column values at quantiles (where bin edges fall),
    // their neighbours, and the extremes of `i64`.
    let mut ends: Vec<i64> = (0..=16)
        .map(|q| sorted[q * (sorted.len() - 1) / 16])
        .collect();
    for _ in 0..4 {
        let v = sorted[rng.gen_range(0..sorted.len())];
        ends.extend([v.saturating_sub(1), v, v.saturating_add(1)]);
    }
    ends.extend([i64::MIN, i64::MAX]);
    let mut preds = Vec::new();
    for _ in 0..12 {
        let (a, b) = (
            ends[rng.gen_range(0..ends.len())],
            ends[rng.gen_range(0..ends.len())],
        );
        preds.push(StorePredicate::range(
            "x",
            wrap(a.min(b)),
            wrap(a.max(b)),
            rng.gen_bool(0.5),
        ));
    }
    // `Float` bounds: halves beside column values, the zeros, NaN and
    // the infinities.
    let mut floats: Vec<f64> = (0..6)
        .map(|_| sorted[rng.gen_range(0..sorted.len())] as f64 + 0.5)
        .collect();
    floats.extend([-0.0, 0.0, f64::NAN, f64::INFINITY, f64::NEG_INFINITY]);
    for _ in 0..10 {
        let (a, b) = (
            floats[rng.gen_range(0..floats.len())],
            floats[rng.gen_range(0..floats.len())],
        );
        let (lo, hi) = if a.total_cmp(&b).is_le() {
            (a, b)
        } else {
            (b, a)
        };
        preds.push(StorePredicate::range(
            "x",
            Value::Float(lo),
            Value::Float(hi),
            rng.gen_bool(0.5),
        ));
    }
    // Sets: a few column values and misses, with `Float` members.
    for _ in 0..3 {
        let mut members: Vec<Value> = (0..rng.gen_range(1..6))
            .map(|_| wrap(sorted[rng.gen_range(0..sorted.len())].wrapping_add(rng.gen_range(0..2))))
            .collect();
        let v = sorted[rng.gen_range(0..sorted.len())];
        members.extend([
            Value::Float(v as f64),
            Value::Float(-0.0),
            Value::Float(0.5),
        ]);
        preds.push(StorePredicate::set("x", members));
    }
    preds
}

fn check(seed: u64) -> Result<(), TestCaseError> {
    let mut rng = StdRng::seed_from_u64(seed);
    let shape = seed % SHAPES;
    let ty = if rng.gen_bool(0.5) {
        DataType::Int
    } else {
        DataType::Date
    };
    let len = rng.gen_range(1_100..2_400);
    let nulls = [0.0, 0.05, 0.6][rng.gen_range(0..3usize)];
    let values = column(shape, len, &mut rng);
    let mut b = TableBuilder::new("t");
    b.add_column("x", ty);
    for &v in &values {
        let cell = match ty {
            DataType::Date => Value::Date(v),
            _ => Value::Int(v),
        };
        b.push_row_opt(vec![(!rng.gen_bool(nulls)).then_some(cell)])
            .unwrap();
    }
    let table = b.finish();
    let rows = RowTable::from_table(&table).unwrap();
    let what = format!("shape {shape}, {ty:?}, {len} rows, {nulls} nulls");
    let sels = selections(len, &mut rng);

    for pred in predicates(ty, &values, &mut rng) {
        prop_assert_eq!(
            table.eval(&pred).unwrap(),
            rows.eval(&pred).unwrap(),
            "{} {:?}",
            what,
            pred
        );
        for sel in &sels {
            let within = StorePredicate::and(vec![
                StorePredicate::Rows(Arc::new(sel.clone())),
                pred.clone(),
            ]);
            let got = table.eval(&within).unwrap();
            prop_assert_eq!(
                &got,
                &rows.eval(&within).unwrap(),
                "{} {:?} within",
                what,
                pred
            );
            prop_assert_eq!(
                Bitmap::from_words(got.words().to_vec(), len),
                Some(got.clone())
            );
        }
    }

    let floor = Value::Int(values[rng.gen_range(0..len)]);
    for sel in &sels {
        let (t, r) = (
            table.cut_stats("x", sel).unwrap(),
            rows.cut_stats("x", sel).unwrap(),
        );
        let key = |s: Option<charles_store::CutStats>| s.map(|s| (s.min, s.max, s.median));
        prop_assert_eq!(key(t), key(r), "{} cut_stats", what);
        prop_assert_eq!(
            table.median("x", sel).unwrap(),
            rows.median("x", sel).unwrap(),
            "{}",
            what
        );
        for q in [0.0, 0.1, 0.5, 0.9, 1.0] {
            let (t, r) = (
                table.quantile("x", sel, q).unwrap(),
                rows.quantile("x", sel, q).unwrap(),
            );
            prop_assert_eq!(t, r, "{} quantile {}", what, q);
        }
        prop_assert_eq!(
            table.min_max("x", sel).unwrap(),
            rows.min_max("x", sel).unwrap(),
            "{}",
            what
        );
        prop_assert_eq!(
            table.next_above("x", sel, &floor).unwrap(),
            rows.next_above("x", sel, &floor).unwrap(),
            "{} next_above {:?}",
            what,
            floor
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn binned_columns_answer_what_the_row_walk_answers(seed in any::<u64>()) {
        check(seed)?;
    }
}
