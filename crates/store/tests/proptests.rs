//! Property-based tests of the storage substrate: bitmap algebra,
//! order statistics, predicate scans, CSV round-trips, and the
//! column-store/row-store equivalence.

use charles_store::value::numeric_value;
use charles_store::{
    exact_median, quantile_value, read_csv_str, write_csv_string, Backend, Bitmap, DataType,
    RowTable, StorePredicate, Table, TableBuilder, Value,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

const ALL_TYPES: [DataType; 5] = [
    DataType::Int,
    DataType::Float,
    DataType::Str,
    DataType::Date,
    DataType::Bool,
];

/// Column lengths on either side of every seam of the first two
/// selection words, where a word-at-a-time kernel can lose or invent a
/// row.
const WORD_SEAMS: [usize; 8] = [0, 1, 63, 64, 65, 127, 128, 129];

/// The `k`-th value (`k ∈ -8..8`) of a small per-type domain, so that
/// range bounds and set members both hit and miss rows. No `-0.0`: it is
/// the one float the dense scan (`>=` on `f64`) and `RowTable`
/// (`total_cmp`) order differently.
fn domain_value(ty: DataType, k: i64) -> Value {
    match ty {
        DataType::Int => Value::Int(k),
        DataType::Float => Value::Float(k as f64 * 0.5),
        DataType::Str => Value::Str(format!("s{:02}", k + 8)),
        DataType::Date => Value::Date(k),
        DataType::Bool => Value::Bool(k % 2 != 0),
    }
}

/// A one-column table `x` of `len` rows over [`domain_value`], about one
/// row in five null.
fn kernel_table(ty: DataType, len: usize, rng: &mut StdRng) -> Table {
    let mut b = TableBuilder::new("t");
    b.add_column("x", ty);
    for _ in 0..len {
        let cell = (!rng.gen_bool(0.2)).then(|| domain_value(ty, rng.gen_range(-8..8)));
        b.push_row_opt(vec![cell]).unwrap();
    }
    b.finish()
}

/// Range predicates, inclusive and half-open, with both bounds drawn
/// from just around the domain — and `Float` bounds on an `Int` column.
fn range_predicates(ty: DataType, rng: &mut StdRng) -> Vec<StorePredicate> {
    let (a, b): (i64, i64) = (rng.gen_range(-9..9), rng.gen_range(-9..9));
    let (lo, hi) = (a.min(b), a.max(b));
    let mut preds = Vec::new();
    for inclusive in [true, false] {
        let (lo_v, hi_v) = match ty {
            DataType::Bool => (Value::Bool(false), Value::Bool(hi % 2 != 0)),
            _ => (domain_value(ty, lo), domain_value(ty, hi)),
        };
        preds.push(StorePredicate::range("x", lo_v, hi_v, inclusive));
        if ty == DataType::Int {
            let (lo_f, hi_f) = (Value::Float(lo as f64 - 0.5), Value::Float(hi as f64));
            preds.push(StorePredicate::range("x", lo_f, hi_f, inclusive));
        }
    }
    preds
}

/// Set predicates: a random subset of the domain, the same plus a
/// member no row holds, and the empty set.
fn set_predicates(ty: DataType, rng: &mut StdRng) -> Vec<StorePredicate> {
    let mut members: Vec<Value> = (-8..8)
        .filter(|_| rng.gen_bool(0.3))
        .map(|k| domain_value(ty, k))
        .collect();
    let present = StorePredicate::set("x", members.clone());
    // 40 is outside the domain (for Bool it is just `false` again).
    members.push(domain_value(ty, 40));
    let with_absent = StorePredicate::set("x", members);
    vec![present, with_absent, StorePredicate::set("x", Vec::new())]
}

/// What the per-row loops these kernels replaced answered for one
/// non-null value: numerics compare as `f64` (which is what lets an `Int`
/// column take `Float` bounds), strings and booleans in their own order.
fn model_matches(v: &Value, pred: &StorePredicate) -> bool {
    match pred {
        StorePredicate::Range(r) => match (v.as_f64(), r.lo.as_f64(), r.hi.as_f64()) {
            (Some(x), Some(lo), Some(hi)) => x >= lo && (x < hi || (r.hi_inclusive && x == hi)),
            _ => {
                let at_most = |o: std::cmp::Ordering| o.is_lt() || (r.hi_inclusive && o.is_eq());
                v.try_cmp(&r.lo).unwrap().is_ge() && at_most(v.try_cmp(&r.hi).unwrap())
            }
        },
        StorePredicate::Set(s) => s.values.contains(v),
        other => panic!("not a leaf predicate: {other:?}"),
    }
}

/// Selections to evaluate a leaf within, each word drawn at its own
/// density — from empty through a few rows to full — so that, under the
/// table's one-in-five nulls, the restricted kernel walks some words row
/// by row and compares others whole, in every order.
fn word_mixes(len: usize, rng: &mut StdRng) -> Vec<Bitmap> {
    const DENSITIES: [f64; 7] = [0.0, 0.05, 0.2, 0.35, 0.5, 0.8, 1.0];
    (0..3)
        .map(|_| {
            let mut sel = Bitmap::new(len);
            for word in (0..len).step_by(64) {
                let p = DENSITIES[rng.gen_range(0..DENSITIES.len())];
                for i in word..len.min(word + 64) {
                    if rng.gen_bool(p) {
                        sel.set(i);
                    }
                }
            }
            sel
        })
        .collect()
}

/// The kernel differential: every physical type, at every word-seam
/// length and one random length, with random nulls — the dense scan of
/// each of `predicates`, over the whole column and within selections of
/// mixed word densities ([`word_mixes`]), against [`model_matches`] over
/// `Column::get`, and against the row store's per-tuple `try_cmp` as a
/// second witness.
fn check_scans_against_per_row_model(
    seed: u64,
    random_len: usize,
    predicates: fn(DataType, &mut StdRng) -> Vec<StorePredicate>,
) -> Result<(), TestCaseError> {
    for ty in ALL_TYPES {
        for len in WORD_SEAMS.into_iter().chain([random_len]) {
            let mut rng = StdRng::seed_from_u64(seed ^ len as u64);
            let t = kernel_table(ty, len, &mut rng);
            let col = t.column("x").unwrap();
            let row = RowTable::from_table(&t).unwrap();
            let predicates = predicates(ty, &mut rng);
            let selections = word_mixes(len, &mut rng);
            for pred in predicates {
                let got = t.eval(&pred).unwrap();
                let expected: Vec<usize> = (0..len)
                    .filter(|&i| col.get(i).is_some_and(|v| model_matches(&v, &pred)))
                    .collect();
                prop_assert_eq!(
                    got.iter_ones().collect::<Vec<_>>(),
                    expected,
                    "{:?} x {} rows, {:?}",
                    ty,
                    len,
                    &pred
                );
                // Exactly `len` bits and none set beyond them: the
                // checked constructor takes the words back.
                prop_assert_eq!(
                    Bitmap::from_words(got.words().to_vec(), len),
                    Some(got.clone()),
                    "{:?} x {} rows, {:?}",
                    ty,
                    len,
                    &pred
                );
                prop_assert_eq!(&row.eval(&pred).unwrap(), &got);
                for sel in &selections {
                    let rows = StorePredicate::Rows(Arc::new(sel.clone()));
                    let within = StorePredicate::and(vec![rows, pred.clone()]);
                    let narrowed = t.eval(&within).unwrap();
                    let expected: Vec<usize> =
                        expected.iter().copied().filter(|&i| sel.get(i)).collect();
                    prop_assert_eq!(
                        narrowed.iter_ones().collect::<Vec<_>>(),
                        expected,
                        "{:?} x {} rows, {:?} within {:?}",
                        ty,
                        len,
                        &pred,
                        sel
                    );
                    prop_assert_eq!(
                        Bitmap::from_words(narrowed.words().to_vec(), len),
                        Some(narrowed.clone())
                    );
                    prop_assert_eq!(&row.eval(&within).unwrap(), &narrowed);
                }
            }
        }
    }
    Ok(())
}

/// The seams of the store's rank selection (`stats.rs`): a histogram of
/// 2¹² buckets over the keys' range, read alone when the range is under
/// it, and no histogram below 256 keys.
const BUCKETS: i64 = 1 << 12;
const CUT_OVER: usize = 256;

/// `n` integers of one of the shapes the rank selection treats apart:
/// * beyond 2⁵³ (where `f64` merges neighbours), with `i64::MIN` and
///   `i64::MAX` in the same set — a range of 2⁶⁴ − 1;
/// * spanning exactly 2¹² − 1, 2¹² and 2¹² + 1 values' worth of range;
/// * one bucket holding all but the two extremes;
/// * a handful of values, heavily duplicated.
///
/// Apart from the first shape they lie within ±2⁴¹, where every integer
/// is its own `f64`: a rank off by one shows in the median.
fn int_keys(shape: u8, n: usize, rng: &mut StdRng) -> Vec<i64> {
    let base: i64 = rng.gen_range(-(1i64 << 40)..(1 << 40));
    let mut v: Vec<i64> = match shape {
        0 => (0..n)
            .map(|_| (1 << 53) + rng.gen_range(-50i64..50))
            .collect(),
        1..=3 => {
            let range = BUCKETS - 2 + i64::from(shape);
            let mut v: Vec<i64> = (0..n).map(|_| base + rng.gen_range(0..=range)).collect();
            v[0] = base;
            v[n - 1] = base + range;
            v
        }
        4 => (0..n).map(|_| base + rng.gen_range(0i64..64)).collect(),
        _ => (0..n).map(|_| base + 7 * rng.gen_range(0i64..3)).collect(),
    };
    if shape == 0 || shape == 4 {
        v[0] = i64::MIN;
        v[n - 1] = i64::MAX;
    }
    v
}

/// `n` floats drawn from both zeros, both infinities, subnormals of
/// both signs, a few heavily repeated values and a wide spread.
fn float_values(n: usize, rng: &mut StdRng) -> Vec<f64> {
    let tiny = f64::MIN_POSITIVE / 8.0;
    let pool = [
        0.0,
        -0.0,
        f64::INFINITY,
        f64::NEG_INFINITY,
        tiny,
        -tiny,
        1.5,
        -2.0,
    ];
    (0..n)
        .map(|_| match rng.gen_range(0..3) {
            0 => rng.gen_range(-1e300..1e300),
            1 => pool[rng.gen_range(0..pool.len())],
            _ => pool[rng.gen_range(4..pool.len())] * rng.gen_range(1..3) as f64,
        })
        .collect()
}

/// A one-column table `x` of `ty` holding `values`.
fn column_table(ty: DataType, values: impl IntoIterator<Item = Value>) -> Table {
    let mut b = TableBuilder::new("t");
    b.add_column("x", ty);
    for v in values {
        b.push_row(vec![v]).unwrap();
    }
    b.finish()
}

/// Median, quantiles and cut statistics of column `x` over `sel`, on the
/// table and on the row store, against the sorted `picked` (ascending
/// under `cmp`, as `f64` by `to_f64`), bit for bit: `Debug` tells the
/// zeros apart.
fn check_ranks<T: Copy>(
    t: &Table,
    sel: &Bitmap,
    mut picked: Vec<T>,
    cmp: impl Fn(&T, &T) -> std::cmp::Ordering,
    to_f64: impl Fn(T) -> f64,
    wrap: impl Fn(T) -> Value,
) -> Result<(), TestCaseError> {
    let ty = t.schema().type_of("x").unwrap();
    picked.sort_by(&cmp);
    let n = picked.len();
    let show = |v: Option<Value>| format!("{v:?}");
    let median = (n > 0).then(|| {
        let (lo, hi) = (to_f64(picked[(n - 1) / 2]), to_f64(picked[n / 2]));
        numeric_value(ty, if n % 2 == 1 { hi } else { (lo + hi) / 2.0 })
    });
    let row = RowTable::from_table(t).unwrap();
    let backends: [&dyn Backend; 2] = [t, &row];
    for b in backends {
        prop_assert_eq!(
            show(b.median("x", sel).unwrap()),
            show(median.clone()),
            "n={}",
            n
        );
        for q in [0.0, 0.25, 0.5, 0.9, 1.0] {
            let k = ((q * n as f64).ceil() as usize).clamp(1, n.max(1)) - 1;
            let want = (n > 0).then(|| numeric_value(ty, to_f64(picked[k])));
            prop_assert_eq!(
                show(b.quantile("x", sel, q).unwrap()),
                show(want),
                "q={}",
                q
            );
        }
    }
    let stats = t.cut_stats("x", sel).unwrap();
    let want = (n > 0).then(|| {
        let (min, max) = (picked[0], picked[n - 1]);
        let constant = cmp(&min, &max).is_eq();
        format!(
            "{:?} {:?} {:?}",
            wrap(min),
            wrap(max),
            median.filter(|_| !constant)
        )
    });
    let got = stats.map(|s| format!("{:?} {:?} {:?}", s.min, s.max, s.median));
    prop_assert_eq!(got, want);
    Ok(())
}

fn arb_bitmap(len: usize) -> impl Strategy<Value = Bitmap> {
    proptest::collection::vec(any::<bool>(), len).prop_map(move |bits| {
        let mut bm = Bitmap::new(len);
        for (i, b) in bits.into_iter().enumerate() {
            if b {
                bm.set(i);
            }
        }
        bm
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn bitmap_de_morgan(len in 1usize..300, seed in any::<u64>()) {
        // Derive two bitmaps deterministically from the seed.
        let mut rng = StdRng::seed_from_u64(seed);
        let mut a = Bitmap::new(len);
        let mut b = Bitmap::new(len);
        for i in 0..len {
            if rng.gen_bool(0.5) { a.set(i); }
            if rng.gen_bool(0.3) { b.set(i); }
        }
        // ¬(a ∪ b) = ¬a ∩ ¬b
        let lhs = a.or(&b).not();
        let rhs = a.not().and(&b.not());
        prop_assert_eq!(&lhs, &rhs);
        // |a| + |b| = |a ∪ b| + |a ∩ b|
        prop_assert_eq!(
            a.count_ones() + b.count_ones(),
            a.or(&b).count_ones() + a.and_count(&b)
        );
        // a \ b disjoint from b, and (a\b) ∪ (a∩b) = a
        let diff = a.and_not(&b);
        prop_assert!(diff.is_disjoint(&b));
        prop_assert_eq!(&diff.or(&a.and(&b)), &a);
    }

    #[test]
    fn bitmap_iter_matches_get(bm in arb_bitmap(200)) {
        let from_iter: Vec<usize> = bm.iter_ones().collect();
        let from_get: Vec<usize> = (0..200).filter(|&i| bm.get(i)).collect();
        prop_assert_eq!(from_iter, from_get);
    }

    #[test]
    fn median_and_quantiles_match_sorted_reference(
        values in proptest::collection::vec(
            prop_oneof![
                -1e6f64..1e6,
                // Duplicates, both zeros and both infinities: where the
                // rank-k element is only unique as a bit pattern.
                (-3i64..3).prop_map(|k| k as f64),
                proptest::sample::select(vec![0.0, -0.0, f64::INFINITY, f64::NEG_INFINITY]),
            ],
            1..200,
        ),
        q in 0.0f64..=1.0,
    ) {
        let mut sorted = values.clone();
        sorted.sort_by(f64::total_cmp);
        // Median: equals the sorted definition, bit for bit.
        let med = exact_median(&values).unwrap();
        let n = sorted.len();
        let reference = if n % 2 == 1 {
            sorted[n / 2]
        } else {
            (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
        };
        prop_assert_eq!(med.to_bits(), reference.to_bits(), "median {} vs {}", med, reference);
        // Quantile: nearest-rank definition.
        let qv = quantile_value(&values, q).unwrap();
        let k = ((q * n as f64).ceil() as usize).clamp(1, n) - 1;
        prop_assert_eq!(qv.to_bits(), sorted[k].to_bits(), "quantile {} vs {}", qv, sorted[k]);
    }

    #[test]
    fn rank_selection_matches_sorted_reference(
        seed in any::<u64>(),
        n in prop_oneof![
            1usize..700,
            proptest::sample::select(vec![CUT_OVER - 1, CUT_OVER, CUT_OVER + 1]),
        ],
        shape in 0u8..6,
    ) {
        // Every rank the store reports comes out of one selection over
        // `i64` order keys: it must be what sorting the values gives.
        let mut rng = StdRng::seed_from_u64(seed);
        let ints = int_keys(shape, n, &mut rng);
        let floats = float_values(n, &mut rng);
        let int_table = column_table(DataType::Int, ints.iter().map(|&x| Value::Int(x)));
        // The same values and, last, one far below them that no
        // selection picks: a column too wide to count, so the selected
        // keys are gathered and bucket-selected whatever their range.
        let guard = ints.iter().chain([&i64::MIN]).map(|&x| Value::Int(x));
        let guarded = column_table(DataType::Int, guard);
        let float_table = column_table(DataType::Float, floats.iter().map(|&x| Value::Float(x)));
        let half = Bitmap::from_indices(n, (0..n).filter(|_| rng.gen_bool(0.5)));
        for sel in [Bitmap::ones(n), half] {
            let pick = |i: usize| sel.get(i);
            let picked: Vec<i64> = (0..n).filter(|&i| pick(i)).map(|i| ints[i]).collect();
            check_ranks(&int_table, &sel, picked.clone(), i64::cmp, |x| x as f64, Value::Int)?;
            let unguarded = Bitmap::from_indices(n + 1, sel.iter_ones());
            check_ranks(&guarded, &unguarded, picked, i64::cmp, |x| x as f64, Value::Int)?;
            let picked: Vec<f64> = (0..n).filter(|&i| pick(i)).map(|i| floats[i]).collect();
            check_ranks(&float_table, &sel, picked.clone(), f64::total_cmp, |x| x, Value::Float)?;
            // The slice helpers take the same path.
            if !picked.is_empty() {
                let want = float_table.median("x", &sel).unwrap().unwrap();
                prop_assert_eq!(format!("{:?}", Value::Float(exact_median(&picked).unwrap())), format!("{want:?}"));
                let want = float_table.quantile("x", &sel, 0.9).unwrap().unwrap();
                prop_assert_eq!(format!("{:?}", Value::Float(quantile_value(&picked, 0.9).unwrap())), format!("{want:?}"));
            }
        }
    }

    #[test]
    fn range_scan_matches_naive_filter(seed in any::<u64>(), random_len in 0usize..400) {
        check_scans_against_per_row_model(seed, random_len, range_predicates)?;
    }

    #[test]
    fn set_scan_matches_naive_filter(seed in any::<u64>(), random_len in 0usize..400) {
        check_scans_against_per_row_model(seed, random_len, set_predicates)?;
    }

    #[test]
    fn selection_aggregates_match_filter_then_sort(seed in any::<u64>(), random_len in 0usize..400) {
        for ty in ALL_TYPES {
            for len in WORD_SEAMS.into_iter().chain([random_len]) {
                let mut rng = StdRng::seed_from_u64(seed ^ len as u64);
                let t = kernel_table(ty, len, &mut rng);
                let col = t.column("x").unwrap();
                let sel = Bitmap::from_indices(len, (0..len).filter(|_| rng.gen_bool(0.5)));
                // Reference: filter the selected, non-null rows (row
                // order), then sort.
                let picked: Vec<Value> = sel.iter_ones().filter_map(|i| col.get(i)).collect();
                let mut sorted = picked.clone();
                sorted.sort_by(|a, b| a.try_cmp(b).unwrap());

                let mut gathered = Vec::new();
                if ty.is_numeric() {
                    col.gather_f64(&sel, &mut gathered).unwrap();
                    let reference: Vec<f64> = picked.iter().map(|v| v.as_f64().unwrap()).collect();
                    prop_assert_eq!(&gathered, &reference);
                } else {
                    prop_assert!(col.gather_f64(&sel, &mut gathered).is_err());
                    let (table, dict) = t.frequencies("x", &sel).unwrap();
                    for &(code, n) in table.entries() {
                        let of_code = picked.iter().filter(|v| v.render() == dict[code as usize]);
                        prop_assert_eq!(of_code.count(), n);
                    }
                    prop_assert_eq!(table.total(), picked.len());
                }

                let extremes = sorted.first().cloned().zip(sorted.last().cloned());
                prop_assert_eq!(col.min_max(&sel), extremes.clone(), "{:?} x {} rows", ty, len);
                let floor = domain_value(ty, rng.gen_range(-9..9));
                let next = sorted.iter().find(|v| v.try_cmp(&floor).unwrap().is_gt()).cloned();
                prop_assert_eq!(
                    t.next_above("x", &sel, &floor).unwrap(), next.clone(),
                    "{:?} x {} rows above {:?}", ty, len, &floor
                );
                // Second witness: the row store's per-tuple folds.
                let row = RowTable::from_table(&t).unwrap();
                prop_assert_eq!(row.min_max("x", &sel).unwrap(), extremes);
                prop_assert_eq!(row.next_above("x", &sel, &floor).unwrap(), next);
            }
        }
    }

    #[test]
    fn csv_round_trip_arbitrary_strings(
        rows in proptest::collection::vec(
            ("[ -~]{0,20}", proptest::option::of(-1000i64..1000)),
            0..40,
        ),
    ) {
        let mut b = TableBuilder::new("t");
        b.add_column("s", DataType::Str).add_column("x", DataType::Int);
        for (s, x) in &rows {
            // CSV cannot represent strings with surrounding whitespace
            // faithfully (fields are trimmed at parse); normalise first.
            let s = s.trim().to_string();
            b.push_row_opt(vec![Some(Value::Str(s)), x.map(Value::Int)]).unwrap();
        }
        let t = b.finish();
        let text = write_csv_string(&t).unwrap();
        let t2 = read_csv_str("t2", &text).unwrap();
        prop_assert_eq!(t.len(), t2.len());
        for i in 0..t.len() {
            prop_assert_eq!(t.value(i, "s").unwrap(), t2.value(i, "s").unwrap());
            prop_assert_eq!(t.value(i, "x").unwrap(), t2.value(i, "x").unwrap());
        }
    }

    #[test]
    fn engines_agree_on_arbitrary_predicates(
        values in proptest::collection::vec((0i64..50, 0usize..4), 1..120),
        lo in 0i64..50,
        width in 0i64..50,
        cat in 0usize..4,
    ) {
        let cats = ["red", "green", "blue", "grey"];
        let mut b = TableBuilder::new("t");
        b.add_column("x", DataType::Int).add_column("k", DataType::Str);
        for &(x, c) in &values {
            b.push_row(vec![Value::Int(x), Value::str(cats[c])]).unwrap();
        }
        let col = b.finish();
        let row = RowTable::from_table(&col).unwrap();
        let pred = StorePredicate::and(vec![
            StorePredicate::range("x", Value::Int(lo), Value::Int(lo + width), true),
            StorePredicate::set("k", vec![Value::str(cats[cat])]),
        ]);
        prop_assert_eq!(col.count(&pred).unwrap(), row.count(&pred).unwrap());
        // Medians agree on the matching rows (when any).
        let sel_c = col.eval(&pred).unwrap();
        let sel_r = row.eval(&pred).unwrap();
        let mc = col.median("x", &sel_c).unwrap().map(|v| v.as_f64().unwrap());
        let mr = row.median("x", &sel_r).unwrap().map(|v| v.as_f64().unwrap());
        prop_assert_eq!(mc, mr);
        // And mean/variance agree too.
        let vc = col.mean_and_var("x", &sel_c).unwrap();
        let vr = row.mean_and_var("x", &sel_r).unwrap();
        match (vc, vr) {
            (Some((m1, v1)), Some((m2, v2))) => {
                prop_assert!((m1 - m2).abs() < 1e-9);
                prop_assert!((v1 - v2).abs() < 1e-9);
            }
            (a, b) => prop_assert_eq!(a, b),
        }
    }

    #[test]
    fn next_above_is_least_upper_neighbor(
        values in proptest::collection::vec(0i64..100, 1..100),
        pivot in 0i64..100,
    ) {
        let mut b = TableBuilder::new("t");
        b.add_column("x", DataType::Int);
        for &v in &values {
            b.push_row(vec![Value::Int(v)]).unwrap();
        }
        let t = b.finish();
        let got = t.next_above("x", &t.all_rows(), &Value::Int(pivot)).unwrap();
        let expected = values.iter().copied().filter(|&v| v > pivot).min();
        prop_assert_eq!(got, expected.map(Value::Int));
    }
}
