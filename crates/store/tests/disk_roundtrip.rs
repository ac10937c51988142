//! Save→load round-trip properties of the `.charles` on-disk format.
//!
//! Each case derives a random table deterministically from its seed —
//! every datatype, nulls everywhere, NaN-free floats spanning special
//! values (±0.0, extremes), empty strings, and a small string pool that
//! forces dictionary code reuse ("collisions") — writes it, reopens it
//! with `Table::open`, and pins **bitwise** equality: every cell,
//! float bit patterns included, and the order statistics the advisor
//! depends on.

use charles_store::disk::write_table;
use charles_store::{Backend, DataType, StorePredicate, Table, TableBuilder, Value};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::atomic::{AtomicUsize, Ordering};

static COUNTER: AtomicUsize = AtomicUsize::new(0);

fn tmp_path() -> std::path::PathBuf {
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!(
        "charles-roundtrip-{}-{n}.charles",
        std::process::id()
    ))
}

/// The string pool: empty string, duplicates-by-construction, a comma
/// case and non-ASCII.
const STRINGS: &[&str] = &["", "fluit", "jacht", "a", "aa", "de, lange", "ünïcode"];

/// Floats worth round-tripping exactly: signed zeros, subnormals,
/// extremes. (NaN is exercised by the in-crate raw-parts test — the
/// builder rejects it at ingestion.)
const SPECIAL_FLOATS: &[f64] = &[
    0.0,
    -0.0,
    f64::MIN,
    f64::MAX,
    f64::MIN_POSITIVE,
    5e-324, // smallest subnormal
    1.5,
    -2.25,
];

fn random_value(ty: DataType, rng: &mut StdRng) -> Value {
    match ty {
        DataType::Int => Value::Int(rng.gen::<u64>() as i64),
        DataType::Float => {
            if rng.gen_bool(0.4) {
                Value::Float(SPECIAL_FLOATS[rng.gen_range(0..SPECIAL_FLOATS.len())])
            } else {
                Value::Float(rng.gen_range(-1.0e12..1.0e12))
            }
        }
        DataType::Str => Value::str(STRINGS[rng.gen_range(0..STRINGS.len())]),
        DataType::Date => Value::Date(rng.gen_range(-1_000_000i64..1_000_000)),
        DataType::Bool => Value::Bool(rng.gen()),
    }
}

/// Bitwise value comparison: `Value::Float` goes through `to_bits` so
/// that -0.0 vs 0.0 (which `==` conflates) would be caught.
fn assert_value_bits_eq(a: &Option<Value>, b: &Option<Value>, what: &str) {
    match (a, b) {
        (Some(Value::Float(x)), Some(Value::Float(y))) => {
            assert_eq!(x.to_bits(), y.to_bits(), "{what}: float bits")
        }
        _ => assert_eq!(a, b, "{what}"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn save_load_round_trip_is_bitwise(seed in any::<u64>(), rows in 0usize..140) {
        let mut rng = StdRng::seed_from_u64(seed);
        // Every datatype at least once, plus a few duplicates of random
        // types so multi-column-per-type files are covered.
        let mut types = vec![
            DataType::Int,
            DataType::Float,
            DataType::Str,
            DataType::Date,
            DataType::Bool,
        ];
        for _ in 0..rng.gen_range(0..3usize) {
            types.push(types[rng.gen_range(0..5usize)]);
        }
        let mut b = TableBuilder::new("prop");
        for (i, ty) in types.iter().enumerate() {
            b.add_column(&format!("c{i}"), *ty);
        }
        for _ in 0..rows {
            let row: Vec<Option<Value>> = types
                .iter()
                .map(|&ty| (!rng.gen_bool(0.15)).then(|| random_value(ty, &mut rng)))
                .collect();
            b.push_row_opt(row).unwrap();
        }
        let t = b.finish();

        let path = tmp_path();
        write_table(&t, &path).unwrap();
        let d = Table::open(&path).unwrap();

        // Schema, shape, whole-file checksum.
        prop_assert_eq!(d.len(), t.len());
        prop_assert_eq!(Backend::schema(&d), t.schema());
        d.verify().unwrap();

        // Every cell, bitwise.
        for (i, ty) in types.iter().enumerate() {
            let name = format!("c{i}");
            for row in 0..t.len() {
                assert_value_bits_eq(
                    &d.value(row, &name).unwrap(),
                    &t.value(row, &name).unwrap(),
                    &format!("cell ({row}, {name}) of type {ty:?}"),
                );
            }
        }

        // The operations the advisor issues, over a random predicate.
        let lo = rng.gen_range(-1_000i64..0);
        let hi = lo + rng.gen_range(0i64..2_000);
        let pred = StorePredicate::range("c0", Value::Int(lo), Value::Int(hi), rng.gen());
        prop_assert_eq!(d.eval(&pred).unwrap(), t.eval(&pred).unwrap());
        let sel = t.eval(&pred).unwrap();
        assert_value_bits_eq(
            &d.median("c1", &sel).unwrap(),
            &t.median("c1", &sel).unwrap(),
            "median over selection",
        );
        let all = t.all_rows();
        assert_value_bits_eq(
            &d.median("c1", &all).unwrap(),
            &t.median("c1", &all).unwrap(),
            "median over all rows",
        );
        let (df, dd) = d.frequencies("c2", &all).unwrap();
        let (tf, td) = t.frequencies("c2", &all).unwrap();
        prop_assert_eq!(dd, td, "dictionary order must be preserved");
        prop_assert_eq!(df.entries(), tf.entries());

        std::fs::remove_file(&path).unwrap();
    }
}
