//! The advice cache's key against the text it replaced.
//!
//! `Query::cache_key` used to be the rendered canonical query; it is now
//! the canonical structure, hashed once (`CacheKey`). Over random
//! canonical queries on a schema with every column type — signed zeros,
//! integers around 2⁵³, half-open float ranges, strings that need
//! quoting, `Float` bounds on an `Int` attribute — and a second query
//! made from the first by one small twist:
//!
//! * equal keys mean equal rendered texts, and equal hashes;
//! * equal texts mean equal keys, except where an integral `Float` of
//!   magnitude ≥ 10¹⁵ renders like the `Int` of its value — the one
//!   documented split, checked on its own.

use charles_sdl::{CacheKey, Constraint, Predicate, Query};
use charles_store::Value;
use proptest::prelude::*;
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

const TWO_53: i64 = 1 << 53;

/// The schema's attributes, each with the literals its constraints draw.
fn pools() -> Vec<(&'static str, Vec<Value>)> {
    vec![
        ("b", vec![Value::Bool(false), Value::Bool(true)]),
        ("d", [-400, 0, 1].map(Value::Date).to_vec()),
        (
            "f",
            [
                -0.0,
                0.0,
                0.5,
                -0.5,
                1.5,
                1e15,
                -1e15,
                TWO_53 as f64,
                (TWO_53 + 2) as f64,
            ]
            .map(Value::Float)
            .to_vec(),
        ),
        (
            "i",
            [
                Value::Int(-1),
                Value::Int(0),
                Value::Int(TWO_53 - 1),
                Value::Int(TWO_53),
                Value::Int(TWO_53 + 1),
                Value::Int(1_000_000_000_000_000),
                Value::Float(-0.0),
                Value::Float(0.0),
                Value::Float(0.5),
                Value::Float(1e15),
                Value::Float(TWO_53 as f64),
            ]
            .to_vec(),
        ),
        (
            "s",
            [
                "a", "b", "a, b", "x'}", "1234", "true", "", "de lange", "-3", "1.5",
            ]
            .map(Value::str)
            .to_vec(),
        ),
    ]
}

/// A constraint over `pool`: none, a range (closed or half-open, bounds
/// in any order — the key and the text are both pure functions of the
/// structure), or a set.
fn constraint(pool: Vec<Value>) -> impl Strategy<Value = Constraint> {
    let range = (
        proptest::sample::select(pool.clone()),
        proptest::sample::select(pool.clone()),
        any::<bool>(),
    )
        .prop_map(|(lo, hi, hi_inclusive)| Constraint::Range {
            lo,
            hi,
            hi_inclusive,
        });
    let set = proptest::collection::vec(proptest::sample::select(pool), 1..4)
        .prop_map(|vals| Constraint::set(vals).expect("one numeric or one other family"));
    prop_oneof![Just(Constraint::Any), range, set]
}

/// A canonical query over a random subset of the attributes.
fn query() -> impl Strategy<Value = Query> {
    let mut attrs = pools().into_iter();
    let mut next = || {
        let (attr, pool) = attrs.next().expect("five attributes");
        proptest::option::of(constraint(pool)).prop_map(move |c| c.map(|c| Predicate::new(attr, c)))
    };
    (next(), next(), next(), next(), next()).prop_map(|(b, d, f, i, s)| {
        Query::new([b, d, f, i, s].into_iter().flatten().collect())
            .expect("distinct attributes")
            .canonicalized()
    })
}

/// `q` with one literal, bound flag or conjunct order changed — or not.
fn twist(q: &Query, (at, how, pick): (usize, usize, usize)) -> Query {
    let mut preds = q.predicates().to_vec();
    if preds.is_empty() {
        return q.clone();
    }
    let n = preds.len();
    let pool = |attr: &str| {
        pools()
            .into_iter()
            .find(|(a, _)| *a == attr)
            .expect("a schema attribute")
            .1
    };
    let p = &mut preds[at % n];
    let replace = |v: &Value| match how {
        // Flip the sign of a zero.
        1 => match v {
            Value::Float(x) if *x == 0.0 => Value::Float(-x),
            other => other.clone(),
        },
        // The same number as the other numeric type.
        2 => match v {
            Value::Int(x) => Value::Float(*x as f64),
            Value::Float(x) if x.fract() == 0.0 && x.abs() < 9e18 => Value::Int(*x as i64),
            other => other.clone(),
        },
        // Another literal from the attribute's pool.
        3 => {
            let pool = pool(&p.attr);
            pool[pick % pool.len()].clone()
        }
        _ => v.clone(),
    };
    match &mut p.constraint {
        Constraint::Any => {}
        Constraint::Range {
            lo,
            hi,
            hi_inclusive,
        } => {
            if how == 4 {
                *hi_inclusive = !*hi_inclusive;
            } else if pick % 2 == 0 {
                *lo = replace(lo);
            } else {
                *hi = replace(hi);
            }
        }
        Constraint::Set(vals) => {
            let k = pick % vals.len();
            vals[k] = replace(&vals[k]);
        }
    }
    if how == 5 {
        preds.reverse();
    }
    Query::conjunction(preds)
}

/// `q` with every integral `Float` of magnitude ≥ 10¹⁵ written as the
/// `Int` it renders like.
fn fold_1e15(q: &Query) -> Query {
    let fold = |v: &Value| match v {
        Value::Float(x) if x.fract() == 0.0 && x.abs() >= 1e15 && x.abs() < 9e18 => {
            Value::Int(*x as i64)
        }
        other => other.clone(),
    };
    let preds = q.predicates().iter().map(|p| {
        let c = match &p.constraint {
            Constraint::Any => Constraint::Any,
            Constraint::Range {
                lo,
                hi,
                hi_inclusive,
            } => Constraint::Range {
                lo: fold(lo),
                hi: fold(hi),
                hi_inclusive: *hi_inclusive,
            },
            Constraint::Set(vals) => Constraint::Set(vals.iter().map(fold).collect()),
        };
        Predicate::new(p.attr.clone(), c)
    });
    Query::conjunction(preds.collect())
}

fn hash_of(k: &CacheKey) -> u64 {
    let mut h = DefaultHasher::new();
    k.hash(&mut h);
    h.finish()
}

fn text(q: &Query) -> String {
    q.canonicalized().to_string()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    #[test]
    fn keys_are_equal_exactly_when_texts_are_but_for_1e15(
        q1 in query(),
        how in (any::<usize>(), 0usize..6, any::<usize>()),
    ) {
        let q2 = twist(&q1, how);
        let (k1, k2) = (q1.cache_key(), q2.cache_key());
        let text_eq = text(&q1) == text(&q2);
        if k1 == k2 {
            prop_assert!(text_eq, "equal keys, texts {} vs {}", text(&q1), text(&q2));
            prop_assert_eq!(hash_of(&k1), hash_of(&k2));
        }
        // With the 10¹⁵ floats folded into the ints they render like,
        // keys are equal exactly when texts are.
        let folded_eq = fold_1e15(&q1).cache_key() == fold_1e15(&q2).cache_key();
        prop_assert_eq!(text_eq, folded_eq, "{} vs {}", text(&q1), text(&q2));
        if text_eq && k1 != k2 {
            let folds = |q: &Query| fold_1e15(q).cache_key() != q.cache_key();
            prop_assert!(folds(&q1) || folds(&q2), "{} split without a 10¹⁵ float", text(&q1));
        }
        // A key equals and hashes like itself, and is its query's.
        prop_assert_eq!(hash_of(&k1), hash_of(&k1.clone()));
        prop_assert_eq!(k1.query(), &q1.canonicalized());
    }
}

#[test]
fn an_integral_float_from_1e15_renders_like_its_int_but_keys_apart() {
    for x in [1_000_000_000_000_000i64, -1_000_000_000_000_000, TWO_53] {
        for inclusive in [true, false] {
            let q = |hi: Value| {
                Query::new(vec![
                    Predicate::any("b"),
                    Predicate::new(
                        "i",
                        Constraint::Range {
                            lo: Value::Int(i64::MIN),
                            hi,
                            hi_inclusive: inclusive,
                        },
                    ),
                ])
                .unwrap()
            };
            let (int, float) = (q(Value::Int(x)), q(Value::Float(x as f64)));
            assert_eq!(text(&int), text(&float), "{x}");
            assert_ne!(int.cache_key(), float.cache_key(), "{x}");
            assert_eq!(
                fold_1e15(&float).cache_key(),
                int.cache_key(),
                "the fold undoes exactly this split"
            );
        }
    }
}

#[test]
fn the_twists_reach_every_outcome() {
    // Equal keys, split texts, and the 10¹⁵ split all occur under the
    // generator above — the property is not vacuous.
    let q = Query::new(vec![
        Predicate::new(
            "f",
            Constraint::set(vec![Value::Float(-0.0), Value::Float(1e15)]).unwrap(),
        ),
        Predicate::new(
            "i",
            Constraint::set(vec![Value::Int(1_000_000_000_000_000)]).unwrap(),
        ),
    ])
    .unwrap()
    .canonicalized();
    let same = twist(&q, (0, 5, 0));
    assert_eq!(q.cache_key(), same.cache_key());
    let zero = twist(&q, (0, 1, 0));
    assert_ne!(text(&q), text(&zero));
    assert_ne!(q.cache_key(), zero.cache_key());
    let split = twist(&q, (1, 2, 0));
    assert_eq!(text(&q), text(&split));
    assert_ne!(q.cache_key(), split.cache_key());
}
