//! Property-based tests of the SDL layer: constraint algebra, query
//! refinement, display/parse round-trips, and evaluation consistency.

use charles_sdl::{parse_query, Constraint, Predicate, Query};
use charles_store::{DataType, Schema, TableBuilder, Value};
use proptest::prelude::*;

fn arb_int_constraint() -> impl Strategy<Value = Constraint> {
    prop_oneof![
        Just(Constraint::Any),
        (-50i64..50, 0i64..60).prop_map(|(lo, w)| {
            Constraint::range(Value::Int(lo), Value::Int(lo + w)).expect("lo ≤ hi")
        }),
        proptest::collection::btree_set(-50i64..50, 1..6).prop_map(|vals| {
            Constraint::set(vals.into_iter().map(Value::Int).collect()).expect("non-empty")
        }),
    ]
}

fn arb_str_constraint() -> impl Strategy<Value = Constraint> {
    let names = ["fluit", "jacht", "pinas", "hoeker", "galjoot"];
    prop_oneof![
        Just(Constraint::Any),
        proptest::collection::btree_set(0usize..names.len(), 1..4).prop_map(move |idx| {
            Constraint::set(idx.into_iter().map(|i| Value::str(names[i])).collect())
                .expect("non-empty")
        }),
    ]
}

fn schema() -> Schema {
    Schema::from_pairs(&[("x", DataType::Int), ("k", DataType::Str)]).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn intersection_is_sound_and_commutative(
        a in arb_int_constraint(),
        b in arb_int_constraint(),
        probe in -60i64..60,
    ) {
        let v = Value::Int(probe);
        let both = a.matches(&v) && b.matches(&v);
        match a.intersect(&b) {
            Some(c) => {
                // Soundness: the intersection matches exactly the common values.
                prop_assert_eq!(c.matches(&v), both, "{} ∩ {} at {}", a, b, probe);
            }
            None => {
                // Provably empty: no probe may match both.
                prop_assert!(!both, "{} ∩ {} claimed empty but {} matches", a, b, probe);
            }
        }
        // Commutativity up to matching semantics.
        let ab = a.intersect(&b);
        let ba = b.intersect(&a);
        match (&ab, &ba) {
            (Some(c1), Some(c2)) => prop_assert_eq!(c1.matches(&v), c2.matches(&v)),
            (None, None) => {}
            other => prop_assert!(false, "asymmetric intersection: {other:?}"),
        }
    }

    #[test]
    fn intersection_with_any_is_identity(a in arb_int_constraint(), probe in -60i64..60) {
        let v = Value::Int(probe);
        let c = Constraint::Any.intersect(&a).expect("Any never empties");
        prop_assert_eq!(c.matches(&v), a.matches(&v));
    }

    #[test]
    fn refined_query_matches_conjunction(
        cx in arb_int_constraint(),
        ck in arb_str_constraint(),
        probe_x in -60i64..60,
        probe_k in 0usize..5,
    ) {
        let names = ["fluit", "jacht", "pinas", "hoeker", "galjoot"];
        let q = Query::wildcard(&["x", "k"]);
        let q = match q.refined("x", cx.clone()) {
            Some(q) => q,
            None => return Ok(()), // provably empty refinement: nothing to check
        };
        let q = match q.refined("k", ck.clone()) {
            Some(q) => q,
            None => return Ok(()),
        };
        let vx = Value::Int(probe_x);
        let vk = Value::str(names[probe_k]);
        let expected = cx.matches(&vx) && ck.matches(&vk);
        let got = q.matches_row(|attr| match attr {
            "x" => Some(vx.clone()),
            "k" => Some(vk.clone()),
            _ => None,
        });
        prop_assert_eq!(got, expected);
    }

    #[test]
    fn display_parse_round_trip(
        cx in arb_int_constraint(),
        ck in arb_str_constraint(),
    ) {
        let q = Query::new(vec![
            Predicate::new("x", cx),
            Predicate::new("k", ck),
        ]).unwrap();
        let printed = q.to_string();
        let reparsed = parse_query(&printed, &schema()).unwrap();
        prop_assert_eq!(q, reparsed, "printed: {}", printed);
    }

    #[test]
    fn eval_matches_row_by_row(
        cx in arb_int_constraint(),
        ck in arb_str_constraint(),
        rows in proptest::collection::vec((-60i64..60, 0usize..5), 1..80),
    ) {
        let names = ["fluit", "jacht", "pinas", "hoeker", "galjoot"];
        let mut b = TableBuilder::new("t");
        b.add_column("x", DataType::Int).add_column("k", DataType::Str);
        for &(x, k) in &rows {
            b.push_row(vec![Value::Int(x), Value::str(names[k])]).unwrap();
        }
        let t = b.finish();
        let Some(q) = Query::wildcard(&["x", "k"])
            .refined("x", cx)
            .and_then(|q| q.refined("k", ck)) else { return Ok(()) };
        let sel = charles_sdl::eval::selection(&q, &t).unwrap();
        for (i, &(x, k)) in rows.iter().enumerate() {
            let expected = q.matches_row(|attr| match attr {
                "x" => Some(Value::Int(x)),
                "k" => Some(Value::str(names[k])),
                _ => None,
            });
            prop_assert_eq!(sel.get(i), expected, "row {} = ({}, {})", i, x, names[k]);
        }
    }

    #[test]
    fn sql_where_clause_is_faithful_for_ranges(
        lo in -50i64..50,
        w in 0i64..50,
    ) {
        let q = Query::wildcard(&["x"])
            .refined("x", Constraint::range(Value::Int(lo), Value::Int(lo + w)).unwrap())
            .unwrap();
        let sql = charles_sdl::query_to_sql(&q, "t");
        prop_assert_eq!(sql, format!("SELECT * FROM t WHERE x BETWEEN {} AND {};", lo, lo + w));
    }

    #[test]
    fn cache_key_ignores_conjunct_order_and_whitespace(
        cx in arb_int_constraint(),
        ck in arb_str_constraint(),
    ) {
        let q_xk = Query::new(vec![
            Predicate::new("x", cx.clone()),
            Predicate::new("k", ck.clone()),
        ]).unwrap();
        let q_kx = Query::new(vec![
            Predicate::new("k", ck),
            Predicate::new("x", cx),
        ]).unwrap();
        // Permuted conjuncts: same key.
        prop_assert_eq!(q_xk.cache_key(), q_kx.cache_key());
        // Whitespace variants of the rendered form parse back to the
        // same key (the parser is whitespace-insensitive, the key is a
        // canonical render).
        let spaced = q_xk
            .to_string()
            .replace(", ", " ,   ")
            .replace('(', "(  ");
        let reparsed = parse_query(&spaced, &schema()).unwrap();
        prop_assert_eq!(reparsed.cache_key(), q_xk.cache_key());
    }

    #[test]
    fn cache_key_collision_freedom(
        cx1 in arb_int_constraint(),
        ck1 in arb_str_constraint(),
        cx2 in arb_int_constraint(),
        ck2 in arb_str_constraint(),
        probe_x in -60i64..60,
        probe_k in 0usize..5,
    ) {
        // Two independently generated contexts: equal keys must mean
        // equal selection semantics on every probe row (no collisions
        // between semantically different contexts).
        let names = ["fluit", "jacht", "pinas", "hoeker", "galjoot"];
        let q1 = Query::new(vec![
            Predicate::new("x", cx1),
            Predicate::new("k", ck1),
        ]).unwrap();
        let q2 = Query::new(vec![
            Predicate::new("k", ck2),
            Predicate::new("x", cx2),
        ]).unwrap();
        if q1.cache_key() == q2.cache_key() {
            let vx = Value::Int(probe_x);
            let vk = Value::str(names[probe_k]);
            let lookup = |attr: &str| match attr {
                "x" => Some(vx.clone()),
                "k" => Some(vk.clone()),
                _ => None,
            };
            prop_assert_eq!(
                q1.matches_row(lookup),
                q2.matches_row(|attr| match attr {
                    "x" => Some(vx.clone()),
                    "k" => Some(vk.clone()),
                    _ => None,
                }),
                "colliding keys with different semantics: {} vs {}", q1, q2
            );
        }
        // And canonicalization itself never changes semantics.
        let canon = q1.canonicalized();
        let vx = Value::Int(probe_x);
        let vk = Value::str(names[probe_k]);
        prop_assert_eq!(
            q1.matches_row(|attr| match attr {
                "x" => Some(vx.clone()),
                "k" => Some(vk.clone()),
                _ => None,
            }),
            canon.matches_row(|attr| match attr {
                "x" => Some(vx.clone()),
                "k" => Some(vk.clone()),
                _ => None,
            })
        );
    }

    #[test]
    fn conjoin_count_never_exceeds_factors(
        rows in proptest::collection::vec((-30i64..30, 0usize..3), 1..60),
        lo1 in -30i64..30, w1 in 0i64..30,
        lo2 in -30i64..30, w2 in 0i64..30,
    ) {
        let names = ["a", "b", "c"];
        let mut b = TableBuilder::new("t");
        b.add_column("x", DataType::Int).add_column("k", DataType::Str);
        for &(x, k) in &rows {
            b.push_row(vec![Value::Int(x), Value::str(names[k])]).unwrap();
        }
        let t = b.finish();
        let q1 = Query::wildcard(&["x", "k"])
            .refined("x", Constraint::range(Value::Int(lo1), Value::Int(lo1 + w1)).unwrap())
            .unwrap();
        let q2 = Query::wildcard(&["x", "k"])
            .refined("x", Constraint::range(Value::Int(lo2), Value::Int(lo2 + w2)).unwrap())
            .unwrap();
        let c1 = charles_sdl::eval::count(&q1, &t).unwrap();
        let c2 = charles_sdl::eval::count(&q2, &t).unwrap();
        match q1.conjoin(&q2) {
            Some(q12) => {
                let c12 = charles_sdl::eval::count(&q12, &t).unwrap();
                prop_assert!(c12 <= c1.min(c2));
            }
            None => {
                // Provably empty conjunction: verify against the data.
                let both = rows.iter().filter(|&&(x, _)| {
                    x >= lo1 && x <= lo1 + w1 && x >= lo2 && x <= lo2 + w2
                }).count();
                prop_assert_eq!(both, 0);
            }
        }
    }
}
