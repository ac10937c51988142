//! Property-based oracle for the static analyzer: its symbolic verdicts
//! must agree with actual evaluation over random tables.
//!
//! * **No false unsatisfiability** — whenever `analyze` says
//!   `Unsatisfiable`, evaluating the query over any random table
//!   selects zero rows.
//! * **Normalization preserves semantics** — the normalized (merged,
//!   canonical) query's selection bitmap is bitwise-equal to the
//!   original conjunction's, row by row.
//! * **Normalization converges** — cache keys of all conjunct
//!   permutations of one conjunction collapse to a single key, and
//!   re-analyzing a normalized query is the identity.
//! * **Admission is analysis** — `admit` accepts exactly what `analyze`
//!   finds valid and satisfiable, handing back the normal form when an
//!   attribute repeats and the query untouched otherwise, and rejects
//!   with the same findings.

use charles_sdl::{admit, analyze, Constraint, Predicate, Query, Satisfiability};
use charles_store::{DataType, Schema, TableBuilder, Value};
use proptest::prelude::*;

const NAMES: [&str; 5] = ["fluit", "jacht", "pinas", "hoeker", "galjoot"];

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
    prop_oneof![
        Just(Constraint::Any),
        proptest::collection::btree_set(0usize..NAMES.len(), 1..4).prop_map(|idx| {
            Constraint::set(idx.into_iter().map(|i| Value::str(NAMES[i])).collect())
                .expect("non-empty")
        }),
    ]
}

/// A conjunction that may constrain the same attribute several times —
/// the form the analyzer exists to merge or refute.
fn arb_conjunction() -> impl Strategy<Value = Query> {
    (
        proptest::collection::vec(arb_int_constraint(), 1..4),
        proptest::collection::vec(arb_str_constraint(), 0..3),
    )
        .prop_map(|(xs, ks)| {
            let mut predicates: Vec<Predicate> =
                xs.into_iter().map(|c| Predicate::new("x", c)).collect();
            predicates.extend(ks.into_iter().map(|c| Predicate::new("k", c)));
            Query::conjunction(predicates)
        })
}

fn schema() -> Schema {
    Schema::from_pairs(&[("x", DataType::Int), ("k", DataType::Str)]).unwrap()
}

fn table(rows: &[(i64, usize)]) -> charles_store::Table {
    let mut b = TableBuilder::new("t");
    b.add_column("x", DataType::Int)
        .add_column("k", DataType::Str);
    for &(x, k) in rows {
        b.push_row(vec![Value::Int(x), Value::str(NAMES[k])])
            .unwrap();
    }
    b.finish()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn unsatisfiable_verdicts_never_lie(
        q in arb_conjunction(),
        rows in proptest::collection::vec((-60i64..60, 0usize..NAMES.len()), 1..80),
    ) {
        let report = analyze(&q, &schema());
        if report.satisfiability == Satisfiability::Unsatisfiable {
            let t = table(&rows);
            let count = charles_sdl::eval::count(&q, &t).unwrap();
            prop_assert_eq!(
                count, 0,
                "analyzer called {} unsatisfiable but it selected {} of {} rows",
                q, count, rows.len()
            );
        }
    }

    #[test]
    fn normalized_selection_is_bitwise_equal(
        q in arb_conjunction(),
        rows in proptest::collection::vec((-60i64..60, 0usize..NAMES.len()), 1..80),
    ) {
        let report = analyze(&q, &schema());
        let Some(normalized) = report.normalized() else { return Ok(()) };
        let t = table(&rows);
        let original = charles_sdl::eval::selection(&q, &t).unwrap();
        let merged = charles_sdl::eval::selection(normalized, &t).unwrap();
        for (i, row) in rows.iter().enumerate() {
            prop_assert_eq!(
                original.get(i), merged.get(i),
                "row {} of {:?} differs between {} and its normal form {}",
                i, row, q, normalized
            );
        }
    }

    #[test]
    fn permuted_conjuncts_collapse_to_one_cache_key(
        q in arb_conjunction(),
        rotate in 0usize..6,
    ) {
        let report = analyze(&q, &schema());
        let Some(normalized) = report.normalized() else { return Ok(()) };
        // Rotating the conjuncts is a permutation; analysis must land on
        // the same canonical key.
        let mut predicates = q.predicates().to_vec();
        let n = predicates.len();
        predicates.rotate_left(rotate % n.max(1));
        let permuted = Query::conjunction(predicates);
        let report2 = analyze(&permuted, &schema());
        let n2 = report2.normalized().expect("permutation preserves satisfiability");
        prop_assert_eq!(normalized.cache_key(), n2.cache_key(), "from {}", q);
    }

    #[test]
    fn admission_agrees_with_analysis(q in arb_conjunction(), ill_typed in any::<bool>()) {
        // Sometimes one more conjunct no column of its type can match.
        let q = if ill_typed {
            let mut predicates = q.predicates().to_vec();
            predicates.push(Predicate::new("k", Constraint::Set(vec![Value::Int(1)])));
            Query::conjunction(predicates)
        } else {
            q
        };
        let report = analyze(&q, &schema());
        match admit(q.clone(), &schema()) {
            Ok(admitted) => {
                prop_assert!(report.is_valid() && report.is_satisfiable(), "{}", q);
                let want = if q.has_repeated_attributes() {
                    report.normalized().expect("valid and satisfiable").clone()
                } else {
                    q.clone()
                };
                prop_assert_eq!(admitted, want);
            }
            Err(rejected) => {
                prop_assert!(!(report.is_valid() && report.is_satisfiable()), "{}", q);
                prop_assert_eq!(rejected.diagnostics, report.diagnostics);
                prop_assert_eq!(rejected.satisfiability, report.satisfiability);
                prop_assert!(rejected.normalized().is_none());
            }
        }
    }

    #[test]
    fn analysis_of_normal_forms_is_identity(q in arb_conjunction()) {
        let report = analyze(&q, &schema());
        let Some(normalized) = report.normalized() else { return Ok(()) };
        // A normalized query is well-formed, duplicate-free, and a fixed
        // point: re-analyzing adds no findings and changes nothing.
        prop_assert!(charles_sdl::analyze::well_formed(normalized));
        prop_assert!(!normalized.has_repeated_attributes());
        let again = analyze(normalized, &schema());
        prop_assert!(again.diagnostics.is_empty(), "{:?}", again.diagnostics);
        prop_assert_eq!(again.normalized(), Some(normalized), "from {}", q);
    }
}
