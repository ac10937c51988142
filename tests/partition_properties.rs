//! Property-based tests of the core invariants, driven by proptest.
//!
//! * every operator output (CUT, COMPOSE, PRODUCT, quantile cut, HB-cuts,
//!   baselines) is a partition of its context (paper Definition 3);
//! * entropy is bounded by `ln(depth)` (Definition 4's range);
//! * INDEP lies in `[1/2, 1]` whenever both factors carry entropy;
//! * the SDL parser round-trips whatever the display prints;
//! * covers sum to 1 over any partition.

use charles::advisor::{cut_segmentation, hb_cuts, indep, Explorer};
use charles::{Config, Query, Segmentation, TableBuilder, Value};
use charles_bench::quantile_cut_segmentation;
use charles_sdl::{parse_query, parse_segmentation};
use charles_store::DataType;
use proptest::prelude::*;

/// Random small table: 2 numeric columns (one possibly correlated) and a
/// nominal column with 1–6 categories.
fn arb_table() -> impl Strategy<Value = charles::Table> {
    (
        10usize..200, // rows
        1i64..50,     // numeric domain size
        1usize..6,    // categories
        0.0f64..1.0,  // correlation dial
        any::<u64>(), // seed
    )
        .prop_map(|(n, domain, cats, corr, seed)| {
            use rand::rngs::StdRng;
            use rand::{Rng, SeedableRng};
            let mut rng = StdRng::seed_from_u64(seed);
            let mut b = TableBuilder::new("t");
            b.add_column("x", DataType::Int)
                .add_column("y", DataType::Int)
                .add_column("k", DataType::Str);
            for _ in 0..n {
                let x = rng.gen_range(0..domain);
                let y = if rng.gen_bool(corr) {
                    x + rng.gen_range(-2i64..=2)
                } else {
                    rng.gen_range(0..domain)
                };
                let k = format!("c{}", rng.gen_range(0..cats));
                b.push_row(vec![Value::Int(x), Value::Int(y), Value::Str(k)])
                    .unwrap();
            }
            b.finish()
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn cut_preserves_partition(t in arb_table(), attr_idx in 0usize..3) {
        let attr = ["x", "y", "k"][attr_idx];
        let ex = Explorer::new(&t, Config::default(), Query::wildcard(&["x", "y", "k"])).unwrap();
        let base = Segmentation::singleton(ex.context().clone());
        if let Some(seg) = cut_segmentation(&ex, &base, attr).unwrap() {
            let report = seg.check_partition(&t, ex.context_selection()).unwrap();
            prop_assert!(report.is_partition(), "{report:?}");
            // A successful cut makes exactly two non-empty pieces.
            prop_assert_eq!(seg.depth(), 2);
            for q in seg.queries() {
                prop_assert!(ex.count(q).unwrap() > 0);
            }
        }
    }

    #[test]
    fn iterated_cuts_preserve_partition(t in arb_table(), order in proptest::sample::select(vec![
        ["x", "y", "k"], ["k", "x", "y"], ["y", "k", "x"],
    ])) {
        let ex = Explorer::new(&t, Config::default(), Query::wildcard(&["x", "y", "k"])).unwrap();
        let mut seg = Segmentation::singleton(ex.context().clone());
        for attr in order {
            if let Some(next) = cut_segmentation(&ex, &seg, attr).unwrap() {
                seg = next;
            }
        }
        let report = seg.check_partition(&t, ex.context_selection()).unwrap();
        prop_assert!(report.is_partition(), "{report:?}");
        // Covers over a partition sum to 1.
        let covers = ex.covers(&seg).unwrap();
        let total: f64 = covers.iter().sum();
        prop_assert!((total - 1.0).abs() < 1e-9, "covers sum to {total}");
    }

    #[test]
    fn quantile_cuts_preserve_partition(t in arb_table(), k in 2usize..6) {
        let ex = Explorer::new(&t, Config::default(), Query::wildcard(&["x", "y", "k"])).unwrap();
        let base = Segmentation::singleton(ex.context().clone());
        if let Some(seg) = quantile_cut_segmentation(&ex, &base, "x", k).unwrap() {
            let report = seg.check_partition(&t, ex.context_selection()).unwrap();
            prop_assert!(report.is_partition(), "{report:?}");
            prop_assert!(seg.depth() <= k);
        }
    }

    #[test]
    fn hb_cuts_outputs_are_partitions_with_bounded_entropy(t in arb_table()) {
        let ex = Explorer::new(&t, Config::default(), Query::wildcard(&["x", "y", "k"])).unwrap();
        match hb_cuts(&ex) {
            Ok(out) => {
                for r in &out.ranked {
                    let report = r.segmentation
                        .check_partition(&t, ex.context_selection())
                        .unwrap();
                    prop_assert!(report.is_partition(), "{report:?}");
                    let bound = (r.segmentation.depth().max(1) as f64).ln();
                    prop_assert!(r.score.entropy <= bound + 1e-9,
                        "entropy {} > ln(depth) {}", r.score.entropy, bound);
                    prop_assert!(r.score.entropy >= -1e-12);
                }
            }
            Err(charles::CoreError::NoCuttableAttribute) => {
                // Legal for degenerate tables (all columns constant).
            }
            Err(other) => prop_assert!(false, "unexpected error {other}"),
        }
    }

    #[test]
    fn indep_range_when_entropic(t in arb_table()) {
        let ex = Explorer::new(&t, Config::default(), Query::wildcard(&["x", "y", "k"])).unwrap();
        let base = Segmentation::singleton(ex.context().clone());
        let sx = cut_segmentation(&ex, &base, "x").unwrap();
        let sy = cut_segmentation(&ex, &base, "y").unwrap();
        if let (Some(sx), Some(sy)) = (sx, sy) {
            let v = indep(&ex, &sx, &sy).unwrap();
            prop_assert!((0.0..=1.0).contains(&v), "INDEP {v} out of [0,1]");
            let e1 = charles::advisor::entropy(&ex, &sx).unwrap();
            let e2 = charles::advisor::entropy(&ex, &sy).unwrap();
            if e1 > 0.01 && e2 > 0.01 {
                // E(S1×S2) ≥ max(E1,E2) ⇒ INDEP ≥ max/(sum) ≥ … > 1/3; for
                // balanced binary cuts it is ≥ 1/2 − ε.
                prop_assert!(v >= 0.33, "INDEP {v} suspiciously low");
            }
        }
    }

    #[test]
    fn parser_round_trips_generated_queries(t in arb_table()) {
        let ex = Explorer::new(&t, Config::default(), Query::wildcard(&["x", "y", "k"])).unwrap();
        if let Ok(out) = hb_cuts(&ex) {
            let schema = t.schema();
            for r in out.ranked.iter().take(4) {
                for q in r.segmentation.queries() {
                    let printed = q.to_string();
                    let reparsed = parse_query(&printed, schema).unwrap();
                    prop_assert_eq!(q, &reparsed, "round trip failed: {}", printed);
                }
                let seg_printed = r.segmentation.to_string();
                let seg_reparsed = parse_segmentation(&seg_printed, schema).unwrap();
                prop_assert_eq!(&r.segmentation, &seg_reparsed);
            }
        }
    }

    #[test]
    fn sql_emission_never_panics_and_is_nonempty(t in arb_table()) {
        let ex = Explorer::new(&t, Config::default(), Query::wildcard(&["x", "y", "k"])).unwrap();
        if let Ok(out) = hb_cuts(&ex) {
            for r in out.ranked.iter().take(3) {
                for stmt in charles_sdl::segmentation_to_sql(&r.segmentation, "t") {
                    prop_assert!(stmt.starts_with("SELECT COUNT(*) FROM t WHERE "));
                    prop_assert!(stmt.ends_with(';'));
                }
            }
        }
    }
}
