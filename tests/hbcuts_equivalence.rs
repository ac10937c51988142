//! Naive ⇔ incremental equivalence of the HB-cuts pair argmin.
//!
//! `hb_cuts` maintains incremental per-run pair state (interned
//! candidate ids, a triangular INDEP matrix, a ban set for uncomposable
//! pairs); `hb_cuts_naive` re-enumerates and re-probes all O(k²) pairs
//! through the explorer's shared memo every iteration, as the advisor
//! did before the incremental refactor. The contract: this is purely an
//! execution-strategy change — **bitwise-identical advisor output**,
//! meaning the same compose trace (same pairs in the same order, same
//! skipped pairs, same `StopReason`) and the same ranked answers down to
//! the f64 score bits, across:
//!
//! * memoization on and off,
//! * `MedianStrategy::Exact` and `::Sampled`,
//!
//! plus a probe-count assertion: the incremental path must issue at most
//! half the naive path's INDEP memo probes once there are ≥ 16
//! candidates (the whole point of the refactor).

use charles::advisor::{hb_cuts, hb_cuts_naive, Explorer, HbCutsOutput};
use charles::{sweep_table, voc_table, Config, MedianStrategy, Query, Table};
use charles_store::Backend;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One ranked answer in exactly-comparable form: segmentation text plus
/// the raw bits of the entropy score and the integer score fields.
type RankedFingerprint = (String, u64, usize, usize, usize);

/// Exact comparable form: ranked segmentation text + raw score bits,
/// the full trace rendering (steps, skipped pairs, stop reason), and
/// nothing nondeterministic.
fn run_fingerprint(out: &HbCutsOutput) -> (Vec<RankedFingerprint>, String) {
    let ranked = out
        .ranked
        .iter()
        .map(|r| {
            (
                r.segmentation.to_string(),
                r.score.entropy.to_bits(),
                r.score.simplicity,
                r.score.breadth,
                r.score.depth,
            )
        })
        .collect();
    (ranked, format!("{:?}", out.trace))
}

/// The configuration matrix the equivalence must hold over.
fn config_matrix() -> Vec<(&'static str, Config)> {
    vec![
        ("memo+exact", Config::default()),
        ("nomemo+exact", Config::default().with_memoize(false)),
        (
            "memo+sampled",
            Config::default().with_median(MedianStrategy::Sampled { size: 256, seed: 7 }),
        ),
        (
            "nomemo+sampled",
            Config::default()
                .with_memoize(false)
                .with_median(MedianStrategy::Sampled { size: 256, seed: 7 }),
        ),
    ]
}

/// Assert naive ⇔ incremental equality for one backend + context over
/// the whole configuration matrix. Returns the number of configurations
/// that produced at least one composition (so callers can assert the
/// comparison was not vacuous).
fn assert_equivalent(backend: &dyn Backend, ctx: &Query, label: &str) -> usize {
    let mut composed = 0;
    for (cfg_label, cfg) in config_matrix() {
        let inc = {
            let ex = Explorer::new(backend, cfg.clone(), ctx.clone()).unwrap();
            hb_cuts(&ex).unwrap()
        };
        let naive = {
            let ex = Explorer::new(backend, cfg, ctx.clone()).unwrap();
            hb_cuts_naive(&ex).unwrap()
        };
        assert_eq!(
            run_fingerprint(&inc),
            run_fingerprint(&naive),
            "naive and incremental HB-cuts diverged ({label}, {cfg_label})"
        );
        if inc.trace.steps.iter().any(|s| s.accepted) {
            composed += 1;
        }
    }
    composed
}

#[test]
fn equivalent_on_voc_across_configs() {
    let table = voc_table(6_000, 23);
    let ctx = Query::wildcard(&[
        "type_of_boat",
        "tonnage",
        "departure_harbour",
        "cape_arrival",
        "built",
    ]);
    let composed = assert_equivalent(&table, &ctx, "table");
    assert!(composed > 0, "every configuration stopped before composing");
}

#[test]
fn equivalent_on_dependency_chain() {
    // The sweep table's chained dependencies force many compositions, so
    // the incremental state is carried across many iterations.
    let table = sweep_table(4_000, 8, 5);
    let names = Backend::schema(&table).names();
    let take: Vec<&str> = names.into_iter().take(8).collect();
    let ctx = Query::wildcard(&take);
    let composed = assert_equivalent(&table, &ctx, "sweep");
    assert!(composed > 0);
}

#[test]
fn equivalent_when_best_pairs_are_uncomposable() {
    // Duplicate binary columns make the most dependent pairs
    // uncomposable: the fallback path (ban + next-most-dependent pair)
    // must also be identical between the two implementations.
    let mut rng = StdRng::seed_from_u64(77);
    let mut b = charles::TableBuilder::new("t");
    for name in ["a", "b", "c", "d"] {
        b.add_column(name, charles_store::DataType::Int);
    }
    for _ in 0..1500 {
        let a: i64 = rng.gen_range(0..2);
        let c = a * 100 + rng.gen_range(0i64..80);
        let d: i64 = rng.gen_range(0..100);
        b.push_row(vec![
            charles::Value::Int(a),
            charles::Value::Int(a),
            charles::Value::Int(c),
            charles::Value::Int(d),
        ])
        .unwrap();
    }
    let table = b.finish();
    let ctx = Query::wildcard(&["a", "b", "c", "d"]);
    assert_equivalent(&table, &ctx, "uncomposable");
    // And the skip really happened (the comparison above was not
    // vacuous for the fallback path).
    let ex = Explorer::new(&table, Config::default(), ctx).unwrap();
    let out = hb_cuts(&ex).unwrap();
    assert!(
        !out.trace.skipped_pairs.is_empty(),
        "expected the duplicate-column pair to be skipped: {:?}",
        out.trace
    );
}

#[test]
fn incremental_halves_indep_probes_at_16_candidates() {
    // The acceptance bar of the refactor: at k ≥ 16 candidates the
    // incremental path must issue at most half the INDEP memo probes of
    // the naive path (it carries all non-frontier pairs in run-local
    // state instead of re-probing the shared memo each iteration).
    let k = 16usize;
    let table = sweep_table(3_000, k, 11);
    let names = Backend::schema(&table).names();
    let take: Vec<&str> = names.into_iter().take(k).collect();
    let ctx = Query::wildcard(&take);
    // max_indep 1.0 + a deep bound keeps the loop composing, the
    // worst case for the pair argmin.
    let cfg = Config::default().with_max_indep(1.0).with_max_depth(64);

    let probes = |naive: bool| {
        let ex = Explorer::new(&table, cfg.clone(), ctx.clone()).unwrap();
        let out = if naive {
            hb_cuts_naive(&ex).unwrap()
        } else {
            hb_cuts(&ex).unwrap()
        };
        assert!(
            out.trace.steps.iter().filter(|s| s.accepted).count() >= 3,
            "need several iterations for the comparison to mean anything"
        );
        ex.cache_stats().indep_probes()
    };
    let incremental = probes(false);
    let naive = probes(true);
    assert!(
        incremental * 2 <= naive,
        "incremental must issue ≤ half the probes: {incremental} vs {naive}"
    );
}

/// Random small table in the spirit of `partition_properties.rs`: two
/// numeric columns with a correlation dial plus a nominal column, so
/// runs hit compositions, threshold stops and uncuttable attributes.
fn arb_table() -> impl Strategy<Value = Table> {
    (
        30usize..150, // rows
        2i64..40,     // numeric domain
        1usize..5,    // categories
        0.0f64..1.0,  // correlation dial
        any::<u64>(), // seed
    )
        .prop_map(|(n, domain, cats, corr, seed)| {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut b = charles::TableBuilder::new("t");
            b.add_column("x", charles_store::DataType::Int)
                .add_column("y", charles_store::DataType::Int)
                .add_column("k", charles_store::DataType::Str);
            for _ in 0..n {
                let x = rng.gen_range(0..domain);
                let y = if rng.gen_bool(corr) {
                    x + rng.gen_range(-2i64..=2)
                } else {
                    rng.gen_range(0..domain)
                };
                let k = format!("c{}", rng.gen_range(0..cats));
                b.push_row(vec![
                    charles::Value::Int(x),
                    charles::Value::Int(y),
                    charles::Value::Str(k),
                ])
                .unwrap();
            }
            b.finish()
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Property: for arbitrary small tables, naive and incremental
    /// HB-cuts produce identical compose traces (same pairs, same
    /// skipped pairs, same StopReason) and identical ranked output,
    /// across the memoize × median-strategy matrix.
    #[test]
    fn naive_and_incremental_traces_match(t in arb_table()) {
        let ctx = Query::wildcard(&["x", "y", "k"]);
        // Contexts can be degenerate (all-constant columns): both paths
        // must then fail identically too.
        for (cfg_label, cfg) in config_matrix() {
            let run = |naive: bool| {
                let ex = Explorer::new(&t, cfg.clone(), ctx.clone()).unwrap();
                if naive { hb_cuts_naive(&ex) } else { hb_cuts(&ex) }
            };
            match (run(false), run(true)) {
                (Ok(inc), Ok(naive)) => prop_assert_eq!(
                    run_fingerprint(&inc),
                    run_fingerprint(&naive),
                    "diverged under {}", cfg_label
                ),
                (Err(e1), Err(e2)) => prop_assert_eq!(e1, e2),
                (a, b) => return Err(TestCaseError::fail(format!(
                    "one path failed, the other did not ({cfg_label}): {a:?} vs {b:?}"
                ))),
            }
        }
    }
}
