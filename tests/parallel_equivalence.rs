//! Parallel ⇔ sequential equivalence of the advisor's hot paths.
//!
//! Candidate-cut seeding, INDEP pair evaluation, scoring and the
//! adaptive random search run through `charles-parallel`'s
//! order-preserving thread map. The contract is that the worker count
//! is a pure execution-strategy change: **advisor output is bitwise
//! identical** — same segmentations, same ranking order, same f64
//! score bits.
//!
//! `charles_parallel::set_num_threads(1)` routes every map through the
//! sequential branch (`items.iter().map(f).collect()` on the calling
//! thread), so one process can run both paths and compare. CI also runs
//! the core, store and facade suites whole under `CHARLES_NUM_THREADS=1`.

use charles::advisor::{hb_cuts, Explorer};
use charles::{voc_table, weblog_table, Advisor, Config, Query, Ranked};
use charles_bench::{adaptive_segmentations, AdaptiveOptions};

/// Render a ranked result list into an exactly-comparable form:
/// segmentation text plus the raw bits of every float score.
fn fingerprint(ranked: &[Ranked]) -> Vec<(String, u64, usize, usize, usize)> {
    ranked
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
        .collect()
}

/// `set_num_threads` is process-global and the test harness runs
/// `#[test]` fns concurrently, so every override is taken under one
/// lock — otherwise a "sequential" run could silently execute threaded
/// (vacuous comparison) or the multi-thread probe could observe 1.
static THREAD_OVERRIDE_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

fn with_threads<T>(n: usize, f: impl FnOnce() -> T) -> T {
    let _guard = THREAD_OVERRIDE_LOCK
        .lock()
        .unwrap_or_else(|e| e.into_inner());
    charles_parallel::set_num_threads(n);
    let out = f();
    charles_parallel::set_num_threads(0);
    out
}

#[test]
fn machinery_actually_uses_multiple_threads() {
    // Guard against the parallel path silently degenerating to one
    // thread: a map over enough coarse items must be observed on >1
    // distinct worker thread.
    let items: Vec<u64> = (0..64).collect();
    let ids = with_threads(4, || {
        charles_parallel::par_map(&items, |&x| {
            std::thread::sleep(std::time::Duration::from_millis(1 + x % 3));
            format!("{:?}", std::thread::current().id())
        })
    });
    let distinct: std::collections::BTreeSet<&String> = ids.iter().collect();
    assert!(
        distinct.len() > 1,
        "expected multiple worker threads, saw {distinct:?}"
    );
}

#[test]
fn hb_cuts_identical_with_and_without_threads() {
    let t = voc_table(8_000, 99);
    let ctx = "(type_of_boat: , tonnage: , departure_harbour: , trip: )";

    let run = || {
        let advisor = Advisor::new(&t);
        let advice = advisor.advise_str(ctx).unwrap();
        (fingerprint(&advice.ranked), format!("{:?}", advice.trace))
    };
    let (seq_rank, seq_trace) = with_threads(1, run);
    let (par_rank, par_trace) = with_threads(8, run);

    assert_eq!(seq_rank, par_rank, "ranked output diverged");
    assert_eq!(seq_trace, par_trace, "HB-cuts trace diverged");
    assert!(!seq_rank.is_empty());
}

#[test]
fn backend_ops_and_cache_counters_identical_with_and_without_threads() {
    // The counters are part of the answer too: every selection a run
    // needs is derived from its parent's exactly once — the seeds from
    // the context's extent, which no worker looks up, let alone
    // re-scans — so no two workers can race to evaluate the same one.
    let t = voc_table(8_000, 99);
    for ctx in [
        "(type_of_boat: , tonnage: , departure_harbour: , trip: )",
        "(type_of_boat: {fluit, jacht, pinas}, tonnage: [200,1000], departure_harbour: , trip: )",
    ] {
        let run = || {
            let advice = Advisor::new(&t).advise_str(ctx).unwrap();
            (advice.backend_ops, advice.cache)
        };
        let (seq_ops, seq_cache) = with_threads(1, run);
        assert!(seq_ops.scans > 0 && seq_cache.sel_misses > 0);
        for _ in 0..4 {
            assert_eq!(with_threads(8, run), (seq_ops, seq_cache), "{ctx}");
        }
    }
}

#[test]
fn hb_cuts_identical_on_weblog_shape() {
    // A second dataset shape: more nominal columns, different cut mix.
    let t = weblog_table(6_000, 4242);
    let names = charles_store::Backend::schema(&t).names();
    let take: Vec<&str> = names.into_iter().take(4).collect();
    let ctx = Query::wildcard(&take);

    let run = || {
        let ex = Explorer::new(&t, Config::default(), ctx.clone()).unwrap();
        let out = hb_cuts(&ex).unwrap();
        fingerprint(&out.ranked)
    };
    assert_eq!(with_threads(1, run), with_threads(8, run));
}

#[test]
fn adaptive_search_identical_with_and_without_threads() {
    let t = voc_table(4_000, 7);
    let ctx = Query::wildcard(&["type_of_boat", "tonnage", "departure_harbour"]);
    let opts = AdaptiveOptions {
        restarts: 6,
        target_depth: 6,
        ..AdaptiveOptions::default()
    };

    let run = || {
        let ex = Explorer::new(&t, Config::default(), ctx.clone()).unwrap();
        fingerprint(&adaptive_segmentations(&ex, opts).unwrap())
    };
    let seq = with_threads(1, run);
    let par = with_threads(8, run);
    assert_eq!(seq, par, "adaptive search diverged");
    assert!(!seq.is_empty());
}

#[test]
fn repeated_parallel_runs_are_deterministic() {
    // Thread scheduling must not leak into results: two threaded runs
    // bit-match each other.
    let t = voc_table(5_000, 3);
    let run = || {
        let advisor = Advisor::new(&t);
        fingerprint(
            &advisor
                .advise_str("(type_of_boat: , tonnage: , trip: )")
                .unwrap()
                .ranked,
        )
    };
    let a = with_threads(8, run);
    let b = with_threads(8, run);
    assert_eq!(a, b);
}
