//! Parallel ⇔ sequential equivalence of the advisor's hot paths.
//!
//! Candidate-cut seeding, the cuts of each COMPOSE level, the resolution
//! of a composed candidate's pieces and the adaptive random search run
//! through `charles-parallel`'s order-preserving thread map. The
//! contract is that the worker count is a pure execution-strategy
//! change: **advisor output is bitwise identical** — same
//! segmentations, same ranking order, same f64 score bits — and so are
//! the `backend_ops` and `cache` counters.
//!
//! `charles_parallel::set_num_threads(1)` routes every map through the
//! sequential branch (`items.iter().map(f).collect()` on the calling
//! thread), so one process can run both paths and compare. CI also runs
//! the core, store and facade suites whole under `CHARLES_NUM_THREADS=1`.

use charles::advisor::{hb_cuts, Explorer};
use charles::store::{Backend, Bitmap, CutStats, FrequencyTable, Schema};
use charles::store::{StorePredicate, StoreResult};
use charles::{voc_table, weblog_table, Advisor, Config, Constraint, Query, Ranked, Table, Value};
use charles_bench::{adaptive_segmentations, AdaptiveOptions};
use std::collections::HashSet;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::thread::ThreadId;
use std::time::{Duration, Instant};

/// The contexts the fan-out is checked on: a wildcard, one that
/// constrains two attributes, and one holding a `Float` bound on the
/// `Int` attribute `tonnage` — it compares as `f64`, so a cut of a piece
/// that still holds it is no partition, and its right half scans its own
/// conjunct in a unit of its own.
fn contexts(t: &Table) -> Vec<Query> {
    let parse = |sdl| charles::parse_query(sdl, Backend::schema(t)).unwrap();
    let float_bound = Constraint::range(Value::Float(150.5), Value::Float(1_100.5)).unwrap();
    vec![
        parse("(type_of_boat: , tonnage: , departure_harbour: , trip: )"),
        parse("(type_of_boat: {fluit, jacht, pinas}, tonnage: [200,1000], departure_harbour: , trip: )"),
        parse("(type_of_boat: , tonnage: , departure_harbour: , trip: )")
            .refined("tonnage", float_bound)
            .unwrap(),
    ]
}

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
static THREAD_OVERRIDE_LOCK: Mutex<()> = Mutex::new(());

fn with_threads<T>(n: usize, f: impl FnOnce() -> T) -> T {
    let _guard = THREAD_OVERRIDE_LOCK
        .lock()
        .unwrap_or_else(|e| e.into_inner());
    charles_parallel::set_num_threads(n);
    let out = f();
    charles_parallel::set_num_threads(0);
    out
}

/// A delegating backend that notes the thread and the selection size of
/// every cut statistic asked of it — a numeric cut's `cut_stats`, a
/// nominal one's `frequencies` — after the pattern of `FusedBackend` in
/// `tests/backend_contract.rs`. It forwards `cut_stats` as well, so the
/// advisor cuts here in the one pass it takes over the table itself.
///
/// With `rendezvous` set, a cut waits (up to 20 ms) until a second one
/// is in flight, so that a fan-out whose helper spawns late still hands
/// it an item: the caller cannot work off a whole level alone.
struct ThreadRecorder<'a> {
    inner: &'a dyn Backend,
    cuts: Mutex<Vec<(ThreadId, usize)>>,
    in_flight: AtomicUsize,
    rendezvous: AtomicBool,
}

impl<'a> ThreadRecorder<'a> {
    fn new(inner: &'a dyn Backend) -> Self {
        ThreadRecorder {
            inner,
            cuts: Mutex::new(Vec::new()),
            in_flight: AtomicUsize::new(0),
            rendezvous: AtomicBool::new(false),
        }
    }

    fn cut<T>(&self, sel: &Bitmap, cut: impl FnOnce() -> T) -> T {
        let id = std::thread::current().id();
        self.cuts.lock().unwrap().push((id, sel.count_ones()));
        self.in_flight.fetch_add(1, Ordering::SeqCst);
        if self.rendezvous.load(Ordering::SeqCst) {
            let deadline = Instant::now() + Duration::from_millis(20);
            while self.in_flight.load(Ordering::SeqCst) < 2 && Instant::now() < deadline {
                std::thread::yield_now();
            }
        }
        let out = cut();
        self.in_flight.fetch_sub(1, Ordering::SeqCst);
        out
    }
}

impl Backend for ThreadRecorder<'_> {
    fn row_count(&self) -> usize {
        self.inner.row_count()
    }
    fn schema(&self) -> &Schema {
        self.inner.schema()
    }
    fn eval(&self, pred: &StorePredicate) -> StoreResult<Bitmap> {
        self.inner.eval(pred)
    }
    fn not_null(&self, column: &str) -> StoreResult<Bitmap> {
        self.inner.not_null(column)
    }
    fn count(&self, pred: &StorePredicate) -> StoreResult<usize> {
        self.inner.count(pred)
    }
    fn median(&self, column: &str, sel: &Bitmap) -> StoreResult<Option<Value>> {
        self.inner.median(column, sel)
    }
    fn sampled_median(
        &self,
        column: &str,
        sel: &Bitmap,
        sample_size: usize,
        seed: u64,
    ) -> StoreResult<Option<Value>> {
        self.inner.sampled_median(column, sel, sample_size, seed)
    }
    fn quantile(&self, column: &str, sel: &Bitmap, q: f64) -> StoreResult<Option<Value>> {
        self.inner.quantile(column, sel, q)
    }
    fn min_max(&self, column: &str, sel: &Bitmap) -> StoreResult<Option<(Value, Value)>> {
        self.inner.min_max(column, sel)
    }
    fn cut_stats(&self, column: &str, sel: &Bitmap) -> StoreResult<Option<CutStats>> {
        self.cut(sel, || self.inner.cut_stats(column, sel))
    }
    fn next_above(&self, column: &str, sel: &Bitmap, v: &Value) -> StoreResult<Option<Value>> {
        self.inner.next_above(column, sel, v)
    }
    fn mean_and_var(&self, column: &str, sel: &Bitmap) -> StoreResult<Option<(f64, f64)>> {
        self.inner.mean_and_var(column, sel)
    }
    fn frequencies(
        &self,
        column: &str,
        sel: &Bitmap,
    ) -> StoreResult<(FrequencyTable, Vec<String>)> {
        self.cut(sel, || self.inner.frequencies(column, sel))
    }
    fn distinct_count(&self, column: &str, sel: &Bitmap) -> StoreResult<usize> {
        self.inner.distinct_count(column, sel)
    }
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
fn compose_cuts_fan_out_across_threads() {
    // Seeding cuts the context's own extent; every cut statistic over a
    // smaller selection is COMPOSE cutting a piece. At four threads
    // those are asked from more than one thread, and the answer is the
    // one thread's.
    let t = &voc_table(8_000, 99);
    for ctx in contexts(t) {
        let recorder = ThreadRecorder::new(t);
        let run = |threads| {
            with_threads(threads, || {
                let ex = Explorer::new(&recorder, Config::default(), ctx.clone()).unwrap();
                let out = hb_cuts(&ex).unwrap();
                (ex.context_size(), fingerprint(&out.ranked))
            })
        };
        let (_, seq) = run(1);
        recorder.cuts.lock().unwrap().clear();
        recorder.rendezvous.store(true, Ordering::SeqCst);
        let (rows, par) = run(4);
        assert_eq!(par, seq, "{ctx}");
        let cuts = recorder.cuts.lock().unwrap();
        let composing: HashSet<ThreadId> = cuts
            .iter()
            .filter(|&&(_, selected)| selected < rows)
            .map(|&(id, _)| id)
            .collect();
        assert!(
            composing.len() > 1,
            "{ctx}: COMPOSE's cuts ran on {composing:?} only"
        );
    }
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
    // re-scans, and a cut's halves within one unit of a fan-out, left
    // first — so no two workers can race to evaluate the same one.
    let t = &voc_table(8_000, 99);
    for ctx in contexts(t) {
        let run = || {
            let advice = Advisor::new(t).advise(ctx.clone()).unwrap();
            (advice.backend_ops, advice.cache)
        };
        let (seq_ops, seq_cache) = with_threads(1, run);
        assert!(seq_ops.scans > 0 && seq_cache.sel_misses > 0);
        for threads in [2, 8, 2, 8] {
            assert_eq!(
                with_threads(threads, run),
                (seq_ops, seq_cache),
                "{ctx} at {threads} threads"
            );
        }
    }
}

#[test]
fn concurrent_runs_on_one_table_count_only_their_own_backend_ops() {
    // Two advice runs on different contexts share one table, started
    // together round after round: each reports the counts it reports
    // alone. The counts belong to the run, not to the backend, so one
    // run can neither zero nor inflate the other's.
    let t = &voc_table(4_000, 99);
    let ctxs = contexts(t);
    let ctxs = [&ctxs[0], &ctxs[1]];
    let advise = |ctx: &Query| {
        let advice = Advisor::new(t).advise(ctx.clone()).unwrap();
        (advice.backend_ops, advice.cache)
    };
    for threads in [1, 4] {
        with_threads(threads, || {
            let solo = ctxs.map(advise);
            let start = std::sync::Barrier::new(2);
            let raced = std::thread::scope(|scope| {
                let rounds = ctxs.map(|ctx| {
                    let start = &start;
                    scope.spawn(move || {
                        (0..8)
                            .map(|_| {
                                start.wait();
                                advise(ctx)
                            })
                            .collect::<Vec<_>>()
                    })
                });
                rounds.map(|run| run.join().unwrap())
            });
            for ((ctx, solo), raced) in ctxs.into_iter().zip(solo).zip(raced) {
                for (round, ops) in raced.into_iter().enumerate() {
                    assert_eq!(ops, solo, "{ctx}, round {round}, {threads} threads");
                }
            }
        });
    }
}

#[test]
fn hb_cuts_identical_on_weblog_shape() {
    // A second dataset shape: more nominal columns, different cut mix.
    let t = weblog_table(6_000, 4242);
    let names = Backend::schema(&t).names();
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
