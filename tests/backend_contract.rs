//! The `Backend` trait is the portability seam ("Charles is developed as
//! a front-end for SQL systems"). This suite proves three things:
//!
//! 1. the trait is implementable by third parties — a wrapper backend
//!    built *outside* the store crate drives the full advisor;
//! 2. failures propagate as `Err`, never as panics — a fault-injecting
//!    backend fails each operation class in turn and the advisor must
//!    surface every failure gracefully;
//! 3. every shipped backend honours the same contract — the
//!    [`contract_harness`] module runs each Backend obligation over
//!    `Table`, `RowTable` and a `Table` opened from a written `.charles`
//!    file.

use charles::advisor::{hb_cuts, Explorer, LazyGenerator};
use charles::{voc_table, AdviceCache, Advisor, Config, CoreError};
use charles_store::{
    Backend, BackendStats, Bitmap, CutStats, FrequencyTable, Schema, StoreError, StorePredicate,
    StoreResult, Value,
};
use std::collections::HashSet;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Barrier, Mutex};
use std::thread::ThreadId;

mod common;

/// A delegating backend with a fuse: after `budget` operations, every
/// further call fails with a synthetic error. `budget = usize::MAX`
/// disables the fuse (pure delegation). A second fuse of the same kind,
/// `scan_budget`, is spent by `eval` alone: it fails the k-th predicate
/// evaluation and every one after it, whatever the first fuse says. A
/// third, `leader_gate`, is one-shot: the first `eval` that finds it set
/// takes it, waits at its barrier twice and panics. Set, `no_median`
/// answers every `median` with none, as a backend whose statistics
/// disagree with themselves would.
///
/// It forwards the *required* methods only: `cut_stats` is the trait's
/// provided body over them, so the advisor runs here as it would over
/// any backend written before that method existed.
struct FusedBackend<'a> {
    inner: &'a dyn Backend,
    budget: AtomicUsize,
    scan_budget: AtomicUsize,
    leader_gate: Mutex<Option<Arc<Barrier>>>,
    no_median: bool,
}

impl<'a> FusedBackend<'a> {
    fn new(inner: &'a dyn Backend, budget: usize) -> Self {
        FusedBackend {
            inner,
            budget: AtomicUsize::new(budget),
            scan_budget: AtomicUsize::new(usize::MAX),
            leader_gate: Mutex::new(None),
            no_median: false,
        }
    }

    fn spend(&self) -> StoreResult<()> {
        spend(&self.budget, "backend")
    }
}

fn spend(fuse: &AtomicUsize, what: &str) -> StoreResult<()> {
    // Compare-and-swap loop: advice runs on other threads may share the
    // backend, and the fuse must never double-spend.
    let mut left = fuse.load(Ordering::Relaxed);
    loop {
        if left == 0 {
            return Err(StoreError::Io(format!("injected {what} failure")));
        }
        if left == usize::MAX {
            return Ok(());
        }
        match fuse.compare_exchange_weak(left, left - 1, Ordering::Relaxed, Ordering::Relaxed) {
            Ok(_) => return Ok(()),
            Err(now) => left = now,
        }
    }
}

impl Backend for FusedBackend<'_> {
    fn row_count(&self) -> usize {
        self.inner.row_count()
    }
    fn schema(&self) -> &Schema {
        self.inner.schema()
    }
    fn eval(&self, pred: &StorePredicate) -> StoreResult<Bitmap> {
        self.spend()?;
        spend(&self.scan_budget, "scan")?;
        let gate = self.leader_gate.lock().unwrap().take();
        if let Some(gate) = gate {
            gate.wait(); // in flight
            gate.wait(); // released
            panic!("injected leader panic");
        }
        self.inner.eval(pred)
    }
    fn not_null(&self, column: &str) -> StoreResult<Bitmap> {
        self.spend()?;
        self.inner.not_null(column)
    }
    fn count(&self, pred: &StorePredicate) -> StoreResult<usize> {
        self.spend()?;
        self.inner.count(pred)
    }
    fn median(&self, column: &str, sel: &Bitmap) -> StoreResult<Option<Value>> {
        self.spend()?;
        if self.no_median {
            return Ok(None);
        }
        self.inner.median(column, sel)
    }
    fn sampled_median(
        &self,
        column: &str,
        sel: &Bitmap,
        sample_size: usize,
        seed: u64,
    ) -> StoreResult<Option<Value>> {
        self.spend()?;
        self.inner.sampled_median(column, sel, sample_size, seed)
    }
    fn quantile(&self, column: &str, sel: &Bitmap, q: f64) -> StoreResult<Option<Value>> {
        self.spend()?;
        self.inner.quantile(column, sel, q)
    }
    fn min_max(&self, column: &str, sel: &Bitmap) -> StoreResult<Option<(Value, Value)>> {
        self.spend()?;
        self.inner.min_max(column, sel)
    }
    fn next_above(&self, column: &str, sel: &Bitmap, v: &Value) -> StoreResult<Option<Value>> {
        self.spend()?;
        self.inner.next_above(column, sel, v)
    }
    fn mean_and_var(&self, column: &str, sel: &Bitmap) -> StoreResult<Option<(f64, f64)>> {
        self.spend()?;
        self.inner.mean_and_var(column, sel)
    }
    fn frequencies(
        &self,
        column: &str,
        sel: &Bitmap,
    ) -> StoreResult<(FrequencyTable, Vec<String>)> {
        self.spend()?;
        self.inner.frequencies(column, sel)
    }
    fn distinct_count(&self, column: &str, sel: &Bitmap) -> StoreResult<usize> {
        self.spend()?;
        self.inner.distinct_count(column, sel)
    }
}

const CONTEXT: &str = "(type_of_boat: , tonnage: , built: )";

#[test]
fn third_party_backend_drives_the_full_advisor() {
    let table = voc_table(3_000, 51);
    let wrapper = FusedBackend::new(&table, usize::MAX);
    let advice = Advisor::new(&wrapper).advise_str(CONTEXT).unwrap();
    assert!(!advice.ranked.is_empty());
    // Identical results to the direct table.
    let direct = Advisor::new(&table).advise_str(CONTEXT).unwrap();
    assert_eq!(advice.ranked.len(), direct.ranked.len());
    for (a, b) in advice.ranked.iter().zip(&direct.ranked) {
        assert_eq!(a.segmentation.to_string(), b.segmentation.to_string());
    }
}

#[test]
fn every_failure_point_surfaces_as_err_not_panic() {
    // Let the advisor fail at operation 0, 1, 2, … until a budget is
    // large enough to succeed. Every early stop must be a clean Err.
    let table = voc_table(1_000, 52);
    let mut succeeded = false;
    for budget in 0..500 {
        let wrapper = FusedBackend::new(&table, budget);
        match Advisor::new(&wrapper).advise_str(CONTEXT) {
            Ok(advice) => {
                assert!(!advice.ranked.is_empty());
                succeeded = true;
                break;
            }
            Err(e) => {
                let msg = e.to_string();
                assert!(
                    msg.contains("injected backend failure"),
                    "unexpected error at budget {budget}: {msg}"
                );
            }
        }
    }
    assert!(succeeded, "advisor never succeeded within the op budget");
}

#[test]
fn no_median_over_a_selection_that_varies_is_an_error() {
    // The obligation `cut_stats` states (`CutStats::median`) and every
    // engine keeps (`obligation_cut_stats_is_min_max_and_median_in_one_call`):
    // a selection whose extremes differ has a median. A backend that
    // finds none there disagrees with itself about what the selection
    // holds, and the advisor says so rather than cut without one.
    let table = voc_table(500, 56);
    let mut broken = FusedBackend::new(&table, usize::MAX);
    broken.no_median = true;
    let err = Advisor::new(&broken).advise_str(CONTEXT).unwrap_err();
    assert!(
        matches!(&err, CoreError::Store(StoreError::Empty(what)) if what.contains("extremes differ")),
        "{err}"
    );
}

#[test]
fn explorer_construction_fails_cleanly_on_dead_backend() {
    let table = voc_table(100, 53);
    let dead = FusedBackend::new(&table, 0);
    let ctx = charles::parse_query(CONTEXT, Backend::schema(&dead)).unwrap();
    let err = Explorer::new(&dead, Config::default(), ctx);
    assert!(err.is_err());
}

#[test]
fn transient_io_error_is_not_served_from_the_advice_cache() {
    // One failed read must not become the cached answer for its context.
    let table = voc_table(1_000, 55);
    let flaky = FusedBackend::new(&table, 0);
    let advisor = Advisor::new(&flaky);
    let cache = AdviceCache::new();
    let ctx = charles::parse_query(CONTEXT, Backend::schema(&flaky)).unwrap();
    let err = cache.advise_cached(&advisor, ctx.clone()).unwrap_err();
    assert!(
        matches!(err, CoreError::Store(StoreError::Io(_))),
        "{err:?}"
    );
    flaky.budget.store(usize::MAX, Ordering::Relaxed); // the disk is back
    let advice = cache.advise_cached(&advisor, ctx).unwrap();
    assert!(!advice.ranked.is_empty());
    assert_eq!(cache.stats().runs, 2);
    assert_eq!(cache.len(), 1);
}

#[test]
fn a_panicking_leader_leaves_its_waiter_a_clean_rerun() {
    // The single-flight leader panics while a second caller waits on its
    // slot: the panic is the leader's alone, the waiter runs the context
    // again and gets what a plain run returns, and the cache stays usable
    // — no shard lock is held across a run, so none is poisoned.
    let table = voc_table(1_000, 57);
    let ctx = charles::parse_query(CONTEXT, Backend::schema(&table)).unwrap();
    let plain = FusedBackend::new(&table, usize::MAX);
    let reference = Advisor::new(&plain).advise(ctx.canonicalized()).unwrap();
    let backend = FusedBackend::new(&table, usize::MAX);
    let gate = Arc::new(Barrier::new(2));
    *backend.leader_gate.lock().unwrap() = Some(Arc::clone(&gate));
    let cache = AdviceCache::new();
    let advise = || cache.advise_cached(&Advisor::new(&backend), ctx.clone());
    std::thread::scope(|s| {
        let leader = s.spawn(advise);
        gate.wait(); // the leader holds the flight
        let waiter = s.spawn(advise);
        // The waiter's miss: it found the leader's slot in flight. Parked
        // in the slot yet or about to be, it finds the slot empty when
        // the leader dies, and runs the context itself.
        while cache.stats().misses < 2 {
            std::thread::yield_now();
        }
        gate.wait(); // the leader panics
        let panic = leader.join().unwrap_err();
        assert_eq!(panic.downcast_ref::<&str>(), Some(&"injected leader panic"));
        let advice = waiter.join().expect("the panic reached the waiter");
        assert_eq!(format!("{:?}", advice.unwrap()), format!("{reference:?}"));
    });
    let stats = cache.stats();
    assert_eq!((stats.runs, stats.misses, stats.hits), (2, 2, 0));
    // `len` takes every shard lock (and panics on a poisoned one); the
    // next caller is served the waiter's answer.
    assert_eq!(cache.len(), 1);
    let again = advise().unwrap();
    assert_eq!(format!("{again:?}"), format!("{reference:?}"));
    assert_eq!((cache.stats().runs, cache.stats().hits), (2, 1));
}

#[test]
fn failed_resolution_of_a_composed_candidate_is_one_err_and_consumes_nothing() {
    // Over a wildcard context HB-cuts evaluates one predicate for the
    // context's extent, then those of the seed cuts: one for a nominal
    // seed (its frequency table's total says the halves partition the
    // context, so the second is what the first leaves), two for a numeric
    // one (the wrapper forwards the required methods only, and the
    // provided `cut_stats` counts nothing, so each half scans for
    // itself). COMPOSE of two seeds then cuts the left one's halves from
    // the bitmaps it carries — medians and frequencies, no predicate — so
    // the next evaluation is a piece of the first *composed* candidate,
    // when HB-cuts resolves it for INDEP (a fan-out over its scans).
    let table = voc_table(1_000, 56);
    let ctx = charles::parse_query(CONTEXT, Backend::schema(&table)).unwrap();
    let healthy = {
        let ex = Explorer::new(&table, Config::default(), ctx.clone()).unwrap();
        hb_cuts(&ex).unwrap()
    };
    let first = &healthy.trace.steps[0];
    assert!(first.accepted && first.left_attrs.len() == 1 && first.right_attrs.len() == 1);
    let seed_evals = |attr: &String| {
        let numeric = Backend::schema(&table).type_of(attr).unwrap().is_numeric();
        if numeric {
            2
        } else {
            1
        }
    };
    let evals_before_the_first_resolve =
        1 + healthy.trace.seeds.iter().map(seed_evals).sum::<usize>();
    assert_eq!(evals_before_the_first_resolve, 6);

    let failing_after = |evals: usize| {
        let b = FusedBackend::new(&table, usize::MAX);
        b.scan_budget.store(evals, Ordering::Relaxed);
        b
    };
    let faulty = || failing_after(evals_before_the_first_resolve);
    // One evaluation fewer and it is the last seed that fails.
    {
        let backend = failing_after(evals_before_the_first_resolve - 1);
        let ex = Explorer::new(&backend, Config::default(), ctx.clone()).unwrap();
        let mut gen = LazyGenerator::new(&ex);
        let seeded = std::iter::from_fn(|| gen.next_segmentation().ok().flatten()).count();
        assert_eq!(seeded, healthy.trace.seeds.len() - 1);
    }
    let err = {
        let backend = faulty();
        let ex = Explorer::new(&backend, Config::default(), ctx.clone()).unwrap();
        hb_cuts(&ex).unwrap_err()
    };
    assert_eq!(
        err,
        CoreError::Store(StoreError::Io("injected scan failure".into()))
    );

    // The lazy run drives the same stepper: the failed step must leave
    // it as it was, so that a retry — here after the fault clears —
    // yields what the healthy eager run returns, trace included.
    let backend = faulty();
    let ex = Explorer::new(&backend, Config::default(), ctx).unwrap();
    let mut gen = LazyGenerator::new(&ex);
    let mut yielded = Vec::new();
    let lazy_err = loop {
        match gen.next_segmentation() {
            Ok(Some(item)) => yielded.push(item),
            Ok(None) => panic!("stopped before composing"),
            Err(e) => break e,
        }
    };
    assert_eq!(lazy_err, err);
    assert_eq!(yielded.len(), healthy.trace.seeds.len());
    assert_eq!(gen.next_segmentation().unwrap_err(), err);
    assert!(gen.trace().steps.is_empty(), "{:?}", gen.trace());
    backend.scan_budget.store(usize::MAX, Ordering::Relaxed);
    yielded.extend(gen.collect_all().unwrap());
    assert_eq!(format!("{:?}", gen.trace()), format!("{:?}", healthy.trace));
    let mut lazy: Vec<(String, u64)> = yielded
        .iter()
        .map(|(seg, score)| (seg.to_string(), score.entropy.to_bits()))
        .collect();
    let mut eager: Vec<(String, u64)> = healthy
        .ranked
        .iter()
        .map(|r| (r.segmentation.to_string(), r.score.entropy.to_bits()))
        .collect();
    lazy.sort();
    eager.sort();
    assert_eq!(lazy, eager);
}

/// Parameterized contract harness: every Backend obligation, every
/// shipped backend.
mod contract_harness {
    use super::{common, FusedBackend};
    use charles::advisor::{cut_query, cut_segmentation, Explorer};
    use charles::{voc_table, Advisor, Config, Constraint, Query, Segmentation, Table};
    use charles_bench::quantile_cut_segmentation;
    use charles_store::disk::write_table;
    use charles_store::{
        Backend, Bitmap, DataType, Row, RowTable, StoreError, StorePredicate, StoreResult,
        TableBuilder, Value,
    };
    use std::path::Path;
    use std::sync::Arc;

    /// Not a multiple of 64, so every selection ends on a partial
    /// bitmap word.
    const ROWS: usize = 1_543;

    fn fixture() -> Table {
        voc_table(ROWS, 2026)
    }

    /// A `.charles` temp path no other call in this process gets: tests
    /// run in parallel, and two that built, patched and opened one file
    /// could read each other's patch.
    fn unique_temp_path(kind: &str) -> std::path::PathBuf {
        use std::sync::atomic::{AtomicUsize, Ordering};
        static COUNTER: AtomicUsize = AtomicUsize::new(0);
        std::env::temp_dir().join(format!(
            "charles-contract-{kind}-{}-{}.charles",
            std::process::id(),
            COUNTER.fetch_add(1, Ordering::Relaxed)
        ))
    }

    /// Write the fixture to a unique `.charles` temp file and open it
    /// lazily. On unix the path is unlinked immediately (the open handle
    /// keeps the data alive), so tests never leak files.
    fn disk_fixture(t: &Table) -> Table {
        let path = unique_temp_path("voc");
        write_table(t, &path).expect("write .charles fixture");
        let disk = Table::open(&path).expect("open .charles fixture");
        #[cfg(unix)]
        let _ = std::fs::remove_file(&path);
        disk
    }

    /// `path` opened with every column loaded — the built form of a
    /// patched file, whose cells no builder accepts.
    fn loaded(path: &Path) -> Table {
        let t = Table::open(path).unwrap();
        for c in t.schema().columns() {
            t.column(&c.name).unwrap();
        }
        t
    }

    type Backends = Vec<(String, Box<dyn Backend>)>;

    /// All backends under test, with the reference `Table` first. The
    /// disk entry proves the persistence promise: a lazily loaded
    /// `.charles` file honours the identical contract.
    fn backends(t: &Table) -> Backends {
        vec![
            ("table".into(), Box::new(t.clone())),
            (
                "rowstore".into(),
                Box::new(RowTable::from_table(t).unwrap()),
            ),
            ("disk".into(), Box::new(disk_fixture(t))),
        ]
    }

    /// Predicates exercising every shape: trivial, range, set,
    /// conjunction, and an empty-result conjunction.
    fn preds() -> Vec<StorePredicate> {
        vec![
            StorePredicate::True,
            StorePredicate::range("tonnage", Value::Int(300), Value::Int(900), true),
            StorePredicate::range("tonnage", Value::Int(300), Value::Int(900), false),
            StorePredicate::set(
                "type_of_boat",
                vec![Value::str("fluit"), Value::str("jacht")],
            ),
            StorePredicate::and(vec![
                StorePredicate::range("tonnage", Value::Int(200), Value::Int(1100), true),
                StorePredicate::set("type_of_boat", vec![Value::str("fluit")]),
            ]),
            StorePredicate::and(vec![
                StorePredicate::range("tonnage", Value::Int(0), Value::Int(1), true),
                StorePredicate::range("tonnage", Value::Int(100_000), Value::Int(200_000), true),
            ]),
        ]
    }

    #[test]
    fn obligation_eval_count_not_null_agree() {
        let t = fixture();
        for (name, b) in backends(&t) {
            assert_eq!(b.row_count(), t.len(), "{name}");
            assert_eq!(b.schema().names(), Backend::schema(&t).names(), "{name}");
            for pred in preds() {
                let reference = t.eval(&pred).unwrap();
                assert_eq!(b.eval(&pred).unwrap(), reference, "{name}: eval {pred:?}");
                assert_eq!(
                    b.count(&pred).unwrap(),
                    reference.count_ones(),
                    "{name}: count {pred:?}"
                );
                // Determinism: evaluating twice yields the same bitmap.
                assert_eq!(b.eval(&pred).unwrap(), reference, "{name}: eval redo");
            }
            for col in ["tonnage", "type_of_boat", "built"] {
                assert_eq!(
                    b.not_null(col).unwrap(),
                    t.not_null(col).unwrap(),
                    "{name}: not_null {col}"
                );
            }
        }
    }

    #[test]
    fn obligation_medians_and_quantiles_agree() {
        let t = fixture();
        let sels: Vec<Bitmap> = preds().iter().map(|p| t.eval(p).unwrap()).collect();
        for (name, b) in backends(&t) {
            for (i, sel) in sels.iter().enumerate() {
                let want = t.median("tonnage", sel).unwrap();
                let got = b.median("tonnage", sel).unwrap();
                // Every backend folds its statistics back into the
                // column's value space exactly like the table
                // (`numeric_value`): same variant, same bits.
                assert_eq!(got, want, "{name}: median over pred {i}");
                for q in [0.0, 0.25, 0.5, 0.9, 1.0] {
                    let want = t.quantile("tonnage", sel, q).unwrap();
                    let got = b.quantile("tonnage", sel, q).unwrap();
                    assert_eq!(got, want, "{name}: q={q} pred {i}");
                }
            }
        }
    }

    #[test]
    fn obligation_sampled_median_deterministic_and_sane() {
        let t = fixture();
        let sel = t.all_rows();
        let (lo, hi) = t.min_max("tonnage", &sel).unwrap().unwrap();
        let (lo, hi) = (lo.as_f64().unwrap(), hi.as_f64().unwrap());
        for (name, b) in backends(&t) {
            for seed in [0u64, 7, 42] {
                let a = b.sampled_median("tonnage", &sel, 101, seed).unwrap();
                let again = b.sampled_median("tonnage", &sel, 101, seed).unwrap();
                assert_eq!(a, again, "{name}: fixed seed {seed} must be deterministic");
                let want = t.sampled_median("tonnage", &sel, 101, seed).unwrap();
                assert_eq!(a, want, "{name}: the table's sample for seed {seed}");
                let v = a.unwrap().as_f64().unwrap();
                assert!(
                    (lo..=hi).contains(&v),
                    "{name}: sampled median {v} outside [{lo}, {hi}]"
                );
            }
            // Sample ≥ population degenerates to the exact median.
            assert_eq!(
                b.sampled_median("tonnage", &sel, ROWS * 2, 3)
                    .unwrap()
                    .and_then(|v| v.as_f64()),
                t.median("tonnage", &sel).unwrap().and_then(|v| v.as_f64()),
                "{name}: full sample = exact median"
            );
        }
    }

    #[test]
    fn obligation_quantile_checks_q_before_the_selection() {
        // A `q` outside [0, 1], NaN included, is the same parse error
        // over an empty selection as over a full one.
        let t = fixture();
        let sels = [("empty", Bitmap::new(t.len())), ("all", t.all_rows())];
        for (name, b) in backends(&t) {
            for (label, sel) in &sels {
                for q in [-0.5, 1.5, f64::NAN] {
                    let got = b.quantile("tonnage", sel, q);
                    assert!(
                        matches!(got, Err(StoreError::Parse(_))),
                        "{name}: q={q} over {label}: {got:?}"
                    );
                }
            }
        }
        for values in [&[][..], &[1.0, 2.0]] {
            for q in [-0.5, 1.5, f64::NAN] {
                let got = charles_store::quantile_value(values, q);
                assert!(matches!(got, Err(StoreError::Parse(_))), "{values:?} q={q}");
            }
        }
    }

    /// `(mean, variance)` as bit patterns: every backend folds the same
    /// values in the same order, so the two agree to the last bit.
    fn mean_var_bits(
        b: &dyn Backend,
        column: &str,
        sel: &Bitmap,
    ) -> StoreResult<Option<(u64, u64)>> {
        Ok(b.mean_and_var(column, sel)?
            .map(|(m, v)| (m.to_bits(), v.to_bits())))
    }

    #[test]
    fn obligation_aggregates_agree() {
        let t = fixture();
        let sel = t
            .eval(&StorePredicate::range(
                "tonnage",
                Value::Int(200),
                Value::Int(1100),
                true,
            ))
            .unwrap();
        for (name, b) in backends(&t) {
            assert_eq!(
                mean_var_bits(b.as_ref(), "tonnage", &sel).unwrap(),
                mean_var_bits(&t, "tonnage", &sel).unwrap(),
                "{name}: mean_and_var"
            );
            assert_eq!(
                b.min_max("tonnage", &sel).unwrap(),
                t.min_max("tonnage", &sel).unwrap(),
                "{name}: min_max"
            );
            assert_eq!(
                b.next_above("tonnage", &sel, &Value::Int(400)).unwrap(),
                t.next_above("tonnage", &sel, &Value::Int(400)).unwrap(),
                "{name}: next_above"
            );
            assert_eq!(
                b.distinct_count("tonnage", &sel).unwrap(),
                t.distinct_count("tonnage", &sel).unwrap(),
                "{name}: distinct"
            );
            // Frequencies agree code for code: every backend codes a
            // string by its first occurrence in the relation.
            let (wf, wd) = t.frequencies("type_of_boat", &sel).unwrap();
            let (gf, gd) = b.frequencies("type_of_boat", &sel).unwrap();
            assert_eq!(
                (gf.entries(), &gd),
                (wf.entries(), &wd),
                "{name}: frequencies"
            );
        }
    }

    #[test]
    fn obligation_aggregates_agree_on_every_column_of_the_cut_fixture() {
        // NaN and a null in `f`, both zeros, nulls in `x`, a constant
        // `c`, integers beyond 2⁵³ in `big` and over all of `i64` in
        // `wide`, dates in `d`, strings in `k`: each aggregate, value or
        // error, is the reference table's on every backend — down to
        // the sign of a zero (hence `Debug`) and the bits of a mean.
        let (backends, cells) = cut_stats_fixture();
        let n = cells.len();
        let sels = [
            ("all", Bitmap::ones(n)),
            ("none", Bitmap::new(n)),
            ("nan and null", Bitmap::from_indices(n, [0, 1])),
            ("both zeros", Bitmap::from_indices(n, [2, 3])),
            ("zeros and a null", Bitmap::from_indices(n, [1, 2, 3])),
            (
                "odd",
                Bitmap::from_indices(n, (0..n).filter(|i| i % 2 == 1)),
            ),
            ("x null", Bitmap::from_indices(n, [3, 10, 17])),
            ("tail", Bitmap::from_indices(n, 60..n)),
        ];
        let floors = |attr: &str| -> Vec<Value> {
            let own = match attr {
                "f" => vec![Value::Float(-0.0), Value::Float(0.0), Value::Float(30.0)],
                "x" => vec![Value::Int(-9), Value::Int(0), Value::Int(13)],
                "d" => vec![Value::Date(9_000), Value::Date(9_005)],
                "c" => vec![Value::Int(6), Value::Int(7)],
                "big" => vec![Value::Int(1 << 53), Value::Int((1 << 53) + 2_500)],
                "wide" => vec![
                    Value::Int(i64::MIN),
                    Value::Int(0),
                    Value::Int(i64::MAX - 1),
                ],
                _ => vec![Value::str("k0"), Value::str("k1"), Value::str("")],
            };
            // An `Int` floor on a `Float` column compares; a floor of
            // another kind (a string against numbers, a number against
            // strings) compares with nothing, and finds nothing.
            let other = match attr {
                "f" => vec![Value::Int(0), Value::Int(40), Value::str("0")],
                "k" => vec![Value::str("k"), Value::str("k2"), Value::Int(0)],
                _ => vec![Value::str("0")],
            };
            own.into_iter().chain(other).collect()
        };
        let attrs = ["f", "x", "d", "c", "big", "wide", "k"];
        assert_aggregates_agree(&backends, &attrs, &sels, floors);
    }

    #[test]
    fn obligation_aggregates_agree_on_every_column_of_the_rows_fixture() {
        // Placeholder codes 2 and 99 and `false` under nulls, a NaN in
        // `f`, 13 integers beyond 2⁵³ in `i`, 17 dates in `d`: `s`, `b`
        // and `i` count frequencies off per-value bitmaps on the table
        // and by walks on the row store, `d` and `f` walk on both.
        const BASE: i64 = (1 << 53) - 4;
        let (backends, n) = rows_fixture();
        let floors = |attr: &str| match attr {
            "f" => vec![Value::Float(-0.0), Value::Float(10.0), Value::Int(0)],
            "i" => vec![Value::Int(BASE + 3), Value::Float((BASE + 4) as f64)],
            "d" => vec![Value::Date(9_005), Value::Int(9_016)],
            "s" => vec![Value::str("s1"), Value::str("s"), Value::Int(0)],
            _ => vec![Value::Bool(false), Value::Bool(true), Value::str("0")],
        };
        let attrs = ["f", "i", "d", "s", "b"];
        assert_aggregates_agree(&backends, &attrs, &selections(n), floors);
    }

    /// Each aggregate of each of `attrs` over each selection, value or
    /// error, is the reference table's (the first backend's) on every
    /// backend — down to the sign of a zero (hence `Debug`) and the bits
    /// of a mean. `next_above` is asked about each of `floors(attr)`.
    fn assert_aggregates_agree(
        backends: &Backends,
        attrs: &[&str],
        sels: &[(&str, Bitmap)],
        floors: impl Fn(&str) -> Vec<Value>,
    ) {
        let (_, reference) = &backends[0];
        let reference = reference.as_ref();
        for (name, b) in &backends[1..] {
            let b = b.as_ref();
            for &attr in attrs {
                for (label, sel) in sels {
                    let n = sel.len();
                    let what = format!("{name}: {attr} over {label}");
                    let same = |op: &str, got: String, want: String| {
                        assert_eq!(got, want, "{what}: {op}");
                    };
                    same(
                        "median",
                        format!("{:?}", b.median(attr, sel)),
                        format!("{:?}", reference.median(attr, sel)),
                    );
                    same(
                        "min_max",
                        format!("{:?}", b.min_max(attr, sel)),
                        format!("{:?}", reference.min_max(attr, sel)),
                    );
                    for floor in floors(attr) {
                        same(
                            &format!("next_above {floor:?}"),
                            format!("{:?}", b.next_above(attr, sel, &floor)),
                            format!("{:?}", reference.next_above(attr, sel, &floor)),
                        );
                    }
                    same(
                        "distinct_count",
                        format!("{:?}", b.distinct_count(attr, sel)),
                        format!("{:?}", reference.distinct_count(attr, sel)),
                    );
                    same(
                        "mean_and_var",
                        format!("{:?}", mean_var_bits(b, attr, sel)),
                        format!("{:?}", mean_var_bits(reference, attr, sel)),
                    );
                    let freqs = |b: &dyn Backend| {
                        format!(
                            "{:?}",
                            b.frequencies(attr, sel)
                                .map(|(f, d)| (f.entries().to_vec(), d))
                        )
                    };
                    same("frequencies", freqs(b), freqs(reference));
                    for (size, seed) in [(1, 0), (16, 7), (101, 42), (2 * n, 3)] {
                        same(
                            &format!("sampled_median({size}, {seed})"),
                            format!("{:?}", b.sampled_median(attr, sel, size, seed)),
                            format!("{:?}", reference.sampled_median(attr, sel, size, seed)),
                        );
                    }
                }
            }
        }
    }

    /// Rows of [`cut_stats_fixture`]: more than the 256 values below
    /// which the store selects ranks without its histogram, and enough
    /// that `x` (1 200 valid rows of 23 values), `big` and `wide` hold
    /// the 1 024 valid rows from which a table bins a wide `Int` column:
    /// their statistics are read off bins here, walked in the row store.
    const CUT_ROWS: usize = 1_400;

    /// Six rows a cut's statistics must get right, then filler: a null
    /// and a NaN in `f` (first, so `poison_float_cell` finds it), both
    /// zeros, nulls in `x`, a constant `c`, integers beyond 2⁵³ in `big`
    /// (where `f64` merges neighbours) and over all of `i64` in `wide`
    /// (a range of 2⁶⁴ − 1), a nominal `k`. NaN cannot enter a `Table`
    /// through its builder: the disk file is patched, the table loaded
    /// from it, the row store built from the cells.
    fn cut_stats_fixture() -> (Backends, Vec<Row>) {
        const NAN_MARKER: f64 = 1.0e12;
        let mut cells: Vec<Row> = Vec::new();
        let floats = [Some(NAN_MARKER), None, Some(-0.0), Some(0.0), Some(2.5)];
        for i in 0..CUT_ROWS as i64 {
            let f = floats
                .get(i as usize)
                .copied()
                .unwrap_or(Some(i as f64 / 4.0));
            let wide = match i % 5 {
                0 => i64::MIN,
                1 => i64::MAX,
                _ => i.wrapping_mul(0x2545_f491_4f6c_dd1d),
            };
            cells.push(vec![
                f.map(Value::Float),
                (i % 7 != 3).then_some(Value::Int(i * i % 23 - 9)),
                Some(Value::Date(9_000 + i % 11)),
                Some(Value::Int(7)),
                Some(Value::Int((1 << 53) + i * 7_919 % 5_003)),
                Some(Value::Int(wide)),
                Some(Value::str(format!("k{}", i % 3))),
            ]);
        }
        let mut b = TableBuilder::new("t");
        b.add_column("f", DataType::Float)
            .add_column("x", DataType::Int)
            .add_column("d", DataType::Date)
            .add_column("c", DataType::Int)
            .add_column("big", DataType::Int)
            .add_column("wide", DataType::Int)
            .add_column("k", DataType::Str);
        for row in &cells {
            b.push_row_opt(row.clone()).unwrap();
        }
        let clean = b.finish();
        let path = unique_temp_path("cut-stats");
        write_table(&clean, &path).unwrap();
        common::poison_float_cell(&path, NAN_MARKER, f64::NAN);
        let disk = Table::open(&path).unwrap();
        let table = loaded(&path);
        std::fs::remove_file(&path).unwrap();
        cells[0][0] = Some(Value::Float(f64::NAN));
        let rows = RowTable::new(Backend::schema(&clean).clone(), cells.clone()).unwrap();
        let backends: Backends = vec![
            ("table".into(), Box::new(table)),
            ("rowstore".into(), Box::new(rows)),
            ("disk".into(), Box::new(disk)),
        ];
        (backends, cells)
    }

    /// The median of the selected cells of a numeric column as sorting
    /// them defines it: nulls and NaN skipped, ranks in `total_cmp`
    /// order, the two middle ones averaged as `f64`s, folded back into
    /// the column's value space.
    fn sorted_median(cells: &[Row], col: usize, ty: DataType, sel: &Bitmap) -> Option<Value> {
        let mut values: Vec<f64> = sel
            .iter_ones()
            .filter_map(|i| cells[i][col].as_ref()?.as_f64())
            .filter(|x| !x.is_nan())
            .collect();
        if values.is_empty() {
            return None;
        }
        values.sort_by(f64::total_cmp);
        let n = values.len();
        let (lo, hi) = (values[n.div_ceil(2) - 1], values[n / 2]);
        let median = if n % 2 == 1 { hi } else { (lo + hi) / 2.0 };
        Some(charles_store::value::numeric_value(ty, median))
    }

    #[test]
    fn obligation_cut_stats_is_min_max_and_median_in_one_call() {
        // An override must be the provided body, value for value (down
        // to the sign of a zero, hence `Debug`): the body runs over the
        // same backend behind a wrapper that
        // forwards the required methods only. Both medians are the
        // sorted definition's, over every column's range — `wide` spans
        // all of `i64`.
        let (backends, cells) = cut_stats_fixture();
        let n = cells.len();
        let sels = [
            ("all", Bitmap::ones(n)),
            ("none", Bitmap::new(n)),
            ("nan and null", Bitmap::from_indices(n, [0, 1])),
            ("both zeros", Bitmap::from_indices(n, [2, 3])),
            ("zeros and a null", Bitmap::from_indices(n, [1, 2, 3])),
            ("one row", Bitmap::from_indices(n, [4])),
            (
                "odd",
                Bitmap::from_indices(n, (0..n).filter(|i| i % 2 == 1)),
            ),
            ("x null", Bitmap::from_indices(n, [3, 10, 17])),
            ("tail", Bitmap::from_indices(n, 60..n)),
        ];
        let mut reference = Vec::new();
        for (name, b) in &backends {
            let provided = FusedBackend::new(b.as_ref(), usize::MAX);
            let mut seen = Vec::new();
            for (col, attr) in ["f", "x", "d", "c", "big", "wide"].iter().enumerate() {
                for (label, sel) in &sels {
                    let what = format!("{name}: {attr} over {label}");
                    let got = b.cut_stats(attr, sel).unwrap();
                    let want = provided.cut_stats(attr, sel).unwrap();
                    let valued = sel
                        .iter_ones()
                        .filter_map(|i| cells[i][col].as_ref())
                        .filter(|v| !matches!(v, Value::Float(x) if x.is_nan()))
                        .count();
                    assert_eq!(got.is_some(), valued > 0, "{what}");
                    let values = |s: &Option<charles_store::CutStats>| {
                        s.as_ref()
                            .map(|s| format!("{:?} {:?} {:?}", s.min, s.max, s.median))
                    };
                    assert_eq!(values(&got), values(&want), "{what}");
                    let ty = b.schema().type_of(attr).unwrap();
                    assert_eq!(
                        format!("{:?}", b.median(attr, sel).unwrap()),
                        format!("{:?}", sorted_median(&cells, col, ty, sel)),
                        "{what}: median"
                    );
                    if let Some(stats) = &got {
                        // No median where there is nothing to split, and
                        // one wherever there is: CUT errs without it
                        // (`no_median_over_a_selection_that_varies_is_an_error`).
                        let constant = format!("{:?}", stats.min) == format!("{:?}", stats.max);
                        assert_eq!(stats.median.is_none(), constant, "{what}");
                        // Every engine counts the values ranked, in the
                        // one pass.
                        assert_eq!(stats.ranked, Some(valued), "{what}");
                    }
                    seen.push(values(&got));
                }
            }
            // Not numeric, not there: `median`'s errors.
            let all = &sels[0].1;
            let err = b.cut_stats("k", all).unwrap_err();
            assert!(matches!(err, StoreError::TypeMismatch { .. }), "{name}");
            assert_eq!(err, b.median("k", all).unwrap_err(), "{name}");
            assert_eq!(err, provided.cut_stats("k", all).unwrap_err(), "{name}");
            let sampled = b.sampled_median("k", all, 16, 7).unwrap_err();
            assert_eq!(sampled, err, "{name}: sampled_median");
            assert_eq!(
                b.cut_stats("nope", all).unwrap_err(),
                b.median("nope", all).unwrap_err(),
                "{name}"
            );
            // And every backend says the same.
            if reference.is_empty() {
                reference = seen;
            } else {
                assert_eq!(seen, reference, "{name}");
            }
        }
        // The fixture is what it claims: both zeros are the extremes of
        // their segment, in that order, and that is not a constant one.
        assert_eq!(
            reference[3].as_deref(),
            Some("Float(-0.0) Float(0.0) Some(Float(0.0))")
        );
    }

    /// Rows of every column type for `Backend::varies`, 1 400 of them so
    /// that `i` and `d` (over 1 024 valid rows, wide spans) are binned on
    /// a table: a NaN (row 0, patched into the file), a null (row 1) and
    /// both zeros (rows 2 and 3) in `f`, nulls in `i`, `d`, `s` and `w`,
    /// `s` of five strings (one bin each), `w` of forty (past the bins, a
    /// plain dictionary), `b` boolean. Row 4 repeats every 50 rows in
    /// every column.
    fn varies_fixture() -> (Backends, Vec<Row>) {
        const N: i64 = 1_400;
        const NAN_MARKER: f64 = 1.0e12;
        let mut cells: Vec<Row> = Vec::new();
        let floats = [Some(NAN_MARKER), None, Some(-0.0), Some(0.0)];
        for r in 0..N {
            // Rows 4, 54, 104, … share every value.
            let n = if r % 50 == 4 { 4 } else { r };
            let f = floats
                .get(r as usize)
                .copied()
                .unwrap_or(Some(n as f64 / 8.0));
            cells.push(vec![
                f.map(Value::Float),
                (r % 7 != 5).then_some(Value::Int(n * 7_919 % 100_003 - 50_000)),
                (r % 9 != 6).then_some(Value::Date(9_000 + n * 13 % 5_000)),
                (r % 11 != 7).then(|| Value::str(format!("s{}", n % 5))),
                (r % 13 != 8).then(|| Value::str(format!("w{}", n % 40))),
                Some(Value::Bool(n % 3 == 1)),
            ]);
        }
        let mut b = TableBuilder::new("t");
        b.add_column("f", DataType::Float)
            .add_column("i", DataType::Int)
            .add_column("d", DataType::Date)
            .add_column("s", DataType::Str)
            .add_column("w", DataType::Str)
            .add_column("b", DataType::Bool);
        for row in &cells {
            b.push_row_opt(row.clone()).unwrap();
        }
        let clean = b.finish();
        let path = unique_temp_path("varies");
        write_table(&clean, &path).unwrap();
        common::poison_float_cell(&path, NAN_MARKER, f64::NAN);
        let disk = Table::open(&path).unwrap();
        let table = loaded(&path);
        std::fs::remove_file(&path).unwrap();
        cells[0][0] = Some(Value::Float(f64::NAN));
        let rows = RowTable::new(Backend::schema(&clean).clone(), cells.clone()).unwrap();
        let backends: Backends = vec![
            ("table".into(), Box::new(table)),
            ("rowstore".into(), Box::new(rows)),
            ("disk".into(), Box::new(disk)),
        ];
        (backends, cells)
    }

    #[test]
    fn obligation_varies_is_min_max_telling_two_values_apart() {
        // `varies(c, sel)` is what its provided body says — `min_max`
        // returns two values that differ under `try_cmp` — on every
        // backend, overriding or not, and what the cells say: two
        // selected values, nulls and NaN skipped, `-0.0` and `+0.0` two,
        // strings by their text.
        let (backends, cells) = varies_fixture();
        let n = cells.len();
        let pick =
            |keep: &dyn Fn(usize) -> bool| Bitmap::from_indices(n, (0..n).filter(|&i| keep(i)));
        let mut seen = [false; 2];
        for (col, attr) in ["f", "i", "d", "s", "w", "b"].into_iter().enumerate() {
            let sels = [
                ("empty", Bitmap::new(n)),
                ("full", Bitmap::ones(n)),
                ("nan", pick(&|r| r == 0)),
                ("nan and null", pick(&|r| r < 2)),
                ("both zeros", pick(&|r| r == 2 || r == 3)),
                ("one row", pick(&|r| r == 4)),
                // Row 4's value and the nulls among its repeats; in `f`
                // with the NaN and the null of rows 0 and 1 too.
                ("one value", pick(&|r| r % 50 == 4)),
                ("one value, nan and null", pick(&|r| r % 50 == 4 || r < 2)),
                (
                    "one value, then another",
                    pick(&|r| r % 50 == 4 || r == n - 1),
                ),
                ("odd", pick(&|r| r % 2 == 1)),
                ("tail", pick(&|r| r >= 1_340)),
            ];
            for (label, sel) in &sels {
                let mut distinct: Vec<&Value> = Vec::new();
                for v in sel.iter_ones().filter_map(|r| cells[r][col].as_ref()) {
                    let nan = matches!(v, Value::Float(x) if x.is_nan());
                    let same = |w: &&Value| match (v, *w) {
                        (Value::Float(a), Value::Float(b)) => a.to_bits() == b.to_bits(),
                        _ => v == *w,
                    };
                    if !nan && !distinct.iter().any(same) {
                        distinct.push(v);
                    }
                }
                let want = distinct.len() >= 2;
                seen[usize::from(want)] = true;
                for (name, b) in &backends {
                    let what = format!("{name}: {attr} over {label}");
                    let by_extremes = b
                        .min_max(attr, sel)
                        .unwrap()
                        .is_some_and(|(lo, hi)| lo.try_cmp(&hi).unwrap().is_ne());
                    let provided = FusedBackend::new(b.as_ref(), usize::MAX);
                    assert_eq!(b.varies(attr, sel).unwrap(), by_extremes, "{what}");
                    assert_eq!(provided.varies(attr, sel).unwrap(), by_extremes, "{what}");
                    assert_eq!(by_extremes, want, "{what}: {distinct:?}");
                }
            }
        }
        assert_eq!(seen, [true, true]);
        // Not there: `min_max`'s error.
        for (name, b) in &backends {
            let all = Bitmap::ones(n);
            let err = b.varies("nope", &all).unwrap_err();
            assert_eq!(err, b.min_max("nope", &all).unwrap_err(), "{name}");
        }
    }

    /// 200 rows — three whole bitmap words and an 8-row tail — of every
    /// column type, each with nulls: a NaN in `f` (row 3), `i` straddling
    /// 2⁵³, and string placeholder codes under nulls that are not 0 (row
    /// 7: a code the dictionary has; row 11: one it has not). Neither can
    /// enter through the builder: the disk file is patched, the table
    /// loaded from it, the row store built from the cells.
    fn rows_fixture() -> (Backends, usize) {
        const N: usize = 200;
        const BASE: i64 = (1 << 53) - 4;
        let mut cells: Vec<Row> = Vec::new();
        for i in 0..N {
            let n = i as i64;
            cells.push(vec![
                (i % 5 != 1).then_some(Value::Float(n as f64 * 0.25 - 10.0)),
                (i % 6 != 2).then_some(Value::Int(BASE + n * 7 % 13)),
                (i % 7 != 4).then_some(Value::Date(9_000 + n % 17)),
                (i % 4 != 3).then(|| Value::str(format!("s{}", i % 5))),
                (i % 8 != 5).then_some(Value::Bool(i % 3 == 0)),
            ]);
        }
        let mut b = TableBuilder::new("t");
        b.add_column("f", DataType::Float)
            .add_column("i", DataType::Int)
            .add_column("d", DataType::Date)
            .add_column("s", DataType::Str)
            .add_column("b", DataType::Bool);
        for row in &cells {
            b.push_row_opt(row.clone()).unwrap();
        }
        let clean = b.finish();
        let path = unique_temp_path("rows");
        write_table(&clean, &path).unwrap();
        common::patch_cell(&path, 0, 3, &f64::NAN.to_bits().to_le_bytes());
        common::patch_cell(&path, 3, 7, &2u32.to_le_bytes());
        common::patch_cell(&path, 3, 11, &99u32.to_le_bytes());
        let disk = Table::open(&path).unwrap();
        let table = loaded(&path);
        std::fs::remove_file(&path).unwrap();
        cells[3][0] = Some(Value::Float(f64::NAN));
        let rows = RowTable::new(Backend::schema(&clean).clone(), cells).unwrap();
        let backends: Backends = vec![
            ("table".into(), Box::new(table)),
            ("rowstore".into(), Box::new(rows)),
            ("disk".into(), Box::new(disk)),
        ];
        (backends, N)
    }

    /// Every leaf kind on every column type, and the shapes they combine
    /// into, over [`rows_fixture`].
    fn leaves(n: usize) -> Vec<StorePredicate> {
        const BASE: i64 = (1 << 53) - 4;
        let range = |col: &str, lo: Value, hi: Value| {
            [true, false].map(|closed| StorePredicate::range(col, lo.clone(), hi.clone(), closed))
        };
        let mut out = Vec::new();
        out.extend(range("f", Value::Float(-5.0), Value::Float(20.0)));
        out.extend(range(
            "f",
            Value::Float(f64::NEG_INFINITY),
            Value::Float(f64::INFINITY),
        ));
        // Integer bounds beyond 2⁵³ compare exactly; `Float` ones as f64.
        out.extend(range("i", Value::Int(BASE + 2), Value::Int(BASE + 9)));
        out.extend(range(
            "i",
            Value::Float(BASE as f64),
            Value::Float((BASE + 8) as f64),
        ));
        out.extend(range("d", Value::Date(9_003), Value::Date(9_010)));
        out.extend(range("s", Value::str("s1"), Value::str("s3")));
        out.extend(range("b", Value::Bool(false), Value::Bool(true)));
        let floats = [-9.0, 0.0, 12.5, 7.25].map(Value::Float);
        let ints = [1, 5, 12].map(|k| Value::Int(BASE + k));
        let strs = ["s0", "s4", "zz"].map(Value::str);
        out.extend([
            StorePredicate::set("f", floats.to_vec()),
            StorePredicate::set("i", ints.to_vec()),
            StorePredicate::set("d", vec![Value::Date(9_000), Value::Date(9_016)]),
            // An `Int` member matches exactly; a `Float` one as the `f64`
            // it is, so beyond 2⁵³ it matches every integer rounding to
            // it (2⁵³ and 2⁵³ + 1; 2⁵³ + 3 to 2⁵³ + 5).
            StorePredicate::set(
                "i",
                vec![
                    Value::Float((BASE + 4) as f64),
                    Value::Int(BASE + 1),
                    Value::Float((BASE + 8) as f64),
                ],
            ),
            StorePredicate::set("d", vec![Value::Float(9_005.0), Value::Date(9_010)]),
            StorePredicate::set("s", strs.to_vec()),
            StorePredicate::set("b", vec![Value::Bool(true)]),
            StorePredicate::set("s", Vec::new()),
            StorePredicate::True,
            StorePredicate::Rows(Arc::new(Bitmap::from_indices(n, (0..n).step_by(3)))),
            StorePredicate::and(vec![
                StorePredicate::range("i", Value::Int(BASE), Value::Int(BASE + 6), true),
                StorePredicate::set("s", vec![Value::str("s1"), Value::str("s2")]),
            ]),
        ]);
        out
    }

    /// Selections whose words are empty, sparse (a walk of their rows)
    /// and dense (all 64 values compared, then masked), and every mix.
    fn selections(n: usize) -> Vec<(&'static str, Bitmap)> {
        let pick =
            |keep: &dyn Fn(usize) -> bool| Bitmap::from_indices(n, (0..n).filter(|&i| keep(i)));
        vec![
            ("empty", Bitmap::new(n)),
            ("all", Bitmap::ones(n)),
            ("tail word", pick(&|i| i >= 192)),
            ("sparse", pick(&|i| i % 9 == 4)),
            ("dense", pick(&|i| i % 11 != 0)),
            // Dense, sparse, empty, then a dense tail.
            (
                "mixed",
                pick(&|i| match i / 64 {
                    0 | 3 => i % 13 != 0,
                    1 => i % 16 == 1,
                    _ => false,
                }),
            ),
            ("halves", pick(&|i| (i * 37 + i / 7) % 2 == 0)),
        ]
    }

    /// `R(pred)` the way it was evaluated before a leaf could narrow a
    /// selection: each leaf of a conjunction scanned on its own, ANDed.
    fn whole_leaves(b: &dyn Backend, pred: &StorePredicate) -> Bitmap {
        match pred {
            StorePredicate::And(ps) => ps.iter().fold(Bitmap::ones(b.row_count()), |mut acc, p| {
                acc.and_inplace(&whole_leaves(b, p));
                acc
            }),
            leaf => b.eval(leaf).unwrap(),
        }
    }

    #[test]
    fn obligation_a_leaf_within_rows_is_the_leaf_and_those_rows() {
        let (backends, n) = rows_fixture();
        let reference = &backends[0].1;
        for (name, b) in &backends {
            for (label, sel) in selections(n) {
                let rows = StorePredicate::Rows(Arc::new(sel.clone()));
                assert_eq!(b.eval(&rows).unwrap(), sel, "{name}: {label}");
                for leaf in leaves(n) {
                    let what = format!("{name}: {leaf:?} within {label}");
                    let want = whole_leaves(reference.as_ref(), &leaf).and(&sel);
                    assert_eq!(whole_leaves(b.as_ref(), &leaf).and(&sel), want, "{what}");
                    let within = StorePredicate::and(vec![rows.clone(), leaf.clone()]);
                    let got = b.eval(&within).unwrap();
                    assert_eq!(got, want, "{what}");
                    // No bit beyond the last row: the words round-trip.
                    assert_eq!(Bitmap::from_words(got.words().to_vec(), n), Some(got));
                    // Order does not matter to the bits.
                    let after = StorePredicate::and(vec![leaf.clone(), rows.clone()]);
                    assert_eq!(b.eval(&after).unwrap(), want, "{what}, rows last");
                }
            }
        }
    }

    /// Rows of [`runs_fixture`]: past the 1 024 valid rows from which a
    /// table bins a wide `Int`/`Date` column, and not a multiple of 64.
    const RUN_ROWS: usize = 4_099;

    /// Four wide columns a table bins and orders by value, each bin's
    /// rows a run (ADR 0027), and the row store walks: `t` over 3 000
    /// integers (counted edges) with every ninth row null, `d` over
    /// 70 000 days (sampled edges), `w` clustered at both ends of `i64`
    /// (bins wider than 2³² values), and `h` a third of whose rows hold
    /// one value (collapsed edges, an exact bin among wide ones).
    fn runs_fixture() -> Backends {
        let scatter = |i: usize, m: u64| (i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 20 & m;
        let mut cells: Vec<Row> = Vec::new();
        for i in 0..RUN_ROWS {
            let w = match scatter(i, 1) {
                0 => i64::MIN + scatter(i, 0x3ff) as i64,
                _ => i64::MAX - scatter(i, 0x3ff) as i64,
            };
            let h = if i % 3 == 0 {
                500
            } else {
                scatter(i, 1023) as i64
            };
            cells.push(vec![
                (i % 9 != 4).then_some(Value::Int(scatter(i, 4095) as i64 % 3_000 - 1_500)),
                Some(Value::Date(scatter(i, 0x1_ffff) as i64 % 70_000)),
                Some(Value::Int(w)),
                Some(Value::Int(h)),
            ]);
        }
        let mut b = TableBuilder::new("t");
        b.add_column("t", DataType::Int)
            .add_column("d", DataType::Date)
            .add_column("w", DataType::Int)
            .add_column("h", DataType::Int);
        for row in &cells {
            b.push_row_opt(row.clone()).unwrap();
        }
        let table = b.finish();
        let disk = disk_fixture(&table);
        let rows = RowTable::new(Backend::schema(&table).clone(), cells).unwrap();
        vec![
            ("rowstore".into(), Box::new(rows)),
            ("table".into(), Box::new(table)),
            ("disk".into(), Box::new(disk)),
        ]
    }

    #[test]
    fn obligation_value_ordered_runs_answer_what_the_walks_answer() {
        // The row store's projections have no bins: every answer there
        // is a walk. The binned engines read ranks, extremes, the next
        // value up and a range's boundary bins off their runs at these
        // densities, and walk below each cut-over — so the selections
        // run from every row to one in 512, then one row and none, and
        // two confined to a range of values.
        let backends = runs_fixture();
        let n = RUN_ROWS;
        let every = |k: usize| {
            Bitmap::from_indices(
                n,
                (0..n).filter(|&i| (i * 2_654_435_761) % 4_096 < 4_096 / k),
            )
        };
        let reference = &backends[0].1;
        for col in ["t", "d", "w", "h"] {
            let all = Bitmap::ones(n);
            let (lo, hi) = reference.min_max(col, &all).unwrap().unwrap();
            let quarter = reference.quantile(col, &all, 0.25).unwrap().unwrap();
            let low = reference.eval(&StorePredicate::range(col, lo, quarter, true));
            let mut sels: Vec<(String, Bitmap)> = [1, 2, 4, 8, 16, 32, 64, 128, 512]
                .map(|k| (format!("1/{k}"), every(k)))
                .to_vec();
            sels.push(("one row".into(), Bitmap::from_indices(n, [n / 3])));
            sels.push(("none".into(), Bitmap::new(n)));
            sels.push(("lowest quarter".into(), low.unwrap()));
            let confined = sels[11].1.and(&every(2));
            sels.push(("its even rows".into(), confined));
            for (label, sel) in &sels {
                let what = |name: &str, op: &str| format!("{name}: {col} {op} over {label}");
                let stats = reference.cut_stats(col, sel).unwrap();
                let mut floors = vec![Value::Float(f64::NEG_INFINITY), hi.clone()];
                let mut ranges = Vec::new();
                if let Some(s) = &stats {
                    // A cut's pieces, with the bounds of one type: the
                    // integers, or all as `Float`s (a median between two
                    // integers is one) and a bound between values.
                    let med = s.median.clone().unwrap_or(s.max.clone());
                    let float = |v: &Value| Value::Float(v.as_f64().unwrap());
                    let half = Value::Float(med.as_f64().unwrap() + 0.5);
                    floors.extend([s.min.clone(), med.clone(), half.clone()]);
                    let mut bounds = vec![
                        (float(&s.min), float(&med)),
                        (float(&med), float(&s.max)),
                        (float(&s.min), half),
                    ];
                    if !matches!(med, Value::Float(_)) {
                        bounds.extend([(s.min.clone(), med.clone()), (med, s.max.clone())]);
                    }
                    for (lo, hi) in bounds {
                        for closed in [false, true] {
                            ranges.push(StorePredicate::range(col, lo.clone(), hi.clone(), closed));
                        }
                    }
                }
                let rows = StorePredicate::Rows(Arc::new(sel.clone()));
                for (name, b) in &backends[1..] {
                    let got = b.cut_stats(col, sel).unwrap();
                    assert_eq!(got, stats, "{}", what(name, "cut_stats"));
                    for q in [0.0, 0.1, 0.25, 0.5, 0.9, 1.0] {
                        let op = format!("quantile {q}");
                        let want = reference.quantile(col, sel, q).unwrap();
                        assert_eq!(
                            b.quantile(col, sel, q).unwrap(),
                            want,
                            "{}",
                            what(name, &op)
                        );
                    }
                    let want = reference.min_max(col, sel).unwrap();
                    assert_eq!(
                        b.min_max(col, sel).unwrap(),
                        want,
                        "{}",
                        what(name, "min_max")
                    );
                    for floor in &floors {
                        let op = format!("next_above {floor:?}");
                        let want = reference.next_above(col, sel, floor).unwrap();
                        let got = b.next_above(col, sel, floor).unwrap();
                        assert_eq!(got, want, "{}", what(name, &op));
                    }
                    for range in &ranges {
                        let within = StorePredicate::and(vec![rows.clone(), range.clone()]);
                        let op = format!("{range:?}");
                        let want = reference.eval(&within).unwrap();
                        assert_eq!(b.eval(&within).unwrap(), want, "{}", what(name, &op));
                        let op = format!("{range:?} alone");
                        let want = reference.eval(range).unwrap();
                        assert_eq!(b.eval(range).unwrap(), want, "{}", what(name, &op));
                    }
                }
            }
        }
    }

    #[test]
    fn obligation_an_unknown_column_errs_only_where_it_is_reached() {
        // A conjunction stops at its first empty prefix on every backend:
        // behind one, a leaf's column is never looked up; behind a
        // non-empty one, every backend reports it the same way.
        let (backends, n) = rows_fixture();
        let nope = StorePredicate::range("nope", Value::Int(0), Value::Int(1), true);
        let rows = |sel: Bitmap| StorePredicate::Rows(Arc::new(sel));
        let absent = StorePredicate::set("s", vec![Value::str("absent")]);
        for (name, b) in &backends {
            for prefix in [rows(Bitmap::new(n)), absent.clone()] {
                let pred = StorePredicate::and(vec![prefix, nope.clone()]);
                assert_eq!(b.eval(&pred).unwrap(), Bitmap::new(n), "{name}: {pred:?}");
            }
            let pred = StorePredicate::and(vec![rows(Bitmap::ones(n)), nope.clone()]);
            assert_eq!(
                b.eval(&pred).unwrap_err(),
                StoreError::UnknownColumn("nope".into()),
                "{name}"
            );
            // A selection of another length is not one of this table.
            assert_eq!(
                b.eval(&rows(Bitmap::ones(n + 1))).unwrap_err(),
                StoreError::LengthMismatch {
                    left: n + 1,
                    right: n
                },
                "{name}"
            );
        }
    }

    #[test]
    fn a_nan_in_the_parent_sends_each_half_of_a_cut_to_its_own_scan() {
        // `f` holds a NaN (row 0) and a null (row 1): the context's
        // extent screens the null and keeps the NaN, which no range
        // holds — so a cut on `f` does not partition its parent and its
        // halves scan one conjunct each. `d` holds a value in every row:
        // every engine's one-pass statistics count as many values as the
        // parent has rows, and the pair costs one scan. Behind the trait's
        // provided `cut_stats`, which counts nothing, it costs two.
        let (backends, _) = cut_stats_fixture();
        for (name, engine) in &backends {
            let provided = FusedBackend::new(engine.as_ref(), usize::MAX);
            let own = engine.as_ref();
            for (label, b, d_scans) in [("own", own, 1), ("provided", &provided as &dyn Backend, 2)]
            {
                let name = format!("{name}, {label} cut_stats");
                let ctx = Query::wildcard(&["f", "d"]);
                let ex = Explorer::new(b, Config::default(), ctx.clone()).unwrap();
                assert_eq!(ex.context_size(), CUT_ROWS - 1, "{name}");
                let (valued, all) = (CUT_ROWS - 2, CUT_ROWS - 1);
                for (attr, covered, scans) in [("f", valued, 2), ("d", all, d_scans)] {
                    let before = ex.backend_ops().scans;
                    let (l, r) = cut_query(&ex, &ctx, attr).unwrap().unwrap();
                    let released = [&l, &r].map(|q| ex.selection(q).unwrap());
                    assert_eq!(ex.backend_ops().scans - before, scans, "{name}: {attr}");
                    for (q, released) in [&l, &r].into_iter().zip(&released) {
                        let mut evaluated = charles::sdl::eval::selection(q, b).unwrap();
                        evaluated.and_inplace(ex.context_selection());
                        assert_eq!(**released, evaluated, "{name}: {q}");
                    }
                    assert!(released[0].is_disjoint(&released[1]), "{name}: {attr}");
                    let both = released[0].count_ones() + released[1].count_ones();
                    assert_eq!(both, covered, "{name}: {attr}");
                }
            }
        }
    }

    #[test]
    fn nominal_count_ties_break_alike_on_every_backend() {
        // Within `x: [10, 15]` each of a, b and c is picked twice, and
        // each boolean three times. A count tie breaks by dictionary code,
        // and every backend codes a string by its first occurrence in the
        // relation (a, c, b), not in the selection (b, a, c), and a
        // boolean as {false, true}, not as first seen — so a nominal cut
        // splits the same values off everywhere.
        let mut b = TableBuilder::new("t");
        b.add_column("k", DataType::Str)
            .add_column("x", DataType::Int)
            .add_column("even", DataType::Bool);
        let rows = [
            ("a", 1),
            ("c", 2),
            ("b", 10),
            ("b", 11),
            ("a", 12),
            ("a", 13),
            ("c", 14),
            ("c", 15),
        ];
        for (k, x) in rows {
            b.push_row(vec![Value::str(k), Value::Int(x), Value::Bool(x % 2 == 0)])
                .unwrap();
        }
        let t = b.finish();
        let context = "(k: , x: [10, 15])";
        let sel = t
            .eval(&StorePredicate::range(
                "x",
                Value::Int(10),
                Value::Int(15),
                true,
            ))
            .unwrap();
        let cut_k = |b: &dyn Backend| {
            let ex = Explorer::new(
                b,
                Config::default(),
                charles::parse_query(context, b.schema()).unwrap(),
            )
            .unwrap();
            let base = Segmentation::singleton(ex.context().clone());
            cut_segmentation(&ex, &base, "k")
                .unwrap()
                .unwrap()
                .to_string()
        };
        let reference = cut_k(&t);
        assert!(reference.contains("k: {a}"), "{reference}");
        for (name, b) in backends(&t) {
            for (col, order) in [
                ("k", ["a", "c", "b"].as_slice()),
                ("even", &["false", "true"]),
            ] {
                let (ft, dict) = b.frequencies(col, &sel).unwrap();
                let ranked: Vec<&str> = ft
                    .by_frequency()
                    .iter()
                    .map(|&(code, _)| dict[code as usize].as_str())
                    .collect();
                assert_eq!(ranked, order, "{name}: {col}");
            }
            assert_eq!(cut_k(b.as_ref()), reference, "{name}");
            let ranked = |b: &dyn Backend| {
                let advice = Advisor::new(b).advise_str(context).unwrap();
                advice
                    .ranked
                    .iter()
                    .map(|r| r.segmentation.to_string())
                    .collect::<Vec<_>>()
            };
            assert_eq!(ranked(b.as_ref()), ranked(&t), "{name}");
        }
    }

    #[test]
    fn signed_zero_bounds_select_what_constraint_matches_says() {
        // Every matcher but one compared in `f64::total_cmp`'s order,
        // where -0.0 < 0.0; `Table`'s range kernel compared `f64`s with
        // IEEE `>=` / `<=`, where the two are equal. A `Float` column
        // holding both zeros, and an `Int` column holding 0, under ±0.0
        // bounds closed and half-open: every backend selects the rows
        // `Constraint::matches` does.
        let xs = [-0.0, 0.0, 0.5, -0.5, -0.0, 1.0];
        let mut b = TableBuilder::new("t");
        b.add_column("x", DataType::Float)
            .add_column("n", DataType::Int);
        for (i, x) in xs.iter().enumerate() {
            b.push_row(vec![Value::Float(*x), Value::Int(i as i64 - 2)])
                .unwrap();
        }
        let t = b.finish();
        let cell = |col: &str, i: usize| match col {
            "x" => Value::Float(xs[i]),
            _ => Value::Int(i as i64 - 2),
        };
        let zeros = [-0.0, 0.0];
        // A bound that is a zero compares order keys; the others compare
        // `f64`s, and must agree on the zeros in the column all the same.
        let mut bounds: Vec<(f64, f64)> = vec![
            (-1.0, 0.0),
            (-1.0, -0.0),
            (-0.0, 1.0),
            (0.0, 1.0),
            (-1.0, 1.0),
            (-0.5, 0.5),
        ];
        bounds.extend(zeros.iter().flat_map(|&lo| zeros.map(|hi| (lo, hi))));
        let mut checked = 0;
        for (name, b) in backends(&t) {
            for col in ["x", "n"] {
                for &(lo, hi) in &bounds {
                    for closed in [true, false] {
                        let (lo, hi) = (Value::Float(lo), Value::Float(hi));
                        let Ok(c) = Constraint::range_with(lo.clone(), hi.clone(), closed) else {
                            continue;
                        };
                        let pred = StorePredicate::range(col, lo, hi, closed);
                        let got = b.eval(&pred).unwrap();
                        for i in 0..xs.len() {
                            let want = c.matches(&cell(col, i));
                            assert_eq!(got.get(i), want, "{name}: {col} in {c}, row {i}");
                        }
                        checked += 1;
                    }
                }
            }
        }
        assert!(checked > 30, "{checked}");
    }

    #[test]
    fn integer_cuts_partition_beyond_f64_precision() {
        // 2⁵³ … 2⁵³+3: as `f64` the four are two values, the halves
        // `[lo, s]` / `[s+1, hi]` of a cut used to overlap (2 + 4 rows)
        // and the "partition" was none. Integer bounds on an integer
        // column compare as integers, on every backend.
        const BASE: i64 = 1 << 53;
        let mut b = TableBuilder::new("t");
        b.add_column("z", DataType::Int)
            .add_column("day", DataType::Date);
        for i in 0..4 {
            b.push_row(vec![Value::Int(BASE + i), Value::Date(BASE + i)])
                .unwrap();
        }
        let t = b.finish();
        for (name, b) in backends(&t) {
            for attr in ["z", "day"] {
                let ex =
                    Explorer::new(b.as_ref(), Config::default(), Query::wildcard(&[attr])).unwrap();
                let base = Segmentation::singleton(ex.context().clone());
                let seg = cut_segmentation(&ex, &base, attr).unwrap().unwrap();
                // (Where it splits is the median's business, and that is
                // still taken over `f64`s: 1 + 3 here.)
                let rows: usize = seg.queries().iter().map(|q| ex.count(q).unwrap()).sum();
                assert_eq!(rows, 4, "{name}: {seg}");
                let report = seg
                    .check_partition(b.as_ref(), ex.context_selection())
                    .unwrap();
                assert!(report.is_partition(), "{name}: {report:?}");
            }
            // One row exactly, where `f64` cannot tell it from its
            // neighbour; a `Float` bound still compares as `f64`.
            let only = |lo, hi| b.count(&StorePredicate::range("z", lo, hi, true)).unwrap();
            assert_eq!(
                only(Value::Int(BASE + 1), Value::Int(BASE + 1)),
                1,
                "{name}"
            );
            assert_eq!(
                only(Value::Float(BASE as f64), Value::Float(BASE as f64)),
                2,
                "{name}"
            );
        }
    }

    #[test]
    fn obligation_mixed_integer_and_float_bounds_select_what_try_cmp_selects() {
        // A range on an `Int`/`Date` column may hold one bound of each
        // kind: a cut builds `[Int min, Float median[` where the median
        // falls between two integers. `RowTable` compares each bound by
        // its own type (`Value::try_cmp`): an integer exactly, a `Float`
        // as `f64`. Past 2⁵³ the two differ, and `Table` used to compare
        // both as `f64`: `w ∈ [i64::MAX − 700, Float(i64::MAX)]` counted
        // 1 535 rows there and 701 here. Every backend, whole column and
        // within a selection, selects the rows `try_cmp` passes — across
        // the binned kernel's wide bins (2 400 rows, four dense runs).
        const BIG: i64 = 1 << 53;
        let starts = [i64::MIN, -300, BIG - 300, i64::MAX - 599];
        let ints: Vec<i64> = starts
            .iter()
            .flat_map(|&s| (0..600).map(move |i| s + i))
            .collect();
        let mut b = TableBuilder::new("t");
        b.add_column("w", DataType::Int)
            .add_column("day", DataType::Date);
        for &v in &ints {
            b.push_row(vec![Value::Int(v), Value::Date(v)]).unwrap();
        }
        let t = b.finish();
        let int_bounds = [
            i64::MIN,
            -1,
            0,
            1,
            BIG - 1,
            BIG,
            BIG + 1,
            i64::MAX - 700,
            i64::MAX,
        ];
        let float_bounds = [
            -0.0,
            0.0,
            -0.5,
            0.5,
            f64::NEG_INFINITY,
            f64::INFINITY,
            (BIG - 1) as f64,
            BIG as f64,
            (BIG + 2) as f64,
            BIG as f64 - 0.5,
            i64::MAX as f64,
            i64::MIN as f64,
        ];
        let bounds: Vec<Value> = (int_bounds.iter().map(|&v| Value::Int(v)))
            .chain(float_bounds.iter().map(|&v| Value::Float(v)))
            .collect();
        let passes = |v: &Value, lo: &Value, hi: &Value, closed: bool| {
            use std::cmp::Ordering::*;
            matches!(v.try_cmp(lo), Ok(Greater | Equal))
                && match v.try_cmp(hi) {
                    Ok(Less) => true,
                    Ok(Equal) => closed,
                    _ => false,
                }
        };
        let within = Arc::new(Bitmap::from_indices(ints.len(), (0..ints.len()).step_by(3)));
        let mut checked = 0;
        for (name, b) in backends(&t) {
            for (col, cell) in [("w", Value::Int as fn(i64) -> Value), ("day", Value::Date)] {
                for lo in &bounds {
                    for hi in &bounds {
                        if !matches!((lo, hi), (Value::Float(_), _) | (_, Value::Float(_))) {
                            continue;
                        }
                        for closed in [true, false] {
                            let pred = StorePredicate::range(col, lo.clone(), hi.clone(), closed);
                            let got = b.eval(&pred).unwrap();
                            let narrowed = StorePredicate::and(vec![
                                StorePredicate::Rows(Arc::clone(&within)),
                                pred,
                            ]);
                            let got_within = b.eval(&narrowed).unwrap();
                            let want: Vec<usize> = (ints.iter().enumerate())
                                .filter(|&(_, &v)| passes(&cell(v), lo, hi, closed))
                                .map(|(i, _)| i)
                                .collect();
                            let want_within: Vec<usize> =
                                want.iter().copied().filter(|i| i % 3 == 0).collect();
                            for (got, want, how) in
                                [(got, want, "whole"), (got_within, want_within, "within")]
                            {
                                let got: Vec<usize> = got.iter_ones().collect();
                                assert!(
                                    got == want,
                                    "{name}: {col} in [{lo:?}, {hi:?}] ({closed}), {how}: \
                                     {} rows where try_cmp passes {}",
                                    got.len(),
                                    want.len()
                                );
                            }
                            checked += 1;
                        }
                    }
                }
            }
        }
        assert!(checked > 1_000, "{checked}");
    }

    #[test]
    fn advisor_output_bitwise_identical_table_vs_disk() {
        // The persistence round trip the tentpole promises: write the
        // fixture out, advise over the lazily loaded file and demand
        // the exact same ranked answers, entropies bit-for-bit.
        let t = fixture();
        let context = "(type_of_boat: , tonnage: , departure_harbour: )";
        let reference: Vec<(String, u64)> = Advisor::new(&t)
            .advise_str(context)
            .unwrap()
            .ranked
            .iter()
            .map(|r| (r.segmentation.to_string(), r.score.entropy.to_bits()))
            .collect();
        assert!(!reference.is_empty());
        let disk = disk_fixture(&t);
        let got: Vec<(String, u64)> = Advisor::new(&disk)
            .advise_str(context)
            .unwrap()
            .ranked
            .iter()
            .map(|r| (r.segmentation.to_string(), r.score.entropy.to_bits()))
            .collect();
        assert_eq!(got, reference, "advisor output diverged on the opened file");
        // Only the three context attributes (plus any the advisor
        // touches) should have been materialised — the fixture has 9.
        assert!(
            disk.columns_loaded() < 9,
            "lazy loading defeated: {} of 9 columns materialised",
            disk.columns_loaded()
        );
    }

    #[test]
    fn quantile_cuts_and_advice_render_identically_on_every_backend() {
        // What the analyst reads, byte for byte: a statistic reported
        // outside the column's value space (a Float median of an Int
        // column) renders `[362.0,606.0[` where the table renders
        // `[362,605]`.
        let t = fixture();
        let render = |b: &dyn Backend| -> (String, String) {
            let ex = Explorer::new(b, Config::default(), Query::wildcard(&["tonnage"])).unwrap();
            let base = Segmentation::singleton(ex.context().clone());
            let terciles = quantile_cut_segmentation(&ex, &base, "tonnage", 3)
                .unwrap()
                .unwrap();
            let advice = Advisor::new(b)
                .advise_str("(type_of_boat: , tonnage: , departure_harbour: )")
                .unwrap();
            let ranked = advice
                .ranked
                .iter()
                .map(|r| format!("{}\nE={:016x}\n", r.segmentation, r.score.entropy.to_bits()))
                .collect();
            (terciles.to_string(), ranked)
        };
        let reference = render(&t);
        assert!(!reference.1.is_empty());
        for (name, b) in backends(&t) {
            assert_eq!(render(b.as_ref()), reference, "{name}");
        }
    }
}

#[test]
fn homogeneity_and_surprise_propagate_backend_errors() {
    // Budget tuned so the advisor succeeds but the (backend-hungry)
    // diagnostics later run out — they must return Err, not panic.
    let table = voc_table(1_000, 54);
    let probe = FusedBackend::new(&table, usize::MAX);
    let ctx = charles::parse_query(CONTEXT, Backend::schema(&probe)).unwrap();
    let ex = Explorer::new(&probe, Config::default(), ctx.clone()).unwrap();
    let out = charles::hb_cuts(&ex).unwrap();
    let best = out.ranked[0].segmentation.clone();

    // Re-run with a budget generous enough for HB-cuts to complete
    // (the caches absorb most calls; 512 has ample headroom), then kill
    // the fuse before the diagnostics run.
    let ops_for_advise = 512;
    let fused = FusedBackend::new(&table, ops_for_advise);
    let ex = Explorer::new(&fused, Config::default(), ctx).unwrap();
    let _ = charles::hb_cuts(&ex).unwrap();
    fused.budget.store(0, Ordering::Relaxed); // kill the backend now
                                              // Cached selections may still satisfy some calls; fresh backend work
                                              // must error.
    let h = charles_bench::homogeneity(&ex, &best);
    let s = charles_bench::surprise(&ex, &best);
    assert!(
        h.is_err() || s.is_err(),
        "diagnostics ignored a dead backend"
    );
}

/// A delegating backend that tallies what it was asked, and notes the
/// thread of every call. It forwards every method to the engine it
/// wraps, `cut_stats` and `varies` too, so a `min_max` or `median` it
/// sees is an explorer's own call, never one made inside a cut's or a
/// `varies`' provided body. Set, `linger` holds each call 100 µs: a run
/// that forked would have a helper thread take some of its calls.
struct Tallied<'a> {
    inner: &'a dyn Backend,
    tally: Mutex<Tally>,
    threads: Mutex<HashSet<ThreadId>>,
    linger: bool,
}

/// What a [`Tallied`] backend was asked: `eval` by the range and set
/// leaves of its predicates, `cut_stats` by the results that carry a
/// median, every other method read here by its calls.
#[derive(Debug, Default, Clone, Copy)]
struct Tally {
    eval_leaves: u64,
    count: u64,
    median: u64,
    sampled_median: u64,
    cut_medians: u64,
    quantile: u64,
    min_max: u64,
    mean_and_var: u64,
    frequencies: u64,
    distinct_count: u64,
}

impl Tally {
    /// The ops the explorer's rule (ADRs 0023, 0028) makes of these
    /// calls: a scan per leaf handed to `eval` and per `frequencies`,
    /// `min_max` and `mean_and_var`; a median per cut statistic that
    /// carries one and per `median`, `sampled_median` and `quantile`.
    /// `not_null`, `varies`, `next_above` and a cut's extremes, which come
    /// from the cut's one `cut_stats` call, are none.
    fn ops(&self) -> BackendStats {
        BackendStats {
            scans: self.eval_leaves + self.frequencies + self.min_max + self.mean_and_var,
            medians: self.median + self.sampled_median + self.cut_medians + self.quantile,
        }
    }
}

/// The range and set leaves of a predicate: `Rows` and `True` read no
/// column.
fn leaves(pred: &StorePredicate) -> u64 {
    match pred {
        StorePredicate::Range(_) | StorePredicate::Set(_) => 1,
        StorePredicate::And(preds) => preds.iter().map(leaves).sum(),
        StorePredicate::True | StorePredicate::Rows(_) => 0,
    }
}

impl<'a> Tallied<'a> {
    fn new(inner: &'a dyn Backend) -> Self {
        Tallied {
            inner,
            tally: Mutex::default(),
            threads: Mutex::default(),
            linger: false,
        }
    }

    fn note(&self, call: impl FnOnce(&mut Tally)) {
        self.threads
            .lock()
            .unwrap()
            .insert(std::thread::current().id());
        call(&mut self.tally.lock().unwrap());
        if self.linger {
            std::thread::sleep(std::time::Duration::from_micros(100));
        }
    }

    fn tally(&self) -> Tally {
        *self.tally.lock().unwrap()
    }
}

impl Backend for Tallied<'_> {
    fn row_count(&self) -> usize {
        self.inner.row_count()
    }
    fn schema(&self) -> &Schema {
        self.inner.schema()
    }
    fn eval(&self, pred: &StorePredicate) -> StoreResult<Bitmap> {
        self.note(|t| t.eval_leaves += leaves(pred));
        self.inner.eval(pred)
    }
    fn not_null(&self, column: &str) -> StoreResult<Bitmap> {
        self.note(|_| ());
        self.inner.not_null(column)
    }
    fn count(&self, pred: &StorePredicate) -> StoreResult<usize> {
        self.note(|t| t.count += 1);
        self.inner.count(pred)
    }
    fn median(&self, column: &str, sel: &Bitmap) -> StoreResult<Option<Value>> {
        self.note(|t| t.median += 1);
        self.inner.median(column, sel)
    }
    fn sampled_median(
        &self,
        column: &str,
        sel: &Bitmap,
        sample_size: usize,
        seed: u64,
    ) -> StoreResult<Option<Value>> {
        self.note(|t| t.sampled_median += 1);
        self.inner.sampled_median(column, sel, sample_size, seed)
    }
    fn quantile(&self, column: &str, sel: &Bitmap, q: f64) -> StoreResult<Option<Value>> {
        self.note(|t| t.quantile += 1);
        self.inner.quantile(column, sel, q)
    }
    fn min_max(&self, column: &str, sel: &Bitmap) -> StoreResult<Option<(Value, Value)>> {
        self.note(|t| t.min_max += 1);
        self.inner.min_max(column, sel)
    }
    fn cut_stats(&self, column: &str, sel: &Bitmap) -> StoreResult<Option<CutStats>> {
        let stats = self.inner.cut_stats(column, sel)?;
        let median = stats.as_ref().is_some_and(|s| s.median.is_some());
        self.note(|t| t.cut_medians += u64::from(median));
        Ok(stats)
    }
    fn varies(&self, column: &str, sel: &Bitmap) -> StoreResult<bool> {
        self.note(|_| ());
        self.inner.varies(column, sel)
    }
    fn next_above(&self, column: &str, sel: &Bitmap, v: &Value) -> StoreResult<Option<Value>> {
        self.note(|_| ());
        self.inner.next_above(column, sel, v)
    }
    fn mean_and_var(&self, column: &str, sel: &Bitmap) -> StoreResult<Option<(f64, f64)>> {
        self.note(|t| t.mean_and_var += 1);
        self.inner.mean_and_var(column, sel)
    }
    fn frequencies(
        &self,
        column: &str,
        sel: &Bitmap,
    ) -> StoreResult<(FrequencyTable, Vec<String>)> {
        self.note(|t| t.frequencies += 1);
        self.inner.frequencies(column, sel)
    }
    fn distinct_count(&self, column: &str, sel: &Bitmap) -> StoreResult<usize> {
        self.note(|t| t.distinct_count += 1);
        self.inner.distinct_count(column, sel)
    }
}

#[test]
fn the_explorer_counts_every_store_call_made_through_it() {
    // The explorer is the one door to the store (ADR 0028): each method
    // below runs on an explorer of its own over a tallying backend, and
    // the explorer's `backend_ops` must be what the backend was asked,
    // read under its rule — no call went round the door uncounted.
    use charles::advisor::cut_segmentation;
    use charles::Segmentation;
    use charles_bench::baselines::{
        clique_clusters, exhaustive_segmentations, facet_segmentations, random_segmentations,
    };
    use charles_bench::{adaptive_segmentations, quantile_cut_segmentation};
    let table = voc_table(2_000, 58);
    let ctx = charles::parse_query(CONTEXT, Backend::schema(&table)).unwrap();
    let best = {
        let ex = Explorer::new(&table, Config::default(), ctx.clone()).unwrap();
        hb_cuts(&ex).unwrap().ranked[0].segmentation.clone()
    };
    type Run<'r> = &'r dyn Fn(&Explorer<'_>);
    let methods: [(&str, Run); 9] = [
        ("hb-cuts", &|ex| drop(hb_cuts(ex).unwrap())),
        ("facets", &|ex| drop(facet_segmentations(ex, 8).unwrap())),
        ("random", &|ex| {
            drop(random_segmentations(ex, Default::default()).unwrap())
        }),
        ("clique", &|ex| {
            drop(clique_clusters(ex, Default::default()).unwrap())
        }),
        ("exhaustive", &|ex| {
            drop(exhaustive_segmentations(ex, Default::default()).unwrap())
        }),
        ("adaptive", &|ex| {
            drop(adaptive_segmentations(ex, Default::default()).unwrap())
        }),
        ("quantile cuts", &|ex| {
            let base = Segmentation::singleton(ex.context().clone());
            let seg = cut_segmentation(ex, &base, "type_of_boat")
                .unwrap()
                .unwrap();
            for attr in ["tonnage", "type_of_boat"] {
                quantile_cut_segmentation(ex, &seg, attr, 3)
                    .unwrap()
                    .unwrap();
            }
        }),
        ("homogeneity", &|ex| {
            drop(charles_bench::homogeneity(ex, &best).unwrap())
        }),
        ("surprise", &|ex| {
            drop(charles_bench::surprise(ex, &best).unwrap())
        }),
    ];
    for (name, run) in methods {
        let backend = Tallied::new(&table);
        let ex = Explorer::new(&backend, Config::default(), ctx.clone()).unwrap();
        run(&ex);
        let tally = backend.tally();
        assert_eq!(ex.backend_ops(), tally.ops(), "{name}: {tally:?}");
        // The explorer asks for selections and statistics, never for a
        // bare count or a distinct count.
        assert_eq!((tally.count, tally.distinct_count), (0, 0), "{name}");
        assert!(tally.ops().scans > 1, "{name} asked nothing: {tally:?}");
    }
}

#[test]
fn every_store_call_of_a_run_is_made_on_the_callers_thread() {
    // An advice run is one thread (ADR 0032): HB-cuts, a lazy walk and
    // the adaptive search ask the store everything from the thread that
    // runs them, none of it from a helper.
    use charles_bench::adaptive_segmentations;
    let table = voc_table(8_000, 99);
    let sdl = "(type_of_boat: , tonnage: , departure_harbour: , trip: )";
    let ctx = charles::parse_query(sdl, Backend::schema(&table)).unwrap();
    type Run<'r> = &'r dyn Fn(&Explorer<'_>);
    let runs: [(&str, Run); 3] = [
        ("hb-cuts", &|ex| drop(hb_cuts(ex).unwrap())),
        ("lazy", &|ex| {
            let mut gen = LazyGenerator::new(ex);
            while gen.next_segmentation().unwrap().is_some() {}
        }),
        ("adaptive", &|ex| {
            drop(adaptive_segmentations(ex, Default::default()).unwrap())
        }),
    ];
    let caller = HashSet::from([std::thread::current().id()]);
    for (name, run) in runs {
        let backend = Tallied {
            linger: true,
            ..Tallied::new(&table)
        };
        let ex = Explorer::new(&backend, Config::default(), ctx.clone()).unwrap();
        run(&ex);
        assert!(backend.tally().ops().scans > 1, "{name} asked nothing");
        assert_eq!(*backend.threads.lock().unwrap(), caller, "{name}");
    }
}
