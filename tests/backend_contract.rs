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
    Backend, BackendStats, Bitmap, FrequencyTable, Schema, StoreError, StorePredicate, StoreResult,
    Value,
};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Barrier, Mutex};

mod common;

/// A delegating backend with a fuse: after `budget` operations, every
/// further call fails with a synthetic error. `budget = usize::MAX`
/// disables the fuse (pure delegation). A second fuse of the same kind,
/// `scan_budget`, is spent by `eval` alone: it fails the k-th predicate
/// evaluation and every one after it, whatever the first fuse says. A
/// third, `leader_gate`, is one-shot: the first `eval` that finds it set
/// takes it, waits at its barrier twice and panics.
///
/// It forwards the *required* methods only: `cut_stats` is the trait's
/// provided body over them, so the advisor runs here as it would over
/// any backend written before that method existed.
struct FusedBackend<'a> {
    inner: &'a dyn Backend,
    budget: AtomicUsize,
    scan_budget: AtomicUsize,
    leader_gate: Mutex<Option<Arc<Barrier>>>,
}

impl<'a> FusedBackend<'a> {
    fn new(inner: &'a dyn Backend, budget: usize) -> Self {
        FusedBackend {
            inner,
            budget: AtomicUsize::new(budget),
            scan_budget: AtomicUsize::new(usize::MAX),
            leader_gate: Mutex::new(None),
        }
    }

    fn spend(&self) -> StoreResult<()> {
        spend(&self.budget, "backend")
    }
}

fn spend(fuse: &AtomicUsize, what: &str) -> StoreResult<()> {
    // Compare-and-swap loop: the advisor may call concurrently from
    // its worker threads, and the fuse must never double-spend.
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
    fn stats(&self) -> BackendStats {
        self.inner.stats()
    }
    fn reset_stats(&self) {
        self.inner.reset_stats()
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
    let eager_err = |threads: usize| {
        charles_parallel::set_num_threads(threads);
        let backend = faulty();
        let ex = Explorer::new(&backend, Config::default(), ctx.clone()).unwrap();
        let err = hb_cuts(&ex).unwrap_err();
        charles_parallel::set_num_threads(0);
        err
    };
    let err = eager_err(1);
    assert_eq!(
        err,
        CoreError::Store(StoreError::Io("injected scan failure".into()))
    );
    assert_eq!(eager_err(4), err);

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
    use charles::{voc_table, Advisor, Config, Query, Segmentation, Table};
    use charles_bench::quantile_cut_segmentation;
    use charles_store::disk::write_table;
    use charles_store::{
        Backend, Bitmap, DataType, Row, RowTable, StoreError, StorePredicate, TableBuilder, Value,
    };
    use std::path::Path;
    use std::sync::Arc;

    /// Not a multiple of 64, so every selection ends on a partial
    /// bitmap word.
    const ROWS: usize = 1_543;

    fn fixture() -> Table {
        voc_table(ROWS, 2026)
    }

    /// Write the fixture to a unique `.charles` temp file and open it
    /// lazily. On unix the path is unlinked immediately (the open handle
    /// keeps the data alive), so tests never leak files.
    fn disk_fixture(t: &Table) -> Table {
        use std::sync::atomic::{AtomicUsize, Ordering};
        static COUNTER: AtomicUsize = AtomicUsize::new(0);
        let path = std::env::temp_dir().join(format!(
            "charles-contract-{}-{}.charles",
            std::process::id(),
            COUNTER.fetch_add(1, Ordering::Relaxed)
        ));
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
            let (wm, wv) = t.mean_and_var("tonnage", &sel).unwrap().unwrap();
            let (gm, gv) = b.mean_and_var("tonnage", &sel).unwrap().unwrap();
            assert!((wm - gm).abs() < 1e-9 && (wv - gv).abs() < 1e-6, "{name}");
            if name.starts_with("disk") {
                assert_eq!((gm.to_bits(), gv.to_bits()), (wm.to_bits(), wv.to_bits()));
            }
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

    /// Rows of [`cut_stats_fixture`]: more than the 256 values below
    /// which the store selects ranks without its histogram.
    const CUT_ROWS: usize = 300;

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
        let path = std::env::temp_dir().join(format!(
            "charles-contract-cut-stats-{}.charles",
            std::process::id()
        ));
        write_table(&clean, &path).unwrap();
        common::poison_float_cell(&path, NAN_MARKER, f64::NAN);
        let disk = Table::open(&path).unwrap();
        let table = loaded(&path);
        std::fs::remove_file(&path).unwrap();
        cells[0][0] = Some(Value::Float(f64::NAN));
        let rows = RowTable::new("t", Backend::schema(&clean).clone(), cells.clone()).unwrap();
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
        // to the sign of a zero, hence `Debug`) and median for median:
        // the body runs over the same backend behind a wrapper that
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
                    b.reset_stats();
                    let got = b.cut_stats(attr, sel).unwrap();
                    let medians = b.stats().medians;
                    b.reset_stats();
                    let want = provided.cut_stats(attr, sel).unwrap();
                    assert_eq!(medians, b.stats().medians, "{what}: medians");

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
                        // No median where there is nothing to split.
                        let constant = format!("{:?}", stats.min) == format!("{:?}", stats.max);
                        assert_eq!(stats.median.is_none(), constant, "{what}");
                        assert_eq!(medians, u64::from(!constant), "{what}");
                        // A count, when given, is of the values ranked.
                        assert!(stats.ranked.is_none_or(|r| r == valued), "{what}");
                        assert_eq!(stats.ranked.is_some(), name != "rowstore", "{what}");
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
        let path = std::env::temp_dir().join(format!(
            "charles-contract-rows-{}.charles",
            std::process::id()
        ));
        write_table(&clean, &path).unwrap();
        common::patch_cell(&path, 0, 3, &f64::NAN.to_bits().to_le_bytes());
        common::patch_cell(&path, 3, 7, &2u32.to_le_bytes());
        common::patch_cell(&path, 3, 11, &99u32.to_le_bytes());
        let disk = Table::open(&path).unwrap();
        let table = loaded(&path);
        std::fs::remove_file(&path).unwrap();
        cells[3][0] = Some(Value::Float(f64::NAN));
        let rows = RowTable::new("t", Backend::schema(&clean).clone(), cells).unwrap();
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
                b.reset_stats();
                assert_eq!(b.eval(&rows).unwrap(), sel, "{name}: {label}");
                let scans = if name == "rowstore" { 1 } else { 0 };
                assert_eq!(
                    b.stats().scans,
                    scans,
                    "{name}: {label}: rows read no column"
                );
                for leaf in leaves(n) {
                    let what = format!("{name}: {leaf:?} within {label}");
                    let want = whole_leaves(reference.as_ref(), &leaf).and(&sel);
                    assert_eq!(whole_leaves(b.as_ref(), &leaf).and(&sel), want, "{what}");
                    b.reset_stats();
                    let within = StorePredicate::and(vec![rows.clone(), leaf.clone()]);
                    let got = b.eval(&within).unwrap();
                    assert_eq!(got, want, "{what}");
                    // No bit beyond the last row: the words round-trip.
                    assert_eq!(Bitmap::from_words(got.words().to_vec(), n), Some(got));
                    // A range or set leaf within a selection is one scan
                    // of the rows it holds, and none when it holds none;
                    // the row store counts one per `eval`.
                    let scans = match &leaf {
                        _ if name == "rowstore" => Some(1),
                        StorePredicate::Range(_) | StorePredicate::Set(_) => {
                            Some(u64::from(!sel.none()))
                        }
                        StorePredicate::True | StorePredicate::Rows(_) => Some(0),
                        _ => None,
                    };
                    if let Some(scans) = scans {
                        assert_eq!(b.stats().scans, scans, "{what}: scans");
                    }
                    // Order does not matter to the bits.
                    let after = StorePredicate::and(vec![leaf.clone(), rows.clone()]);
                    assert_eq!(b.eval(&after).unwrap(), want, "{what}, rows last");
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
        // the columnar engines' one-pass statistics count as many values
        // as the parent has rows, and the pair costs one scan; the row
        // store takes the provided `cut_stats`, counts nothing, and scans
        // twice (one scan per `eval` is also how it counts).
        let (backends, _) = cut_stats_fixture();
        for (name, b) in &backends {
            let ctx = Query::wildcard(&["f", "d"]);
            let ex = Explorer::new(b.as_ref(), Config::default(), ctx.clone()).unwrap();
            assert_eq!(ex.context_size(), CUT_ROWS - 1, "{name}");
            let one_pass = if name == "rowstore" { 2 } else { 1 };
            let (valued, all) = (CUT_ROWS - 2, CUT_ROWS - 1);
            for (attr, covered, scans) in [("f", valued, 2), ("d", all, one_pass)] {
                b.reset_stats();
                let (l, r) = cut_query(&ex, &ctx, attr).unwrap().unwrap();
                let released = [&l, &r].map(|q| ex.selection(q).unwrap());
                assert_eq!(b.stats().scans, scans, "{name}: {attr}");
                for (q, released) in [&l, &r].into_iter().zip(&released) {
                    let mut evaluated = charles::sdl::eval::selection(q, b.as_ref()).unwrap();
                    evaluated.and_inplace(ex.context_selection());
                    assert_eq!(**released, evaluated, "{name}: {q}");
                }
                assert!(released[0].is_disjoint(&released[1]), "{name}: {attr}");
                let both = released[0].count_ones() + released[1].count_ones();
                assert_eq!(both, covered, "{name}: {attr}");
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
                    .check_partition(ex.backend(), ex.context_selection())
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
