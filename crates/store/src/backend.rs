//! The `Backend` trait: what Charles requires from its database.
//!
//! The paper positions Charles as "a front-end for SQL systems" (§1) and
//! enumerates the operations its workload issues: counts over predicates
//! and median calculations (§5.1), plus the frequency histograms implied
//! by nominal cuts (§4.1). Abstracting them behind a trait lets the same
//! advisor code run against the columnar engine ([`crate::Table`]) and the
//! row-store baseline ([`crate::RowTable`]) — which is exactly the
//! comparison the paper's "column-based systems such as MonetDB are well
//! suited for Charles' workloads" claim calls for (experiment E7).
//!
//! The two engines differ in layout only. `Backend` is implemented once,
//! over the crate-private `Layout` an engine supplies: its row count,
//! its schema, its own predicate scan and not-null mask, and one column
//! under a selection. Every statistic is then one [`crate::Column`]
//! kernel: the columnar engine hands over its stored column and the
//! selection as given, the row store a projection of the column's cells
//! of its selected tuples and every row of it. So E7 times two access
//! patterns, not two statistics codebases, and both engines make the
//! same calls and report the same op counts.

use crate::bitmap::Bitmap;
use crate::column::Column;
use crate::error::{StoreError, StoreResult};
use crate::predicate::StorePredicate;
use crate::schema::Schema;
use crate::stats::{mean_and_var_of, FrequencyTable, Wanted};
use crate::value::Value;

/// Store work counted in the paper's §5.1 terms, "counts over predicates
/// and median calculations": what an advice run asked its backend for.
///
/// The store does not count. The one module that calls it during a run,
/// `charles-core`'s `Explorer`, decides what an operation is and counts
/// the calls it makes, so two runs sharing a backend never see each
/// other's work. It hands no backend out, so the experiments' extensions
/// and baselines reach the store through it too, counted by the same
/// rule. `scans` are column passes and `medians` median computations.
/// [`Backend::stats`] returns this type too, for a backend that keeps
/// counts of its own; the store's two engines keep none.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BackendStats {
    /// Column passes: one per range or set leaf a run hands to `eval` —
    /// however few rows the leaves before it left — and one per
    /// `frequencies`, `min_max` and `mean_and_var` call made through the
    /// explorer. A `Rows` leaf, a selection derived as the complement of
    /// another, or a cut's extremes (they come with its median), are
    /// none.
    pub scans: u64,
    /// Median computations and quantiles.
    pub medians: u64,
}

/// What a median CUT asks about a numeric column under a selection, as
/// [`Backend::cut_stats`] answers it.
#[derive(Debug, Clone, PartialEq)]
pub struct CutStats {
    /// Least selected value (nulls and NaN skipped, as everywhere).
    pub min: Value,
    /// Greatest selected value.
    pub max: Value,
    /// Exact median of the selected values; `None` — not computed — when
    /// `min` equals `max`: a constant segment has no cut.
    pub median: Option<Value>,
    /// How many values the statistics were taken over — the selected
    /// rows that are neither null nor NaN — when the backend counted
    /// them in the same pass; `None` when it did not. Equal to the
    /// selection's size, it says every selected row holds a value, so
    /// two ranges that split `[min, max]` split the selection.
    pub ranked: Option<usize>,
}

impl CutStats {
    /// The statistics of a segment whose extremes are `min` and `max`.
    /// `median` is asked — called — only when the two differ, in the
    /// total order they were folded in (`-0.0` is below `+0.0`): a
    /// constant segment has no cut, and nobody counts a median for it.
    pub fn over(
        min: Value,
        max: Value,
        ranked: Option<usize>,
        median: impl FnOnce() -> StoreResult<Option<Value>>,
    ) -> StoreResult<CutStats> {
        let constant = matches!(min.try_cmp(&max), Ok(std::cmp::Ordering::Equal));
        let median = if constant { None } else { median()? };
        Ok(CutStats {
            min,
            max,
            median,
            ranked,
        })
    }
}

/// The database operations the advisor needs.
///
/// `Send + Sync` is a supertrait requirement: the advisor's parallel
/// evaluation path shares one backend reference across worker threads.
/// Backends are immutable after construction, so this costs implementors
/// nothing.
pub trait Backend: Send + Sync {
    /// Total number of rows in the relation.
    fn row_count(&self) -> usize;

    /// The relation's schema.
    fn schema(&self) -> &Schema;

    /// Evaluate a predicate into a selection bitmap.
    fn eval(&self, pred: &StorePredicate) -> StoreResult<Bitmap>;

    /// Selection of the rows where `column` is not null
    /// (`WHERE col IS NOT NULL`). The advisor restricts its context to the
    /// non-null extent of the explored attributes so that cut pieces
    /// partition the context exactly.
    fn not_null(&self, column: &str) -> StoreResult<Bitmap>;

    /// Count rows matching a predicate (`|R(Q)|` in the paper).
    fn count(&self, pred: &StorePredicate) -> StoreResult<usize>;

    /// Exact median of a numeric column over a selection.
    /// `None` when the selection holds no non-null value.
    fn median(&self, column: &str, sel: &Bitmap) -> StoreResult<Option<Value>>;

    /// Approximate median from a reservoir sample of `sample_size` rows
    /// (§5.2 sampling strategies). Deterministic for a fixed `seed`. The
    /// advisor takes exact medians only (`docs/adr/0030-one-median.md`):
    /// nothing outside the store's tests and test wrappers calls this.
    fn sampled_median(
        &self,
        column: &str,
        sel: &Bitmap,
        sample_size: usize,
        seed: u64,
    ) -> StoreResult<Option<Value>>;

    /// Value at an arbitrary quantile `q ∈ [0,1]` (§5.2 "support for other
    /// quantiles"). Any other `q`, NaN included, is a
    /// [`StoreError::Parse`] — over an empty selection too.
    fn quantile(&self, column: &str, sel: &Bitmap, q: f64) -> StoreResult<Option<Value>>;

    /// Minimum and maximum of a column over a selection.
    fn min_max(&self, column: &str, sel: &Bitmap) -> StoreResult<Option<(Value, Value)>>;

    /// Everything a median CUT needs of a numeric column under a
    /// selection, in one call: [`Backend::min_max`] and — unless the two
    /// are equal — [`Backend::median`]. `None` when the selection holds
    /// no value; a column that is not numeric is `median`'s type error.
    ///
    /// The provided body is those two calls and reports no
    /// [`CutStats::ranked`]. A backend that can take all three from one
    /// pass over the selection overrides it (the store's two engines do)
    /// and must return the same values.
    fn cut_stats(&self, column: &str, sel: &Bitmap) -> StoreResult<Option<CutStats>> {
        let ty = self.schema().type_of(column)?;
        if !ty.is_numeric() {
            return Err(StoreError::TypeMismatch {
                column: column.to_string(),
                expected: "numeric".into(),
                found: ty.name().into(),
            });
        }
        let Some((min, max)) = self.min_max(column, sel)? else {
            return Ok(None);
        };
        let stats = CutStats::over(min, max, None, || self.median(column, sel))?;
        Ok(Some(stats))
    }

    /// Whether the selection holds two distinct values of `column`: the
    /// two [`Backend::min_max`] returns differ under [`Value::try_cmp`]
    /// (nulls and NaN skipped, `-0.0` below `+0.0`). It is what a cut
    /// that is only counted asks instead of its statistics: a segment
    /// that varies cuts, one that does not has no cut.
    ///
    /// The provided body is that `min_max` call. A backend that can stop
    /// at the second distinct value overrides it (the store's two engines
    /// do) and must return the same answer.
    fn varies(&self, column: &str, sel: &Bitmap) -> StoreResult<bool> {
        let extremes = self.min_max(column, sel)?;
        Ok(extremes
            .is_some_and(|(lo, hi)| !matches!(lo.try_cmp(&hi), Ok(std::cmp::Ordering::Equal))))
    }

    /// Smallest value strictly greater than `v` within a selection
    /// (`SELECT MIN(col) WHERE col > v`): the fallback split point for
    /// degenerate cuts where the median equals the minimum.
    fn next_above(&self, column: &str, sel: &Bitmap, v: &Value) -> StoreResult<Option<Value>>;

    /// Mean and population variance of a numeric column over a selection
    /// (`SELECT AVG(col), VAR_POP(col)`). `None` when no non-null value is
    /// selected. Feeds the homogeneity diagnostics and surprise scoring.
    fn mean_and_var(&self, column: &str, sel: &Bitmap) -> StoreResult<Option<(f64, f64)>>;

    /// Frequency histogram of a nominal column over a selection; returns
    /// the table plus the dictionary used to decode its codes.
    fn frequencies(&self, column: &str, sel: &Bitmap)
        -> StoreResult<(FrequencyTable, Vec<String>)>;

    /// Number of distinct non-null values of a column over a selection.
    fn distinct_count(&self, column: &str, sel: &Bitmap) -> StoreResult<usize>;

    /// Operation counters accumulated since the last reset: none here.
    /// `Advisor::advise` calls this and [`Backend::reset_stats`] around
    /// each run and ignores both, so a wrapping backend can time the run.
    fn stats(&self) -> BackendStats {
        BackendStats::default()
    }

    /// Reset the operation counters: nothing to reset here.
    fn reset_stats(&self) {}
}

/// What an engine supplies of its relation: the layout the one
/// [`Backend`] implementation below runs over. Crate-private, so the
/// store's two engines are its only layouts; the public trait keeps its
/// shape for the backends outside the crate. Its first four methods are
/// the `Backend` methods of the same names, which the blanket impl
/// forwards; an engine names the trait in its `impl` without importing
/// it, so a call by those names resolves to `Backend` alone.
pub(crate) trait Layout: Send + Sync {
    fn row_count(&self) -> usize;

    fn schema(&self) -> &Schema;

    /// `R(pred)`, by the engine's own walk.
    fn eval(&self, pred: &StorePredicate) -> StoreResult<Bitmap>;

    fn not_null(&self, column: &str) -> StoreResult<Bitmap>;

    /// `f` of one column and the selection to read it under, standing
    /// for `column` under `sel`.
    fn with_column<R>(
        &self,
        column: &str,
        sel: &Bitmap,
        f: impl FnOnce(&Column, &Bitmap) -> StoreResult<R>,
    ) -> StoreResult<R>;
}

/// Every statistic over a layout: one [`Column`] kernel each. `cut_stats`
/// and `varies` are the one-pass and bin-aware kernels, not the trait's
/// provided bodies, on either engine.
impl<L: Layout> Backend for L {
    fn row_count(&self) -> usize {
        Layout::row_count(self)
    }

    fn schema(&self) -> &Schema {
        Layout::schema(self)
    }

    fn eval(&self, pred: &StorePredicate) -> StoreResult<Bitmap> {
        Layout::eval(self, pred)
    }

    fn not_null(&self, column: &str) -> StoreResult<Bitmap> {
        Layout::not_null(self, column)
    }

    fn count(&self, pred: &StorePredicate) -> StoreResult<usize> {
        Ok(Layout::eval(self, pred)?.count_ones())
    }

    fn median(&self, column: &str, sel: &Bitmap) -> StoreResult<Option<Value>> {
        self.with_column(column, sel, |col, sel| {
            Ok(col.order_keys(sel, Wanted::Median)?.median())
        })
    }

    fn sampled_median(
        &self,
        column: &str,
        sel: &Bitmap,
        sample_size: usize,
        seed: u64,
    ) -> StoreResult<Option<Value>> {
        self.with_column(column, sel, |col, sel| {
            col.sampled_median(sel, sample_size, seed)
        })
    }

    fn quantile(&self, column: &str, sel: &Bitmap, q: f64) -> StoreResult<Option<Value>> {
        self.with_column(column, sel, |col, sel| {
            col.order_keys(sel, Wanted::Quantile(q))?.quantile(q)
        })
    }

    fn min_max(&self, column: &str, sel: &Bitmap) -> StoreResult<Option<(Value, Value)>> {
        self.with_column(column, sel, |col, sel| Ok(col.min_max(sel)))
    }

    fn cut_stats(&self, column: &str, sel: &Bitmap) -> StoreResult<Option<CutStats>> {
        // One walk of the selection where `min_max` + `median` make two:
        // the extremes are folded while the order keys the median is
        // selected from are gathered.
        self.with_column(column, sel, |col, sel| {
            let mut keys = col.order_keys(sel, Wanted::Median)?;
            let Some((min, max)) = keys.extremes() else {
                return Ok(None);
            };
            let ranked = Some(keys.len());
            CutStats::over(min, max, ranked, || Ok(keys.median())).map(Some)
        })
    }

    fn varies(&self, column: &str, sel: &Bitmap) -> StoreResult<bool> {
        self.with_column(column, sel, |col, sel| Ok(col.varies(sel)))
    }

    fn next_above(&self, column: &str, sel: &Bitmap, v: &Value) -> StoreResult<Option<Value>> {
        self.with_column(column, sel, |col, sel| Ok(col.next_above(sel, v)))
    }

    fn mean_and_var(&self, column: &str, sel: &Bitmap) -> StoreResult<Option<(f64, f64)>> {
        self.with_column(column, sel, |col, sel| {
            let mut buf = Vec::new();
            col.gather_f64(sel, &mut buf)?;
            Ok(mean_and_var_of(&buf))
        })
    }

    fn frequencies(
        &self,
        column: &str,
        sel: &Bitmap,
    ) -> StoreResult<(FrequencyTable, Vec<String>)> {
        self.with_column(column, sel, |col, sel| col.frequencies(sel))
    }

    fn distinct_count(&self, column: &str, sel: &Bitmap) -> StoreResult<usize> {
        self.with_column(column, sel, |col, sel| col.distinct_count(sel))
    }
}
