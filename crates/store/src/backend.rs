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

use crate::bitmap::Bitmap;
use crate::error::{StoreError, StoreResult};
use crate::predicate::StorePredicate;
use crate::schema::Schema;
use crate::stats::FrequencyTable;
use crate::value::Value;

/// Operation counters exposed by a backend, for the experiment harness.
///
/// The paper's workload taxonomy (§5.1) is "counts over predicates and
/// median calculations": `counts` tallies the former as a logical
/// operation in its own right, while `scans` counts physical passes
/// over a column: one per range or set leaf evaluated (a `count` issues
/// those too, so the two move together but measure different layers)
/// and one per `frequencies` call, which walks the column under a
/// selection just as a scan does. A leaf evaluated after others in a
/// conjunction still counts one, though it reads only the rows they
/// left — so `scans` counts passes, not rows read. A selection the
/// advisor obtains without a column — a [`StorePredicate::Rows`] leaf,
/// or a cut's second half taken as what the first half leaves of their
/// parent, an AND-NOT over words it already holds — is no pass over any
/// column and counts as nothing here. (`RowTable` has no columns to pass
/// over: it counts one scan per `eval`, whatever the conjunction.)
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BackendStats {
    /// Number of column passes executed: one per range or set leaf
    /// evaluated — over its whole column, or over the rows the leaves
    /// before it in a conjunction left — and one per `frequencies` call;
    /// none for a `Rows` leaf or a selection derived as the complement
    /// of another.
    pub scans: u64,
    /// Number of `count` operations answered (the paper's "counts over
    /// predicates" metric).
    pub counts: u64,
    /// Number of median/quantile computations executed.
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
/// Backends are immutable after construction (their op counters are
/// atomic), so this costs implementors nothing.
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
    /// (§5.2 sampling strategies). Deterministic for a fixed `seed`.
    fn sampled_median(
        &self,
        column: &str,
        sel: &Bitmap,
        sample_size: usize,
        seed: u64,
    ) -> StoreResult<Option<Value>>;

    /// Value at an arbitrary quantile `q ∈ [0,1]` (§5.2 "support for other
    /// quantiles").
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
    /// pass over the selection overrides it ([`crate::Table`] does) and
    /// must return the same values and count one median exactly when the
    /// provided body would.
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

    /// Operation counters accumulated since the last reset.
    fn stats(&self) -> BackendStats;

    /// Reset the operation counters.
    fn reset_stats(&self);
}
