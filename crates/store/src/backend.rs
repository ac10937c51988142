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

/// Implement [`Backend`] for a dense columnar type.
///
/// [`crate::Table`] (in-memory) and [`crate::DiskTable`] (lazily loaded
/// from a `.charles` file) promise **bitwise-identical** behaviour for
/// every operation; this macro makes that identity structural rather
/// than hand-synchronized — both expand the exact same implementation.
/// The target type must expose `column(&self, &str) -> StoreResult<&Column>`
/// and `all_rows(&self) -> Bitmap`, a `schema: Schema` field, and
/// `scans`/`counts`/`medians` `AtomicU64` counter fields. (The only
/// behavioural difference between the two backends is that
/// `DiskTable::column` may fault with `Io`/`Corrupt` on first touch.)
macro_rules! impl_dense_backend {
    ($ty:ty) => {
        impl $ty {
            /// `R(pred)`, or `within ∧ R(pred)` reading only the rows of
            /// `within`: a conjunction evaluates its first leaf as it
            /// stands and each later one within what the leaves before
            /// it left, so a range or set leaf after the first walks
            /// that selection instead of its whole column.
            fn eval_within(
                &self,
                pred: &$crate::predicate::StorePredicate,
                within: Option<$crate::bitmap::Bitmap>,
            ) -> $crate::error::StoreResult<$crate::bitmap::Bitmap> {
                use $crate::predicate::StorePredicate;
                match pred {
                    StorePredicate::True => Ok(within.unwrap_or_else(|| self.all_rows())),
                    StorePredicate::Range(r) => {
                        self.scans
                            .fetch_add(1, ::std::sync::atomic::Ordering::Relaxed);
                        $crate::predicate::eval_range(self.column(&r.column)?, r, within)
                    }
                    StorePredicate::Set(s) => {
                        self.scans
                            .fetch_add(1, ::std::sync::atomic::Ordering::Relaxed);
                        $crate::predicate::eval_set(self.column(&s.column)?, s, within)
                    }
                    // A selection already held: no pass over any column.
                    StorePredicate::Rows(rows) => {
                        if rows.len() != self.rows {
                            return Err($crate::error::StoreError::LengthMismatch {
                                left: rows.len(),
                                right: self.rows,
                            });
                        }
                        Ok(match within {
                            Some(mut sel) => {
                                sel.and_inplace(rows);
                                sel
                            }
                            None => $crate::bitmap::Bitmap::clone(rows),
                        })
                    }
                    StorePredicate::And(ps) => {
                        let mut acc = within;
                        for p in ps {
                            let sel = self.eval_within(p, acc.take())?;
                            // Early exit on empty intermediate selections:
                            // common in product cells of nearly dependent
                            // segmentations.
                            let empty = sel.none();
                            acc = Some(sel);
                            if empty {
                                break;
                            }
                        }
                        Ok(acc.unwrap_or_else(|| self.all_rows()))
                    }
                }
            }
        }

        impl $crate::backend::Backend for $ty {
            fn row_count(&self) -> usize {
                self.rows
            }

            fn schema(&self) -> &$crate::schema::Schema {
                &self.schema
            }

            fn eval(
                &self,
                pred: &$crate::predicate::StorePredicate,
            ) -> $crate::error::StoreResult<$crate::bitmap::Bitmap> {
                self.eval_within(pred, None)
            }

            fn count(
                &self,
                pred: &$crate::predicate::StorePredicate,
            ) -> $crate::error::StoreResult<usize> {
                // Counts get their own counter: delegating to `eval` used
                // to record the paper's "counts over predicates" workload
                // as plain scans, so the count metric never showed up in
                // the experiment tables.
                self.counts
                    .fetch_add(1, ::std::sync::atomic::Ordering::Relaxed);
                Ok($crate::backend::Backend::eval(self, pred)?.count_ones())
            }

            fn not_null(&self, column: &str) -> $crate::error::StoreResult<$crate::bitmap::Bitmap> {
                Ok(self.column(column)?.validity().clone())
            }

            fn median(
                &self,
                column: &str,
                sel: &$crate::bitmap::Bitmap,
            ) -> $crate::error::StoreResult<Option<$crate::value::Value>> {
                self.medians
                    .fetch_add(1, ::std::sync::atomic::Ordering::Relaxed);
                Ok(self.column(column)?.order_keys(sel)?.median())
            }

            fn sampled_median(
                &self,
                column: &str,
                sel: &$crate::bitmap::Bitmap,
                sample_size: usize,
                seed: u64,
            ) -> $crate::error::StoreResult<Option<$crate::value::Value>> {
                use ::rand::SeedableRng;
                self.medians
                    .fetch_add(1, ::std::sync::atomic::Ordering::Relaxed);
                let col = self.column(column)?;
                if !col.data_type().is_numeric() {
                    return Err($crate::error::StoreError::TypeMismatch {
                        column: column.to_string(),
                        expected: "numeric".into(),
                        found: col.data_type().name().into(),
                    });
                }
                let mut rng = ::rand::rngs::StdRng::seed_from_u64(seed);
                let rows = $crate::sample::reservoir_sample(sel, sample_size, &mut rng);
                let keys = rows.into_iter().filter_map(|i| col.key_at(i));
                Ok($crate::stats::OrderKeys::collect(col.data_type(), keys).median())
            }

            fn quantile(
                &self,
                column: &str,
                sel: &$crate::bitmap::Bitmap,
                q: f64,
            ) -> $crate::error::StoreResult<Option<$crate::value::Value>> {
                self.medians
                    .fetch_add(1, ::std::sync::atomic::Ordering::Relaxed);
                self.column(column)?.order_keys(sel)?.quantile(q)
            }

            fn min_max(
                &self,
                column: &str,
                sel: &$crate::bitmap::Bitmap,
            ) -> $crate::error::StoreResult<Option<($crate::value::Value, $crate::value::Value)>>
            {
                Ok(self.column(column)?.min_max(sel))
            }

            fn cut_stats(
                &self,
                column: &str,
                sel: &$crate::bitmap::Bitmap,
            ) -> $crate::error::StoreResult<Option<$crate::backend::CutStats>> {
                // One walk of the selection where `min_max` + `median`
                // make two: the extremes are folded while the order keys
                // the median is selected from are gathered.
                let mut keys = self.column(column)?.order_keys(sel)?;
                let Some((min, max)) = keys.extremes() else {
                    return Ok(None);
                };
                let ranked = Some(keys.len());
                let stats = $crate::backend::CutStats::over(min, max, ranked, || {
                    self.medians
                        .fetch_add(1, ::std::sync::atomic::Ordering::Relaxed);
                    Ok(keys.median())
                })?;
                Ok(Some(stats))
            }

            fn mean_and_var(
                &self,
                column: &str,
                sel: &$crate::bitmap::Bitmap,
            ) -> $crate::error::StoreResult<Option<(f64, f64)>> {
                let col = self.column(column)?;
                let mut buf = Vec::new();
                col.gather_f64(sel, &mut buf)?;
                Ok($crate::stats::mean_and_var_of(&buf))
            }

            fn next_above(
                &self,
                column: &str,
                sel: &$crate::bitmap::Bitmap,
                v: &$crate::value::Value,
            ) -> $crate::error::StoreResult<Option<$crate::value::Value>> {
                Ok(self.column(column)?.next_above(sel, v))
            }

            fn frequencies(
                &self,
                column: &str,
                sel: &$crate::bitmap::Bitmap,
            ) -> $crate::error::StoreResult<($crate::stats::FrequencyTable, Vec<String>)> {
                self.scans
                    .fetch_add(1, ::std::sync::atomic::Ordering::Relaxed);
                self.column(column)?.frequencies(sel)
            }

            fn distinct_count(
                &self,
                column: &str,
                sel: &$crate::bitmap::Bitmap,
            ) -> $crate::error::StoreResult<usize> {
                let col = self.column(column)?;
                match col.data() {
                    $crate::column::ColumnData::Str(_) | $crate::column::ColumnData::Bool(_) => {
                        let (ft, _) = $crate::backend::Backend::frequencies(self, column, sel)?;
                        Ok(ft.cardinality())
                    }
                    _ => {
                        let mut buf = Vec::new();
                        col.gather_f64(sel, &mut buf)?;
                        buf.sort_by(f64::total_cmp);
                        buf.dedup();
                        Ok(buf.len())
                    }
                }
            }

            fn stats(&self) -> $crate::backend::BackendStats {
                $crate::backend::BackendStats {
                    scans: self.scans.load(::std::sync::atomic::Ordering::Relaxed),
                    counts: self.counts.load(::std::sync::atomic::Ordering::Relaxed),
                    medians: self.medians.load(::std::sync::atomic::Ordering::Relaxed),
                }
            }

            fn reset_stats(&self) {
                self.scans.store(0, ::std::sync::atomic::Ordering::Relaxed);
                self.counts.store(0, ::std::sync::atomic::Ordering::Relaxed);
                self.medians
                    .store(0, ::std::sync::atomic::Ordering::Relaxed);
            }
        }
    };
}

pub(crate) use impl_dense_backend;

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
    /// pass over the selection overrides it (the columnar engines do) and
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
