//! The columnar relation: a schema plus one slot per column, and the
//! `Backend` operations over it.

use crate::backend::{Backend, BackendStats, CutStats};
use crate::bitmap::Bitmap;
use crate::column::{Column, ColumnData};
use crate::disk::reader::ColumnFile;
use crate::error::{StoreError, StoreResult};
use crate::predicate::{eval_range, eval_set, StorePredicate};
use crate::sample::reservoir_sample;
use crate::schema::Schema;
use crate::stats::{mean_and_var_of, FrequencyTable, OrderKeys};
use crate::value::Value;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::atomic::{AtomicU64, Ordering as AtomicOrdering};
use std::sync::{Arc, OnceLock};

/// One column's slot: the decoded column, or the error its load failed
/// with — kept, so a damaged segment fails fast on every touch.
type Slot = OnceLock<Result<Column, StoreError>>;

/// An immutable columnar table: a schema plus one slot per column.
///
/// [`crate::TableBuilder::finish`] fills every slot. [`Table::open`]
/// fills none: [`Table::column`] loads a column from the `.charles` file
/// the first time it is touched, and keeps it. Either way every
/// `Backend` operation runs the code below over the same [`Column`]s, so
/// advice over an opened file is bitwise the advice over the table that
/// was written (pinned by `tests/backend_contract.rs` and
/// `tests/disk_persistence.rs` at the workspace root). The one difference
/// is that an opened table's first touch of a column may fail with
/// [`StoreError::Io`] or [`StoreError::Corrupt`].
#[derive(Debug)]
pub struct Table {
    name: String,
    schema: Schema,
    rows: usize,
    /// One per schema column, in declaration order.
    pub(crate) slots: Vec<Slot>,
    /// The file an opened table fills its slots from; `None` for a table
    /// whose slots were filled when it was built.
    pub(crate) file: Option<Arc<ColumnFile>>,
    /// Operation counters for the experiments (scans / counts / medians).
    scans: AtomicU64,
    counts: AtomicU64,
    medians: AtomicU64,
}

impl Clone for Table {
    fn clone(&self) -> Table {
        Table {
            name: self.name.clone(),
            schema: self.schema.clone(),
            rows: self.rows,
            slots: self.slots.clone(),
            file: self.file.clone(),
            scans: AtomicU64::new(self.scans.load(AtomicOrdering::Relaxed)),
            counts: AtomicU64::new(self.counts.load(AtomicOrdering::Relaxed)),
            medians: AtomicU64::new(self.medians.load(AtomicOrdering::Relaxed)),
        }
    }
}

impl Table {
    /// A table whose slots hold `columns`.
    pub(crate) fn from_parts(name: String, schema: Schema, columns: Vec<Column>) -> Table {
        let rows = columns.first().map_or(0, Column::len);
        debug_assert!(columns.iter().all(|c| c.len() == rows));
        let slots = columns.into_iter().map(|c| Slot::from(Ok(c))).collect();
        Table::with_slots(name, schema, rows, slots, None)
    }

    /// A table of `rows` rows whose columns are all still in `file`.
    pub(crate) fn from_file(name: String, schema: Schema, rows: usize, file: ColumnFile) -> Table {
        let slots = (0..schema.arity()).map(|_| Slot::new()).collect();
        Table::with_slots(name, schema, rows, slots, Some(Arc::new(file)))
    }

    fn with_slots(
        name: String,
        schema: Schema,
        rows: usize,
        slots: Vec<Slot>,
        file: Option<Arc<ColumnFile>>,
    ) -> Table {
        Table {
            name,
            schema,
            rows,
            slots,
            file,
            scans: AtomicU64::new(0),
            counts: AtomicU64::new(0),
            medians: AtomicU64::new(0),
        }
    }

    /// Table name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows
    }

    /// True when the table has no rows.
    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }

    /// Column accessor by name. An opened table loads (and keeps) the
    /// column on first touch.
    pub fn column(&self, name: &str) -> StoreResult<&Column> {
        let idx = self
            .schema
            .index_of(name)
            .ok_or_else(|| StoreError::UnknownColumn(name.to_string()))?;
        match self.slots[idx].get_or_init(|| self.load(idx)) {
            Ok(col) => Ok(col),
            Err(e) => Err(e.clone()),
        }
    }

    /// Decode column `idx` from the file: the first touch of an opened
    /// table's column. A built table's slots are all filled, so it never
    /// gets here.
    #[cold]
    fn load(&self, idx: usize) -> Result<Column, StoreError> {
        let meta = &self.schema.columns()[idx];
        match &self.file {
            Some(file) => file.load_column(idx, meta, self.rows),
            None => Err(StoreError::Corrupt(format!(
                "column {:?} holds no data and the table has no file",
                meta.name
            ))),
        }
    }

    /// Every column in declaration order, an opened table loading those
    /// not touched yet: what `write_table`, `write_csv_string` and
    /// `RowTable::from_table` walk.
    pub(crate) fn load_columns(&self) -> StoreResult<Vec<&Column>> {
        let columns = self.schema.columns().iter();
        columns.map(|c| self.column(&c.name)).collect()
    }

    /// Cell value at (`row`, `column`); `None` for nulls.
    pub fn value(&self, row: usize, column: &str) -> StoreResult<Option<Value>> {
        Ok(self.column(column)?.get(row))
    }

    /// Selection of all rows.
    pub fn all_rows(&self) -> Bitmap {
        Bitmap::ones(self.rows)
    }

    /// `R(pred)`, or `within ∧ R(pred)` reading only the rows of
    /// `within`: a conjunction evaluates its first leaf as it stands and
    /// each later one within what the leaves before it left, so a range
    /// or set leaf after the first walks that selection instead of its
    /// whole column.
    fn eval_within(&self, pred: &StorePredicate, within: Option<Bitmap>) -> StoreResult<Bitmap> {
        match pred {
            StorePredicate::True => Ok(within.unwrap_or_else(|| self.all_rows())),
            StorePredicate::Range(r) => {
                self.scans.fetch_add(1, AtomicOrdering::Relaxed);
                eval_range(self.column(&r.column)?, r, within)
            }
            StorePredicate::Set(s) => {
                self.scans.fetch_add(1, AtomicOrdering::Relaxed);
                eval_set(self.column(&s.column)?, s, within)
            }
            // A selection already held: no pass over any column.
            StorePredicate::Rows(rows) => {
                if rows.len() != self.rows {
                    return Err(StoreError::LengthMismatch {
                        left: rows.len(),
                        right: self.rows,
                    });
                }
                Ok(match within {
                    Some(mut sel) => {
                        sel.and_inplace(rows);
                        sel
                    }
                    None => Bitmap::clone(rows),
                })
            }
            StorePredicate::And(ps) => {
                let mut acc = within;
                for p in ps {
                    let sel = self.eval_within(p, acc.take())?;
                    // Early exit on empty intermediate selections: common
                    // in product cells of nearly dependent segmentations.
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

impl Backend for Table {
    fn row_count(&self) -> usize {
        self.rows
    }

    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn eval(&self, pred: &StorePredicate) -> StoreResult<Bitmap> {
        self.eval_within(pred, None)
    }

    fn count(&self, pred: &StorePredicate) -> StoreResult<usize> {
        // Counts get their own counter: delegating to `eval` used to
        // record the paper's "counts over predicates" workload as plain
        // scans, so the count metric never showed up in the experiment
        // tables.
        self.counts.fetch_add(1, AtomicOrdering::Relaxed);
        Ok(self.eval(pred)?.count_ones())
    }

    fn not_null(&self, column: &str) -> StoreResult<Bitmap> {
        Ok(self.column(column)?.validity().clone())
    }

    fn median(&self, column: &str, sel: &Bitmap) -> StoreResult<Option<Value>> {
        self.medians.fetch_add(1, AtomicOrdering::Relaxed);
        Ok(self.column(column)?.order_keys(sel)?.median())
    }

    fn sampled_median(
        &self,
        column: &str,
        sel: &Bitmap,
        sample_size: usize,
        seed: u64,
    ) -> StoreResult<Option<Value>> {
        self.medians.fetch_add(1, AtomicOrdering::Relaxed);
        let col = self.column(column)?;
        if !col.data_type().is_numeric() {
            return Err(StoreError::TypeMismatch {
                column: column.to_string(),
                expected: "numeric".into(),
                found: col.data_type().name().into(),
            });
        }
        let mut rng = StdRng::seed_from_u64(seed);
        let rows = reservoir_sample(sel, sample_size, &mut rng);
        let keys = rows.into_iter().filter_map(|i| col.key_at(i));
        Ok(OrderKeys::collect(col.data_type(), keys).median())
    }

    fn quantile(&self, column: &str, sel: &Bitmap, q: f64) -> StoreResult<Option<Value>> {
        self.medians.fetch_add(1, AtomicOrdering::Relaxed);
        self.column(column)?.order_keys(sel)?.quantile(q)
    }

    fn min_max(&self, column: &str, sel: &Bitmap) -> StoreResult<Option<(Value, Value)>> {
        Ok(self.column(column)?.min_max(sel))
    }

    fn cut_stats(&self, column: &str, sel: &Bitmap) -> StoreResult<Option<CutStats>> {
        // One walk of the selection where `min_max` + `median` make two:
        // the extremes are folded while the order keys the median is
        // selected from are gathered.
        let mut keys = self.column(column)?.order_keys(sel)?;
        let Some((min, max)) = keys.extremes() else {
            return Ok(None);
        };
        let ranked = Some(keys.len());
        let stats = CutStats::over(min, max, ranked, || {
            self.medians.fetch_add(1, AtomicOrdering::Relaxed);
            Ok(keys.median())
        })?;
        Ok(Some(stats))
    }

    fn mean_and_var(&self, column: &str, sel: &Bitmap) -> StoreResult<Option<(f64, f64)>> {
        let mut buf = Vec::new();
        self.column(column)?.gather_f64(sel, &mut buf)?;
        Ok(mean_and_var_of(&buf))
    }

    fn next_above(&self, column: &str, sel: &Bitmap, v: &Value) -> StoreResult<Option<Value>> {
        Ok(self.column(column)?.next_above(sel, v))
    }

    fn frequencies(
        &self,
        column: &str,
        sel: &Bitmap,
    ) -> StoreResult<(FrequencyTable, Vec<String>)> {
        self.scans.fetch_add(1, AtomicOrdering::Relaxed);
        self.column(column)?.frequencies(sel)
    }

    fn distinct_count(&self, column: &str, sel: &Bitmap) -> StoreResult<usize> {
        let col = self.column(column)?;
        match col.data() {
            ColumnData::Str(_) | ColumnData::Bool(_) => {
                let (ft, _) = self.frequencies(column, sel)?;
                Ok(ft.cardinality())
            }
            // `==` dedup: -0.0 and +0.0 are one value.
            ColumnData::Float(_) => {
                let mut buf = Vec::new();
                col.gather_f64(sel, &mut buf)?;
                buf.sort_by(f64::total_cmp);
                buf.dedup();
                Ok(buf.len())
            }
            // As `i64`: beyond 2⁵³ an `f64` would merge neighbours.
            ColumnData::Int(_) | ColumnData::Date(_) => {
                let mut keys: Vec<i64> = sel.iter_ones().filter_map(|i| col.key_at(i)).collect();
                keys.sort_unstable();
                keys.dedup();
                Ok(keys.len())
            }
        }
    }

    fn stats(&self) -> BackendStats {
        BackendStats {
            scans: self.scans.load(AtomicOrdering::Relaxed),
            counts: self.counts.load(AtomicOrdering::Relaxed),
            medians: self.medians.load(AtomicOrdering::Relaxed),
        }
    }

    fn reset_stats(&self) {
        self.scans.store(0, AtomicOrdering::Relaxed);
        self.counts.store(0, AtomicOrdering::Relaxed);
        self.medians.store(0, AtomicOrdering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{Backend, BackendStats};
    use crate::builder::TableBuilder;
    use crate::datatype::DataType;
    use crate::predicate::StorePredicate;

    fn boats() -> Table {
        let mut b = TableBuilder::new("boats");
        b.add_column("tonnage", DataType::Int);
        b.add_column("kind", DataType::Str);
        b.add_column("built", DataType::Date);
        let rows: Vec<(i64, &str, &str)> = vec![
            (1000, "fluit", "1700"),
            (1100, "fluit", "1710"),
            (1200, "fluit", "1720"),
            (2500, "jacht", "1730"),
            (2600, "jacht", "1740"),
            (900, "pinas", "1750"),
        ];
        for (t, k, y) in rows {
            b.push_row(vec![
                Value::Int(t),
                Value::str(k),
                Value::parse_typed(y, DataType::Date).unwrap(),
            ])
            .unwrap();
        }
        b.finish()
    }

    #[test]
    fn eval_true_selects_everything() {
        let t = boats();
        assert_eq!(t.eval(&StorePredicate::True).unwrap().count_ones(), 6);
    }

    #[test]
    fn eval_conjunction() {
        let t = boats();
        let p = StorePredicate::and(vec![
            StorePredicate::range("tonnage", Value::Int(1000), Value::Int(3000), true),
            StorePredicate::set("kind", vec![Value::str("fluit")]),
        ]);
        assert_eq!(t.count(&p).unwrap(), 3);
    }

    #[test]
    fn eval_unknown_column_errors() {
        let t = boats();
        let p = StorePredicate::range("nope", Value::Int(0), Value::Int(1), true);
        assert!(matches!(t.eval(&p), Err(StoreError::UnknownColumn(_))));
    }

    #[test]
    fn median_over_selection() {
        let t = boats();
        let sel = t
            .eval(&StorePredicate::set("kind", vec![Value::str("fluit")]))
            .unwrap();
        assert_eq!(t.median("tonnage", &sel).unwrap(), Some(Value::Int(1100)));
    }

    #[test]
    fn median_even_count_is_midpoint() {
        let t = boats();
        let sel = t
            .eval(&StorePredicate::set(
                "kind",
                vec![Value::str("jacht"), Value::str("pinas")],
            ))
            .unwrap();
        // values 2500, 2600, 900 → median 2500; then only jacht: 2500,2600 →
        // midpoint 2550, folded back into the Int value space because it is
        // integral.
        let jacht = t
            .eval(&StorePredicate::set("kind", vec![Value::str("jacht")]))
            .unwrap();
        assert_eq!(t.median("tonnage", &sel).unwrap(), Some(Value::Int(2500)));
        assert_eq!(t.median("tonnage", &jacht).unwrap(), Some(Value::Int(2550)));
    }

    #[test]
    fn median_non_integral_midpoint_stays_float() {
        let mut b = TableBuilder::new("t");
        b.add_column("x", DataType::Int);
        for v in [1, 2] {
            b.push_row(vec![Value::Int(v)]).unwrap();
        }
        let t = b.finish();
        assert_eq!(
            t.median("x", &t.all_rows()).unwrap(),
            Some(Value::Float(1.5))
        );
    }

    #[test]
    fn median_empty_selection_is_none() {
        let t = boats();
        let empty = Bitmap::new(t.len());
        assert_eq!(t.median("tonnage", &empty).unwrap(), None);
    }

    #[test]
    fn median_on_nominal_errors() {
        let t = boats();
        assert!(t.median("kind", &t.all_rows()).is_err());
    }

    #[test]
    fn median_on_dates() {
        let t = boats();
        let m = t.median("built", &t.all_rows()).unwrap().unwrap();
        // Six evenly spaced years 1700..1750 → midpoint of 1720/1730, which
        // is a whole day count, so it stays in the Date value space and
        // orders between the two middle years.
        assert_eq!(m.data_type(), DataType::Date);
        let y1720 = Value::parse_typed("1720", DataType::Date).unwrap();
        let y1730 = Value::parse_typed("1730", DataType::Date).unwrap();
        assert!(m.try_cmp(&y1720).unwrap().is_gt());
        assert!(m.try_cmp(&y1730).unwrap().is_lt());
    }

    #[test]
    fn sampled_median_close_to_exact() {
        let mut b = TableBuilder::new("t");
        b.add_column("x", DataType::Int);
        for i in 0..10_000i64 {
            b.push_row(vec![Value::Int(i)]).unwrap();
        }
        let t = b.finish();
        let sel = t.all_rows();
        let exact = t.median("x", &sel).unwrap().unwrap().as_f64().unwrap();
        let approx = t
            .sampled_median("x", &sel, 512, 7)
            .unwrap()
            .unwrap()
            .as_f64()
            .unwrap();
        let rel = (exact - approx).abs() / exact;
        assert!(rel < 0.1, "sampled median off by {rel}");
    }

    #[test]
    fn quantiles_on_table() {
        let t = boats();
        let q25 = t.quantile("tonnage", &t.all_rows(), 0.25).unwrap().unwrap();
        assert_eq!(q25, Value::Int(1000));
    }

    #[test]
    fn frequencies_and_distinct() {
        let t = boats();
        let (ft, dict) = t.frequencies("kind", &t.all_rows()).unwrap();
        assert_eq!(ft.total(), 6);
        let by_freq = ft.by_frequency();
        assert_eq!(dict[by_freq[0].0 as usize], "fluit");
        assert_eq!(by_freq[0].1, 3);
        assert_eq!(t.distinct_count("kind", &t.all_rows()).unwrap(), 3);
        assert_eq!(t.distinct_count("tonnage", &t.all_rows()).unwrap(), 6);
    }

    #[test]
    fn frequencies_on_numeric_errors() {
        let t = boats();
        assert!(t.frequencies("tonnage", &t.all_rows()).is_err());
    }

    #[test]
    fn min_max_via_backend() {
        let t = boats();
        let (lo, hi) = t.min_max("tonnage", &t.all_rows()).unwrap().unwrap();
        assert_eq!(lo, Value::Int(900));
        assert_eq!(hi, Value::Int(2600));
    }

    #[test]
    fn mean_and_var_basics() {
        let t = boats();
        let all = t.all_rows();
        let (mean, var) = t.mean_and_var("tonnage", &all).unwrap().unwrap();
        let expected_mean = (1000 + 1100 + 1200 + 2500 + 2600 + 900) as f64 / 6.0;
        assert!((mean - expected_mean).abs() < 1e-9);
        assert!(var > 0.0);
        // Constant selection → zero variance.
        let one = t
            .eval(&StorePredicate::set("kind", vec![Value::str("pinas")]))
            .unwrap();
        let (m, v) = t.mean_and_var("tonnage", &one).unwrap().unwrap();
        assert_eq!(m, 900.0);
        assert_eq!(v, 0.0);
        // Empty selection → None; nominal column → error.
        assert_eq!(
            t.mean_and_var("tonnage", &Bitmap::new(t.len())).unwrap(),
            None
        );
        assert!(t.mean_and_var("kind", &all).is_err());
    }

    #[test]
    fn next_above_finds_successor() {
        let t = boats();
        let all = t.all_rows();
        assert_eq!(
            t.next_above("tonnage", &all, &Value::Int(1000)).unwrap(),
            Some(Value::Int(1100))
        );
        assert_eq!(
            t.next_above("tonnage", &all, &Value::Int(2600)).unwrap(),
            None
        );
        // Works for nominal columns too (lexicographic successor).
        assert_eq!(
            t.next_above("kind", &all, &Value::str("fluit")).unwrap(),
            Some(Value::str("jacht"))
        );
    }

    #[test]
    fn next_above_respects_selection() {
        let t = boats();
        let jacht = t
            .eval(&StorePredicate::set("kind", vec![Value::str("jacht")]))
            .unwrap();
        assert_eq!(
            t.next_above("tonnage", &jacht, &Value::Int(0)).unwrap(),
            Some(Value::Int(2500))
        );
    }

    #[test]
    fn stats_counters_track_operations() {
        let t = boats();
        t.reset_stats();
        let _ = t.count(&StorePredicate::set("kind", vec![Value::str("fluit")]));
        let _ = t.median("tonnage", &t.all_rows());
        let s = t.stats();
        // The count is tallied as a logical count AND as the physical scan
        // it performs — previously it was recorded as an eval only.
        assert_eq!(s.scans, 1);
        assert_eq!(s.counts, 1);
        assert_eq!(s.medians, 1);
        let _ = t.eval(&StorePredicate::set("kind", vec![Value::str("jacht")]));
        assert_eq!(t.stats().scans, 2);
        assert_eq!(t.stats().counts, 1, "plain eval must not tally a count");
        t.reset_stats();
        assert_eq!(t.stats(), BackendStats::default());
    }
}
