//! The columnar relation: a schema plus one slot per column, and the
//! layout the `Backend` operations run over.

use crate::bitmap::Bitmap;
use crate::column::Column;
use crate::disk::reader::ColumnFile;
use crate::error::{StoreError, StoreResult};
use crate::predicate::{eval_range, eval_set, StorePredicate};
use crate::schema::Schema;
use crate::value::Value;
use std::sync::{Arc, OnceLock};

/// One column's slot: the decoded column, or the error its load failed
/// with — kept, so a damaged segment fails fast on every touch.
type Slot = OnceLock<Result<Column, StoreError>>;

/// An immutable columnar table: a schema plus one slot per column.
///
/// [`crate::TableBuilder::finish`] fills every slot. [`Table::open`]
/// fills none: [`Table::column`] loads a column from the `.charles` file
/// the first time it is touched, and keeps it. Either way every
/// `Backend` operation runs the same kernels over the same [`Column`]s, so
/// advice over an opened file is bitwise the advice over the table that
/// was written (pinned by `tests/backend_contract.rs` and
/// `tests/disk_persistence.rs` at the workspace root). The one difference
/// is that an opened table's first touch of a column may fail with
/// [`StoreError::Io`] or [`StoreError::Corrupt`].
#[derive(Debug, Clone)]
pub struct Table {
    name: String,
    schema: Schema,
    rows: usize,
    /// One per schema column, in declaration order.
    pub(crate) slots: Vec<Slot>,
    /// The file an opened table fills its slots from; `None` for a table
    /// whose slots were filled when it was built.
    pub(crate) file: Option<Arc<ColumnFile>>,
}

impl Table {
    /// A table whose slots hold `columns`, each with its binned bitmaps
    /// where it gets any ([`Column::indexed`]).
    pub(crate) fn from_parts(name: String, schema: Schema, columns: Vec<Column>) -> Table {
        let rows = columns.first().map_or(0, Column::len);
        debug_assert!(columns.iter().all(|c| c.len() == rows));
        let slots = columns
            .into_iter()
            .map(|c| Slot::from(Ok(c.indexed())))
            .collect();
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

    /// Decode column `idx` from the file, with its binned bitmaps where
    /// it gets any: the first touch of an opened
    /// table's column. A built table's slots are all filled, so it never
    /// gets here.
    #[cold]
    fn load(&self, idx: usize) -> Result<Column, StoreError> {
        let meta = &self.schema.columns()[idx];
        match &self.file {
            Some(file) => file.load_column(idx, meta, self.rows).map(Column::indexed),
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
            StorePredicate::Range(r) => eval_range(self.column(&r.column)?, r, within),
            StorePredicate::Set(s) => eval_set(self.column(&s.column)?, s, within),
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

impl crate::backend::Layout for Table {
    fn row_count(&self) -> usize {
        self.rows
    }

    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn eval(&self, pred: &StorePredicate) -> StoreResult<Bitmap> {
        self.eval_within(pred, None)
    }

    fn not_null(&self, column: &str) -> StoreResult<Bitmap> {
        Ok(self.column(column)?.validity().clone())
    }

    /// The stored column, under the selection as given.
    fn with_column<R>(
        &self,
        column: &str,
        sel: &Bitmap,
        f: impl FnOnce(&Column, &Bitmap) -> StoreResult<R>,
    ) -> StoreResult<R> {
        f(self.column(column)?, sel)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::Backend;
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
    fn the_contract_fixtures_columns_straddle_the_bitmap_cut_over() {
        // `tests/backend_contract.rs` holds a table to the row store's
        // walks over the columns of its `rows_fixture` and
        // `cut_stats_fixture`; these are those columns' shapes. A column
        // compares bitmaps against walks there only if it is indexed
        // here, so a change of the cut-overs — 16 exact bins, 1 024
        // valid rows for equi-depth ones — that moves one across must
        // change this test too.
        const BASE: i64 = (1 << 53) - 4;
        type Cell = fn(i64) -> Option<Value>;
        let columns: [(&str, DataType, Cell, i64, bool); 11] = [
            (
                "rows_fixture f",
                DataType::Float,
                |n| Some(Value::Float(n as f64)),
                200,
                false,
            ),
            (
                "rows_fixture i: 13 integers",
                DataType::Int,
                |n| (n % 6 != 2).then_some(Value::Int(BASE + n * 7 % 13)),
                200,
                true,
            ),
            (
                "rows_fixture d: 17 dates",
                DataType::Date,
                |n| (n % 7 != 4).then_some(Value::Date(9_000 + n % 17)),
                200,
                false,
            ),
            (
                "rows_fixture s: 5 strings",
                DataType::Str,
                |n| (n % 4 != 3).then(|| Value::str(format!("s{}", n % 5))),
                200,
                true,
            ),
            (
                "rows_fixture b",
                DataType::Bool,
                |n| (n % 8 != 5).then_some(Value::Bool(n % 3 == 0)),
                200,
                true,
            ),
            (
                "cut_stats_fixture x: 23 integers, 1 200 valid rows",
                DataType::Int,
                |n| (n % 7 != 3).then_some(Value::Int(n * n % 23 - 9)),
                1_400,
                true,
            ),
            (
                "cut_stats_fixture d: 11 dates",
                DataType::Date,
                |n| Some(Value::Date(9_000 + n % 11)),
                1_400,
                true,
            ),
            (
                "cut_stats_fixture c: constant",
                DataType::Int,
                |_| Some(Value::Int(7)),
                1_400,
                true,
            ),
            (
                "cut_stats_fixture big: 5 003 integers beyond 2⁵³",
                DataType::Int,
                |n| Some(Value::Int((1 << 53) + n * 7_919 % 5_003)),
                1_400,
                true,
            ),
            (
                "cut_stats_fixture wide: all of i64",
                DataType::Int,
                |n| {
                    Some(Value::Int(match n % 5 {
                        0 => i64::MIN,
                        1 => i64::MAX,
                        _ => n.wrapping_mul(0x2545_f491_4f6c_dd1d),
                    }))
                },
                1_400,
                true,
            ),
            (
                "cut_stats_fixture k: 3 strings",
                DataType::Str,
                |n| Some(Value::str(format!("k{}", n % 3))),
                1_400,
                true,
            ),
        ];
        for (what, ty, cell, rows, want) in columns {
            let mut b = TableBuilder::new("t");
            b.add_column("x", ty);
            for n in 0..rows {
                b.push_row_opt(vec![cell(n)]).unwrap();
            }
            let t = b.finish();
            assert_eq!(t.column("x").unwrap().index().is_some(), want, "{what}");
        }
    }
}
