//! Row-oriented baseline engine.
//!
//! Implements the same [`crate::Backend`] contract as the columnar [`Table`], but
//! stores tuples as `Vec<Row>` — each row an owned vector of values. Every
//! predicate scan therefore touches entire tuples (all attributes), while
//! the columnar engine touches only the attribute under scan. This is the
//! textbook access-pattern argument behind the paper's §5.1 claim that
//! column stores suit Charles' workload; experiment E7 measures it.
//!
//! The layout is the only difference E7 measures: `eval` and `not_null`
//! walk the tuples themselves, and every other operation makes one pass
//! over the selected tuples to project the column's cells into a compact
//! [`Column`], then runs the `Column` kernel the columnar engine runs
//! (the store's one `Backend` implementation, over
//! `Layout`). So the two engines share one
//! implementation of every statistic and make the same calls, and the
//! row store is a second witness for scans only.

// No call outside the tests may panic: `RowTable::new` takes rows the
// caller built, and a bad one is a `StoreError`.
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented
    )
)]
#![deny(clippy::allow_attributes, clippy::allow_attributes_without_reason)]

use crate::bitmap::Bitmap;
use crate::column::{Column, ColumnData};
use crate::datatype::DataType;
use crate::error::{StoreError, StoreResult};
use crate::predicate::{RangePred, SetPred, StorePredicate};
use crate::schema::Schema;
use crate::table::Table;
use crate::value::Value;
use std::cmp::Ordering;
use std::sync::Arc;

/// One tuple; `None` encodes SQL NULL.
pub type Row = Vec<Option<Value>>;

/// A row-major relation.
#[derive(Debug, Clone)]
pub struct RowTable {
    schema: Schema,
    rows: Vec<Row>,
    /// Per column, the dictionary a projection of it is coded in: for a
    /// `Str` column its strings in order of first occurrence in the
    /// relation — the columnar engine's interning order, so a count tie
    /// breaks the same way on both — and empty for any other.
    dicts: Vec<Arc<Vec<String>>>,
}

impl RowTable {
    /// Build directly from a schema and rows (validated).
    pub fn new(schema: Schema, rows: Vec<Row>) -> StoreResult<RowTable> {
        for row in &rows {
            if row.len() != schema.arity() {
                return Err(StoreError::ArityMismatch {
                    expected: schema.arity(),
                    found: row.len(),
                });
            }
            for (meta, v) in schema.columns().iter().zip(row) {
                if let Some(v) = v {
                    if v.data_type() != meta.ty {
                        return Err(StoreError::TypeMismatch {
                            column: meta.name.clone(),
                            expected: meta.ty.name().into(),
                            found: v.data_type().name().into(),
                        });
                    }
                }
            }
        }
        let dicts = (0..schema.arity())
            .map(|c| {
                let mut dict: Vec<String> = Vec::new();
                let mut seen = std::collections::HashSet::new();
                for row in &rows {
                    if let Some(Value::Str(s)) = &row[c] {
                        if seen.insert(s) {
                            dict.push(s.clone());
                        }
                    }
                }
                Arc::new(dict)
            })
            .collect();
        Ok(RowTable {
            schema,
            rows,
            dicts,
        })
    }

    /// Materialise a row-store copy of a columnar table — used by the
    /// backend-comparison experiments so both engines hold identical data.
    /// A column of an opened `table` that fails to load is that error.
    pub fn from_table(table: &Table) -> StoreResult<RowTable> {
        let schema = table.schema().clone();
        let columns = table.load_columns()?;
        let rows = (0..table.len())
            .map(|i| columns.iter().map(|c| c.get(i)).collect())
            .collect();
        let dicts = columns
            .iter()
            .map(|c| Arc::clone(c.shared_dict()))
            .collect();
        Ok(RowTable {
            schema,
            rows,
            dicts,
        })
    }

    fn col_index(&self, name: &str) -> StoreResult<usize> {
        self.schema
            .index_of(name)
            .ok_or_else(|| StoreError::UnknownColumn(name.to_string()))
    }

    fn match_range(&self, row: &Row, idx: usize, pred: &RangePred) -> bool {
        let Some(v) = &row[idx] else { return false };
        let ge_lo = matches!(v.try_cmp(&pred.lo), Ok(Ordering::Greater | Ordering::Equal));
        let le_hi = match v.try_cmp(&pred.hi) {
            Ok(Ordering::Less) => true,
            Ok(Ordering::Equal) => pred.hi_inclusive,
            _ => false,
        };
        ge_lo && le_hi
    }

    fn match_set(&self, row: &Row, idx: usize, pred: &SetPred) -> bool {
        let Some(v) = &row[idx] else { return false };
        pred.values
            .iter()
            .any(|w| matches!(v.try_cmp(w), Ok(Ordering::Equal)))
    }

    /// Whether row `i` satisfies `pred`. A conjunction stops at its first
    /// false conjunct, so a later one is never looked at for that row.
    fn matches(&self, i: usize, pred: &StorePredicate) -> StoreResult<bool> {
        let row = &self.rows[i];
        Ok(match pred {
            StorePredicate::True => true,
            StorePredicate::Range(r) => self.match_range(row, self.col_index(&r.column)?, r),
            StorePredicate::Set(s) => self.match_set(row, self.col_index(&s.column)?, s),
            StorePredicate::Rows(sel) => {
                if sel.len() != self.rows.len() {
                    return Err(StoreError::LengthMismatch {
                        left: sel.len(),
                        right: self.rows.len(),
                    });
                }
                sel.get(i)
            }
            StorePredicate::And(ps) => {
                for p in ps {
                    if !self.matches(i, p)? {
                        return Ok(false);
                    }
                }
                true
            }
        })
    }

    /// The cells of `column` in the rows `sel` selects, in row order, as
    /// a compact column of the same name and type with one row per
    /// selected tuple: the one pass over the tuples every statistic
    /// makes before it runs the columnar kernel over the result (with
    /// every row selected). Nulls stay null and NaN stays in the
    /// data, where the kernels skip it; strings are coded in the
    /// relation's dictionary.
    fn project(&self, column: &str, sel: &Bitmap) -> StoreResult<Column> {
        let idx = self.col_index(column)?;
        let meta = &self.schema.columns()[idx];
        let dict = &self.dicts[idx];
        let n = sel.count_ones();
        let mut data = match meta.ty {
            DataType::Int => ColumnData::Int(Vec::with_capacity(n)),
            DataType::Float => ColumnData::Float(Vec::with_capacity(n)),
            DataType::Str => ColumnData::Str(Vec::with_capacity(n)),
            DataType::Date => ColumnData::Date(Vec::with_capacity(n)),
            DataType::Bool => ColumnData::Bool(Vec::with_capacity(n)),
        };
        let mut validity = Bitmap::new(n);
        for (at, i) in sel.iter_ones().enumerate() {
            let cell = self.rows[i][idx].as_ref();
            if cell.is_some() {
                validity.set(at);
            }
            match (&mut data, cell) {
                (ColumnData::Int(v), Some(Value::Int(x)))
                | (ColumnData::Date(v), Some(Value::Date(x))) => v.push(*x),
                (ColumnData::Int(v) | ColumnData::Date(v), None) => v.push(0),
                (ColumnData::Float(v), Some(Value::Float(x))) => v.push(*x),
                (ColumnData::Float(v), None) => v.push(0.0),
                (ColumnData::Bool(v), Some(Value::Bool(x))) => v.push(*x),
                (ColumnData::Bool(v), None) => v.push(false),
                (ColumnData::Str(v), None) => v.push(0),
                (ColumnData::Str(v), Some(Value::Str(s))) => {
                    let code = dict.iter().position(|d| d == s);
                    let code = code.and_then(|c| u32::try_from(c).ok()).ok_or_else(|| {
                        StoreError::Corrupt(format!(
                            "{s:?} is not in column {column:?}'s dictionary"
                        ))
                    })?;
                    v.push(code);
                }
                (_, Some(v)) => {
                    return Err(StoreError::TypeMismatch {
                        column: column.to_string(),
                        expected: meta.ty.name().into(),
                        found: v.data_type().name().into(),
                    })
                }
            }
        }
        Ok(Column::from_parts(
            meta.name.clone(),
            data,
            validity,
            Arc::clone(dict),
        ))
    }
}

impl crate::backend::Layout for RowTable {
    fn row_count(&self) -> usize {
        self.rows.len()
    }

    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn eval(&self, pred: &StorePredicate) -> StoreResult<Bitmap> {
        let mut out = Bitmap::new(self.rows.len());
        for i in 0..self.rows.len() {
            if self.matches(i, pred)? {
                out.set(i);
            }
        }
        Ok(out)
    }

    fn not_null(&self, column: &str) -> StoreResult<Bitmap> {
        let idx = self.col_index(column)?;
        let mut out = Bitmap::new(self.rows.len());
        for (i, row) in self.rows.iter().enumerate() {
            if row[idx].is_some() {
                out.set(i);
            }
        }
        Ok(out)
    }

    /// The column's projection, under every row of it.
    fn with_column<R>(
        &self,
        column: &str,
        sel: &Bitmap,
        f: impl FnOnce(&Column, &Bitmap) -> StoreResult<R>,
    ) -> StoreResult<R> {
        let col = self.project(column, sel)?;
        f(&col, &Bitmap::ones(col.len()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::Backend;
    use crate::builder::TableBuilder;
    use crate::datatype::DataType;

    fn sample_table() -> Table {
        let mut b = TableBuilder::new("t");
        b.add_column("x", DataType::Int)
            .add_column("k", DataType::Str);
        for (x, k) in [(1, "a"), (2, "b"), (3, "a"), (4, "c"), (5, "a")] {
            b.push_row(vec![Value::Int(x), Value::str(k)]).unwrap();
        }
        b.finish()
    }

    #[test]
    fn row_and_column_engines_agree_on_counts() {
        let col = sample_table();
        let row = RowTable::from_table(&col).unwrap();
        for pred in [
            StorePredicate::True,
            StorePredicate::range("x", Value::Int(2), Value::Int(4), true),
            StorePredicate::range("x", Value::Int(2), Value::Int(4), false),
            StorePredicate::set("k", vec![Value::str("a")]),
            StorePredicate::and(vec![
                StorePredicate::range("x", Value::Int(1), Value::Int(4), true),
                StorePredicate::set("k", vec![Value::str("a")]),
            ]),
        ] {
            assert_eq!(
                col.count(&pred).unwrap(),
                row.count(&pred).unwrap(),
                "pred: {pred:?}"
            );
        }
    }

    #[test]
    fn row_and_column_engines_agree_on_medians() {
        let col = sample_table();
        let row = RowTable::from_table(&col).unwrap();
        let sel_c = col
            .eval(&StorePredicate::set("k", vec![Value::str("a")]))
            .unwrap();
        let sel_r = row
            .eval(&StorePredicate::set("k", vec![Value::str("a")]))
            .unwrap();
        let mc = col.median("x", &sel_c).unwrap().unwrap().as_f64().unwrap();
        let mr = row.median("x", &sel_r).unwrap().unwrap().as_f64().unwrap();
        assert_eq!(mc, mr);
    }

    #[test]
    fn row_and_column_engines_agree_on_frequencies() {
        let col = sample_table();
        let row = RowTable::from_table(&col).unwrap();
        let (fc, dc) = col.frequencies("k", &col.all_rows()).unwrap();
        let (fr, dr) = row
            .frequencies("k", &Bitmap::ones(row.row_count()))
            .unwrap();
        let mut c: Vec<(String, usize)> = fc
            .entries()
            .iter()
            .map(|&(code, n)| (dc[code as usize].clone(), n))
            .collect();
        let mut r: Vec<(String, usize)> = fr
            .entries()
            .iter()
            .map(|&(code, n)| (dr[code as usize].clone(), n))
            .collect();
        c.sort();
        r.sort();
        assert_eq!(c, r);
    }

    #[test]
    fn nulls_never_match() {
        let schema = Schema::from_pairs(&[("x", DataType::Int)]).unwrap();
        let t = RowTable::new(schema, vec![vec![Some(Value::Int(1))], vec![None]]).unwrap();
        let sel = t
            .eval(&StorePredicate::range(
                "x",
                Value::Int(0),
                Value::Int(9),
                true,
            ))
            .unwrap();
        assert_eq!(sel.count_ones(), 1);
    }

    #[test]
    fn constructor_validates_rows() {
        let schema = Schema::from_pairs(&[("x", DataType::Int)]).unwrap();
        assert!(RowTable::new(schema.clone(), vec![vec![Some(Value::str("bad"))]]).is_err());
        assert!(RowTable::new(schema, vec![vec![]]).is_err());
    }

    #[test]
    fn nan_rows_do_not_poison_medians() {
        // RowTable::new accepts Value::Float(NaN) (only the type is
        // checked), so NaN really can reach the median paths here.
        let schema = Schema::from_pairs(&[("x", DataType::Float)]).unwrap();
        let rows: Vec<Row> = [1.0, f64::NAN, 3.0, f64::NAN, 5.0]
            .iter()
            .map(|&v| vec![Some(Value::Float(v))])
            .collect();
        let t = RowTable::new(schema, rows).unwrap();
        let all = Bitmap::ones(t.row_count());
        let med = t.median("x", &all).unwrap().unwrap().as_f64().unwrap();
        assert_eq!(med, 3.0, "NaN must be skipped like null");
        let q = t.quantile("x", &all, 1.0).unwrap().unwrap();
        assert_eq!(q.as_f64().unwrap(), 5.0);
        let sm = t
            .sampled_median("x", &all, 8, 11)
            .unwrap()
            .unwrap()
            .as_f64()
            .unwrap();
        assert!(!sm.is_nan());
        let (mean, _) = t.mean_and_var("x", &all).unwrap().unwrap();
        assert_eq!(mean, 3.0);
        assert_eq!(t.distinct_count("x", &all).unwrap(), 3);
    }

    #[test]
    fn nan_rows_do_not_poison_bounds() {
        let schema = Schema::from_pairs(&[("x", DataType::Float)]).unwrap();
        let rows: Vec<Row> = [1.0, f64::NAN, 3.0, 5.0]
            .iter()
            .map(|&v| vec![Some(Value::Float(v))])
            .collect();
        let t = RowTable::new(schema, rows).unwrap();
        let all = Bitmap::ones(t.row_count());
        assert_eq!(
            t.min_max("x", &all).unwrap(),
            Some((Value::Float(1.0), Value::Float(5.0)))
        );
        assert_eq!(t.next_above("x", &all, &Value::Float(5.0)).unwrap(), None);
    }

    #[test]
    fn a_string_missing_from_the_dictionary_is_corrupt_not_a_panic() {
        let col = sample_table();
        let mut row = RowTable::from_table(&col).unwrap();
        row.dicts[1] = Arc::new(vec!["a".into(), "b".into()]);
        let all = Bitmap::ones(row.row_count());
        let err = row.frequencies("k", &all).unwrap_err();
        assert!(matches!(err, StoreError::Corrupt(_)), "{err:?}");
        assert!(matches!(
            row.min_max("k", &all),
            Err(StoreError::Corrupt(_))
        ));
        // A selection that skips the missing string does not reach it.
        let ab = Bitmap::from_indices(row.row_count(), [0, 1, 2]);
        assert_eq!(row.distinct_count("k", &ab).unwrap(), 2);
    }

    #[test]
    fn a_one_row_sample_of_a_half_null_column_draws_a_valid_row() {
        // Every other row null: a sample drawn from every selected row
        // would miss the values half the time.
        let schema = Schema::from_pairs(&[("x", DataType::Int)]).unwrap();
        let cells: Vec<Row> = (0..200)
            .map(|i| vec![(i % 2 == 0).then_some(Value::Int(i * 7 % 61))])
            .collect();
        let mut b = TableBuilder::new("t");
        b.add_column("x", DataType::Int);
        for row in &cells {
            b.push_row_opt(row.clone()).unwrap();
        }
        let table = b.finish();
        let rows = RowTable::new(schema, cells).unwrap();
        for (picked, valued) in [
            (Bitmap::ones(200), true),
            (
                Bitmap::from_indices(200, (0..200).filter(|i| i % 3 == 0)),
                true,
            ),
            (Bitmap::from_indices(200, [7, 9, 10, 11]), true),
            (Bitmap::from_indices(200, [1, 3, 5]), false),
        ] {
            for seed in 0..16 {
                let t = table.sampled_median("x", &picked, 1, seed).unwrap();
                let r = rows.sampled_median("x", &picked, 1, seed).unwrap();
                assert_eq!(t, r, "seed {seed}");
                assert_eq!(t.is_some(), valued, "seed {seed}: {picked:?}");
            }
        }
    }

    #[test]
    fn min_max_and_distinct() {
        let col = sample_table();
        let row = RowTable::from_table(&col).unwrap();
        let all = Bitmap::ones(row.row_count());
        let (lo, hi) = row.min_max("x", &all).unwrap().unwrap();
        assert_eq!((lo, hi), (Value::Int(1), Value::Int(5)));
        assert_eq!(row.distinct_count("k", &all).unwrap(), 3);
        assert_eq!(row.distinct_count("x", &all).unwrap(), 5);
    }
}
