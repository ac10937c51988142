//! Row-oriented baseline engine.
//!
//! Implements the same [`Backend`] contract as the columnar [`Table`], but
//! stores tuples as `Vec<Row>` — each row an owned vector of values. Every
//! predicate scan therefore touches entire tuples (all attributes), while
//! the columnar engine touches only the attribute under scan. This is the
//! textbook access-pattern argument behind the paper's §5.1 claim that
//! column stores suit Charles' workload; experiment E7 measures it.

use crate::backend::{Backend, BackendStats};
use crate::bitmap::Bitmap;
use crate::datatype::DataType;
use crate::error::{StoreError, StoreResult};
use crate::predicate::{RangePred, SetPred, StorePredicate};
use crate::sample::reservoir_sample;
use crate::schema::Schema;
use crate::stats::{mean_and_var_of, order_key, FrequencyTable, OrderKeys};
use crate::table::Table;
use crate::value::Value;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::cmp::Ordering;
use std::sync::atomic::{AtomicU64, Ordering as AtomicOrdering};

/// One tuple; `None` encodes SQL NULL.
pub type Row = Vec<Option<Value>>;

/// A row-major relation.
#[derive(Debug)]
pub struct RowTable {
    name: String,
    schema: Schema,
    rows: Vec<Row>,
    /// Per column, the dictionary its frequency tables are coded in:
    /// for a `Str` column its strings in order of first occurrence in
    /// the relation — the columnar engine's interning order, so a count
    /// tie breaks the same way on both — and empty for any other.
    dicts: Vec<Vec<String>>,
    scans: AtomicU64,
    counts: AtomicU64,
    medians: AtomicU64,
}

impl Clone for RowTable {
    fn clone(&self) -> RowTable {
        RowTable {
            name: self.name.clone(),
            schema: self.schema.clone(),
            rows: self.rows.clone(),
            dicts: self.dicts.clone(),
            scans: AtomicU64::new(self.scans.load(AtomicOrdering::Relaxed)),
            counts: AtomicU64::new(self.counts.load(AtomicOrdering::Relaxed)),
            medians: AtomicU64::new(self.medians.load(AtomicOrdering::Relaxed)),
        }
    }
}

impl RowTable {
    /// Build directly from a schema and rows (validated).
    pub fn new(name: impl Into<String>, schema: Schema, rows: Vec<Row>) -> StoreResult<RowTable> {
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
                dict
            })
            .collect();
        Ok(RowTable {
            name: name.into(),
            schema,
            rows,
            dicts,
            scans: AtomicU64::new(0),
            counts: AtomicU64::new(0),
            medians: AtomicU64::new(0),
        })
    }

    /// Materialise a row-store copy of a columnar table — used by the
    /// backend-comparison experiments so both engines hold identical data.
    pub fn from_table(table: &Table) -> RowTable {
        let schema = table.schema().clone();
        let names: Vec<String> = schema.names().iter().map(|s| s.to_string()).collect();
        let mut rows = Vec::with_capacity(table.len());
        for i in 0..table.len() {
            let mut row = Vec::with_capacity(schema.arity());
            for name in &names {
                row.push(table.value(i, name).expect("column exists"));
            }
            rows.push(row);
        }
        let dicts = names
            .iter()
            .map(|name| table.column(name).expect("column exists").dict().to_vec())
            .collect();
        RowTable {
            name: format!("{}_rowstore", table.name()),
            schema,
            rows,
            dicts,
            scans: AtomicU64::new(0),
            counts: AtomicU64::new(0),
            medians: AtomicU64::new(0),
        }
    }

    /// Table name.
    pub fn name(&self) -> &str {
        &self.name
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

    /// The selected non-null values of a numeric column, in row order:
    /// what means and distinct counts fold.
    fn gather_f64(&self, column: &str, sel: &Bitmap) -> StoreResult<Vec<f64>> {
        let idx = self.numeric_index(column)?;
        Ok(sel
            .iter_ones()
            .filter_map(|i| self.cell(i, idx)?.as_f64())
            .collect())
    }

    /// The order keys of the selected non-null values of a numeric
    /// column: what its medians and quantiles are selected from.
    fn order_keys(&self, column: &str, sel: &Bitmap) -> StoreResult<OrderKeys> {
        let idx = self.numeric_index(column)?;
        let keys = sel
            .iter_ones()
            .filter_map(|i| order_key(self.cell(i, idx)?));
        Ok(OrderKeys::collect(self.schema.columns()[idx].ty, keys))
    }

    fn numeric_index(&self, column: &str) -> StoreResult<usize> {
        let idx = self.col_index(column)?;
        let ty = self.schema.columns()[idx].ty;
        if !ty.is_numeric() {
            return Err(StoreError::TypeMismatch {
                column: column.to_string(),
                expected: "numeric".into(),
                found: ty.name().into(),
            });
        }
        Ok(idx)
    }

    /// The cell at (`row`, `col`) unless it is null — or NaN, which every
    /// order statistic treats as null, as the columnar engine does:
    /// `RowTable::new` screens types only, so a poisoned Float row must
    /// not yield NaN medians, bounds or split points.
    fn cell(&self, row: usize, col: usize) -> Option<&Value> {
        self.rows[row][col]
            .as_ref()
            .filter(|v| !matches!(v, Value::Float(x) if x.is_nan()))
    }
}

impl Backend for RowTable {
    fn row_count(&self) -> usize {
        self.rows.len()
    }

    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn eval(&self, pred: &StorePredicate) -> StoreResult<Bitmap> {
        self.scans.fetch_add(1, AtomicOrdering::Relaxed);
        let mut out = Bitmap::new(self.rows.len());
        for i in 0..self.rows.len() {
            if self.matches(i, pred)? {
                out.set(i);
            }
        }
        Ok(out)
    }

    fn count(&self, pred: &StorePredicate) -> StoreResult<usize> {
        // See `Table::count`: logical counts are tallied in their own
        // counter on top of the physical scan `eval` records.
        self.counts.fetch_add(1, AtomicOrdering::Relaxed);
        Ok(self.eval(pred)?.count_ones())
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

    fn median(&self, column: &str, sel: &Bitmap) -> StoreResult<Option<Value>> {
        self.medians.fetch_add(1, AtomicOrdering::Relaxed);
        Ok(self.order_keys(column, sel)?.median())
    }

    fn sampled_median(
        &self,
        column: &str,
        sel: &Bitmap,
        sample_size: usize,
        seed: u64,
    ) -> StoreResult<Option<Value>> {
        self.medians.fetch_add(1, AtomicOrdering::Relaxed);
        let idx = self.col_index(column)?;
        let mut rng = StdRng::seed_from_u64(seed);
        let rows = reservoir_sample(sel, sample_size, &mut rng);
        let keys = rows
            .into_iter()
            .filter_map(|i| order_key(self.cell(i, idx)?));
        Ok(OrderKeys::collect(self.schema.columns()[idx].ty, keys).median())
    }

    fn quantile(&self, column: &str, sel: &Bitmap, q: f64) -> StoreResult<Option<Value>> {
        self.medians.fetch_add(1, AtomicOrdering::Relaxed);
        self.order_keys(column, sel)?.quantile(q)
    }

    fn min_max(&self, column: &str, sel: &Bitmap) -> StoreResult<Option<(Value, Value)>> {
        let idx = self.col_index(column)?;
        let mut min: Option<Value> = None;
        let mut max: Option<Value> = None;
        for i in sel.iter_ones() {
            let Some(v) = self.cell(i, idx) else {
                continue;
            };
            if min
                .as_ref()
                .map(|m| matches!(v.try_cmp(m), Ok(Ordering::Less)))
                .unwrap_or(true)
            {
                min = Some(v.clone());
            }
            if max
                .as_ref()
                .map(|m| matches!(v.try_cmp(m), Ok(Ordering::Greater)))
                .unwrap_or(true)
            {
                max = Some(v.clone());
            }
        }
        Ok(min.zip(max))
    }

    fn mean_and_var(&self, column: &str, sel: &Bitmap) -> StoreResult<Option<(f64, f64)>> {
        Ok(mean_and_var_of(&self.gather_f64(column, sel)?))
    }

    fn next_above(&self, column: &str, sel: &Bitmap, v: &Value) -> StoreResult<Option<Value>> {
        let idx = self.col_index(column)?;
        let mut best: Option<Value> = None;
        for i in sel.iter_ones() {
            let Some(x) = self.cell(i, idx) else {
                continue;
            };
            if !matches!(x.try_cmp(v), Ok(Ordering::Greater)) {
                continue;
            }
            if best
                .as_ref()
                .map(|b| matches!(x.try_cmp(b), Ok(Ordering::Less)))
                .unwrap_or(true)
            {
                best = Some(x.clone());
            }
        }
        Ok(best)
    }

    fn frequencies(
        &self,
        column: &str,
        sel: &Bitmap,
    ) -> StoreResult<(FrequencyTable, Vec<String>)> {
        self.scans.fetch_add(1, AtomicOrdering::Relaxed);
        let idx = self.col_index(column)?;
        let ty = self.schema.columns()[idx].ty;
        if ty.is_numeric() {
            return Err(StoreError::TypeMismatch {
                column: column.to_string(),
                expected: "nominal".into(),
                found: ty.name().into(),
            });
        }
        // Coded as the columnar engine codes them: strings by the
        // relation's dictionary, booleans as {false, true}.
        let dict = match ty {
            DataType::Bool => vec!["false".into(), "true".into()],
            _ => self.dicts[idx].clone(),
        };
        let mut counts = vec![0usize; dict.len()];
        for i in sel.iter_ones() {
            let code = match &self.rows[i][idx] {
                None => continue,
                Some(Value::Bool(b)) => usize::from(*b),
                Some(Value::Str(s)) => dict
                    .iter()
                    .position(|d| d == s)
                    .expect("every string of the relation is in its dictionary"),
                Some(v) => unreachable!("{v:?} in a nominal column"),
            };
            counts[code] += 1;
        }
        Ok((FrequencyTable::from_counts(counts), dict))
    }

    fn distinct_count(&self, column: &str, sel: &Bitmap) -> StoreResult<usize> {
        let idx = self.col_index(column)?;
        let ty = self.schema.columns()[idx].ty;
        if ty.is_numeric() {
            let mut buf = self.gather_f64(column, sel)?;
            buf.sort_by(f64::total_cmp);
            buf.dedup();
            Ok(buf.len())
        } else {
            let (ft, _) = self.frequencies(column, sel)?;
            Ok(ft.cardinality())
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
        let row = RowTable::from_table(&col);
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
        let row = RowTable::from_table(&col);
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
        let row = RowTable::from_table(&col);
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
        let t = RowTable::new("t", schema, vec![vec![Some(Value::Int(1))], vec![None]]).unwrap();
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
        assert!(RowTable::new("t", schema.clone(), vec![vec![Some(Value::str("bad"))]]).is_err());
        assert!(RowTable::new("t", schema, vec![vec![]]).is_err());
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
        let t = RowTable::new("t", schema, rows).unwrap();
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
        let t = RowTable::new("t", schema, rows).unwrap();
        let all = Bitmap::ones(t.row_count());
        assert_eq!(
            t.min_max("x", &all).unwrap(),
            Some((Value::Float(1.0), Value::Float(5.0)))
        );
        assert_eq!(t.next_above("x", &all, &Value::Float(5.0)).unwrap(), None);
    }

    #[test]
    fn count_counter_attribution() {
        let col = sample_table();
        let row = RowTable::from_table(&col);
        row.reset_stats();
        let _ = row.count(&StorePredicate::True);
        let _ = row.eval(&StorePredicate::True);
        let s = row.stats();
        assert_eq!(s.counts, 1);
        assert_eq!(s.scans, 2);
    }

    #[test]
    fn min_max_and_distinct() {
        let col = sample_table();
        let row = RowTable::from_table(&col);
        let all = Bitmap::ones(row.row_count());
        let (lo, hi) = row.min_max("x", &all).unwrap().unwrap();
        assert_eq!((lo, hi), (Value::Int(1), Value::Int(5)));
        assert_eq!(row.distinct_count("k", &all).unwrap(), 3);
        assert_eq!(row.distinct_count("x", &all).unwrap(), 5);
    }
}
