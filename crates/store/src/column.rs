//! Columnar storage: one [`Column`] per attribute, stored contiguously.
//!
//! Strings are dictionary-encoded (`u32` codes + a sorted-on-demand
//! dictionary), the natural representation for the nominal attributes that
//! Charles' frequency-based cuts operate on. Nulls are tracked with a
//! validity [`Bitmap`]; predicates never match null (SQL semantics), and
//! medians/frequencies are computed over valid rows only.

use crate::bitmap::Bitmap;
use crate::datatype::DataType;
use crate::error::{StoreError, StoreResult};
use crate::stats::{counters, float_key, FrequencyTable, OrderKeys, Ranked};
use crate::value::Value;
use std::cmp::Ordering;
use std::sync::{Arc, OnceLock};

/// Physical storage for a column's values.
#[derive(Debug, Clone)]
pub enum ColumnData {
    /// 64-bit integers.
    Int(Vec<i64>),
    /// Finite 64-bit floats.
    Float(Vec<f64>),
    /// Dictionary codes into [`Column::dict`].
    Str(Vec<u32>),
    /// Days since epoch.
    Date(Vec<i64>),
    /// Booleans.
    Bool(Vec<bool>),
}

impl ColumnData {
    pub(crate) fn len(&self) -> usize {
        match self {
            ColumnData::Int(v) => v.len(),
            ColumnData::Float(v) => v.len(),
            ColumnData::Str(v) => v.len(),
            ColumnData::Date(v) => v.len(),
            ColumnData::Bool(v) => v.len(),
        }
    }
}

/// A named, typed column with optional nulls.
#[derive(Debug, Clone)]
pub struct Column {
    name: String,
    data: ColumnData,
    /// Bit set ⇔ row holds a valid (non-null) value.
    validity: Bitmap,
    /// String dictionary; empty for non-string columns. Codes index into
    /// it. Behind an `Arc` so that clones of a column (a cloned
    /// [`crate::Table`]) share one dictionary instead of copying it.
    dict: Arc<Vec<String>>,
    /// Least and greatest valid value of an `Int`/`Date` column (`None`
    /// for another type, or no valid row), folded on first use and
    /// forgotten by `push`.
    span: OnceLock<Option<(i64, i64)>>,
}

impl Column {
    /// Create an empty column of the given type.
    pub fn new(name: impl Into<String>, ty: DataType) -> Column {
        let data = match ty {
            DataType::Int => ColumnData::Int(Vec::new()),
            DataType::Float => ColumnData::Float(Vec::new()),
            DataType::Str => ColumnData::Str(Vec::new()),
            DataType::Date => ColumnData::Date(Vec::new()),
            DataType::Bool => ColumnData::Bool(Vec::new()),
        };
        Column {
            name: name.into(),
            data,
            validity: Bitmap::new(0),
            dict: Arc::new(Vec::new()),
            span: OnceLock::new(),
        }
    }

    /// Assemble a column directly from its physical parts (disk load
    /// path). The caller must guarantee `data.len() == validity.len()`
    /// and, for string columns, that every code indexes into `dict`;
    /// the disk reader validates both before calling.
    pub(crate) fn from_parts(
        name: String,
        data: ColumnData,
        validity: Bitmap,
        dict: Arc<Vec<String>>,
    ) -> Column {
        debug_assert_eq!(data.len(), validity.len());
        Column {
            name,
            data,
            validity,
            dict,
            span: OnceLock::new(),
        }
    }

    /// Column name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Logical type.
    pub fn data_type(&self) -> DataType {
        match self.data {
            ColumnData::Int(_) => DataType::Int,
            ColumnData::Float(_) => DataType::Float,
            ColumnData::Str(_) => DataType::Str,
            ColumnData::Date(_) => DataType::Date,
            ColumnData::Bool(_) => DataType::Bool,
        }
    }

    /// Number of rows (including nulls).
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when the column has no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Validity bitmap (bit set ⇔ non-null).
    pub fn validity(&self) -> &Bitmap {
        &self.validity
    }

    /// Number of null rows.
    pub fn null_count(&self) -> usize {
        self.len() - self.validity.count_ones()
    }

    /// Raw physical data.
    pub fn data(&self) -> &ColumnData {
        &self.data
    }

    /// The string dictionary (string columns only).
    pub fn dict(&self) -> &[String] {
        &self.dict
    }

    /// Append a value. `None` appends a null.
    pub fn push(&mut self, value: Option<Value>) -> StoreResult<()> {
        self.span.take();
        match value {
            None => {
                self.push_physical_default();
                self.validity.push(false);
            }
            Some(v) => {
                if v.data_type() != self.data_type() {
                    return Err(StoreError::TypeMismatch {
                        column: self.name.clone(),
                        expected: self.data_type().name().into(),
                        found: v.data_type().name().into(),
                    });
                }
                match (&mut self.data, v) {
                    (ColumnData::Int(vec), Value::Int(x)) => vec.push(x),
                    (ColumnData::Float(vec), Value::Float(x)) => {
                        if x.is_nan() {
                            return Err(StoreError::Parse(format!(
                                "NaN rejected in column {:?}",
                                self.name
                            )));
                        }
                        vec.push(x)
                    }
                    (ColumnData::Date(vec), Value::Date(x)) => vec.push(x),
                    (ColumnData::Bool(vec), Value::Bool(x)) => vec.push(x),
                    (ColumnData::Str(vec), Value::Str(s)) => {
                        let code = Self::intern(Arc::make_mut(&mut self.dict), s);
                        vec.push(code);
                    }
                    _ => unreachable!("type checked above"),
                }
                self.validity.push(true);
            }
        }
        Ok(())
    }

    /// Value at row `i`, or `None` when null. Panics if out of range.
    pub fn get(&self, i: usize) -> Option<Value> {
        if !self.validity.get(i) {
            return None;
        }
        Some(match &self.data {
            ColumnData::Int(v) => Value::Int(v[i]),
            ColumnData::Float(v) => Value::Float(v[i]),
            ColumnData::Date(v) => Value::Date(v[i]),
            ColumnData::Bool(v) => Value::Bool(v[i]),
            ColumnData::Str(v) => Value::Str(self.dict[v[i] as usize].clone()),
        })
    }

    /// Dictionary code at row `i` (string columns), or `None` when null.
    pub fn code(&self, i: usize) -> Option<u32> {
        match &self.data {
            ColumnData::Str(v) if self.validity.get(i) => Some(v[i]),
            _ => None,
        }
    }

    /// Look up the dictionary code for a string, if it occurs.
    pub fn code_of(&self, s: &str) -> Option<u32> {
        self.dict.iter().position(|d| d == s).map(|p| p as u32)
    }

    /// Intern a string into the dictionary and return its code.
    fn intern(dict: &mut Vec<String>, s: String) -> u32 {
        // Linear scan is fine: dictionaries for nominal columns are small
        // by definition (the paper treats ≲20 distinct values as the common
        // case) and interning happens only at load time.
        if let Some(pos) = dict.iter().position(|d| *d == s) {
            pos as u32
        } else {
            dict.push(s);
            (dict.len() - 1) as u32
        }
    }

    fn push_physical_default(&mut self) {
        match &mut self.data {
            ColumnData::Int(v) => v.push(0),
            ColumnData::Float(v) => v.push(0.0),
            ColumnData::Date(v) => v.push(0),
            ColumnData::Bool(v) => v.push(false),
            ColumnData::Str(v) => v.push(0),
        }
    }

    /// Visit, in ascending order, every row that `sel` selects and that
    /// is not null: a trailing-zeros walk over `sel & validity`, one word
    /// at a time. Every per-selection aggregate below goes through it.
    fn for_each_selected(&self, sel: &Bitmap, mut visit: impl FnMut(usize)) {
        debug_assert_eq!(sel.len(), self.len(), "selection length mismatch");
        let words = sel.words().iter().zip(self.validity.words());
        for (w, (&picked, &valid)) in words.enumerate() {
            let mut word = picked & valid;
            while word != 0 {
                visit(w * 64 + word.trailing_zeros() as usize);
                word &= word - 1; // clear lowest set bit
            }
        }
    }

    fn type_err(&self, expected: &str) -> StoreError {
        StoreError::TypeMismatch {
            column: self.name.clone(),
            expected: expected.into(),
            found: self.data_type().name().into(),
        }
    }

    /// Gather the numeric values of the rows selected by `sel` (skipping
    /// nulls) into `out`, in row order: what means and a `Float`
    /// column's distinct count fold.
    ///
    /// NaN is treated as null, here and in [`Column::min_max`],
    /// `next_above` and the order keys every rank is selected from: one
    /// NaN would otherwise poison every downstream order statistic (NaN
    /// medians, NaN cut points). `Column::push` rejects NaN, but columns
    /// loaded from raw parts may carry them.
    pub fn gather_f64(&self, sel: &Bitmap, out: &mut Vec<f64>) -> StoreResult<()> {
        out.clear();
        // One popcount pass sizes the buffer exactly: no doubling overshoot
        // and no regrowth copies on a selection of a few hundred thousand.
        out.reserve(sel.and_count(&self.validity));
        match &self.data {
            ColumnData::Int(v) | ColumnData::Date(v) => {
                self.for_each_selected(sel, |i| out.push(v[i] as f64))
            }
            ColumnData::Float(v) => self.for_each_selected(sel, |i| {
                if !v[i].is_nan() {
                    out.push(v[i]);
                }
            }),
            _ => return Err(self.type_err("numeric")),
        }
        Ok(())
    }

    /// The order keys of the selected, non-null, non-NaN values, their
    /// extremes folded in the same walk of the selection: what every
    /// median, quantile and cut statistic is taken from. Where the
    /// column's span and the count allow (`stats::counters`), the walk
    /// counts each value instead of gathering it.
    pub(crate) fn order_keys(&self, sel: &Bitmap) -> StoreResult<OrderKeys> {
        let n = sel.and_count(&self.validity);
        // The extremes fold in locals: as fields beside the buffer they
        // would be reloaded after every store through it.
        let (mut min, mut max) = (i64::MAX, i64::MIN);
        if let (ColumnData::Int(v) | ColumnData::Date(v), Some((base, mut counts))) =
            (&self.data, counters(n, self.span()))
        {
            self.for_each_selected(sel, |i| {
                let k = v[i];
                counts[k.wrapping_sub(base) as usize] += 1;
                min = min.min(k);
                max = max.max(k);
            });
            let ranked = Ranked::Counts { base, counts, n };
            return Ok(OrderKeys::from_parts(self.data_type(), ranked, (min, max)));
        }
        let mut keys = Vec::with_capacity(n);
        let mut push = |k: i64| {
            keys.push(k);
            min = min.min(k);
            max = max.max(k);
        };
        match &self.data {
            ColumnData::Int(v) | ColumnData::Date(v) => self.for_each_selected(sel, |i| push(v[i])),
            ColumnData::Float(v) => self.for_each_selected(sel, |i| {
                if !v[i].is_nan() {
                    push(float_key(v[i]));
                }
            }),
            _ => return Err(self.type_err("numeric")),
        }
        let ranked = Ranked::Keys(keys);
        Ok(OrderKeys::from_parts(self.data_type(), ranked, (min, max)))
    }

    /// Least and greatest valid value of an `Int`/`Date` column.
    fn span(&self) -> Option<(i64, i64)> {
        *self.span.get_or_init(|| match &self.data {
            ColumnData::Int(v) | ColumnData::Date(v) => {
                let (mut lo, mut hi) = (i64::MAX, i64::MIN);
                self.for_each_selected(&self.validity, |i| {
                    lo = lo.min(v[i]);
                    hi = hi.max(v[i]);
                });
                (lo <= hi).then_some((lo, hi))
            }
            _ => None,
        })
    }

    /// Order key of row `i` as [`Column::order_keys`] would take it:
    /// `None` when null, NaN or not numeric. Panics if out of range.
    pub(crate) fn key_at(&self, i: usize) -> Option<i64> {
        if !self.validity.get(i) {
            return None;
        }
        match &self.data {
            ColumnData::Int(v) | ColumnData::Date(v) => Some(v[i]),
            ColumnData::Float(v) => Some(v[i]).filter(|x| !x.is_nan()).map(float_key),
            _ => None,
        }
    }

    /// Per-code counts of a nominal column over the selected, non-null
    /// rows, plus the dictionary that decodes the codes. Booleans count
    /// as the two-entry dictionary {false, true}.
    pub(crate) fn frequencies(&self, sel: &Bitmap) -> StoreResult<(FrequencyTable, Vec<String>)> {
        let (counts, dict) = match &self.data {
            ColumnData::Str(codes) => {
                let mut counts = vec![0usize; self.dict.len()];
                self.for_each_selected(sel, |i| counts[codes[i] as usize] += 1);
                (counts, self.dict.to_vec())
            }
            ColumnData::Bool(vals) => {
                let mut counts = vec![0usize; 2];
                self.for_each_selected(sel, |i| counts[vals[i] as usize] += 1);
                (counts, vec!["false".into(), "true".into()])
            }
            _ => return Err(self.type_err("nominal")),
        };
        Ok((FrequencyTable::from_counts(counts), dict))
    }

    /// Minimum and maximum value among the selected, non-null rows.
    pub fn min_max(&self, sel: &Bitmap) -> Option<(Value, Value)> {
        self.extremes(sel, None)
    }

    /// Smallest selected, non-null value strictly greater than `floor`
    /// under [`Value::try_cmp`] — `None` too when the two do not compare.
    pub(crate) fn next_above(&self, sel: &Bitmap, floor: &Value) -> Option<Value> {
        self.extremes(sel, Some(floor)).map(|(least, _)| least)
    }

    /// Least and greatest of the selected, non-null, non-NaN values —
    /// only those strictly above `floor` when one is given — folded over
    /// the native vector (strings through the dictionary).
    fn extremes(&self, sel: &Bitmap, floor: Option<&Value>) -> Option<(Value, Value)> {
        let admit = |x: Value| {
            !matches!(x, Value::Float(f) if f.is_nan())
                && floor.is_none_or(|f| matches!(x.try_cmp(f), Ok(Ordering::Greater)))
        };
        match &self.data {
            ColumnData::Int(v) => {
                self.fold_extremes(sel, v, |x| admit(Value::Int(x)), i64::cmp, Value::Int)
            }
            ColumnData::Date(v) => {
                self.fold_extremes(sel, v, |x| admit(Value::Date(x)), i64::cmp, Value::Date)
            }
            ColumnData::Bool(v) => {
                self.fold_extremes(sel, v, |x| admit(Value::Bool(x)), bool::cmp, Value::Bool)
            }
            ColumnData::Float(v) => {
                let admit = |x| admit(Value::Float(x));
                self.fold_extremes(sel, v, admit, f64::total_cmp, Value::Float)
            }
            ColumnData::Str(codes) => {
                // Compared as `&str`, not through `admit`: no `String` per row.
                // `Some(None)` is a floor no string compares with.
                let text = |code: u32| self.dict[code as usize].as_str();
                let floor = floor.map(Value::as_str);
                let admit = |c| floor.is_none_or(|f| f.is_some_and(|f| text(c) > f));
                let cmp = |&a: &u32, &b: &u32| text(a).cmp(text(b));
                self.fold_extremes(sel, codes, admit, cmp, |c| Value::str(text(c)))
            }
        }
    }

    /// `(least, greatest)` under `cmp` of the `values` that `admit` lets
    /// through, over the selected, non-null rows; the two `Value`s are
    /// built once at the end.
    fn fold_extremes<T: Copy>(
        &self,
        sel: &Bitmap,
        values: &[T],
        mut admit: impl FnMut(T) -> bool,
        cmp: impl Fn(&T, &T) -> Ordering,
        wrap: impl Fn(T) -> Value,
    ) -> Option<(Value, Value)> {
        let mut acc: Option<(T, T)> = None;
        self.for_each_selected(sel, |i| {
            let x = values[i];
            if admit(x) {
                acc = Some(match acc {
                    None => (x, x),
                    Some((lo, hi)) => (
                        if cmp(&x, &lo).is_lt() { x } else { lo },
                        if cmp(&x, &hi).is_gt() { x } else { hi },
                    ),
                });
            }
        });
        acc.map(|(lo, hi)| (wrap(lo), wrap(hi)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn int_col(values: &[i64]) -> Column {
        let mut c = Column::new("x", DataType::Int);
        for &v in values {
            c.push(Some(Value::Int(v))).unwrap();
        }
        c
    }

    #[test]
    fn push_and_get_round_trip() {
        let c = int_col(&[5, 3, 9]);
        assert_eq!(c.len(), 3);
        assert_eq!(c.get(1), Some(Value::Int(3)));
        assert_eq!(c.null_count(), 0);
    }

    #[test]
    fn nulls_are_tracked() {
        let mut c = Column::new("x", DataType::Int);
        c.push(Some(Value::Int(1))).unwrap();
        c.push(None).unwrap();
        c.push(Some(Value::Int(3))).unwrap();
        assert_eq!(c.null_count(), 1);
        assert_eq!(c.get(1), None);
        assert_eq!(c.get(2), Some(Value::Int(3)));
    }

    #[test]
    fn type_mismatch_rejected() {
        let mut c = Column::new("x", DataType::Int);
        let err = c.push(Some(Value::str("oops"))).unwrap_err();
        assert!(matches!(err, StoreError::TypeMismatch { .. }));
    }

    #[test]
    fn nan_rejected_on_push() {
        let mut c = Column::new("x", DataType::Float);
        assert!(c.push(Some(Value::Float(f64::NAN))).is_err());
    }

    #[test]
    fn string_dictionary_interns() {
        let mut c = Column::new("kind", DataType::Str);
        for s in ["fluit", "jacht", "fluit", "pinas", "fluit"] {
            c.push(Some(Value::str(s))).unwrap();
        }
        assert_eq!(c.dict().len(), 3);
        assert_eq!(c.code(0), c.code(2));
        assert_eq!(c.code_of("pinas"), Some(2));
        assert_eq!(c.code_of("galjoen"), None);
        assert_eq!(c.get(3), Some(Value::str("pinas")));
    }

    #[test]
    fn gather_skips_nulls_and_unselected() {
        let mut c = Column::new("x", DataType::Int);
        for v in [Some(10), None, Some(30), Some(40)] {
            c.push(v.map(Value::Int)).unwrap();
        }
        let sel = Bitmap::from_indices(4, [0, 1, 2]);
        let mut out = Vec::new();
        c.gather_f64(&sel, &mut out).unwrap();
        assert_eq!(out, vec![10.0, 30.0]);
    }

    #[test]
    fn gather_rejects_nominal() {
        let mut c = Column::new("kind", DataType::Str);
        c.push(Some(Value::str("a"))).unwrap();
        let mut out = Vec::new();
        assert!(c.gather_f64(&Bitmap::ones(1), &mut out).is_err());
    }

    #[test]
    fn gather_skips_nan_like_null() {
        // `push` rejects NaN, so manufacture a poisoned column the way a
        // raw load path could: straight from parts. Regression test for
        // NaN medians / NaN cut points leaking out of gather_f64.
        let c = Column {
            name: "x".into(),
            data: ColumnData::Float(vec![1.0, f64::NAN, 3.0, f64::NAN, 5.0]),
            validity: Bitmap::ones(5),
            dict: Arc::new(Vec::new()),
            span: OnceLock::new(),
        };
        let mut out = Vec::new();
        c.gather_f64(&Bitmap::ones(5), &mut out).unwrap();
        assert_eq!(out, vec![1.0, 3.0, 5.0]);
        let med = crate::stats::exact_median(&out).unwrap();
        assert_eq!(med, 3.0);
        assert!(!med.is_nan());
    }

    #[test]
    fn min_max_and_next_above_skip_nan_like_gather() {
        // In the total order `try_cmp` uses, a NaN sorts above +∞ (below
        // -∞ with the sign bit set), so an unscreened fold would report
        // it as the maximum, the minimum, or the "next" value: a cut
        // piece `[med, NaN]` that no row satisfies.
        let negative_nan = f64::from_bits(f64::NAN.to_bits() | 1 << 63);
        let c = Column {
            name: "x".into(),
            data: ColumnData::Float(vec![1.0, f64::NAN, 3.0, negative_nan, 5.0]),
            validity: Bitmap::ones(5),
            dict: Arc::new(Vec::new()),
            span: OnceLock::new(),
        };
        let all = Bitmap::ones(5);
        assert_eq!(
            c.min_max(&all),
            Some((Value::Float(1.0), Value::Float(5.0)))
        );
        assert_eq!(
            c.next_above(&all, &Value::Float(1.0)),
            Some(Value::Float(3.0))
        );
        assert_eq!(c.next_above(&all, &Value::Float(5.0)), None);
        assert_eq!(c.next_above(&all, &Value::Int(3)), Some(Value::Float(5.0)));
        // Nothing but NaN selected: no extremes, exactly as for nulls.
        assert_eq!(c.min_max(&Bitmap::from_indices(5, [1, 3])), None);
    }

    #[test]
    fn min_max_over_selection() {
        let c = int_col(&[5, 1, 9, 7]);
        let sel = Bitmap::from_indices(4, [0, 2, 3]);
        let (min, max) = c.min_max(&sel).unwrap();
        assert_eq!(min, Value::Int(5));
        assert_eq!(max, Value::Int(9));
    }

    #[test]
    fn min_max_empty_selection_is_none() {
        let c = int_col(&[1, 2]);
        assert!(c.min_max(&Bitmap::new(2)).is_none());
    }

    #[test]
    fn min_max_string_is_lexicographic() {
        let mut c = Column::new("kind", DataType::Str);
        for s in ["jacht", "fluit", "pinas"] {
            c.push(Some(Value::str(s))).unwrap();
        }
        let (min, max) = c.min_max(&Bitmap::ones(3)).unwrap();
        assert_eq!(min, Value::str("fluit"));
        assert_eq!(max, Value::str("pinas"));
    }
}
