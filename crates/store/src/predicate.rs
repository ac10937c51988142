//! Storage-level predicates.
//!
//! These are the *physical* counterparts of SDL constraints: a range scan,
//! a set-membership scan, the rows of a selection already held, or a
//! conjunction of those. The SDL crate lowers its language-level
//! predicates into [`StorePredicate`]s; the table evaluates them into
//! selection [`Bitmap`]s.
//!
//! A leaf evaluated on its own is one pass over its column. A range or
//! set leaf evaluated after others in a conjunction reads only the rows
//! they left: the kernel below walks that selection, so a piece narrowed
//! from its parent (`And[Rows(parent), conjunct]`) costs what the parent
//! holds, not what the table does.

// No call outside the tests may panic: every range and set scan runs
// its kernel here.
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
use crate::index::Verdict;
use crate::stats::float_key;
use crate::value::Value;
use std::cmp::Ordering;
use std::ops::Range;
use std::sync::Arc;

/// A range constraint `lo ≤ x ≤ hi` (or `lo ≤ x < hi` when
/// `hi_inclusive == false`, the paper's `[min, med[` cut pieces).
#[derive(Debug, Clone, PartialEq)]
pub struct RangePred {
    /// Column the constraint applies to.
    pub column: String,
    /// Lower bound (always inclusive, per SDL Definition 1).
    pub lo: Value,
    /// Upper bound.
    pub hi: Value,
    /// Whether the upper bound is inclusive.
    pub hi_inclusive: bool,
}

/// A set constraint `x ∈ {a0, …, aK}`.
#[derive(Debug, Clone, PartialEq)]
pub struct SetPred {
    /// Column the constraint applies to.
    pub column: String,
    /// Accepted values.
    pub values: Vec<Value>,
}

/// A physical predicate tree.
#[derive(Debug, Clone, PartialEq)]
pub enum StorePredicate {
    /// Matches every row.
    True,
    /// Range scan.
    Range(RangePred),
    /// Set-membership scan.
    Set(SetPred),
    /// The rows set in a selection over the same table: no column is
    /// read. At the head of an [`StorePredicate::And`] it is the
    /// selection the other leaves narrow.
    Rows(Arc<Bitmap>),
    /// Conjunction of sub-predicates.
    And(Vec<StorePredicate>),
}

impl StorePredicate {
    /// Convenience constructor for a range predicate.
    pub fn range(column: impl Into<String>, lo: Value, hi: Value, hi_inclusive: bool) -> Self {
        StorePredicate::Range(RangePred {
            column: column.into(),
            lo,
            hi,
            hi_inclusive,
        })
    }

    /// Convenience constructor for a set predicate.
    pub fn set(column: impl Into<String>, values: Vec<Value>) -> Self {
        StorePredicate::Set(SetPred {
            column: column.into(),
            values,
        })
    }

    /// Conjunction, flattening nested `And`s and dropping `True`s.
    pub fn and(preds: Vec<StorePredicate>) -> Self {
        let mut flat = Vec::new();
        for p in preds {
            match p {
                StorePredicate::True => {}
                StorePredicate::And(inner) => flat.extend(inner),
                other => flat.push(other),
            }
        }
        if flat.len() > 1 {
            return StorePredicate::And(flat);
        }
        flat.pop().unwrap_or(StorePredicate::True)
    }
}

/// A word of a selection with at least this many selected, non-null rows
/// is compared whole — all 64 values, the verdicts masked — and a sparser
/// one row by row. Measured on the benchmark's tables
/// (`docs/adr/0012-a-narrowing-scan-reads-only-its-parents-rows.md`);
/// not a setting.
const DENSE_WORD: u32 = 32;

/// A physical value type the scan kernel reads, and which value an
/// exact bin of a column's binned bitmaps ([`crate::index`]) stands for.
trait Slot: Copy {
    /// The value an exact bin bounded by `key` holds — a dictionary
    /// code, a boolean as 0 or 1, an `Int`/`Date` value; `None` for a
    /// type no column keeps bins of.
    fn slot(key: i64) -> Option<Self>;
}

impl Slot for u32 {
    fn slot(key: i64) -> Option<u32> {
        u32::try_from(key).ok()
    }
}

impl Slot for bool {
    fn slot(key: i64) -> Option<bool> {
        [false, true].get(usize::try_from(key).ok()?).copied()
    }
}

impl Slot for i64 {
    fn slot(key: i64) -> Option<i64> {
        Some(key)
    }
}

impl Slot for f64 {
    fn slot(_: i64) -> Option<f64> {
        None
    }
}

/// The verdict of a predicate that can say nothing about a bin of more
/// than one value without asking its rows: a set, a nominal range.
fn ask_rows(_: (i64, i64)) -> Verdict {
    Verdict::Partial
}

/// The stretch of a bin's run that passes, for a predicate whose passing
/// values are no interval of the order the run is sorted in: none.
fn no_run(_: &[u32]) -> Option<Range<usize>> {
    None
}

/// The scan kernel, over the whole column or within a selection.
///
/// A column with binned bitmaps asks for a verdict once per bin instead
/// of once per row ([`crate::index::ValueIndex::select`]): an exact bin
/// gets `keep`'s verdict on its value, a wider one what `covers` says
/// of its bounds. The bins that pass whole are ORed. Of a
/// [`Verdict::Partial`] one, the stretch of its value-ordered run that
/// `cut` finds is scattered in — or, where that costs more or `cut`
/// finds none, its rows are asked, word by word as below: the same
/// verdicts, so the same bits. Where the bins cost more than walking
/// `within` ([`crate::index::ValueIndex::pays`]), the column is walked
/// as if it had no bins.
///
/// The row walk: without `within` it makes one selection word per
/// 64-row chunk of `values`: bit `b` of word `w` is
/// `keep(values[64 * w + b])`, folded in without a branch ([`verdicts`]),
/// and each word is masked with the matching validity word — so nulls
/// never match and no bit beyond the last row is ever set. `keep` is
/// asked about null rows too and must tolerate their placeholders.
///
/// Given `within` (as long as the column), it narrows that selection to
/// `within ∧ validity ∧ keep` and reads only the words it has rows in
/// ([`keep_word`]).
fn scan<T: Slot>(
    col: &Column,
    values: &[T],
    within: Option<Bitmap>,
    keep: impl Fn(T) -> bool,
    covers: impl Fn((i64, i64)) -> Verdict,
    cut: impl Fn(&[u32]) -> Option<Range<usize>>,
) -> Bitmap {
    let validity = col.validity();
    if let Some(index) = col.index() {
        let verdict = |&(lo, hi): &(i64, i64)| match T::slot(lo) {
            Some(value) if lo == hi => [Verdict::Nothing, Verdict::All][keep(value) as usize],
            _ => covers((lo, hi)),
        };
        let verdicts: Vec<Verdict> = index.bounds().iter().map(verdict).collect();
        if let Some(rows) = index.pays(&verdicts, within.as_ref()) {
            let walk = |w, rows| keep_word(values, w, rows, &keep);
            return index.select(validity, (within, rows), &verdicts, walk, cut);
        }
    }
    let Some(mut sel) = within else {
        return validity.and_words(values.chunks(64).map(|chunk| verdicts(chunk, &keep)));
    };
    assert_eq!(sel.len(), values.len(), "selection length mismatch");
    let valid = validity.words();
    sel.narrow_words(|w, picked| keep_word(values, w, picked & valid[w], &keep));
    sel
}

/// The rows of `live` (word `w`'s selected, non-null rows) whose value
/// `keep` passes. A word with fewer than [`DENSE_WORD`] of them asks
/// `keep` about those rows alone, a trailing-zeros walk; a denser one
/// is folded whole like a chunk of the unrestricted scan and masked.
fn keep_word<T: Copy>(values: &[T], w: usize, live: u64, keep: &impl Fn(T) -> bool) -> u64 {
    let base = w * 64;
    if live.count_ones() >= DENSE_WORD {
        return live & verdicts(&values[base..values.len().min(base + 64)], keep);
    }
    let (mut kept, mut rest) = (0u64, live);
    while rest != 0 {
        let b = rest.trailing_zeros();
        kept |= (keep(values[base + b as usize]) as u64) << b;
        rest &= rest - 1; // clear lowest set bit
    }
    kept
}

/// Bit `b` is `keep(chunk[b])`, for a chunk of at most 64 values.
fn verdicts<T: Copy>(chunk: &[T], keep: &impl Fn(T) -> bool) -> u64 {
    chunk
        .iter()
        .enumerate()
        .fold(0u64, |word, (b, &v)| word | (keep(v) as u64) << b)
}

/// [`scan`] for `lo ≤ x ≤ hi` (`lo ≤ x < hi` when half-open) over a
/// numeric vector, each value compared as `key` maps it. `key` is
/// monotone on an `Int`/`Date` column's values (the identity, `as f64`,
/// or an order key of that), so a bin passes whole when both its bounds
/// do, and fails whole when its greatest value lies below `lo` or its
/// least at or above the upper bound; and the rows of a run that pass
/// are the stretch between two binary searches of it.
fn scan_range<V: Slot, T: Copy + PartialOrd>(
    col: &Column,
    values: &[V],
    within: Option<Bitmap>,
    key: impl Fn(V) -> T,
    (lo, hi): (T, T),
    hi_inclusive: bool,
) -> Bitmap {
    let inside = |x: T| (x >= lo) & (x <= hi);
    let below = |x: T| (x >= lo) & (x < hi);
    let covers = |(least, greatest): (i64, i64)| {
        let (Some(least), Some(greatest)) = (V::slot(least), V::slot(greatest)) else {
            return Verdict::Partial;
        };
        let (least, greatest) = (key(least), key(greatest));
        let pass = |x: T| if hi_inclusive { inside(x) } else { below(x) };
        let under = if hi_inclusive {
            least <= hi
        } else {
            least < hi
        };
        if pass(least) && pass(greatest) {
            Verdict::All
        } else if greatest < lo || !under {
            Verdict::Nothing
        } else {
            Verdict::Partial
        }
    };
    let cut = |run: &[u32]| {
        let key_at = |row: &u32| values.get(*row as usize).map(|&v| key(v));
        let from = run.partition_point(|row| key_at(row).is_some_and(|x| x < lo));
        let under = |x: T| if hi_inclusive { x <= hi } else { x < hi };
        let to = run.partition_point(|row| key_at(row).is_some_and(under));
        Some(from..to.max(from))
    };
    if hi_inclusive {
        scan(col, values, within, |v| inside(key(v)), covers, cut)
    } else {
        scan(col, values, within, |v| below(key(v)), covers, cut)
    }
}

/// [`scan_range`] over a `Float` column in `f64::total_cmp`'s order, the
/// one every other matcher compares in (`Value::try_cmp`): `-0.0` sorts
/// below `0.0`. IEEE `>=` / `<=` give the same verdicts unless a bound
/// is a zero or a NaN, so only such bounds pay for comparing order keys
/// ([`float_key`]).
fn scan_float_range(
    col: &Column,
    values: &[f64],
    within: Option<Bitmap>,
    pred: &RangePred,
) -> StoreResult<Bitmap> {
    let lo = pred.lo.as_f64().ok_or_else(|| type_err(col, &pred.lo))?;
    let hi = pred.hi.as_f64().ok_or_else(|| type_err(col, &pred.hi))?;
    let ieee = |bound: f64| bound != 0.0 && !bound.is_nan();
    let inc = pred.hi_inclusive;
    Ok(if ieee(lo) && ieee(hi) {
        scan_range(col, values, within, |v| v, (lo, hi), inc)
    } else {
        let keys = (float_key(lo), float_key(hi));
        scan_range(col, values, within, float_key, keys, inc)
    })
}

/// An `Int`/`Date` range as the least and greatest integer it passes,
/// each bound compared as `Value::try_cmp` compares it with a cell. A
/// bound of the column's own type compares exactly; any other numeric
/// bound `b` compares a value `v` as `(v as f64).total_cmp(&b)` — so past
/// 2⁵³ an integer bound keeps every row it names, while a `Float` one
/// (a cut's fractional median) passes the rows `f64` cannot tell from
/// it. Either way the passing values are those on one side of an
/// integer, since `v as f64` never decreases with `v`, and bisection
/// finds it. A range that passes no integer is `(1, 0)`.
fn int_bounds(col: &Column, pred: &RangePred) -> StoreResult<(i64, i64)> {
    let exact = |bound: &Value| match (col.data_type(), bound) {
        (DataType::Int, Value::Int(v)) | (DataType::Date, Value::Date(v)) => Some(*v),
        _ => None,
    };
    let ordered = |bound: &Value| {
        let b = bound.as_f64().ok_or_else(|| type_err(col, bound))?;
        Ok(move |v: i64| (v as f64).total_cmp(&b))
    };
    let lo = match exact(&pred.lo) {
        Some(lo) => Some(lo),
        None => {
            let cmp = ordered(&pred.lo)?;
            least_int(|v| cmp(v).is_ge())
        }
    };
    let hi = match exact(&pred.hi) {
        Some(hi) if pred.hi_inclusive => Some(hi),
        Some(hi) => hi.checked_sub(1),
        None => {
            let cmp = ordered(&pred.hi)?;
            let above = |v| match cmp(v) {
                Ordering::Less => false,
                Ordering::Equal => !pred.hi_inclusive,
                Ordering::Greater => true,
            };
            least_int(above).map_or(Some(i64::MAX), |first| first.checked_sub(1))
        }
    };
    Ok(lo.zip(hi).unwrap_or((1, 0)))
}

/// The least `i64` at which `holds` — false up to some integer, true
/// from it on — holds; `None` where it holds for none.
fn least_int(holds: impl Fn(i64) -> bool) -> Option<i64> {
    let (mut lo, mut hi) = (i64::MIN, i64::MAX);
    if !holds(hi) {
        return None;
    }
    while lo < hi {
        let mid = ((i128::from(lo) + i128::from(hi)) >> 1) as i64;
        if holds(mid) {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    Some(lo)
}

/// Evaluate a range scan over a column, producing a fresh selection
/// bitmap — or, given a selection `within`, narrowing it to
/// `within ∧ R(pred)` and reading only the rows it holds.
///
/// The scan is specialised per physical type so the hot loop works on the
/// native vector without per-row `Value` boxing.
pub(crate) fn eval_range(
    col: &Column,
    pred: &RangePred,
    within: Option<Bitmap>,
) -> StoreResult<Bitmap> {
    match col.data() {
        ColumnData::Int(vals) | ColumnData::Date(vals) => {
            let bounds = int_bounds(col, pred)?;
            Ok(scan_range(col, vals, within, |v| v, bounds, true))
        }
        ColumnData::Float(vals) => scan_float_range(col, vals, within, pred),
        ColumnData::Str(codes) => {
            // Lexicographic range over strings: precompute per-code verdicts
            // so the row loop is a table lookup.
            let lo = pred.lo.as_str().ok_or_else(|| type_err(col, &pred.lo))?;
            let hi = pred.hi.as_str().ok_or_else(|| type_err(col, &pred.hi))?;
            let verdict: Vec<bool> = col
                .dict()
                .iter()
                .map(|s| {
                    let s = s.as_str();
                    s >= lo && if pred.hi_inclusive { s <= hi } else { s < hi }
                })
                .collect();
            Ok(scan(
                col,
                codes,
                within,
                |code| listed(&verdict, code),
                ask_rows,
                no_run,
            ))
        }
        ColumnData::Bool(vals) => {
            let lo = bool_of(col, &pred.lo)?;
            let hi = bool_of(col, &pred.hi)?;
            // `!v & hi` is `v < hi` on booleans.
            let under = |v: bool| if pred.hi_inclusive { v <= hi } else { !v & hi };
            let verdict = [false, true].map(|v| v >= lo && under(v));
            Ok(scan(
                col,
                vals,
                within,
                |v| verdict[v as usize],
                ask_rows,
                no_run,
            ))
        }
    }
}

/// Evaluate a set-membership scan over a column, or within a selection
/// as [`eval_range`] does.
pub(crate) fn eval_set(
    col: &Column,
    pred: &SetPred,
    within: Option<Bitmap>,
) -> StoreResult<Bitmap> {
    Ok(match col.data() {
        ColumnData::Str(codes) => {
            // Translate wanted strings into dictionary codes once; rows then
            // test codes, not strings.
            let mut wanted = vec![false; col.dict().len()];
            for v in &pred.values {
                let s = v.as_str().ok_or_else(|| type_err(col, v))?;
                if let Some(code) = col.code_of(s) {
                    wanted[code as usize] = true;
                }
            }
            scan(
                col,
                codes,
                within,
                |code| listed(&wanted, code),
                ask_rows,
                no_run,
            )
        }
        ColumnData::Int(vals) | ColumnData::Date(vals) => {
            let (ints, floats) = int_set(col, &pred.values)?;
            let member = |v: i64| {
                ints.binary_search(&v).is_ok()
                    || floats
                        .binary_search_by(|w| w.total_cmp(&(v as f64)))
                        .is_ok()
            };
            scan(col, vals, within, member, ask_rows, no_run)
        }
        ColumnData::Float(vals) => {
            let mut wanted: Vec<f64> = Vec::with_capacity(pred.values.len());
            for v in &pred.values {
                wanted.push(v.as_f64().ok_or_else(|| type_err(col, v))?);
            }
            wanted.sort_by(f64::total_cmp);
            let member = |v: f64| wanted.binary_search_by(|w| w.total_cmp(&v)).is_ok();
            scan(col, vals, within, member, ask_rows, no_run)
        }
        ColumnData::Bool(vals) => {
            let mut wanted = [false; 2];
            for v in &pred.values {
                wanted[bool_of(col, v)? as usize] = true;
            }
            scan(col, vals, within, |v| wanted[v as usize], ask_rows, no_run)
        }
    })
}

/// A per-dictionary-code verdict, for any `code` a row can hold: the
/// kernel tests null rows too, and their placeholder codes need not index
/// the dictionary (an all-null column has an empty one).
fn listed(verdict: &[bool], code: u32) -> bool {
    verdict.get(code as usize) == Some(&true)
}

fn bool_of(col: &Column, v: &Value) -> StoreResult<bool> {
    match v {
        Value::Bool(b) => Ok(*b),
        other => Err(type_err(col, other)),
    }
}

/// The members of a set on an `Int`/`Date` column, sorted: the `Int`
/// and `Date` ones as integers, matched exactly, and the `Float` ones as
/// `f64`s, which a value matches when it is the same `f64` in
/// `total_cmp`'s order — as `Value::try_cmp` compares the two, so beyond
/// 2⁵³ one member matches every integer that rounds to it.
fn int_set(col: &Column, values: &[Value]) -> StoreResult<(Vec<i64>, Vec<f64>)> {
    let (mut ints, mut floats) = (Vec::new(), Vec::new());
    for v in values {
        match v {
            Value::Int(x) | Value::Date(x) => ints.push(*x),
            Value::Float(x) => floats.push(*x),
            other => return Err(type_err(col, other)),
        }
    }
    ints.sort_unstable();
    ints.dedup();
    floats.sort_by(f64::total_cmp);
    Ok((ints, floats))
}

fn type_err(col: &Column, v: &Value) -> StoreError {
    StoreError::TypeMismatch {
        column: col.name().to_string(),
        expected: col.data_type().name().into(),
        found: v.data_type().name().into(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datatype::DataType;

    fn int_col(values: &[i64]) -> Column {
        let mut c = Column::new("x", DataType::Int);
        for &v in values {
            c.push(Some(Value::Int(v))).unwrap();
        }
        c
    }

    fn str_col(values: &[&str]) -> Column {
        let mut c = Column::new("s", DataType::Str);
        for &v in values {
            c.push(Some(Value::str(v))).unwrap();
        }
        c
    }

    #[test]
    fn range_inclusive_and_half_open() {
        let c = int_col(&[1, 2, 3, 4, 5]);
        let closed = RangePred {
            column: "x".into(),
            lo: Value::Int(2),
            hi: Value::Int(4),
            hi_inclusive: true,
        };
        assert_eq!(eval_range(&c, &closed, None).unwrap().count_ones(), 3);
        let open = RangePred {
            hi_inclusive: false,
            ..closed
        };
        assert_eq!(eval_range(&c, &open, None).unwrap().count_ones(), 2);
    }

    #[test]
    fn range_skips_nulls() {
        let mut c = Column::new("x", DataType::Int);
        c.push(Some(Value::Int(1))).unwrap();
        c.push(None).unwrap();
        c.push(Some(Value::Int(3))).unwrap();
        let p = RangePred {
            column: "x".into(),
            lo: Value::Int(0),
            hi: Value::Int(10),
            hi_inclusive: true,
        };
        assert_eq!(eval_range(&c, &p, None).unwrap().count_ones(), 2);
    }

    #[test]
    fn placeholder_codes_under_nulls_are_never_trusted() {
        // A loaded string column may carry any code under a null row
        // (docs/FORMAT.md calls them placeholders), and an all-null one
        // has no dictionary for code 0 to index.
        let c = Column::from_parts(
            "s".into(),
            ColumnData::Str(vec![0, 9, 0]),
            Bitmap::from_indices(3, [0]),
            std::sync::Arc::new(vec!["a".to_string()]),
        );
        let range = RangePred {
            column: "s".into(),
            lo: Value::str("a"),
            hi: Value::str("z"),
            hi_inclusive: true,
        };
        let set = SetPred {
            column: "s".into(),
            values: vec![Value::str("a")],
        };
        assert_eq!(
            eval_range(&c, &range, None).unwrap(),
            Bitmap::from_indices(3, [0])
        );
        assert_eq!(
            eval_set(&c, &set, None).unwrap(),
            Bitmap::from_indices(3, [0])
        );

        let mut all_null = Column::new("s", DataType::Str);
        all_null.push(None).unwrap();
        assert!(eval_range(&all_null, &range, None).unwrap().none());
        assert!(eval_set(&all_null, &set, None).unwrap().none());
    }

    #[test]
    fn range_cross_type_numeric_bounds() {
        let c = int_col(&[10, 20, 30]);
        let p = RangePred {
            column: "x".into(),
            lo: Value::Float(15.0),
            hi: Value::Float(30.0),
            hi_inclusive: true,
        };
        assert_eq!(eval_range(&c, &p, None).unwrap().count_ones(), 2);
    }

    #[test]
    fn integer_bounds_compare_exactly_beyond_f64_precision() {
        // 2⁵³ and 2⁵³ + 1 are one `f64`: compared as floats, adjacent
        // integer ranges overlap.
        let base = 1i64 << 53;
        let c = int_col(&[base, base + 1, base + 2, base + 3]);
        let range = |lo, hi, hi_inclusive| RangePred {
            column: "x".into(),
            lo,
            hi,
            hi_inclusive,
        };
        let rows = |p: &RangePred| {
            eval_range(&c, p, None)
                .unwrap()
                .iter_ones()
                .collect::<Vec<_>>()
        };
        let int = |x| Value::Int(base + x);
        assert_eq!(rows(&range(int(0), int(1), true)), [0, 1]);
        assert_eq!(rows(&range(int(2), int(3), true)), [2, 3]);
        assert_eq!(rows(&range(int(1), int(2), false)), [1]);
        // A `Float` bound keeps the `f64` comparison, rounding and all.
        let float = Value::Float(base as f64);
        assert_eq!(rows(&range(float.clone(), float, true)), [0, 1]);
    }

    #[test]
    fn range_on_strings_is_lexicographic() {
        let c = str_col(&["amsterdam", "bantam", "surat", "zeeland"]);
        let p = RangePred {
            column: "s".into(),
            lo: Value::str("b"),
            hi: Value::str("t"),
            hi_inclusive: false,
        };
        let sel = eval_range(&c, &p, None).unwrap();
        assert_eq!(sel.iter_ones().collect::<Vec<_>>(), vec![1, 2]);
    }

    #[test]
    fn range_type_error_on_string_column_with_int_bounds() {
        let c = str_col(&["a"]);
        let p = RangePred {
            column: "s".into(),
            lo: Value::Int(1),
            hi: Value::Int(2),
            hi_inclusive: true,
        };
        assert!(eval_range(&c, &p, None).is_err());
    }

    #[test]
    fn set_on_strings_uses_dictionary() {
        let c = str_col(&["fluit", "jacht", "fluit", "pinas"]);
        let p = SetPred {
            column: "s".into(),
            values: vec![Value::str("fluit"), Value::str("pinas"), Value::str("nope")],
        };
        let sel = eval_set(&c, &p, None).unwrap();
        assert_eq!(sel.iter_ones().collect::<Vec<_>>(), vec![0, 2, 3]);
    }

    #[test]
    fn set_on_ints_and_floats() {
        let c = int_col(&[1, 2, 3, 2]);
        let p = SetPred {
            column: "x".into(),
            values: vec![Value::Int(2), Value::Int(3)],
        };
        assert_eq!(eval_set(&c, &p, None).unwrap().count_ones(), 3);

        let mut f = Column::new("f", DataType::Float);
        for v in [1.5, 2.5, 3.5] {
            f.push(Some(Value::Float(v))).unwrap();
        }
        let p = SetPred {
            column: "f".into(),
            values: vec![Value::Float(2.5)],
        };
        assert_eq!(eval_set(&f, &p, None).unwrap().count_ones(), 1);
    }

    #[test]
    fn float_members_of_an_integer_set_compare_as_f64() {
        // As `Value::try_cmp` compares them: 2⁵³ + 1 rounds to 2⁵³, so
        // a `Float` 2⁵³ matches both; an `Int` member stays exact.
        let base = 1i64 << 53;
        let c = int_col(&[2, 5, 7, base, base + 1, base + 2]);
        let rows = |values: Vec<Value>| {
            let p = SetPred {
                column: "x".into(),
                values,
            };
            eval_set(&c, &p, None)
                .unwrap()
                .iter_ones()
                .collect::<Vec<_>>()
        };
        assert_eq!(rows(vec![Value::Float(2.0), Value::Int(5)]), [0, 1]);
        assert_eq!(
            rows(vec![Value::Float(2.5), Value::Float(-0.0)]),
            [0usize; 0]
        );
        assert_eq!(rows(vec![Value::Float(base as f64)]), [3, 4]);
        assert_eq!(rows(vec![Value::Int(base + 1)]), [4]);
        let p = SetPred {
            column: "x".into(),
            values: vec![Value::str("2")],
        };
        assert!(eval_set(&c, &p, None).is_err());
    }

    #[test]
    fn set_on_bool() {
        let mut c = Column::new("b", DataType::Bool);
        for v in [true, false, true] {
            c.push(Some(Value::Bool(v))).unwrap();
        }
        let p = SetPred {
            column: "b".into(),
            values: vec![Value::Bool(true)],
        };
        assert_eq!(eval_set(&c, &p, None).unwrap().count_ones(), 2);
    }

    #[test]
    fn and_flattens_and_drops_true() {
        let p = StorePredicate::and(vec![
            StorePredicate::True,
            StorePredicate::and(vec![
                StorePredicate::range("a", Value::Int(0), Value::Int(1), true),
                StorePredicate::True,
            ]),
            StorePredicate::set("b", vec![Value::Int(1)]),
        ]);
        match &p {
            StorePredicate::And(ps) => assert_eq!(ps.len(), 2),
            other => panic!("expected And, got {other:?}"),
        }
    }

    #[test]
    fn and_of_nothing_is_true() {
        assert_eq!(
            StorePredicate::and(vec![StorePredicate::True]),
            StorePredicate::True
        );
    }

    #[test]
    fn empty_set_predicate_matches_nothing() {
        let c = str_col(&["a", "b"]);
        let p = SetPred {
            column: "s".into(),
            values: vec![],
        };
        assert_eq!(eval_set(&c, &p, None).unwrap().count_ones(), 0);
    }
}
