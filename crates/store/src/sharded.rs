//! Row-range sharded backend: one logical relation, N physical shards.
//!
//! The paper reduces Charles's database load to "median calculations and
//! counts over predicates" (§5.1) and names medians the major bottleneck
//! (§5.2). [`ShardedTable`] scales both past a single dense [`Table`] by
//! splitting it into contiguous row-range shards and evaluating
//! shard-parallel (one worker per shard via `charles-parallel`, which runs
//! the identical code on the calling thread when it has one worker):
//!
//! * `eval` / `count` / `not_null` evaluate each shard independently and
//!   glue the per-shard selection bitmaps back together in shard order
//!   ([`Bitmap::concat`]), so the result is bit-for-bit the single-table
//!   bitmap;
//! * exact `median` / `quantile` gather-and-sort per shard in parallel,
//!   then a k-way order-statistic merge over the sorted runs
//!   ([`crate::stats::median_of_sorted_runs`]) recovers exactly the
//!   single-table statistic — same values, same midpoint arithmetic,
//!   bitwise identical;
//! * `sampled_median` derives one sub-seed per shard from the caller's
//!   seed (a splitmix64 step) and apportions the sample size across
//!   shards by selection count, so results are deterministic for a fixed
//!   shard count — but intentionally *not* identical to the unsharded
//!   sample (a different, equally valid draw).
//!
//! Operation counters are tallied once per **logical** operation at the
//! sharded level — never once per shard — so a 4-shard `count` still
//! records one count, not four. (The wrapped shard tables keep their own
//! internal counters, which this backend never reads.)

use crate::backend::{Backend, BackendStats};
use crate::bitmap::Bitmap;
use crate::error::{StoreError, StoreResult};
use crate::predicate::StorePredicate;
use crate::sample::reservoir_sample;
use crate::schema::Schema;
use crate::stats::{
    exact_median, mean_and_var_of, median_of_sorted_runs, quantile_of_sorted_runs, FrequencyTable,
};
use crate::table::Table;
use crate::value::{numeric_value, Value};
use charles_parallel::par_map;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::cmp::Ordering;
use std::sync::atomic::{AtomicU64, Ordering as AtomicOrdering};

/// A [`Table`] split into N contiguous row-range shards behind the same
/// [`Backend`] contract.
///
/// Row `i` of the logical relation lives in the shard whose range
/// contains `i`; all bitmaps exchanged through the trait are table-wide,
/// and the shard structure is invisible to callers (the advisor produces
/// bitwise-identical output over `ShardedTable` and `Table`).
#[derive(Debug)]
pub struct ShardedTable {
    name: String,
    schema: Schema,
    shards: Vec<Table>,
    /// Start row of shard `k`; `offsets[0] == 0`, strictly ascending.
    offsets: Vec<usize>,
    rows: usize,
    scans: AtomicU64,
    counts: AtomicU64,
    medians: AtomicU64,
}

/// One splitmix64 scramble of `(seed, shard)`: the per-shard sub-seed for
/// `sampled_median`. Deterministic, and distinct shards get decorrelated
/// streams even for adjacent seeds.
fn sub_seed(seed: u64, shard: u64) -> u64 {
    let mut z = seed.wrapping_add(shard.wrapping_add(1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl ShardedTable {
    /// Split `table` into `shards` contiguous row ranges of near-equal
    /// size (the first `rows % shards` ranges are one row longer). The
    /// shard count is clamped to `1..=rows` (an empty table keeps one
    /// empty shard), so asking for more shards than rows is safe.
    pub fn from_table(table: &Table, shards: usize) -> ShardedTable {
        let rows = table.len();
        let n = shards.clamp(1, rows.max(1));
        let mut parts = Vec::with_capacity(n);
        let mut offsets = Vec::with_capacity(n);
        for k in 0..n {
            let start = k * rows / n;
            let end = (k + 1) * rows / n;
            let columns: Vec<_> = table
                .columns()
                .iter()
                .map(|c| c.slice(start, end))
                .collect();
            offsets.push(start);
            parts.push(Table::from_parts(
                format!("{}[{start}..{end}]", table.name()),
                table.schema().clone(),
                columns,
            ));
        }
        ShardedTable {
            name: table.name().to_string(),
            schema: table.schema().clone(),
            shards: parts,
            offsets,
            rows,
            scans: AtomicU64::new(0),
            counts: AtomicU64::new(0),
            medians: AtomicU64::new(0),
        }
    }

    /// Logical table name (the wrapped table's name).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Row range `[start, end)` of shard `k`.
    pub fn shard_bounds(&self, k: usize) -> (usize, usize) {
        let start = self.offsets[k];
        let end = start + self.shards[k].len();
        (start, end)
    }

    /// Restrict a table-wide selection to each shard's row range (local
    /// row numbering), in shard order.
    fn shard_sels(&self, sel: &Bitmap) -> Vec<Bitmap> {
        (0..self.shards.len())
            .map(|k| {
                let (start, end) = self.shard_bounds(k);
                sel.slice(start, end)
            })
            .collect()
    }

    /// Shard-local `(shard, selection)` work list for a table-wide
    /// selection.
    fn shard_work<'a>(&'a self, sel: &Bitmap) -> Vec<(&'a Table, Bitmap)> {
        self.shards.iter().zip(self.shard_sels(sel)).collect()
    }

    /// The column's declared type, with the same error as `Table`.
    fn column_type(&self, column: &str) -> StoreResult<crate::datatype::DataType> {
        self.schema
            .index_of(column)
            .map(|i| self.schema.columns()[i].ty)
            .ok_or_else(|| StoreError::UnknownColumn(column.to_string()))
    }

    /// The column's type, required numeric — the same up-front check (and
    /// error) as `Table::median`/`sampled_median`. It must run before any
    /// early return on empty selections so that e.g. a median over a
    /// nominal column errors rather than answering `None`.
    fn numeric_column_type(&self, column: &str) -> StoreResult<crate::datatype::DataType> {
        let ty = self.column_type(column)?;
        if !ty.is_numeric() {
            return Err(StoreError::TypeMismatch {
                column: column.to_string(),
                expected: "numeric".into(),
                found: ty.name().into(),
            });
        }
        Ok(ty)
    }

    /// Per-shard numeric gathers (NaN and null skipped), in shard = row
    /// order, one worker per shard. `sort` additionally sorts each run in
    /// its worker — the parallel half of the k-way median merge.
    fn gather_runs(&self, column: &str, sel: &Bitmap, sort: bool) -> StoreResult<Vec<Vec<f64>>> {
        let work = self.shard_work(sel);
        par_map(&work, |(shard, local)| {
            let mut buf = Vec::new();
            shard.column(column)?.gather_f64(local, &mut buf)?;
            if sort {
                buf.sort_by(f64::total_cmp);
            }
            Ok(buf)
        })
        .into_iter()
        .collect()
    }
}

impl Backend for ShardedTable {
    fn row_count(&self) -> usize {
        self.rows
    }

    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn eval(&self, pred: &StorePredicate) -> StoreResult<Bitmap> {
        match pred {
            StorePredicate::True => Ok(Bitmap::ones(self.rows)),
            StorePredicate::Range(_) | StorePredicate::Set(_) => {
                // One scan tallied per leaf, never per shard: the shards
                // evaluate the leaf in parallel and the per-shard bitmaps
                // glue back together in shard order.
                self.scans.fetch_add(1, AtomicOrdering::Relaxed);
                let parts: StoreResult<Vec<Bitmap>> =
                    par_map(&self.shards, |shard| shard.eval(pred))
                        .into_iter()
                        .collect();
                Ok(Bitmap::concat(parts?.iter()))
            }
            StorePredicate::And(ps) => {
                // Conjunctions combine at the *merged* level — the same
                // loop as `Table::eval`, including the early exit on empty
                // intermediates, so the scan tally (which leaves actually
                // ran) matches the unsharded table exactly.
                let mut acc: Option<Bitmap> = None;
                for p in ps {
                    let sel = self.eval(p)?;
                    acc = Some(match acc {
                        None => sel,
                        Some(mut a) => {
                            a.and_inplace(&sel);
                            a
                        }
                    });
                    if acc.as_ref().map(Bitmap::none).unwrap_or(false) {
                        break;
                    }
                }
                Ok(acc.unwrap_or_else(|| Bitmap::ones(self.rows)))
            }
        }
    }

    fn count(&self, pred: &StorePredicate) -> StoreResult<usize> {
        self.counts.fetch_add(1, AtomicOrdering::Relaxed);
        Ok(self.eval(pred)?.count_ones())
    }

    fn not_null(&self, column: &str) -> StoreResult<Bitmap> {
        let parts: StoreResult<Vec<Bitmap>> = par_map(&self.shards, |shard| shard.not_null(column))
            .into_iter()
            .collect();
        Ok(Bitmap::concat(parts?.iter()))
    }

    fn median(&self, column: &str, sel: &Bitmap) -> StoreResult<Option<Value>> {
        self.medians.fetch_add(1, AtomicOrdering::Relaxed);
        let ty = self.numeric_column_type(column)?;
        let runs = self.gather_runs(column, sel, true)?;
        if runs.iter().all(Vec::is_empty) {
            return Ok(None);
        }
        let med = median_of_sorted_runs(&runs)?;
        Ok(Some(numeric_value(ty, med)))
    }

    fn sampled_median(
        &self,
        column: &str,
        sel: &Bitmap,
        sample_size: usize,
        seed: u64,
    ) -> StoreResult<Option<Value>> {
        self.medians.fetch_add(1, AtomicOrdering::Relaxed);
        let ty = self.numeric_column_type(column)?;
        // Apportion the sample across shards proportionally to each
        // shard's selected-row count (largest-remainder rounding, ties to
        // the lower shard index), so the combined draw stays close to a
        // uniform sample of the whole selection.
        let sels = self.shard_sels(sel);
        let picked: Vec<usize> = sels.iter().map(Bitmap::count_ones).collect();
        let total: usize = picked.iter().sum();
        if total == 0 || sample_size == 0 {
            return Ok(None);
        }
        let k = sample_size.min(total);
        let mut share: Vec<usize> = picked.iter().map(|&c| k * c / total).collect();
        let leftover = k - share.iter().sum::<usize>();
        let mut by_rem: Vec<usize> = (0..picked.len())
            .filter(|&i| !(k * picked[i]).is_multiple_of(total))
            .collect();
        by_rem.sort_by_key(|&i| (std::cmp::Reverse(k * picked[i] % total), i));
        for &i in by_rem.iter().take(leftover) {
            share[i] += 1;
        }

        let work: Vec<(usize, (&Table, Bitmap))> =
            self.shards.iter().zip(sels).enumerate().collect();
        let bufs: StoreResult<Vec<Vec<f64>>> = par_map(&work, |(i, (shard, local))| {
            let mut rng = StdRng::seed_from_u64(sub_seed(seed, *i as u64));
            let rows = reservoir_sample(local, share[*i], &mut rng);
            let col = shard.column(column)?;
            Ok(rows.into_iter().filter_map(|r| col.f64_at(r)).collect())
        })
        .into_iter()
        .collect();
        let mut combined: Vec<f64> = bufs?.into_iter().flatten().collect();
        if combined.is_empty() {
            return Ok(None);
        }
        let med = exact_median(&mut combined)?;
        Ok(Some(numeric_value(ty, med)))
    }

    fn quantile(&self, column: &str, sel: &Bitmap, q: f64) -> StoreResult<Option<Value>> {
        self.medians.fetch_add(1, AtomicOrdering::Relaxed);
        let ty = self.column_type(column)?;
        let runs = self.gather_runs(column, sel, true)?;
        if runs.iter().all(Vec::is_empty) {
            return Ok(None);
        }
        let v = quantile_of_sorted_runs(&runs, q)?;
        Ok(Some(numeric_value(ty, v)))
    }

    fn min_max(&self, column: &str, sel: &Bitmap) -> StoreResult<Option<(Value, Value)>> {
        let work = self.shard_work(sel);
        let parts: StoreResult<Vec<Option<(Value, Value)>>> =
            par_map(&work, |(shard, local)| shard.min_max(column, local))
                .into_iter()
                .collect();
        let mut acc: Option<(Value, Value)> = None;
        for (lo, hi) in parts?.into_iter().flatten() {
            acc = Some(match acc {
                None => (lo, hi),
                Some((alo, ahi)) => (
                    if matches!(lo.try_cmp(&alo), Ok(Ordering::Less)) {
                        lo
                    } else {
                        alo
                    },
                    if matches!(hi.try_cmp(&ahi), Ok(Ordering::Greater)) {
                        hi
                    } else {
                        ahi
                    },
                ),
            });
        }
        Ok(acc)
    }

    fn next_above(&self, column: &str, sel: &Bitmap, v: &Value) -> StoreResult<Option<Value>> {
        let work = self.shard_work(sel);
        let parts: StoreResult<Vec<Option<Value>>> =
            par_map(&work, |(shard, local)| shard.next_above(column, local, v))
                .into_iter()
                .collect();
        let mut best: Option<Value> = None;
        for cand in parts?.into_iter().flatten() {
            if best
                .as_ref()
                .map(|b| matches!(cand.try_cmp(b), Ok(Ordering::Less)))
                .unwrap_or(true)
            {
                best = Some(cand);
            }
        }
        Ok(best)
    }

    fn mean_and_var(&self, column: &str, sel: &Bitmap) -> StoreResult<Option<(f64, f64)>> {
        // Gather per shard, fold once over the concatenation in shard =
        // row order: the identical summation order (and therefore the
        // identical float result) as the unsharded table.
        let runs = self.gather_runs(column, sel, false)?;
        let buf: Vec<f64> = runs.into_iter().flatten().collect();
        Ok(mean_and_var_of(&buf))
    }

    fn frequencies(
        &self,
        column: &str,
        sel: &Bitmap,
    ) -> StoreResult<(FrequencyTable, Vec<String>)> {
        self.scans.fetch_add(1, AtomicOrdering::Relaxed);
        let work = self.shard_work(sel);
        let parts: StoreResult<Vec<(FrequencyTable, Vec<String>)>> =
            par_map(&work, |(shard, local)| shard.frequencies(column, local))
                .into_iter()
                .collect();
        let parts = parts?;
        // Column slices share the parent dictionary, so codes agree across
        // shards and per-code counts sum directly.
        let dict = parts.first().map(|(_, d)| d.clone()).unwrap_or_default();
        let mut counts = vec![0usize; dict.len()];
        for (ft, _) in &parts {
            for &(code, n) in ft.entries() {
                counts[code as usize] += n;
            }
        }
        Ok((FrequencyTable::from_counts(counts), dict))
    }

    fn distinct_count(&self, column: &str, sel: &Bitmap) -> StoreResult<usize> {
        if self.column_type(column)?.is_numeric() {
            let runs = self.gather_runs(column, sel, false)?;
            let mut buf: Vec<f64> = runs.into_iter().flatten().collect();
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

    /// 101 rows (odd, deliberately not 64-aligned) with nulls sprinkled
    /// through both columns.
    fn fixture() -> Table {
        let mut b = TableBuilder::new("t");
        b.add_column("x", DataType::Int)
            .add_column("k", DataType::Str);
        for i in 0..101i64 {
            let x = if i % 11 == 3 {
                None
            } else {
                Some(Value::Int((i * 37) % 50))
            };
            let k = if i % 13 == 7 {
                None
            } else {
                Some(Value::str(["a", "b", "c"][(i % 3) as usize]))
            };
            b.push_row_opt(vec![x, k]).unwrap();
        }
        b.finish()
    }

    fn pred() -> StorePredicate {
        StorePredicate::and(vec![
            StorePredicate::range("x", Value::Int(5), Value::Int(40), true),
            StorePredicate::set("k", vec![Value::str("a"), Value::str("c")]),
        ])
    }

    #[test]
    fn shard_bounds_cover_all_rows_contiguously() {
        let t = fixture();
        for n in [1, 2, 3, 7, 64, 101, 500] {
            let s = ShardedTable::from_table(&t, n);
            assert_eq!(s.row_count(), t.len());
            assert!(s.shard_count() <= 101);
            let mut next = 0;
            for k in 0..s.shard_count() {
                let (start, end) = s.shard_bounds(k);
                assert_eq!(start, next, "gap before shard {k} (n={n})");
                assert!(end >= start);
                next = end;
            }
            assert_eq!(next, t.len(), "shards must cover every row (n={n})");
        }
    }

    #[test]
    fn shard_count_clamps() {
        let t = fixture();
        assert_eq!(ShardedTable::from_table(&t, 0).shard_count(), 1);
        assert_eq!(ShardedTable::from_table(&t, 500).shard_count(), 101);
        // Empty table keeps one empty shard and answers everything.
        let mut b = TableBuilder::new("empty");
        b.add_column("x", DataType::Int);
        let empty = ShardedTable::from_table(&b.finish(), 4);
        assert_eq!(empty.shard_count(), 1);
        assert_eq!(empty.count(&StorePredicate::True).unwrap(), 0);
        assert_eq!(empty.median("x", &Bitmap::new(0)).unwrap(), None);
    }

    #[test]
    fn agrees_with_table_on_every_operation() {
        let t = fixture();
        let all = t.all_rows();
        let p = pred();
        for n in [1, 2, 3, 7] {
            let s = ShardedTable::from_table(&t, n);
            assert_eq!(s.eval(&p).unwrap(), t.eval(&p).unwrap(), "eval n={n}");
            assert_eq!(s.count(&p).unwrap(), t.count(&p).unwrap(), "count n={n}");
            assert_eq!(s.not_null("x").unwrap(), t.not_null("x").unwrap());
            let sel = t.eval(&p).unwrap();
            assert_eq!(
                s.median("x", &sel).unwrap(),
                t.median("x", &sel).unwrap(),
                "median n={n}"
            );
            for q in [0.0, 0.25, 0.5, 0.75, 1.0] {
                assert_eq!(
                    s.quantile("x", &sel, q).unwrap(),
                    t.quantile("x", &sel, q).unwrap(),
                    "q={q} n={n}"
                );
            }
            assert_eq!(s.min_max("x", &sel).unwrap(), t.min_max("x", &sel).unwrap());
            assert_eq!(
                s.next_above("x", &sel, &Value::Int(10)).unwrap(),
                t.next_above("x", &sel, &Value::Int(10)).unwrap()
            );
            let (sm, sv) = s.mean_and_var("x", &sel).unwrap().unwrap();
            let (tm, tv) = t.mean_and_var("x", &sel).unwrap().unwrap();
            assert_eq!(sm.to_bits(), tm.to_bits(), "mean bits n={n}");
            assert_eq!(sv.to_bits(), tv.to_bits(), "var bits n={n}");
            let (sf, sd) = s.frequencies("k", &all).unwrap();
            let (tf, td) = t.frequencies("k", &all).unwrap();
            assert_eq!(sd, td);
            assert_eq!(sf.entries(), tf.entries());
            assert_eq!(
                s.distinct_count("x", &all).unwrap(),
                t.distinct_count("x", &all).unwrap()
            );
            assert_eq!(
                s.distinct_count("k", &all).unwrap(),
                t.distinct_count("k", &all).unwrap()
            );
        }
    }

    #[test]
    fn median_empty_and_type_errors_match_table() {
        let t = fixture();
        let s = ShardedTable::from_table(&t, 3);
        let none = Bitmap::new(t.len());
        assert_eq!(s.median("x", &none).unwrap(), None);
        assert!(s.median("k", &t.all_rows()).is_err());
        assert!(s.median("nope", &t.all_rows()).is_err());
        assert!(s.frequencies("x", &t.all_rows()).is_err());
        assert!(s
            .eval(&StorePredicate::range(
                "nope",
                Value::Int(0),
                Value::Int(1),
                true
            ))
            .is_err());
    }

    #[test]
    fn sampled_median_is_deterministic_per_shard_count() {
        let t = fixture();
        let sel = t.all_rows();
        for n in [1, 3, 7] {
            let s = ShardedTable::from_table(&t, n);
            let a = s.sampled_median("x", &sel, 31, 42).unwrap();
            let b = s.sampled_median("x", &sel, 31, 42).unwrap();
            assert_eq!(a, b, "same seed, same shards → same draw (n={n})");
            assert!(a.is_some());
            let c = s.sampled_median("x", &sel, 31, 43).unwrap();
            // Different seeds *may* coincide, but the draw machinery must
            // at least produce a value.
            assert!(c.is_some());
        }
        // Sample ≥ population degenerates to the exact median, shards or not.
        let s = ShardedTable::from_table(&t, 5);
        assert_eq!(
            s.sampled_median("x", &sel, 10_000, 1).unwrap(),
            t.median("x", &sel).unwrap()
        );
        assert_eq!(s.sampled_median("x", &sel, 0, 1).unwrap(), None);
    }

    #[test]
    fn scan_accounting_matches_table_even_with_short_circuit() {
        // An And whose first leaf selects nothing: Table::eval early-exits
        // and never scans the second leaf. The sharded backend combines
        // conjunctions at the merged level, so its tally must agree.
        let t = fixture();
        let s = ShardedTable::from_table(&t, 7);
        let short_circuit = StorePredicate::and(vec![
            StorePredicate::range("x", Value::Int(100_000), Value::Int(200_000), true),
            StorePredicate::set("k", vec![Value::str("a")]),
        ]);
        for p in [short_circuit, pred(), StorePredicate::True] {
            t.reset_stats();
            s.reset_stats();
            assert_eq!(s.eval(&p).unwrap(), t.eval(&p).unwrap());
            assert_eq!(
                s.stats().scans,
                t.stats().scans,
                "scan tally diverged on {p:?}"
            );
        }
    }

    #[test]
    fn counters_tally_once_not_per_shard() {
        let t = fixture();
        let s = ShardedTable::from_table(&t, 7);
        s.reset_stats();
        let p = pred(); // two leaf predicates
        let _ = s.eval(&p).unwrap();
        let _ = s.count(&p).unwrap();
        let _ = s.median("x", &t.all_rows()).unwrap();
        let _ = s.frequencies("k", &t.all_rows()).unwrap();
        let got = s.stats();
        assert_eq!(
            got,
            BackendStats {
                scans: 5, // 2 (eval leaves) + 2 (count leaves) + 1 (frequencies)
                counts: 1,
                medians: 1,
            },
            "counters must aggregate across shards exactly once"
        );
    }
}
