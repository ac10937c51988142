//! Quantile cuts (§5.2).
//!
//! "We only consider median cuts. This is a serious limitation. Assume we
//! split the domain of an attribute size \[that\] follows a Gaussian
//! distribution. With the current state of the system, there is no way to
//! obtain a pie-chart displaying the second third of the population.
//! However, this subset is very dense and may be very interesting for a
//! user. We have to develop support for other quantiles."
//!
//! [`quantile_cut_query`] generalises CUT from a binary median split to a
//! `k`-way split at quantiles `1/k, 2/k, …, (k-1)/k`. With `k = 3` on a
//! Gaussian column, the middle piece *is* the dense second third the paper
//! wants to expose; experiment E10 measures the balance gain over
//! iterated median cuts on skewed data.

use charles_core::engine::Explorer;
use charles_core::error::CoreResult;
use charles_sdl::{Constraint, Query, Segmentation};
use charles_store::{Bitmap, Value};

/// Cut one query into (up to) `k` pieces at equi-depth quantiles.
///
/// Numeric attributes split at the `i/k` quantile values (duplicate split
/// points are collapsed, so fewer than `k` pieces can result); nominal
/// attributes split on accumulated frequency at multiples of `1/k`.
/// Returns `None` when no valid multi-way split exists.
pub fn quantile_cut_query(
    ex: &Explorer<'_>,
    q: &Query,
    attr: &str,
    k: usize,
) -> CoreResult<Option<Vec<Query>>> {
    if k < 2 {
        return Ok(None);
    }
    let sel = ex.selection(q)?;
    if sel.none() {
        return Ok(None);
    }
    let ty = ex.backend().schema().type_of(attr)?;
    let constraints = if ty.is_numeric() {
        numeric_quantile_pieces(ex, attr, k, &sel)?
    } else {
        nominal_quantile_pieces(ex, attr, ty, k, &sel)?
    };
    let Some(constraints) = constraints else {
        return Ok(None);
    };
    // `None` when a refinement is provably empty.
    Ok(constraints
        .into_iter()
        .map(|c| q.refined(attr, c))
        .collect())
}

/// Quantile-cut every query of a segmentation (the k-ary Definition 6).
pub fn quantile_cut_segmentation(
    ex: &Explorer<'_>,
    seg: &Segmentation,
    attr: &str,
    k: usize,
) -> CoreResult<Option<Segmentation>> {
    let mut out = Vec::new();
    let mut any = false;
    for q in seg.queries() {
        match quantile_cut_query(ex, q, attr, k)? {
            Some(pieces) => {
                any = true;
                out.extend(pieces);
            }
            None => out.push(q.clone()),
        }
    }
    Ok(if any {
        Some(Segmentation::new(out))
    } else {
        None
    })
}

fn numeric_quantile_pieces(
    ex: &Explorer<'_>,
    attr: &str,
    k: usize,
    sel: &Bitmap,
) -> CoreResult<Option<Vec<Constraint>>> {
    let Some((min, max)) = ex.backend().min_max(attr, sel)? else {
        return Ok(None);
    };
    if matches!(min.try_cmp(&max), Ok(std::cmp::Ordering::Equal)) {
        return Ok(None);
    }
    // Collect the interior split points, dropping duplicates (heavy
    // duplication can make several quantiles coincide).
    let mut splits: Vec<Value> = Vec::with_capacity(k - 1);
    for i in 1..k {
        let qv = ex
            .backend()
            .quantile(attr, sel, i as f64 / k as f64)?
            .expect("non-empty selection");
        let dominated = splits.iter().any(|s| {
            matches!(
                qv.try_cmp(s),
                Ok(std::cmp::Ordering::Less | std::cmp::Ordering::Equal)
            )
        });
        let above_min = matches!(qv.try_cmp(&min), Ok(std::cmp::Ordering::Greater));
        // Strictly below the max: a split at the maximum would make the
        // final piece [max, max] overlap its predecessor's closed bound.
        let below_max = matches!(qv.try_cmp(&max), Ok(std::cmp::Ordering::Less));
        if !dominated && above_min && below_max {
            splits.push(qv);
        }
    }
    if splits.is_empty() {
        return Ok(None);
    }
    // Pieces: [min, s1[, [s1, s2[, …, [s_last, max].
    let mut bounds = Vec::with_capacity(splits.len() + 2);
    bounds.push(min.clone());
    bounds.extend(splits);
    bounds.push(max.clone());
    let mut pieces = Vec::with_capacity(bounds.len() - 1);
    for w in bounds.windows(2) {
        let last = matches!(w[1].try_cmp(&max), Ok(std::cmp::Ordering::Equal));
        let constraint = Constraint::range_with(w[0].clone(), w[1].clone(), last);
        let Ok(c) = constraint else { return Ok(None) };
        pieces.push(c);
    }
    Ok(Some(pieces))
}

fn nominal_quantile_pieces(
    ex: &Explorer<'_>,
    attr: &str,
    ty: charles_store::DataType,
    k: usize,
    sel: &Bitmap,
) -> CoreResult<Option<Vec<Constraint>>> {
    let (ft, dict) = ex.backend().frequencies(attr, sel)?;
    if ft.cardinality() < 2 {
        return Ok(None);
    }
    let ordered = if ft.cardinality() <= ex.config().nominal_freq_sort_limit {
        ft.by_frequency()
    } else {
        ft.alphabetical(&dict)
    };
    let total: usize = ordered.iter().map(|e| e.1).sum();
    let decode = |code: u32| -> Value {
        let s = &dict[code as usize];
        match ty {
            charles_store::DataType::Bool => Value::Bool(s == "true"),
            _ => Value::str(s.clone()),
        }
    };
    // Greedy accumulation into k buckets of ~total/k rows each.
    let per_bucket = total as f64 / k as f64;
    let mut buckets: Vec<Vec<Value>> = vec![Vec::new()];
    let mut acc = 0usize;
    let mut filled = 0usize; // rows in finished buckets
    for (idx, &(code, n)) in ordered.iter().enumerate() {
        let bucket = buckets.last_mut().expect("non-empty");
        bucket.push(decode(code));
        acc += n;
        let remaining_values = ordered.len() - idx - 1;
        let boundary = filled as f64 + per_bucket;
        if acc as f64 >= boundary && remaining_values > 0 && buckets.len() < k {
            filled = acc;
            buckets.push(Vec::new());
        }
    }
    if buckets.len() < 2 {
        return Ok(None);
    }
    let mut pieces = Vec::with_capacity(buckets.len());
    for b in buckets {
        let Ok(c) = Constraint::set(b) else {
            return Ok(None);
        };
        pieces.push(c);
    }
    Ok(Some(pieces))
}

#[cfg(test)]
mod tests {
    use super::*;
    use charles_core::config::Config;
    use charles_core::metrics::entropy;
    use charles_sdl::eval;
    use charles_store::{Backend, DataType, RowTable, Table, TableBuilder};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn uniform_table(n: i64) -> charles_store::Table {
        let mut b = TableBuilder::new("t");
        b.add_column("x", DataType::Int);
        for i in 0..n {
            b.push_row(vec![Value::Int(i)]).unwrap();
        }
        b.finish()
    }

    #[test]
    fn tercile_cut_gives_three_even_pieces() {
        let t = uniform_table(99);
        let ex = Explorer::new(&t, Config::default(), Query::wildcard(&["x"])).unwrap();
        let pieces = quantile_cut_query(&ex, &ex.context().clone(), "x", 3)
            .unwrap()
            .unwrap();
        assert_eq!(pieces.len(), 3);
        let counts: Vec<usize> = pieces.iter().map(|p| ex.count(p).unwrap()).collect();
        assert_eq!(counts.iter().sum::<usize>(), 99);
        for c in &counts {
            assert!((30..=36).contains(c), "uneven terciles: {counts:?}");
        }
        let seg = Segmentation::new(pieces);
        assert!(seg
            .check_partition(ex.backend(), ex.context_selection())
            .unwrap()
            .is_partition());
    }

    #[test]
    fn gaussian_middle_third_is_dense_and_narrow() {
        // The paper's motivating case: the middle tercile of a Gaussian is
        // value-narrow but population-dense. Check that the middle piece's
        // value width is far below a third of the full range.
        let mut rng = StdRng::seed_from_u64(5);
        let mut b = TableBuilder::new("t");
        b.add_column("size", DataType::Float);
        for _ in 0..20_000 {
            // Sum of uniforms ≈ Gaussian (Irwin–Hall, shifted).
            let g: f64 = (0..12).map(|_| rng.gen::<f64>()).sum::<f64>() - 6.0;
            b.push_row(vec![Value::Float(g * 10.0 + 100.0)]).unwrap();
        }
        let t = b.finish();
        let ex = Explorer::new(&t, Config::default(), Query::wildcard(&["size"])).unwrap();
        let pieces = quantile_cut_query(&ex, &ex.context().clone(), "size", 3)
            .unwrap()
            .unwrap();
        assert_eq!(pieces.len(), 3);
        let width = |q: &Query| -> f64 {
            match q.constraint("size").unwrap() {
                Constraint::Range { lo, hi, .. } => hi.as_f64().unwrap() - lo.as_f64().unwrap(),
                _ => panic!("expected range"),
            }
        };
        let full: f64 = pieces.iter().map(&width).sum();
        let middle = width(&pieces[1]);
        assert!(
            middle < full / 4.0,
            "middle tercile should be narrow: {middle} of {full}"
        );
        // …yet it holds a third of the population.
        let c = ex.cover(&pieces[1]).unwrap();
        assert!((0.30..=0.36).contains(&c), "cover {c}");
    }

    #[test]
    fn quantile_beats_repeated_median_on_skew_balance() {
        // Zipf-ish skew: median cuts produce a lopsided 4-piece set, while
        // 4-quantile cuts stay balanced (higher entropy). E10 in miniature.
        let mut rng = StdRng::seed_from_u64(9);
        let mut b = TableBuilder::new("t");
        b.add_column("x", DataType::Float);
        for _ in 0..10_000 {
            let u: f64 = rng.gen::<f64>();
            b.push_row(vec![Value::Float((1.0 / (1.0 - u)).min(1e6))])
                .unwrap();
        }
        let t = b.finish();
        let ex = Explorer::new(&t, Config::default(), Query::wildcard(&["x"])).unwrap();
        let ctx = ex.context().clone();
        let quart = Segmentation::new(quantile_cut_query(&ex, &ctx, "x", 4).unwrap().unwrap());
        let e_quart = entropy(&ex, &quart).unwrap();
        // Quantile pieces of a continuous skew should be near-balanced.
        assert!(
            e_quart > 0.95 * (quart.depth() as f64).ln(),
            "entropy {e_quart} of depth {}",
            quart.depth()
        );
    }

    #[test]
    fn nominal_quantile_buckets() {
        let mut b = TableBuilder::new("t");
        b.add_column("k", DataType::Str);
        // Frequencies: a=6, b=3, c=2, d=1 → 3 buckets ≈ 4 rows each.
        for (k, n) in [("a", 6), ("b", 3), ("c", 2), ("d", 1)] {
            for _ in 0..n {
                b.push_row(vec![Value::str(k)]).unwrap();
            }
        }
        let t = b.finish();
        let ex = Explorer::new(&t, Config::default(), Query::wildcard(&["k"])).unwrap();
        let pieces = quantile_cut_query(&ex, &ex.context().clone(), "k", 3)
            .unwrap()
            .unwrap();
        assert!(pieces.len() >= 2 && pieces.len() <= 3, "{}", pieces.len());
        let seg = Segmentation::new(pieces);
        assert!(seg
            .check_partition(ex.backend(), ex.context_selection())
            .unwrap()
            .is_partition());
    }

    #[test]
    fn k_less_than_two_is_none() {
        let t = uniform_table(10);
        let ex = Explorer::new(&t, Config::default(), Query::wildcard(&["x"])).unwrap();
        assert!(quantile_cut_query(&ex, &ex.context().clone(), "x", 1)
            .unwrap()
            .is_none());
    }

    #[test]
    fn constant_column_is_none() {
        let mut b = TableBuilder::new("t");
        b.add_column("x", DataType::Int);
        for _ in 0..10 {
            b.push_row(vec![Value::Int(7)]).unwrap();
        }
        let t = b.finish();
        let ex = Explorer::new(&t, Config::default(), Query::wildcard(&["x"])).unwrap();
        assert!(quantile_cut_query(&ex, &ex.context().clone(), "x", 4)
            .unwrap()
            .is_none());
    }

    #[test]
    fn segmentation_level_quantile_cut() {
        let t = uniform_table(100);
        let ex = Explorer::new(&t, Config::default(), Query::wildcard(&["x"])).unwrap();
        let base = Segmentation::singleton(ex.context().clone());
        let s = quantile_cut_segmentation(&ex, &base, "x", 5)
            .unwrap()
            .unwrap();
        assert_eq!(s.depth(), 5);
        assert!(s
            .check_partition(ex.backend(), ex.context_selection())
            .unwrap()
            .is_partition());
    }

    #[test]
    fn pieces_select_their_conjunctions_within_the_context_on_every_backend() {
        // A piece is the cut query refined on one attribute and nothing
        // else: looked up, its selection is its whole conjunction inside
        // the context, which is the cut query's selection narrowed by
        // that one conjunct — on every backend.
        let mut rng = StdRng::seed_from_u64(11);
        let mut b = TableBuilder::new("t");
        b.add_column("x", DataType::Int)
            .add_column("f", DataType::Float)
            .add_column("k", DataType::Str);
        for _ in 0..600 {
            let x: i64 = rng.gen_range(0..100);
            let f = x as f64 * 0.5 + rng.gen::<f64>();
            let k = ["a", "b", "c", "d", "e"][rng.gen_range(0usize..5)];
            let row = vec![Value::Int(x), Value::Float(f), Value::str(k)];
            // Nulls in every column: the context screens them out.
            let row = row.into_iter().map(|v| (!rng.gen_bool(0.05)).then_some(v));
            b.push_row_opt(row.collect()).unwrap();
        }
        let table = b.finish();
        let rows = RowTable::from_table(&table).unwrap();
        let path =
            std::env::temp_dir().join(format!("charles-quantile-{}.charles", std::process::id()));
        charles_store::write_table(&table, &path).unwrap();
        let disk = Table::open(&path).unwrap();
        std::fs::remove_file(&path).unwrap();

        // The context already constrains `x`, and the query being cut is
        // narrower than the context.
        let context = Query::wildcard(&["x", "f", "k"])
            .refined(
                "x",
                Constraint::range(Value::Int(10), Value::Int(89)).unwrap(),
            )
            .unwrap();
        let names = ["a", "b", "c"].map(Value::str).to_vec();
        let q = context
            .refined("k", Constraint::set(names).unwrap())
            .unwrap();
        let backends: [&dyn Backend; 3] = [&table, &rows, &disk];
        for backend in backends {
            let ex = Explorer::new(backend, Config::default(), context.clone()).unwrap();
            let parent = ex.selection(&q).unwrap();
            for (attr, k) in [("x", 3), ("x", 4), ("f", 3), ("k", 2)] {
                let pieces = quantile_cut_query(&ex, &q, attr, k).unwrap().unwrap();
                assert!(pieces.len() >= 2, "{attr}/{k}");
                let mut covered = 0;
                for piece in &pieces {
                    let sel = ex.selection(piece).unwrap();
                    let mut conjunction = eval::selection(piece, backend).unwrap();
                    conjunction.and_inplace(ex.context_selection());
                    assert_eq!(*sel, conjunction, "{piece}");
                    let narrowing = piece.predicates().iter().find(|p| p.attr == attr).unwrap();
                    let mut derived = backend.eval(&eval::lower_predicate(narrowing)).unwrap();
                    derived.and_inplace(&parent);
                    assert_eq!(*sel, derived, "{piece}");
                    covered += sel.count_ones();
                }
                assert_eq!(covered, parent.count_ones(), "{attr}/{k} partitions");
            }
        }
    }
}
