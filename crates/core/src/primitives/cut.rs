//! CUT (Definitions 5 & 6): split a query — and by extension a whole
//! segmentation — in two halves along one attribute.
//!
//! * numeric attributes: split at the median —
//!   `CUT_att(Q) = {(Q, att: [min, med[), (Q, att: [med, max])}`;
//! * nominal attributes: order the values by descending frequency (low
//!   cardinality) or alphabetically (high cardinality), then split where
//!   the accumulated frequency is closest to 50%.
//!
//! Degenerate pieces are never produced: if a segment cannot be split into
//! two non-empty halves on the attribute (constant column, single
//! category), the cut reports `None` for that query. When cutting a whole
//! segmentation, un-cuttable queries are carried over unchanged so the
//! result remains a partition; if *no* query could be cut the segmentation
//! cut as a whole is `None`.
//!
//! CUT works on *(query, selection)* pairs (`Piece`): it already holds
//! `R(Q)` when it splits `Q` — it has just taken the median over it — so
//! each half leaves as `R(Q)` plus the one constraint that narrows it,
//! and its bitmap costs one scan of that constraint within `R(Q)` when
//! somebody first needs it — a walk of `R(Q)`'s rows, not of the whole
//! column — instead of a scan per conjunct of the half's whole query.
//!
//! One pass per cut, twice over. The statistics of a numeric cut — min,
//! max, exact median — come from one walk of `R(Q)`
//! (`Backend::cut_stats`), not one for the extremes and one for the
//! median. And when those statistics (or a nominal cut's frequency table)
//! were taken over *every* row of `R(Q)` — no null and no NaN in the cut
//! attribute, the rule inside a context that mentions it — the two halves
//! partition `R(Q)`, so the right one is what the left one leaves,
//! `R(Q) ∧ ¬left`, and the pair costs one scan. A row with no value
//! belongs to neither half: then each half scans its own conjunct. So
//! they do where `Q` already holds a `Float` bound on an `Int` or `Date`
//! attribute: such a bound compares as `f64`, the integer split point
//! exactly, and beyond 2⁵³ the two orders disagree on who is whose
//! neighbour.
//!
//! `cut_piece` / `cut_pieces` are that implementation: `cut_piece` finds
//! where a piece splits, and `cut_pieces`, which owns its pieces, builds
//! each cut's halves from one clone of the piece's query — the left half
//! refines the clone, the right half the query itself. It also reports
//! whether every cut was a partitioning pair, which INDEP reads. The
//! public [`cut_query`] / [`cut_segmentation`] look their operand up once
//! and release the halves through the explorer's selection memo.

use crate::config::NOMINAL_FREQ_SORT_LIMIT;
use crate::engine::{Explorer, Piece};
use crate::error::CoreResult;
use charles_sdl::{Constraint, Query, Segmentation};
use charles_store::{Bitmap, DataType, FrequencyTable, StoreError, Value};
use std::cmp::Ordering;
use std::sync::Arc;

/// Definition 5 over a piece: where it splits along `attr`, or `None`
/// when no valid binary split exists. The halves themselves are
/// `Piece::halves` of the split.
fn cut_piece(
    ex: &Explorer<'_>,
    query: &Query,
    sel: &Bitmap,
    attr: &str,
) -> CoreResult<Option<Split>> {
    if sel.none() {
        return Ok(None);
    }
    let ty = ex.type_of(attr)?;
    if ty.is_numeric() {
        numeric_split(ex, attr, query.constraint(attr), sel)
    } else {
        nominal_split(ex, attr, ty, sel)
    }
}

/// Where a segment splits along an attribute.
struct Split {
    /// The two constraints. Every value the attribute takes in the
    /// segment satisfies exactly one of them; both refinements stay
    /// satisfiable by construction — the split points come from values
    /// inside the segment.
    halves: (Constraint, Constraint),
    /// Whether every row of the segment holds such a value — the
    /// backend said how many do, and the store compares the refined
    /// constraints in the one order they were drawn in: then the halves
    /// partition the segment.
    partition: bool,
}

/// Definition 6 over pieces: cut each along `attr`, carrying the ones
/// with no valid split over unchanged (keeps the partition property).
/// Also says whether any piece was cut, and whether every piece that was
/// cut was cut into halves that partition it — then the pieces out
/// partition whatever the pieces in did. The pieces are materialised and
/// their splits found unit by unit in one fan-out (`Explorer::map_units`).
pub(crate) fn cut_pieces(
    ex: &Explorer<'_>,
    pieces: Vec<Piece>,
    attr: &str,
) -> CoreResult<(Vec<Piece>, bool, bool)> {
    let splits = ex.map_units(&pieces, |piece, sel| {
        Ok((cut_piece(ex, &piece.query, &sel, attr)?, sel))
    })?;
    Ok(halve(pieces, splits, attr))
}

/// Each piece with a split as its two halves — the left half refines a
/// clone of the piece's query, the right half that query itself — and
/// each piece without one as it is; whether any was cut, and whether
/// every cut's halves partition their piece.
fn halve(
    pieces: Vec<Piece>,
    splits: Vec<(Option<Split>, Arc<Bitmap>)>,
    attr: &str,
) -> (Vec<Piece>, bool, bool) {
    let mut out = Vec::with_capacity(pieces.len() * 2);
    let (mut any, mut partition) = (false, true);
    for (piece, (split, sel)) in pieces.into_iter().zip(splits) {
        let cut = match split {
            Some(Split { halves, partition }) => {
                Piece::halves(piece.query, &sel, attr, halves, partition).map(|h| (h, partition))
            }
            None => Err(piece.query),
        };
        match cut {
            Ok((halves, partitions)) => {
                any = true;
                partition &= partitions;
                out.extend(halves);
            }
            Err(uncut) => out.push(Piece::ready(uncut, sel)),
        }
    }
    (out, any, partition)
}

/// A level of pieces whose cut along one attribute was counted, not
/// made: each piece materialised, with whether it varies
/// ([`count_cuts`]).
pub(crate) struct Counted<'a> {
    attr: &'a str,
    level: Vec<(Piece, bool, Arc<Bitmap>)>,
}

/// How many pieces cutting `pieces` along `attr` would give, found
/// without cutting them: a piece that varies cuts into two, one that
/// does not stays whole (`Explorer::varies`, neither a median nor a
/// frequency table), under either median strategy. The pieces are
/// materialised unit by unit in one fan-out, as [`cut_pieces`] does.
pub(crate) fn count_cuts<'a>(
    ex: &Explorer<'_>,
    pieces: Vec<Piece>,
    attr: &'a str,
) -> CoreResult<Counted<'a>> {
    let probes = ex.map_units(&pieces, |_, sel| Ok((ex.varies(attr, &sel)?, sel)))?;
    let level = pieces
        .into_iter()
        .zip(probes)
        .map(|(piece, (varies, sel))| (piece, varies, sel))
        .collect();
    Ok(Counted { attr, level })
}

impl Counted<'_> {
    /// The number of pieces the level's cut makes: two for each piece
    /// that varies, one for each that does not.
    pub(crate) fn depth(&self) -> usize {
        let cuts = |varies: bool| if varies { 2 } else { 1 };
        self.level.iter().map(|(_, varies, _)| cuts(*varies)).sum()
    }

    /// The level's cut, as [`cut_pieces`] reports it. Only the pieces
    /// that vary are cut now, from the selections the count holds — in
    /// one fan-out, no piece scanned again.
    pub(crate) fn cut(self, ex: &Explorer<'_>) -> CoreResult<(Vec<Piece>, bool, bool)> {
        let attr = self.attr;
        let found = crate::par::try_map(&self.level, |(piece, varies, sel)| {
            if *varies {
                cut_piece(ex, &piece.query, sel, attr)
            } else {
                Ok(None)
            }
        })?;
        let (pieces, splits) = self
            .level
            .into_iter()
            .zip(found)
            .map(|((piece, _, sel), found)| (piece, (found, sel)))
            .unzip();
        Ok(halve(pieces, splits, attr))
    }
}

/// The pieces of a segmentation a caller outside the crate handed in:
/// one selection lookup each.
pub(crate) fn lookup_pieces(ex: &Explorer<'_>, seg: &Segmentation) -> CoreResult<Vec<Piece>> {
    seg.queries()
        .iter()
        .map(|q| Ok(Piece::ready(q.clone(), ex.selection(q)?)))
        .collect()
}

/// The segmentation of pieces on their way out of the crate.
pub(crate) fn release_pieces(ex: &Explorer<'_>, pieces: Vec<Piece>) -> CoreResult<Segmentation> {
    let queries: CoreResult<Vec<Query>> = pieces.into_iter().map(|p| ex.release(p)).collect();
    Ok(Segmentation::new(queries?))
}

/// Cut one query in two along `attr`. Returns `None` when no valid binary
/// split exists.
pub fn cut_query(ex: &Explorer<'_>, q: &Query, attr: &str) -> CoreResult<Option<(Query, Query)>> {
    let sel = ex.selection(q)?;
    let Some(split) = cut_piece(ex, q, &sel, attr)? else {
        return Ok(None);
    };
    let Ok([left, right]) = Piece::halves(q.clone(), &sel, attr, split.halves, split.partition)
    else {
        return Ok(None);
    };
    Ok(Some((ex.release(left)?, ex.release(right)?)))
}

/// Cut every query of a segmentation along `attr` (Definition 6):
/// `CUT_att(S) = CUT_att(Q_0) ∪ … ∪ CUT_att(Q_L)`.
///
/// Queries with no valid split are kept unchanged (keeps the partition
/// property); `None` when not a single query could be cut.
pub fn cut_segmentation(
    ex: &Explorer<'_>,
    seg: &Segmentation,
    attr: &str,
) -> CoreResult<Option<Segmentation>> {
    let (pieces, any, _) = cut_pieces(ex, lookup_pieces(ex, seg)?, attr)?;
    if !any {
        return Ok(None);
    }
    release_pieces(ex, pieces).map(Some)
}

/// Whether everything the query already holds of a discrete attribute is
/// of the column's own type, like the integer halves CUT is about to
/// refine it with. The store compares such bounds as integers, exactly;
/// a bound of another type (a `Float` on an `Int` column) survives
/// refinement where it ties and compares as `f64`, in which `s` and
/// `s + 1` are one value beyond 2⁵³ — halves that may overlap.
fn bounds_compare_exactly(held: Option<&Constraint>, like: &Value) -> bool {
    let exact = |v: &Value| v.data_type() == like.data_type();
    match held {
        None | Some(Constraint::Any) => true,
        Some(Constraint::Range { lo, hi, .. }) => exact(lo) && exact(hi),
        Some(Constraint::Set(vals)) => vals.iter().all(exact),
    }
}

/// Median-based split of a numeric attribute, of which the query so far
/// holds `held`.
fn numeric_split(
    ex: &Explorer<'_>,
    attr: &str,
    held: Option<&Constraint>,
    sel: &Bitmap,
) -> CoreResult<Option<Split>> {
    let Some(stats) = ex.cut_stats(attr, sel)? else {
        return Ok(None);
    };
    let (min, max) = (stats.min, stats.max);
    if matches!(min.try_cmp(&max), Ok(Ordering::Equal)) {
        return Ok(None); // constant within the segment
    }
    // Two distinct values have a median. A backend that answers none
    // disagrees with itself about what `sel` holds: an error, not a cut
    // at a split point no median chose.
    let Some(med) = stats.median else {
        return Err(StoreError::Empty(format!(
            "median of {attr:?}: none over a selection whose extremes differ"
        ))
        .into());
    };
    // Continuous columns compare as `f64` whatever the bound: one order,
    // no overlap. Discrete ones partition only under exact comparison.
    let discrete = matches!(min, Value::Int(_) | Value::Date(_));
    let valued = stats
        .ranked
        .filter(|_| !discrete || bounds_compare_exactly(held, &min));
    let split = |left, right| Split {
        halves: (left, right),
        partition: valued == Some(sel.count_ones()),
    };

    // Discrete columns (Int/Date): closed integer pieces
    // [min, s] / [s+1, max] with s = clamp(⌊med⌋, min, max−1). Both pieces
    // are guaranteed non-empty: min ≤ s and s+1 ≤ max.
    if let (Value::Int(lo), Value::Int(hi)) = (&min, &max) {
        let s = (med.as_f64().expect("numeric median").floor() as i64).clamp(*lo, *hi - 1);
        let left = Constraint::range(Value::Int(*lo), Value::Int(s)).expect("lo ≤ s");
        let right = Constraint::range(Value::Int(s + 1), Value::Int(*hi)).expect("s+1 ≤ hi");
        return Ok(Some(split(left, right)));
    }
    if let (Value::Date(lo), Value::Date(hi)) = (&min, &max) {
        let s = (med.as_f64().expect("numeric median").floor() as i64).clamp(*lo, *hi - 1);
        let left = Constraint::range(Value::Date(*lo), Value::Date(s)).expect("lo ≤ s");
        let right = Constraint::range(Value::Date(s + 1), Value::Date(*hi)).expect("s+1 ≤ hi");
        return Ok(Some(split(left, right)));
    }

    // Continuous columns: the paper's half-open split [min, med[ / [med, max].
    // When duplicates drag the median down to the minimum the left piece
    // would be empty; fall back to the smallest value above the minimum.
    // So does a median outside ]min, max]: ∞ from two middle values whose
    // sum overflows, NaN from −∞ and +∞.
    let med_f = med.as_f64().expect("numeric median");
    let min_f = min.as_f64().expect("numeric bound");
    let inside = med_f > min_f && matches!(med.try_cmp(&max), Ok(Ordering::Less | Ordering::Equal));
    let at = if inside {
        med
    } else {
        match ex.next_above(attr, sel, &min)? {
            Some(v) => v,
            None => return Ok(None), // single distinct value
        }
    };
    let left = Constraint::range_with(min.clone(), at.clone(), false);
    let right = Constraint::range_with(at, max, true);
    match (left, right) {
        (Ok(l), Ok(r)) => Ok(Some(split(l, r))),
        _ => Ok(None),
    }
}

/// Frequency-ordered split of a nominal attribute.
fn nominal_split(
    ex: &Explorer<'_>,
    attr: &str,
    ty: DataType,
    sel: &Bitmap,
) -> CoreResult<Option<Split>> {
    let (ft, dict) = ex.frequencies(attr, sel)?;
    if ft.cardinality() < 2 {
        return Ok(None);
    }
    let ordered = if ft.cardinality() <= NOMINAL_FREQ_SORT_LIMIT {
        ft.by_frequency()
    } else {
        ft.alphabetical(&dict)
    };
    let Some((split_idx, _)) = FrequencyTable::half_split(&ordered) else {
        return Ok(None);
    };
    let decode = |code: u32| -> Value {
        let s = &dict[code as usize];
        match ty {
            DataType::Bool => Value::Bool(s == "true"),
            _ => Value::str(s.clone()),
        }
    };
    let left: Vec<Value> = ordered[..split_idx]
        .iter()
        .map(|&(c, _)| decode(c))
        .collect();
    let right: Vec<Value> = ordered[split_idx..]
        .iter()
        .map(|&(c, _)| decode(c))
        .collect();
    match (Constraint::set(left), Constraint::set(right)) {
        (Ok(l), Ok(r)) => Ok(Some(Split {
            halves: (l, r),
            partition: ft.total() == sel.count_ones(),
        })),
        _ => Ok(None),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Config;
    use charles_store::{Backend, DataType, RowTable, TableBuilder};

    /// The Figure 2 boats: 4 fluits (1000–2000, 2000–5000 tonnage) and 4
    /// jachts, with departure years correlated with the type.
    fn boats() -> charles_store::Table {
        let mut b = TableBuilder::new("boats");
        b.add_column("type", DataType::Str)
            .add_column("tonnage", DataType::Int)
            .add_column("year", DataType::Int);
        let rows = [
            ("fluit", 1200, 1710),
            ("fluit", 1800, 1730),
            ("fluit", 2500, 1745),
            ("fluit", 4000, 1760),
            ("jacht", 1500, 1755),
            ("jacht", 2800, 1765),
            ("jacht", 3500, 1772),
            ("jacht", 4800, 1779),
        ];
        for (ty, t, y) in rows {
            b.push_row(vec![Value::str(ty), Value::Int(t), Value::Int(y)])
                .unwrap();
        }
        b.finish()
    }

    fn explorer(t: &charles_store::Table) -> Explorer<'_> {
        Explorer::new(
            t,
            Config::default(),
            Query::wildcard(&["type", "tonnage", "year"]),
        )
        .unwrap()
    }

    #[test]
    fn numeric_cut_splits_at_median() {
        let t = boats();
        let ex = explorer(&t);
        let ctx = ex.context().clone();
        let (l, r) = cut_query(&ex, &ctx, "tonnage").unwrap().unwrap();
        // 8 values; both halves must have 4 rows.
        assert_eq!(ex.count(&l).unwrap(), 4);
        assert_eq!(ex.count(&r).unwrap(), 4);
        // Pieces partition the context.
        let seg = Segmentation::new(vec![l, r]);
        let report = seg.check_partition(&t, ex.context_selection()).unwrap();
        assert!(report.is_partition(), "{report:?}");
    }

    #[test]
    fn nominal_cut_splits_categories() {
        let t = boats();
        let ex = explorer(&t);
        let (l, r) = cut_query(&ex, &ex.context().clone(), "type")
            .unwrap()
            .unwrap();
        assert_eq!(ex.count(&l).unwrap(), 4);
        assert_eq!(ex.count(&r).unwrap(), 4);
        let cs = l.constraint("type").unwrap();
        assert!(matches!(cs, Constraint::Set(v) if v.len() == 1));
    }

    #[test]
    fn a_clean_cut_pair_costs_one_scan() {
        // No null in a context's own attributes: the statistics cover
        // the whole segment, its halves partition it, and the right one
        // is what the left one leaves. A nominal cut's frequency table
        // is a column pass of its own.
        let t = boats();
        let ex = explorer(&t);
        let ctx = ex.context().clone();
        for (attr, scans) in [("tonnage", 1), ("type", 2)] {
            let before = ex.backend_ops().scans;
            let (l, r) = cut_query(&ex, &ctx, attr).unwrap().unwrap();
            assert_eq!(ex.backend_ops().scans - before, scans, "{attr}");
            // Both halves were released into the memo: counting them
            // evaluates nothing.
            assert_eq!(ex.count(&l).unwrap() + ex.count(&r).unwrap(), 8);
            assert_eq!(ex.backend_ops().scans - before, scans, "{attr}");
        }
    }

    #[test]
    fn a_null_in_the_parent_costs_two_scans_and_equals_the_conjunctions() {
        // Cutting on an attribute from outside the context: the extent
        // only screens the nulls of the attributes the context mentions,
        // so rows null in `y` or `k` are in the parent and in neither
        // half — the right half is *not* what the left one leaves.
        let mut b = TableBuilder::new("t");
        b.add_column("x", DataType::Int)
            .add_column("y", DataType::Int)
            .add_column("k", DataType::Str);
        for i in 0..12i64 {
            b.push_row_opt(vec![
                Some(Value::Int(i)),
                (i % 4 != 1).then_some(Value::Int(i * 5 % 12)),
                (i % 3 != 2).then_some(Value::str(if i < 7 { "a" } else { "b" })),
            ])
            .unwrap();
        }
        let t = b.finish();
        let ex = Explorer::new(&t, Config::default(), Query::wildcard(&["x"])).unwrap();
        assert_eq!(ex.context_size(), 12);
        for (attr, valued, scans) in [("y", 9, 2), ("k", 8, 3)] {
            let before = ex.backend_ops().scans;
            let (l, r) = cut_query(&ex, ex.context(), attr).unwrap().unwrap();
            assert_eq!(ex.backend_ops().scans - before, scans, "{attr}");
            assert!(l.mentions(attr) && r.mentions(attr));
            // Released into the memo, not re-evaluated on lookup.
            let released = [&l, &r].map(|q| ex.selection(q).unwrap());
            assert_eq!(ex.backend_ops().scans - before, scans, "{attr}");
            let mut covered = 0;
            for (q, released) in [&l, &r].into_iter().zip(released) {
                let mut evaluated = charles_sdl::eval::selection(q, &t).unwrap();
                evaluated.and_inplace(ex.context_selection());
                assert_eq!(*released, evaluated, "{q}");
                covered += evaluated.count_ones();
            }
            assert_eq!(covered, valued, "{attr}");
        }
    }

    #[test]
    fn a_float_bound_on_an_integer_attribute_costs_two_scans() {
        // 2⁵³ + 3 and 2⁵³ + 4 are one `f64`. The context's `Float` upper
        // bound ties with the split point 2⁵³ + 3, both refined halves
        // keep it and compare it as `f64`: they overlap, and the right
        // one is its own conjunction, not what the left one leaves. Its
        // `Int` lower bound compares exactly, so it holds one row, as on
        // the row store (`Value::try_cmp`).
        let base = 1i64 << 53;
        let mut b = TableBuilder::new("t");
        b.add_column("z", DataType::Int);
        for i in [2, 3, 3, 4] {
            b.push_row(vec![Value::Int(base + i)]).unwrap();
        }
        let t = b.finish();
        let float = |i: i64| Value::Float((base + i) as f64);
        let int = |i: i64| Value::Int(base + i);
        for (lo, hi, scans, counts) in
            [(int(2), int(4), 1, [3, 1]), (float(2), float(4), 2, [4, 1])]
        {
            let ctx = Query::wildcard(&["z"])
                .refined("z", Constraint::range(lo, hi).unwrap())
                .unwrap();
            let ex = Explorer::new(&t, Config::default(), ctx).unwrap();
            assert_eq!(ex.context_size(), 4);
            let before = ex.backend_ops().scans;
            let (l, r) = cut_query(&ex, ex.context(), "z").unwrap().unwrap();
            assert_eq!(ex.backend_ops().scans - before, scans, "{l} | {r}");
            for (q, count) in [&l, &r].into_iter().zip(counts) {
                let mut evaluated = charles_sdl::eval::selection(q, &t).unwrap();
                evaluated.and_inplace(ex.context_selection());
                assert_eq!(*ex.selection(q).unwrap(), evaluated, "{q}");
                assert_eq!(evaluated.count_ones(), count, "{q}");
            }
        }
    }

    #[test]
    fn a_count_is_the_depth_of_its_cut_and_cuts_the_same() {
        // Counting a level of pieces gives the depth cutting it gives, and
        // cutting the counted level gives the same pieces, over pieces of
        // one value and none, both zeros, medians of ∞ (two middle values
        // whose sum overflows) and of NaN (−∞ and +∞), a `Float` bound
        // held on an `Int` attribute beyond 2⁵³, strings and booleans,
        // and the half-null `n` and half-NaN `h` — on both engines (the
        // row store holds NaN where the table holds null).
        let base = 1i64 << 53;
        let big = f64::MAX;
        let inf = f64::INFINITY;
        let floats = [
            [1.0, big, big, big],
            [-inf, inf, -inf, inf],
            [-0.0, 0.0, -0.0, 0.0],
            [2.0; 4],
        ];
        let strs = [
            ["a"; 4],
            ["a", "b", "a", "b"],
            ["b"; 4],
            ["a", "c", "c", "c"],
        ];
        let mut rows = Vec::new();
        for g in 0..4 {
            for r in 0..4 {
                let valued = (g + r) % 2 == 1;
                rows.push(vec![
                    Some(Value::Int(g as i64)),
                    Some(Value::Float(floats[g][r])),
                    Some(Value::Int(base + [2, 3, 3, 4][r])),
                    Some(Value::str(strs[g][r])),
                    Some(Value::Bool(g % 2 == 1 && r % 2 == 0)),
                    valued.then_some(Value::Int(r as i64)),
                    Some(Value::Float(if valued { r as f64 / 2.0 } else { f64::NAN })),
                ]);
            }
        }
        let mut b = TableBuilder::new("t");
        b.add_column("g", DataType::Int)
            .add_column("f", DataType::Float)
            .add_column("z", DataType::Int)
            .add_column("k", DataType::Str)
            .add_column("b", DataType::Bool)
            .add_column("n", DataType::Int)
            .add_column("h", DataType::Float);
        let not_nan =
            |v: &Option<Value>| v.clone().filter(|v| v.as_f64().is_none_or(|x| !x.is_nan()));
        for row in &rows {
            b.push_row_opt(row.iter().map(not_nan).collect()).unwrap();
        }
        let t = b.finish();
        let row_store = RowTable::new(t.schema().clone(), rows).unwrap();
        // `n` and `h` are cut along but stay out of the contexts, whose
        // extents would screen their nulls and NaNs.
        let attrs = ["g", "f", "z", "k", "b"];
        let cut_along = ["g", "f", "z", "k", "b", "n", "h"];
        let float = |i: i64| Value::Float((base + i) as f64);
        let mut contexts = vec![Query::wildcard(&attrs)
            .refined("z", Constraint::range(float(2), float(4)).unwrap())
            .unwrap()];
        for g in 0..4 {
            let group = Constraint::range(Value::Int(g), Value::Int(g)).unwrap();
            contexts.push(Query::wildcard(&attrs).refined("g", group).unwrap());
        }
        let engines: [(&dyn Backend, bool); 2] = [(&t, false), (&row_store, true)];
        let (mut counted, mut uncut) = (0, 0);
        for ctx in &contexts {
            for (backend, holds_nan) in engines {
                let ex = Explorer::new(backend, Config::default(), ctx.clone()).unwrap();
                // The context alone, and its halves on each attribute.
                let levels = |ex: &Explorer<'_>| {
                    let mut levels = vec![vec![ex.context_piece()]];
                    for by in cut_along {
                        levels.push(cut_pieces(ex, vec![ex.context_piece()], by).unwrap().0);
                    }
                    levels
                };
                for attr in cut_along {
                    for (to_cut, to_count) in levels(&ex).into_iter().zip(levels(&ex)) {
                        let cut = cut_pieces(&ex, to_cut, attr).unwrap();
                        let count = count_cuts(&ex, to_count, attr).unwrap();
                        let queries = |pieces: &[Piece]| -> Vec<String> {
                            pieces.iter().map(|p| p.query.to_string()).collect()
                        };
                        let what = format!("{attr}, NaN: {holds_nan}");
                        assert_eq!(count.depth(), cut.0.len(), "{what}: {:?}", queries(&cut.0));
                        let depth = count.depth();
                        uncut += 2 * count.level.len() - depth;
                        counted += count.level.len();
                        let recut = count.cut(&ex).unwrap();
                        assert_eq!(queries(&recut.0), queries(&cut.0), "{what}");
                        assert_eq!((recut.1, recut.2), (cut.1, cut.2), "{what}");
                    }
                }
            }
        }
        assert!(uncut > 0 && uncut < counted, "{uncut} of {counted}");
    }

    #[test]
    fn cut_on_constant_column_is_none() {
        let mut b = TableBuilder::new("t");
        b.add_column("x", DataType::Int)
            .add_column("c", DataType::Int);
        for i in 0..4 {
            b.push_row(vec![Value::Int(i), Value::Int(7)]).unwrap();
        }
        let t = b.finish();
        let ex = Explorer::new(&t, Config::default(), Query::wildcard(&["x", "c"])).unwrap();
        assert!(cut_query(&ex, &ex.context().clone(), "c")
            .unwrap()
            .is_none());
    }

    #[test]
    fn cut_on_single_category_is_none() {
        let mut b = TableBuilder::new("t");
        b.add_column("k", DataType::Str);
        for _ in 0..4 {
            b.push_row(vec![Value::str("only")]).unwrap();
        }
        let t = b.finish();
        let ex = Explorer::new(&t, Config::default(), Query::wildcard(&["k"])).unwrap();
        assert!(cut_query(&ex, &ex.context().clone(), "k")
            .unwrap()
            .is_none());
    }

    #[test]
    fn skewed_duplicates_still_split_nonempty() {
        // Median equals the minimum: 1,1,1,9 — both halves must be non-empty.
        let mut b = TableBuilder::new("t");
        b.add_column("x", DataType::Float);
        for v in [1.0, 1.0, 1.0, 9.0] {
            b.push_row(vec![Value::Float(v)]).unwrap();
        }
        let t = b.finish();
        let ex = Explorer::new(&t, Config::default(), Query::wildcard(&["x"])).unwrap();
        let (l, r) = cut_query(&ex, &ex.context().clone(), "x").unwrap().unwrap();
        assert_eq!(ex.count(&l).unwrap(), 3);
        assert_eq!(ex.count(&r).unwrap(), 1);
    }

    #[test]
    fn integer_duplicates_skewed_high() {
        // 1,5,5,5: median 5 = max → clamp to s = 4.
        let mut b = TableBuilder::new("t");
        b.add_column("x", DataType::Int);
        for v in [1, 5, 5, 5] {
            b.push_row(vec![Value::Int(v)]).unwrap();
        }
        let t = b.finish();
        let ex = Explorer::new(&t, Config::default(), Query::wildcard(&["x"])).unwrap();
        let (l, r) = cut_query(&ex, &ex.context().clone(), "x").unwrap().unwrap();
        assert_eq!(ex.count(&l).unwrap(), 1);
        assert_eq!(ex.count(&r).unwrap(), 3);
    }

    #[test]
    fn cut_of_segmentation_doubles_pieces() {
        let t = boats();
        let ex = explorer(&t);
        let ctx = Segmentation::singleton(ex.context().clone());
        let s1 = cut_segmentation(&ex, &ctx, "type").unwrap().unwrap();
        assert_eq!(s1.depth(), 2);
        let s2 = cut_segmentation(&ex, &s1, "tonnage").unwrap().unwrap();
        assert_eq!(s2.depth(), 4);
        let report = s2.check_partition(&t, ex.context_selection()).unwrap();
        assert!(report.is_partition(), "{report:?}");
        // Each type-half is cut at its own median, so all four pieces hold
        // two boats ("this creates semantically coherent segmentations").
        for q in s2.queries() {
            assert_eq!(ex.count(q).unwrap(), 2);
        }
    }

    #[test]
    fn cut_segmentation_keeps_uncuttable_pieces() {
        // One piece is constant on the cut attribute; it must survive
        // unchanged while the other is split.
        let mut b = TableBuilder::new("t");
        b.add_column("k", DataType::Str)
            .add_column("x", DataType::Int);
        for (k, x) in [("a", 1), ("a", 1), ("b", 1), ("b", 9)] {
            b.push_row(vec![Value::str(k), Value::Int(x)]).unwrap();
        }
        let t = b.finish();
        let ex = Explorer::new(&t, Config::default(), Query::wildcard(&["k", "x"])).unwrap();
        let by_k = cut_segmentation(&ex, &Segmentation::singleton(ex.context().clone()), "k")
            .unwrap()
            .unwrap();
        let by_kx = cut_segmentation(&ex, &by_k, "x").unwrap().unwrap();
        // "a" piece is constant on x → kept; "b" piece splits → 3 total.
        assert_eq!(by_kx.depth(), 3);
        let report = by_kx.check_partition(&t, ex.context_selection()).unwrap();
        assert!(report.is_partition(), "{report:?}");
    }

    #[test]
    fn cut_respects_existing_constraint() {
        let t = boats();
        let ex = explorer(&t);
        // Restrict to fluits first, then cut on tonnage: pieces must stay
        // within the fluit subset.
        let fluits = ex
            .context()
            .refined("type", Constraint::set(vec![Value::str("fluit")]).unwrap())
            .unwrap();
        let (l, r) = cut_query(&ex, &fluits, "tonnage").unwrap().unwrap();
        assert_eq!(ex.count(&l).unwrap() + ex.count(&r).unwrap(), 4);
        for q in [&l, &r] {
            assert_eq!(
                q.constraint("type"),
                Some(&Constraint::Set(vec![Value::str("fluit")]))
            );
        }
    }

    #[test]
    fn bool_columns_cut_into_true_false() {
        let mut b = TableBuilder::new("t");
        b.add_column("armed", DataType::Bool);
        for v in [true, true, false, true] {
            b.push_row(vec![Value::Bool(v)]).unwrap();
        }
        let t = b.finish();
        let ex = Explorer::new(&t, Config::default(), Query::wildcard(&["armed"])).unwrap();
        let (l, r) = cut_query(&ex, &ex.context().clone(), "armed")
            .unwrap()
            .unwrap();
        // Frequency order puts `true` (3 rows) first.
        assert_eq!(
            l.constraint("armed"),
            Some(&Constraint::Set(vec![Value::Bool(true)]))
        );
        assert_eq!(ex.count(&l).unwrap(), 3);
        assert_eq!(ex.count(&r).unwrap(), 1);
    }

    #[test]
    fn alphabetical_ordering_beyond_cardinality_limit() {
        // `n` values once each and "zz" `n` times: by frequency "zz" is
        // half the rows on its own, alphabetically it is last and the
        // other `n` make the half. 20 distinct values still sort by
        // frequency, 21 alphabetically.
        for (n, by_frequency) in [(19, true), (20, false)] {
            let mut b = TableBuilder::new("t");
            b.add_column("k", DataType::Str);
            let once: Vec<Value> = (1..=n).map(|i| Value::str(format!("a{i:02}"))).collect();
            for v in &once {
                b.push_row(vec![v.clone()]).unwrap();
                b.push_row(vec![Value::str("zz")]).unwrap();
            }
            let t = b.finish();
            let ex = Explorer::new(&t, Config::default(), Query::wildcard(&["k"])).unwrap();
            let distinct = n + 1;
            assert_eq!(distinct <= NOMINAL_FREQ_SORT_LIMIT, by_frequency);
            let (l, _r) = cut_query(&ex, &ex.context().clone(), "k").unwrap().unwrap();
            let left = if by_frequency {
                vec![Value::str("zz")]
            } else {
                once
            };
            assert_eq!(l.constraint("k"), Some(&Constraint::Set(left)), "{n}");
        }
    }
}
