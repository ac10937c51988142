//! INDEP: the dependence measure driving HB-cuts (§4.1, Proposition 1).
//!
//! For segmentations `S1`, `S2` of the same context,
//!
//! ```text
//! INDEP(S1, S2) = E(S1 × S2) / (E(S1) + E(S2))
//! ```
//!
//! Proposition 1: the partition variables `X1`, `X2` are independent iff
//! `E(S1×S2) = E(S1) + E(S2)`, i.e. `INDEP = 1`; the quotient *decreases*
//! with the degree of dependence (a functional dependency collapses the
//! product's entropy onto the diagonal, pushing the quotient towards ½).
//!
//! The implementation never materialises product queries: the entropy of
//! `S1 × S2` only needs the pairwise intersection cardinalities, which are
//! bitmap AND-counts over the segment selections. There is one kernel and
//! it works on *resolved* operands (`Resolved`: a segmentation's piece
//! selections, their counts, whether they partition the context, and its
//! entropy): the denominator is two field reads, the numerator a grid of
//! intersection counts — no query is rendered, no lock taken.
//!
//! Only the grid's free cells are AND-counted. When an operand's pieces
//! partition the context, the cells along it sum to the other operand's
//! piece counts, so the last cell of each row (or the last row) is what
//! the others leave: a 2 × 2 seed probe is one AND-count, a k × m grid of
//! two partitions (k−1)(m−1). The flag is structural — a cut's right half
//! was the complement of its left (CUT and COMPOSE report it), never
//! `Σ counts = n`, which a cut whose halves overlap and one that drops
//! rows can meet together — and the derived cells are the same integers,
//! summed in the same row-major order, so `E(S1 × S2)` keeps its bits.
//!
//! The HB-cuts loop resolves each candidate once, when it is created —
//! from the pieces CUT derived, one scan per piece or, where a cut's
//! halves partition their parent, per pair (`resolve_pieces`) — and
//! carries the resolved form for as long as the candidate lives (the
//! §5.1 reuse, see [`crate::hbcuts`]); COMPOSE starts its cuts from the
//! same bitmaps. The public [`indep`] and [`product_entropy`] remember
//! nothing — they look both operands' pieces up in the explorer
//! (`resolve`, which claims no partition, so every cell is counted) and
//! call the same kernel.

use crate::engine::{Explorer, Piece};
use crate::error::CoreResult;
use crate::metrics::entropy_from_counts;
use charles_sdl::Segmentation;
use charles_store::Bitmap;
use std::sync::Arc;

/// A segmentation as INDEP consumes it: its pieces' selections in
/// `seg.queries()` order, their counts, whether they are known to
/// partition the context, and `E(S)`.
pub(crate) struct Resolved {
    sels: Vec<Arc<Bitmap>>,
    counts: Vec<usize>,
    /// The pieces partition the context, known by construction: every
    /// cut that made them split its piece into a partitioning pair (the
    /// right half `Piece::is_complement`). Never inferred from the
    /// counts: halves that overlap (a `Float` bound on an `Int` attribute
    /// beyond 2⁵³) and halves that drop rows (a NaN) can together still
    /// count `n`.
    pub(crate) partition: bool,
    pub(crate) entropy: f64,
}

/// Resolve a segmentation by its queries: one selection lookup per
/// piece, each a whole conjunction when the explorer has not seen it.
/// The pieces evaluate independently, so they fan out. Nothing is known
/// of how they were made, so nothing says they partition the context.
pub(crate) fn resolve(ex: &Explorer<'_>, seg: &Segmentation) -> CoreResult<Resolved> {
    let sels = crate::par::try_map(seg.queries(), |q| ex.selection(q))?;
    Ok(Resolved::new(sels, false, ex.context_size()))
}

/// Resolve the pieces CUT handed over into a candidate: the scans of
/// those still derived fan out (`Explorer::map_units`). `partition`
/// says the pieces partition the context, as CUT and COMPOSE report it.
pub(crate) fn resolve_pieces(
    ex: &Explorer<'_>,
    pieces: Vec<Piece>,
    partition: bool,
) -> CoreResult<(Segmentation, Resolved)> {
    let sels = ex.map_units(&pieces, |_, sel| Ok(sel))?;
    let queries = pieces.into_iter().map(|p| p.query).collect();
    Ok((
        Segmentation::new(queries),
        Resolved::new(sels, partition, ex.context_size()),
    ))
}

/// `total − Σ parts`: a grid cell the others fix. Where a wrong partition
/// flag makes the parts outweigh the total this panics, in release too,
/// instead of wrapping to a huge count.
fn rest(total: usize, parts: impl Iterator<Item = usize>) -> usize {
    total
        .checked_sub(parts.sum())
        .expect("the pieces of a partitioning operand cover each cell's row or column")
}

impl Resolved {
    fn new(sels: Vec<Arc<Bitmap>>, partition: bool, n: usize) -> Resolved {
        let counts: Vec<usize> = sels.iter().map(|s| s.count_ones()).collect();
        Resolved {
            entropy: entropy_from_counts(counts.iter().copied(), n),
            sels,
            counts,
            partition,
        }
    }

    /// The segmentation's pieces again, selections in hand: what COMPOSE
    /// starts cutting from.
    pub(crate) fn pieces(&self, seg: &Segmentation) -> Vec<Piece> {
        seg.queries()
            .iter()
            .zip(&self.sels)
            .map(|(q, sel)| Piece::ready(q.clone(), Arc::clone(sel)))
            .collect()
    }

    #[cfg(test)]
    pub(crate) fn sels(&self) -> &[Arc<Bitmap>] {
        &self.sels
    }

    /// `E(S1 × S2)` from the grid of cells `|a ∧ b|`, enumerated
    /// row-major — the `(a, b)` order the entropy sum has always seen, so
    /// its value is fixed down to the last bit. Only the free cells are
    /// AND-counted. When `other` partitions the context, the cells of a
    /// row sum to `|a|`, so its last cell is `|a|` minus the others; when
    /// `self` does, the last row is `|b|` minus the rows above. A k × m
    /// grid of two partitions costs (k−1)(m−1) AND-counts. The derived
    /// cells are the same integers, so the sum sees the same terms.
    fn product_entropy(&self, other: &Resolved, n: usize) -> f64 {
        let m = other.sels.len();
        let rows = self.sels.len() - usize::from(self.partition);
        let cols = m - usize::from(other.partition);
        let mut grid = vec![0usize; self.sels.len() * m];
        for (i, a) in self.sels[..rows].iter().enumerate() {
            let row = &mut grid[i * m..(i + 1) * m];
            for (cell, b) in row.iter_mut().zip(&other.sels[..cols]) {
                *cell = a.and_count(b);
            }
            if other.partition {
                row[cols] = rest(self.counts[i], row[..cols].iter().copied());
            }
        }
        if self.partition {
            for j in 0..m {
                let last = rest(other.counts[j], (0..rows).map(|i| grid[i * m + j]));
                grid[rows * m + j] = last;
            }
        }
        entropy_from_counts(grid.into_iter(), n)
    }

    /// `INDEP(S1, S2)` over a context of `n` rows; see [`indep`].
    pub(crate) fn indep(&self, other: &Resolved, n: usize) -> f64 {
        let denom = self.entropy + other.entropy;
        if denom <= f64::EPSILON {
            return 1.0;
        }
        // Subadditivity bounds the true quotient by 1; clamp floating noise.
        (self.product_entropy(other, n) / denom).min(1.0)
    }
}

/// Entropy of the product `S1 × S2` computed from pairwise intersection
/// counts (no product queries are built).
pub fn product_entropy(ex: &Explorer<'_>, s1: &Segmentation, s2: &Segmentation) -> CoreResult<f64> {
    Ok(resolve(ex, s1)?.product_entropy(&resolve(ex, s2)?, ex.context_size()))
}

/// `INDEP(S1, S2)`.
///
/// Degenerate case: when `E(S1) + E(S2) = 0` (both segmentations are
/// single-piece or completely unbalanced) there is no dependence signal;
/// we return 1.0 ("fully independent") so HB-cuts never composes on noise.
pub fn indep(ex: &Explorer<'_>, s1: &Segmentation, s2: &Segmentation) -> CoreResult<f64> {
    ex.count_indep_evaluations(1);
    Ok(resolve(ex, s1)?.indep(&resolve(ex, s2)?, ex.context_size()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Config;
    use crate::primitives::{compose_pieces, cut_segmentation, product, Composed};
    use charles_sdl::{Constraint, Query};
    use charles_store::{DataType, TableBuilder, Value};

    fn two_cols(rows: &[(i64, i64)]) -> charles_store::Table {
        let mut b = TableBuilder::new("t");
        b.add_column("a", DataType::Int)
            .add_column("b", DataType::Int);
        for &(x, y) in rows {
            b.push_row(vec![Value::Int(x), Value::Int(y)]).unwrap();
        }
        b.finish()
    }

    fn independent_table() -> charles_store::Table {
        let mut rows = Vec::new();
        for i in 0..8 {
            for j in 0..8 {
                rows.push((i, j));
            }
        }
        two_cols(&rows)
    }

    fn dependent_table() -> charles_store::Table {
        let rows: Vec<(i64, i64)> = (0..64).map(|i| (i % 8, i % 8)).collect();
        two_cols(&rows)
    }

    fn halves<'a>(ex: &Explorer<'a>, attr: &str) -> Segmentation {
        cut_segmentation(ex, &Segmentation::singleton(ex.context().clone()), attr)
            .unwrap()
            .unwrap()
    }

    #[test]
    fn indep_is_one_for_independent_attributes() {
        let t = independent_table();
        let ex = Explorer::new(&t, Config::default(), Query::wildcard(&["a", "b"])).unwrap();
        let v = indep(&ex, &halves(&ex, "a"), &halves(&ex, "b")).unwrap();
        assert!((v - 1.0).abs() < 1e-9, "got {v}");
    }

    #[test]
    fn indep_is_half_for_functional_dependency() {
        // b = a: the product collapses onto the diagonal, so
        // E(S1×S2) = E(S1) = E(S2) and the quotient is exactly 1/2.
        let t = dependent_table();
        let ex = Explorer::new(&t, Config::default(), Query::wildcard(&["a", "b"])).unwrap();
        let v = indep(&ex, &halves(&ex, "a"), &halves(&ex, "b")).unwrap();
        assert!((v - 0.5).abs() < 1e-9, "got {v}");
    }

    #[test]
    fn product_entropy_matches_materialised_product() {
        let t = independent_table();
        let ex = Explorer::new(&t, Config::default(), Query::wildcard(&["a", "b"])).unwrap();
        let sa = halves(&ex, "a");
        let sb = halves(&ex, "b");
        let fast = product_entropy(&ex, &sa, &sb).unwrap();
        let materialised = product(&ex, &sa, &sb).unwrap();
        let slow = crate::metrics::entropy(&ex, &materialised).unwrap();
        assert!((fast - slow).abs() < 1e-12, "{fast} vs {slow}");
    }

    #[test]
    fn proposition1_additivity_for_independents() {
        let t = independent_table();
        let ex = Explorer::new(&t, Config::default(), Query::wildcard(&["a", "b"])).unwrap();
        let sa = halves(&ex, "a");
        let sb = halves(&ex, "b");
        let e1 = crate::metrics::entropy(&ex, &sa).unwrap();
        let e2 = crate::metrics::entropy(&ex, &sb).unwrap();
        let e12 = product_entropy(&ex, &sa, &sb).unwrap();
        assert!((e12 - (e1 + e2)).abs() < 1e-9);
    }

    #[test]
    fn indep_self_is_half() {
        // INDEP(S, S): E(S×S) = E(S), denominator 2E(S) → exactly 0.5.
        let t = independent_table();
        let ex = Explorer::new(&t, Config::default(), Query::wildcard(&["a", "b"])).unwrap();
        let sa = halves(&ex, "a");
        let v = indep(&ex, &sa, &sa).unwrap();
        assert!((v - 0.5).abs() < 1e-12, "got {v}");
    }

    #[test]
    fn degenerate_entropy_yields_one() {
        let t = independent_table();
        let ex = Explorer::new(&t, Config::default(), Query::wildcard(&["a", "b"])).unwrap();
        let single = Segmentation::singleton(ex.context().clone());
        let v = indep(&ex, &single, &single).unwrap();
        assert_eq!(v, 1.0);
    }

    /// `E(S1 × S2)` as two bit patterns: the grid with the free cells
    /// only, and every cell AND-counted.
    fn both_grids(a: &Resolved, b: &Resolved, n: usize) -> (u64, u64) {
        let full = |r: &Resolved| Resolved::new(r.sels.clone(), false, n);
        (
            a.product_entropy(b, n).to_bits(),
            full(a).product_entropy(&full(b), n).to_bits(),
        )
    }

    #[test]
    fn a_partition_grid_counts_its_free_cells_to_the_same_bits() {
        // Seeds and compositions from depth 4 to 32 and beyond over
        // nominal, integer and date attributes, paired every way — each
        // with itself too — and with the same candidates resolved by
        // query, which claim no partition: both operands derived, one,
        // or none, each the same `f64` as the full grid.
        let t = charles_datagen::voc_table(3000, 5);
        let attrs = [
            "type_of_boat",
            "tonnage",
            "built",
            "yard",
            "departure_date",
            "trip",
        ];
        let ex = Explorer::new(&t, Config::default(), Query::wildcard(&attrs)).unwrap();
        let n = ex.context_size();
        let seed = |attr| crate::hbcuts::seed_cut(&ex, attr).unwrap().unwrap();
        let compose = |(seg, r): &(Segmentation, Resolved), with: &Segmentation| {
            let composed = compose_pieces(&ex, r.pieces(seg), &with.attributes(), usize::MAX);
            let Some(Composed::Pieces(pieces, partitions)) = composed.unwrap() else {
                panic!("nothing is rejected at usize::MAX pieces");
            };
            resolve_pieces(&ex, pieces, r.partition && partitions).unwrap()
        };
        let mut cands: Vec<(Segmentation, Resolved)> = attrs.iter().map(|a| seed(a)).collect();
        // A chain: each composition is the last one cut on the next seed.
        let mut last = 0;
        for with in 1..attrs.len() {
            let next = compose(&cands[last], &cands[with].0);
            cands.push(next);
            last = cands.len() - 1;
        }
        // One composition cuts on two attributes, level after level.
        let pair = compose(&cands[0], &cands[1].0);
        cands.push(compose(&cands[5], &pair.0));
        let depths: Vec<usize> = cands.iter().map(|(s, _)| s.depth()).collect();
        assert!(depths[last] >= 32 && depths[last + 1] >= 6, "{depths:?}");
        assert!(cands.iter().all(|(_, r)| r.partition));
        let by_query: Vec<Resolved> = cands
            .iter()
            .map(|(s, _)| resolve(&ex, s).unwrap())
            .collect();
        let operands: Vec<&Resolved> = cands.iter().map(|(_, r)| r).chain(&by_query).collect();
        for a in &operands {
            for b in &operands {
                let (free, full) = both_grids(a, b, n);
                assert_eq!(free, full, "{} × {}", a.sels.len(), b.sels.len());
            }
        }
    }

    #[test]
    fn a_cut_whose_halves_overlap_claims_no_partition() {
        // cut.rs's 2⁵³ context: under `Float` bounds the halves of `z`
        // overlap (4 + 3 rows of 4) and are two scans; under `Int` bounds
        // they partition. `w` always does.
        let base = 1i64 << 53;
        let rows: Vec<(i64, i64)> = [2, 3, 3, 4]
            .into_iter()
            .zip(0..)
            .map(|(z, w)| (base + z, w))
            .collect();
        let mut b = TableBuilder::new("t");
        b.add_column("z", DataType::Int)
            .add_column("w", DataType::Int);
        for (z, w) in rows {
            b.push_row(vec![Value::Int(z), Value::Int(w)]).unwrap();
        }
        let t = b.finish();
        let float = |i: i64| Value::Float((base + i) as f64);
        let int = |i: i64| Value::Int(base + i);
        for (lo, hi, partition) in [(int(2), int(4), true), (float(2), float(4), false)] {
            let ctx = Query::wildcard(&["z", "w"])
                .refined("z", Constraint::range(lo, hi).unwrap())
                .unwrap();
            let ex = Explorer::new(&t, Config::default(), ctx).unwrap();
            let n = ex.context_size();
            let seeds: Vec<Resolved> = ["z", "w"]
                .map(|attr| crate::hbcuts::seed_cut(&ex, attr).unwrap().unwrap().1)
                .into();
            for a in &seeds {
                for b in &seeds {
                    let (free, full) = both_grids(a, b, n);
                    assert_eq!(free, full, "partition {partition}");
                }
            }
            assert_eq!(seeds[0].partition, partition);
            assert!(seeds[1].partition);
        }
    }

    #[test]
    fn noisy_dependence_lies_between() {
        // b tracks a except for 20% of rows, which jump to the opposite
        // half → INDEP strictly between the functional 0.5 and the
        // independent 1.0.
        let rows: Vec<(i64, i64)> = (0..64)
            .map(|i| {
                let a = i % 8;
                let b = if i % 5 == 0 { (a + 4) % 8 } else { a };
                (a, b)
            })
            .collect();
        let t = two_cols(&rows);
        let ex = Explorer::new(&t, Config::default(), Query::wildcard(&["a", "b"])).unwrap();
        let v = indep(&ex, &halves(&ex, "a"), &halves(&ex, "b")).unwrap();
        assert!(v > 0.55 && v < 0.999, "got {v}");
    }
}
