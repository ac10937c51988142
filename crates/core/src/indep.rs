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
//! selections plus its entropy): the denominator is two field reads, the
//! numerator one AND-count grid — no query is rendered, no lock taken.
//! The HB-cuts loop resolves each candidate once, when it is created —
//! from the pieces CUT derived, one scan per piece or, where a cut's
//! halves partition their parent, per pair (`resolve_pieces`) — and
//! carries the resolved form for as long as the candidate lives (the
//! §5.1 reuse, see [`crate::hbcuts`]); COMPOSE starts its cuts from the
//! same bitmaps. The public [`indep`] and [`product_entropy`] remember
//! nothing — they look both operands' pieces up in the explorer
//! (`resolve`) and call the same kernel.

use crate::engine::{Explorer, Piece};
use crate::error::CoreResult;
use crate::metrics::entropy_from_covers;
use charles_sdl::Segmentation;
use charles_store::Bitmap;
use std::sync::Arc;

/// A segmentation as INDEP consumes it: its pieces' selections in
/// `seg.queries()` order, and `E(S)`.
pub(crate) struct Resolved {
    sels: Vec<Arc<Bitmap>>,
    pub(crate) entropy: f64,
}

/// Resolve a segmentation by its queries: one selection lookup per
/// piece, each a whole conjunction when the explorer has not seen it.
/// The pieces evaluate independently, so they fan out.
pub(crate) fn resolve(ex: &Explorer<'_>, seg: &Segmentation) -> CoreResult<Resolved> {
    let sels = crate::par::try_map(seg.queries(), |q| ex.selection(q))?;
    Ok(Resolved::new(sels, ex.context_size()))
}

/// Resolve the pieces CUT handed over into a candidate: the scans of
/// those still derived fan out (`Explorer::map_units`).
pub(crate) fn resolve_pieces(
    ex: &Explorer<'_>,
    pieces: Vec<Piece>,
) -> CoreResult<(Segmentation, Resolved)> {
    let sels = ex.map_units(&pieces, |_, sel| Ok(sel))?;
    let queries = pieces.into_iter().map(|p| p.query).collect();
    Ok((
        Segmentation::new(queries),
        Resolved::new(sels, ex.context_size()),
    ))
}

impl Resolved {
    fn new(sels: Vec<Arc<Bitmap>>, n: usize) -> Resolved {
        let covers: Vec<f64> = sels
            .iter()
            .map(|s| s.count_ones() as f64 / n as f64)
            .collect();
        Resolved {
            entropy: entropy_from_covers(&covers),
            sels,
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

    /// `E(S1 × S2)` from the AND-count grid, enumerated row-major — the
    /// `(a, b)` order the entropy sum has always seen, so its value is
    /// fixed down to the last bit.
    fn product_entropy(&self, other: &Resolved, n: usize) -> f64 {
        let mut covers = Vec::with_capacity(self.sels.len() * other.sels.len());
        for a in &self.sels {
            for b in &other.sels {
                let c = a.and_count(b);
                if c > 0 {
                    covers.push(c as f64 / n as f64);
                }
            }
        }
        entropy_from_covers(&covers)
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
    use crate::primitives::{cut_segmentation, product};
    use charles_sdl::Query;
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
