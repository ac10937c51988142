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
//! bitmap AND-counts over the cached segment selections. Pair results are
//! memoized across HB-cuts iterations (§5.1: "the calculations of SDL
//! products and entropy can be reused from one iteration to the next").

use crate::engine::{fingerprint, Explorer};
use crate::error::CoreResult;
use crate::metrics::entropy_from_covers;
use charles_sdl::Segmentation;

/// Entropy of the product `S1 × S2` computed from pairwise intersection
/// counts (no product queries are built).
pub fn product_entropy(ex: &Explorer<'_>, s1: &Segmentation, s2: &Segmentation) -> CoreResult<f64> {
    let n = ex.context_size();
    if n == 0 {
        return Ok(0.0);
    }
    // Segment selections materialise independently; fan them out.
    let sels1 = crate::par::try_map(s1.queries(), |q| ex.selection(q))?;
    let sels2 = crate::par::try_map(s2.queries(), |q| ex.selection(q))?;
    // AND-count grid: one parallel task per row of S1, each emitting its
    // covers in S2 order; flattening row-major reproduces the exact
    // sequential (a, b) enumeration, so the entropy sum sees the same
    // operand order bitwise.
    let rows = charles_parallel::par_map(&sels1, |a| {
        sels2
            .iter()
            .filter_map(|b| {
                let c = a.and_count(b);
                (c > 0).then(|| c as f64 / n as f64)
            })
            .collect::<Vec<f64>>()
    });
    let covers: Vec<f64> = rows.into_iter().flatten().collect();
    Ok(entropy_from_covers(&covers))
}

/// `INDEP(S1, S2)`, memoized per unordered pair.
///
/// Degenerate case: when `E(S1) + E(S2) = 0` (both segmentations are
/// single-piece or completely unbalanced) there is no dependence signal;
/// we return 1.0 ("fully independent") so HB-cuts never composes on noise.
pub fn indep(ex: &Explorer<'_>, s1: &Segmentation, s2: &Segmentation) -> CoreResult<f64> {
    indep_with_fingerprints(ex, s1, s2, &fingerprint(s1), &fingerprint(s2))
}

/// Evaluate INDEP for a *frontier* of candidate position pairs in one
/// order-preserving parallel fan-out (`fps` runs parallel to `cand`).
///
/// This is the only place the HB-cuts argmin paths touch INDEP: the
/// incremental path passes the O(k) pairs involving the newly composed
/// candidate, the naive reference passes its per-iteration memo misses.
/// Each evaluation consults the explorer's shared memo first (one
/// borrowed-key probe), so repeat runs over one explorer still reuse
/// values across calls.
pub(crate) fn indep_frontier(
    ex: &Explorer<'_>,
    cand: &[Segmentation],
    fps: &[&str],
    frontier: &[(usize, usize)],
) -> CoreResult<Vec<f64>> {
    crate::par::try_map(frontier, |&(i, j)| {
        indep_with_fingerprints(ex, &cand[i], &cand[j], fps[i], fps[j])
    })
}

/// [`indep`] with caller-supplied fingerprints, so hot loops that
/// already maintain them (the HB-cuts pair argmin) don't re-render the
/// segmentations for every cache miss.
pub(crate) fn indep_with_fingerprints(
    ex: &Explorer<'_>,
    s1: &Segmentation,
    s2: &Segmentation,
    fp1: &str,
    fp2: &str,
) -> CoreResult<f64> {
    if let Some(v) = ex.cached_indep(fp1, fp2) {
        return Ok(v);
    }
    let e1 = crate::metrics::entropy(ex, s1)?;
    let e2 = crate::metrics::entropy(ex, s2)?;
    let denom = e1 + e2;
    let value = if denom <= f64::EPSILON {
        1.0
    } else {
        // Subadditivity bounds the true quotient by 1; clamp floating noise.
        (product_entropy(ex, s1, s2)? / denom).min(1.0)
    };
    ex.store_indep(fp1, fp2, value);
    Ok(value)
}

/// Check Proposition 1's equality within a tolerance: are the partition
/// variables of `S1` and `S2` independent on this dataset?
pub fn is_independent(
    ex: &Explorer<'_>,
    s1: &Segmentation,
    s2: &Segmentation,
    tolerance: f64,
) -> CoreResult<bool> {
    Ok(indep(ex, s1, s2)? >= 1.0 - tolerance)
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
        assert!(is_independent(&ex, &halves(&ex, "a"), &halves(&ex, "b"), 0.01).unwrap());
    }

    #[test]
    fn indep_is_half_for_functional_dependency() {
        // b = a: the product collapses onto the diagonal, so
        // E(S1×S2) = E(S1) = E(S2) and the quotient is exactly 1/2.
        let t = dependent_table();
        let ex = Explorer::new(&t, Config::default(), Query::wildcard(&["a", "b"])).unwrap();
        let v = indep(&ex, &halves(&ex, "a"), &halves(&ex, "b")).unwrap();
        assert!((v - 0.5).abs() < 1e-9, "got {v}");
        assert!(!is_independent(&ex, &halves(&ex, "a"), &halves(&ex, "b"), 0.01).unwrap());
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
    fn indep_memoized_across_calls() {
        let t = independent_table();
        let ex = Explorer::new(&t, Config::default(), Query::wildcard(&["a", "b"])).unwrap();
        let sa = halves(&ex, "a");
        let sb = halves(&ex, "b");
        let v1 = indep(&ex, &sa, &sb).unwrap();
        let before = ex.cache_stats();
        let v2 = indep(&ex, &sb, &sa).unwrap(); // swapped order hits too
        let after = ex.cache_stats();
        assert_eq!(v1, v2);
        assert_eq!(after.indep_hits, before.indep_hits + 1);
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
