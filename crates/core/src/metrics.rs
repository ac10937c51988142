//! The paper's quality metrics (§3): simplicity, breadth, entropy.
//!
//! Homogeneity is deliberately **not** quantified — the paper argues that
//! no universal clustering-quality measure exists and that the advisor
//! explores the query space, not the data space; meaningfulness is instead
//! supplied structurally by HB-cuts (cuts composed along dependent
//! attributes only).

use crate::engine::Explorer;
use crate::error::CoreResult;
use charles_sdl::Segmentation;

/// SIMPLICITY — `P(S)`: the maximum number of constraints among the
/// queries of the segmentation ("each individual SDL query should contain
/// as few predicates as possible … the maximum number of constraints among
/// all of its queries"). Lower is simpler, hence more legible
/// (Principle 1).
pub fn simplicity(seg: &Segmentation) -> usize {
    seg.queries()
        .iter()
        .map(|q| q.constraint_count())
        .max()
        .unwrap_or(0)
}

/// BREADTH — the number of distinct columns across the queries ("we
/// maximize the number of distinct columns across the queries of our
/// segmentations"). Higher is more informative (Principle 2).
pub fn breadth(seg: &Segmentation) -> usize {
    seg.attributes().len()
}

/// ENTROPY of a cover distribution (Definition 4):
/// `E(S) = −Σ C(Q_j) · ln C(Q_j)`, with `0·ln 0 = 0`.
///
/// Natural logarithm; `entropy_from_covers(..) / LN_2` gives bits. Ranges
/// from 0 (a single piece) to `ln M` for `M` perfectly balanced segments
/// (Principle 3: deeper and more balanced is better).
pub fn entropy_from_covers(covers: &[f64]) -> f64 {
    entropy_sum(covers.iter().copied())
}

/// [`entropy_from_covers`] of the covers `count / n`, without collecting
/// them: the same terms, summed in the same order, so the same bits.
pub(crate) fn entropy_from_counts(counts: impl Iterator<Item = usize>, n: usize) -> f64 {
    entropy_sum(counts.map(|c| c as f64 / n as f64))
}

fn entropy_sum(covers: impl Iterator<Item = f64>) -> f64 {
    covers.filter(|&c| c > 0.0).map(|c| -c * c.ln()).sum()
}

/// Entropy of a segmentation against an explorer's context.
pub fn entropy(ex: &Explorer<'_>, seg: &Segmentation) -> CoreResult<f64> {
    Ok(entropy_from_covers(&ex.covers(seg)?))
}

/// The full score card of a segmentation: everything the ranking needs.
#[derive(Debug, Clone, PartialEq)]
pub struct Score {
    /// Entropy (nats).
    pub entropy: f64,
    /// Max constraints per query (lower = simpler).
    pub simplicity: usize,
    /// Distinct constrained columns (higher = broader).
    pub breadth: usize,
    /// Number of queries.
    pub depth: usize,
}

impl Score {
    /// The theoretical entropy ceiling for this depth (`ln M`).
    pub(crate) fn max_entropy(&self) -> f64 {
        if self.depth == 0 {
            0.0
        } else {
            (self.depth as f64).ln()
        }
    }

    /// Balance in `[0,1]`: entropy normalised by its ceiling (1 = perfectly
    /// even pieces). Degenerate single-piece segmentations score 0.
    pub fn balance(&self) -> f64 {
        let max = self.max_entropy();
        if max == 0.0 {
            0.0
        } else {
            self.entropy / max
        }
    }
}

/// Compute the score card for a segmentation.
pub fn score(ex: &Explorer<'_>, seg: &Segmentation) -> CoreResult<Score> {
    Ok(score_with(seg, entropy(ex, seg)?))
}

/// The score card of a segmentation whose entropy is already known (the
/// HB-cuts loop carries it with each candidate).
pub(crate) fn score_with(seg: &Segmentation, entropy: f64) -> Score {
    Score {
        entropy,
        simplicity: simplicity(seg),
        breadth: breadth(seg),
        depth: seg.depth(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Config;
    use charles_sdl::{Constraint, Query};
    use charles_store::{DataType, TableBuilder, Value};

    fn table() -> charles_store::Table {
        let mut b = TableBuilder::new("t");
        b.add_column("x", DataType::Int)
            .add_column("k", DataType::Str);
        for i in 0..16i64 {
            let k = if i < 8 { "lo" } else { "hi" };
            b.push_row(vec![Value::Int(i), Value::str(k)]).unwrap();
        }
        b.finish()
    }

    fn x_range(lo: i64, hi: i64) -> Query {
        Query::wildcard(&["x", "k"])
            .refined(
                "x",
                Constraint::range(Value::Int(lo), Value::Int(hi)).unwrap(),
            )
            .unwrap()
    }

    #[test]
    fn entropy_bounds() {
        // One piece → 0.
        assert_eq!(entropy_from_covers(&[1.0]), 0.0);
        // M balanced pieces → ln M.
        let m = 8;
        let covers = vec![1.0 / m as f64; m];
        let e = entropy_from_covers(&covers);
        assert!((e - (m as f64).ln()).abs() < 1e-12);
        // Unbalanced < balanced at equal depth.
        let skew = entropy_from_covers(&[0.9, 0.1]);
        let even = entropy_from_covers(&[0.5, 0.5]);
        assert!(skew < even);
    }

    #[test]
    fn entropy_ignores_empty_cells() {
        assert_eq!(
            entropy_from_covers(&[0.5, 0.5, 0.0]),
            entropy_from_covers(&[0.5, 0.5])
        );
    }

    #[test]
    fn entropy_grows_with_depth() {
        // Splitting a balanced 2-piece set into a balanced 4-piece set
        // increases entropy ("it grows with the depth of the set").
        let e2 = entropy_from_covers(&[0.5, 0.5]);
        let e4 = entropy_from_covers(&[0.25; 4]);
        assert!(e4 > e2);
    }

    #[test]
    fn simplicity_is_max_constraints() {
        let q_simple = x_range(0, 7);
        let q_complex = x_range(8, 15)
            .refined("k", Constraint::set(vec![Value::str("hi")]).unwrap())
            .unwrap();
        let seg = Segmentation::new(vec![q_simple, q_complex]);
        assert_eq!(simplicity(&seg), 2);
    }

    #[test]
    fn simplicity_of_wildcards_is_zero() {
        let seg = Segmentation::new(vec![Query::wildcard(&["x"])]);
        assert_eq!(simplicity(&seg), 0);
        assert_eq!(simplicity(&Segmentation::new(vec![])), 0);
    }

    #[test]
    fn breadth_counts_distinct_columns() {
        let q1 = x_range(0, 7);
        let q2 = Query::wildcard(&["x", "k"])
            .refined("k", Constraint::set(vec![Value::str("hi")]).unwrap())
            .unwrap();
        let seg = Segmentation::new(vec![q1, q2]);
        assert_eq!(breadth(&seg), 2);
    }

    #[test]
    fn score_against_data() {
        let t = table();
        let ex = Explorer::new(&t, Config::default(), Query::wildcard(&["x", "k"])).unwrap();
        let seg = Segmentation::new(vec![x_range(0, 7), x_range(8, 15)]);
        let s = score(&ex, &seg).unwrap();
        assert!((s.entropy - 2f64.ln()).abs() < 1e-12, "balanced halves");
        assert_eq!(s.simplicity, 1);
        assert_eq!(s.breadth, 1);
        assert_eq!(s.depth, 2);
        assert!((s.balance() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn score_of_unbalanced_split() {
        let t = table();
        let ex = Explorer::new(&t, Config::default(), Query::wildcard(&["x", "k"])).unwrap();
        let seg = Segmentation::new(vec![x_range(0, 11), x_range(12, 15)]);
        let s = score(&ex, &seg).unwrap();
        assert!(s.balance() < 1.0);
        assert!(s.entropy > 0.0);
    }
}
