//! Ranking segmentations.
//!
//! The paper returns HB-cuts results "by order of entropy" and describes
//! the three principles as "a 3-dimensional space to navigate or rank
//! segmentations". [`rank`] implements the paper's order: entropy
//! descending, with breadth and simplicity as deterministic tie-breaks.

use crate::metrics::Score;
use charles_sdl::Segmentation;

/// A segmentation with its score card, as presented to the user.
#[derive(Debug, Clone)]
pub struct Ranked {
    /// The proposed segmentation.
    pub segmentation: Segmentation,
    /// Its metrics.
    pub score: Score,
}

/// Paper-default ranking: entropy descending; ties broken by breadth
/// (descending), then simplicity (ascending), then the rendered form so
/// the order is total and reproducible.
pub fn rank(scored: Vec<(Segmentation, Score)>) -> Vec<Ranked> {
    let mut out: Vec<Ranked> = scored
        .into_iter()
        .map(|(segmentation, score)| Ranked {
            segmentation,
            score,
        })
        .collect();
    out.sort_by(|a, b| {
        b.score
            .entropy
            .partial_cmp(&a.score.entropy)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(b.score.breadth.cmp(&a.score.breadth))
            .then(a.score.simplicity.cmp(&b.score.simplicity))
            .then_with(|| a.segmentation.to_string().cmp(&b.segmentation.to_string()))
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use charles_sdl::Query;

    fn seg(attrs: &[&str]) -> Segmentation {
        Segmentation::new(vec![Query::wildcard(attrs)])
    }

    fn score(entropy: f64, simplicity: usize, breadth: usize, depth: usize) -> Score {
        Score {
            entropy,
            simplicity,
            breadth,
            depth,
        }
    }

    #[test]
    fn rank_orders_by_entropy() {
        let ranked = rank(vec![
            (seg(&["a"]), score(0.5, 1, 1, 2)),
            (seg(&["b"]), score(1.5, 1, 1, 4)),
            (seg(&["c"]), score(1.0, 1, 1, 3)),
        ]);
        let names: Vec<usize> = ranked.iter().map(|r| r.score.depth).collect();
        assert_eq!(names, vec![4, 3, 2]);
    }

    #[test]
    fn rank_breaks_entropy_ties_by_breadth_then_simplicity() {
        let ranked = rank(vec![
            (seg(&["a"]), score(1.0, 3, 1, 2)),
            (seg(&["b"]), score(1.0, 1, 2, 2)),
            (seg(&["c"]), score(1.0, 1, 1, 2)),
        ]);
        assert_eq!(ranked[0].score.breadth, 2);
        assert_eq!(ranked[1].score.simplicity, 1);
        assert_eq!(ranked[2].score.simplicity, 3);
    }

    #[test]
    fn empty_input_is_fine() {
        assert!(rank(vec![]).is_empty());
    }
}
