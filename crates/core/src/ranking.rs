//! Ranking segmentations.
//!
//! The paper returns HB-cuts results "by order of entropy" and describes
//! the three principles as "a 3-dimensional space to navigate or rank
//! segmentations". [`rank`] implements the paper's order: entropy
//! descending, with breadth and simplicity as deterministic tie-breaks,
//! and the rendered form as the last one.
//!
//! Rendering a segmentation of dozens of queries costs microseconds, and
//! seed cuts of one table often tie on entropy exactly, so the
//! comparator does not render per comparison: `rank` stably sorts
//! indices and renders each segmentation at most once, the first time a
//! comparison reaches its rendered form — only tied segmentations are
//! ever rendered. The order is the one a sort of the elements under the
//! same comparator gives.

use crate::metrics::Score;
use charles_sdl::Segmentation;
use std::cell::OnceCell;
use std::cmp::Ordering;

/// A segmentation with its score card, as presented to the user.
#[derive(Debug, Clone)]
pub struct Ranked {
    /// The proposed segmentation.
    pub segmentation: Segmentation,
    /// Its metrics.
    pub score: Score,
}

/// Paper-default ranking: entropy descending (a NaN after every number);
/// ties broken by breadth (descending), then simplicity (ascending), then
/// the rendered form so the order is total and reproducible.
///
/// The sort is stable, and a segmentation is rendered at most once.
pub fn rank(scored: Vec<(Segmentation, Score)>) -> Vec<Ranked> {
    let rendered: Vec<OnceCell<String>> = scored.iter().map(|_| OnceCell::new()).collect();
    let render = |i: usize| rendered[i].get_or_init(|| scored[i].0.to_string());
    let mut order: Vec<usize> = (0..scored.len()).collect();
    order.sort_by(|&a, &b| {
        let (sa, sb) = (&scored[a].1, &scored[b].1);
        entropy_descending(sa.entropy, sb.entropy)
            .then(sb.breadth.cmp(&sa.breadth))
            .then(sa.simplicity.cmp(&sb.simplicity))
            .then_with(|| render(a).cmp(render(b)))
    });
    let mut slots: Vec<Option<(Segmentation, Score)>> = scored.into_iter().map(Some).collect();
    order
        .into_iter()
        .map(|i| {
            let (segmentation, score) = slots[i].take().expect("each index sorts once");
            Ranked {
                segmentation,
                score,
            }
        })
        .collect()
}

/// Entropy, highest first. Numbers compare as numbers (−0.0 and 0.0
/// tie), and a NaN sorts after every number, so the order stays total.
fn entropy_descending(a: f64, b: f64) -> Ordering {
    b.partial_cmp(&a)
        .unwrap_or_else(|| a.is_nan().cmp(&b.is_nan()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use charles_sdl::{Constraint, Query};
    use charles_store::Value;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

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

    #[test]
    fn nan_entropies_rank_after_every_number() {
        // Nine NaNs among 64 scores: a comparator that calls a NaN equal
        // to everything is no total order, and the standard sort may
        // panic on it or leave a NaN between numbers.
        let mut rng = StdRng::seed_from_u64(64);
        let scored: Vec<_> = (0..64)
            .map(|i| {
                let entropy = if i % 7 == 3 {
                    f64::NAN
                } else {
                    rng.gen_range(0..8) as f64 / 4.0
                };
                (seg(&["a"]), score(entropy, 1, 1, i))
            })
            .collect();
        let ranked = rank(scored);
        let (numbers, nans) = ranked.split_at(64 - 9);
        assert!(nans.iter().all(|r| r.score.entropy.is_nan()));
        for w in numbers.windows(2) {
            let (a, b) = (&w[0].score, &w[1].score);
            assert!(a.entropy > b.entropy || (a.entropy == b.entropy && a.depth < b.depth));
        }
        // Everything else ties, so the NaNs keep their input order.
        let order: Vec<usize> = nans.iter().map(|r| r.score.depth).collect();
        assert_eq!(order, [3, 10, 17, 24, 31, 38, 45, 52, 59]);
    }

    #[test]
    fn signed_zero_entropies_tie() {
        // −0.0 and 0.0 are one number: the rendered form decides.
        let ranked = rank(vec![
            (seg(&["b"]), score(0.0, 1, 1, 0)),
            (seg(&["a"]), score(-0.0, 1, 1, 1)),
        ]);
        assert_eq!(ranked[0].score.depth, 1);
    }

    /// `rank` as it was before it rendered each segmentation once: both
    /// rendered on every comparison that reaches the tie-break.
    fn rank_rendering_every_comparison(scored: Vec<(Segmentation, Score)>) -> Vec<Ranked> {
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

    #[test]
    fn rank_renders_once_to_the_same_order() {
        // Heavy ties: three entropies, breadth and simplicity 1–3, and
        // segmentations of one to three queries whose first query is one
        // of three, so the tie-break often reads past it — and identical
        // segmentations, which only stability orders. `depth` is each
        // entry's input position.
        let query = |lo: i64| {
            Query::wildcard(&["a", "b"])
                .refined(
                    "a",
                    Constraint::range(Value::Int(lo), Value::Int(lo + 1)).unwrap(),
                )
                .unwrap()
        };
        let mut rng = StdRng::seed_from_u64(29);
        let mut past_first = 0;
        for _ in 0..300 {
            let scored: Vec<(Segmentation, Score)> = (0..rng.gen_range(0..40))
                .map(|i| {
                    let mut queries = vec![query(rng.gen_range(0..3))];
                    for _ in 0..rng.gen_range(0..3) {
                        queries.push(query(rng.gen_range(0..6)));
                    }
                    let entropy = [0.5, 1.0, 1.5][rng.gen_range(0..3usize)];
                    let card = score(entropy, rng.gen_range(1..=3), rng.gen_range(1..=3), i);
                    (Segmentation::new(queries), card)
                })
                .collect();
            let positions = |ranked: Vec<Ranked>| -> Vec<usize> {
                ranked.iter().map(|r| r.score.depth).collect()
            };
            let reference = rank_rendering_every_comparison(scored.clone());
            past_first += reference
                .windows(2)
                .filter(|w| {
                    let key = |r: &Ranked| (r.score.entropy, r.score.breadth, r.score.simplicity);
                    let (a, b) = (&w[0].segmentation, &w[1].segmentation);
                    key(&w[0]) == key(&w[1]) && a.queries()[0] == b.queries()[0] && a != b
                })
                .count();
            assert_eq!(positions(rank(scored)), positions(reference));
        }
        assert!(
            past_first > 100,
            "ties must reach past the first query: {past_first}"
        );
    }
}
