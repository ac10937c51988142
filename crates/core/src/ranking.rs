//! Ranking segmentations.
//!
//! The paper returns HB-cuts results "by order of entropy" and describes
//! the three principles as "a 3-dimensional space to navigate or rank
//! segmentations". [`rank`] implements the paper's order: entropy
//! descending, with breadth and simplicity as deterministic tie-breaks,
//! and the rendered form as the last one.
//!
//! Seed cuts of one table often tie on entropy exactly, and a wide
//! context's segmentation renders to kilobytes, of which two tied ones
//! usually share only a short prefix. So the comparator renders nothing
//! whole: each segmentation the tie-break reaches gets a buffer that
//! [`RenderCursor`] grows one predicate at a time, only as far as a
//! comparison needs, and a comparison stops at the first byte that
//! differs. `rank` stably sorts indices; the order is the one a stable
//! sort of the elements gives under a comparator that ends in
//! `a.to_string().cmp(&b.to_string())`.

use crate::metrics::Score;
use charles_sdl::display::RenderCursor;
use charles_sdl::Segmentation;
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
/// The sort is stable, and a segmentation is rendered only as far as
/// its first byte that differs from a segmentation it ties with.
pub fn rank(scored: Vec<(Segmentation, Score)>) -> Vec<Ranked> {
    let mut renders: Vec<Render<'_>> = scored.iter().map(|(s, _)| Render::new(s)).collect();
    let mut order: Vec<usize> = (0..scored.len()).collect();
    order.sort_by(|&a, &b| {
        let (sa, sb) = (&scored[a].1, &scored[b].1);
        entropy_descending(sa.entropy, sb.entropy)
            .then(sb.breadth.cmp(&sa.breadth))
            .then(sa.simplicity.cmp(&sb.simplicity))
            .then_with(|| match renders.get_disjoint_mut([a, b]) {
                Ok([ra, rb]) => ra.cmp(rb),
                Err(_) => Ordering::Equal,
            })
    });
    drop(renders);
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

/// The prefix of a segmentation's render that comparisons have needed
/// so far, and the cursor that writes the rest.
struct Render<'a> {
    cursor: RenderCursor<'a>,
    text: String,
}

impl<'a> Render<'a> {
    fn new(segmentation: &'a Segmentation) -> Render<'a> {
        Render {
            cursor: RenderCursor::new(segmentation),
            text: String::new(),
        }
    }

    /// Render chunks until the prefix is longer than `len` bytes, or
    /// the whole render is.
    fn extend_past(&mut self, len: usize) {
        while self.text.len() <= len
            && self
                .cursor
                .write_next(&mut self.text)
                .expect("writing to a String cannot fail")
        {}
    }

    /// `self.to_string().cmp(&other.to_string())`, rendering both only
    /// up to their first byte that differs.
    fn cmp(&mut self, other: &mut Render<'_>) -> Ordering {
        let mut at = 0;
        loop {
            self.extend_past(at);
            other.extend_past(at);
            let (a, b) = (&self.text.as_bytes()[at..], &other.text.as_bytes()[at..]);
            let n = a.len().min(b.len());
            if n == 0 {
                // One render ends at `at`: it is a prefix of the other.
                return a.len().cmp(&b.len());
            }
            match a[..n].cmp(&b[..n]) {
                Ordering::Equal => at += n,
                unequal => return unequal,
            }
        }
    }
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

    /// The reference order: a stable sort of the elements that renders
    /// both segmentations whole on every comparison that reaches the
    /// tie-break.
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

    /// A query over the first 12–14 of `c0`…`c13` (`c1` is a prefix of
    /// `c10`…`c13`), with one or two of them constrained: an `Int`
    /// range, a `Float` range over the same numbers, or a set of strings
    /// some of which render quoted. One query in eight has no predicate
    /// at all.
    fn wide_query(rng: &mut StdRng) -> Query {
        if rng.gen_range(0..8) == 0 {
            return Query::conjunction(vec![]);
        }
        let width: usize = rng.gen_range(12..=14);
        let names: Vec<String> = (0..width).map(|i| format!("c{i}")).collect();
        let mut query = Query::wildcard(&names.iter().map(String::as_str).collect::<Vec<_>>());
        for _ in 0..rng.gen_range(1..=2) {
            let lo = rng.gen_range(0..2i64);
            let constraint = match rng.gen_range(0..3) {
                0 => Constraint::range(Value::Int(lo), Value::Int(lo + 1)),
                1 => Constraint::range(Value::Float(lo as f64), Value::Float(lo as f64 + 1.0)),
                _ => {
                    let pool = ["de lange", "jacht", "'t hoen", "de_lange"];
                    let values = (0..rng.gen_range(1..=2))
                        .map(|_| Value::str(pool[rng.gen_range(0..pool.len())]))
                        .collect();
                    Constraint::set(values)
                }
            };
            // A second constraint on one attribute intersects the first,
            // and an empty intersection leaves the query as it was.
            let attr = &names[rng.gen_range(0..width)];
            query = query.refined(attr, constraint.unwrap()).unwrap_or(query);
        }
        query
    }

    #[test]
    fn rank_compares_renders_piecewise_to_the_same_order() {
        // Heavy ties: three entropies, breadth and simplicity 1–3. Each
        // segmentation's first query is one of three, so the tie-break
        // often reads past it; one in four is the first queries of an
        // earlier one, so its render is a proper prefix of that one's;
        // and a few are copies, which only stability orders. `depth` is
        // each entry's input position.
        let mut rng = StdRng::seed_from_u64(29);
        let firsts: Vec<Query> = (0..3).map(|_| wide_query(&mut rng)).collect();
        let (mut past_first, mut prefixes) = (0, 0);
        for _ in 0..300 {
            let mut segmentations: Vec<Segmentation> = Vec::new();
            for _ in 0..rng.gen_range(0..40) {
                let earlier = segmentations.len();
                let seg = match rng.gen_range(0..8) {
                    0..=1 if earlier > 0 => {
                        let of = &segmentations[rng.gen_range(0..earlier)];
                        let keep: usize = rng.gen_range(1..=of.depth());
                        Segmentation::new(of.queries()[..keep].to_vec())
                    }
                    2 if earlier > 0 => segmentations[rng.gen_range(0..earlier)].clone(),
                    _ => {
                        let mut queries = vec![firsts[rng.gen_range(0..3usize)].clone()];
                        for _ in 0..rng.gen_range(0..4) {
                            queries.push(wide_query(&mut rng));
                        }
                        Segmentation::new(queries)
                    }
                };
                segmentations.push(seg);
            }
            let scored: Vec<(Segmentation, Score)> = segmentations
                .into_iter()
                .enumerate()
                .map(|(i, seg)| {
                    let entropy = [0.5, 1.0, 1.5][rng.gen_range(0..3usize)];
                    (
                        seg,
                        score(entropy, rng.gen_range(1..=3), rng.gen_range(1..=3), i),
                    )
                })
                .collect();
            let positions = |ranked: Vec<Ranked>| -> Vec<usize> {
                ranked.iter().map(|r| r.score.depth).collect()
            };
            let reference = rank_rendering_every_comparison(scored.clone());
            for w in reference.windows(2) {
                let key = |r: &Ranked| (r.score.entropy, r.score.breadth, r.score.simplicity);
                let (a, b) = (&w[0].segmentation, &w[1].segmentation);
                if key(&w[0]) != key(&w[1]) || a == b {
                    continue;
                }
                past_first += usize::from(a.queries().first() == b.queries().first());
                prefixes += usize::from(b.to_string().starts_with(&a.to_string()));
            }
            assert_eq!(positions(rank(scored)), positions(reference));
        }
        assert!(
            past_first > 100,
            "ties must reach past the first query: {past_first}"
        );
        assert!(
            prefixes > 100,
            "ties must compare a render with its own proper prefix: {prefixes}"
        );
    }
}
