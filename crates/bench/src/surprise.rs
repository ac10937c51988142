//! Surprise scoring — the "interestingness" hook the paper left open.
//!
//! §5.2: "The overall evaluation and ranking process can be greatly
//! improved with other types of knowledge. We do not use any notion of
//! 'interestingness' or 'surprise'." §6.3 points at Sarawagi et al.'s
//! discovery-driven exploration as the reference for deviation-based
//! interest.
//!
//! This module implements that notion in Charles' terms: a segment is
//! *surprising* when the attributes **not** used by its defining query
//! are distributed very differently inside the segment than in the whole
//! context — i.e. the query taught us something it did not literally say.
//! Deviation is measured per attribute:
//!
//! * numeric — standardised mean shift `|mean_seg − mean_ctx| / σ_ctx`;
//! * nominal — total variation distance between the value distributions.
//!
//! A segment's surprise is the maximum deviation over its unused
//! attributes; a segmentation's surprise is the cover-weighted mean of
//! its segments'. [`rank_by_surprise`] re-orders advisor output by it —
//! an alternative lens to the paper's entropy ranking.

use charles_core::engine::Explorer;
use charles_core::error::CoreResult;
use charles_core::ranking::Ranked;
use charles_sdl::{Query, Segmentation};
use charles_store::Bitmap;

/// Surprise report for one segmentation.
#[derive(Debug, Clone, PartialEq)]
pub struct Surprise {
    /// Per-segment scores `(query rendering, surprise)`.
    pub per_segment: Vec<(String, f64)>,
    /// Cover-weighted mean of the segment scores.
    pub weighted: f64,
}

/// Compute the surprise of every segment of a segmentation.
pub fn surprise(ex: &Explorer<'_>, seg: &Segmentation) -> CoreResult<Surprise> {
    let n = ex.context_size() as f64;
    let context_sel = ex.context_selection().clone();
    let mut per_segment = Vec::with_capacity(seg.depth());
    let mut weighted = 0.0;
    for q in seg.queries() {
        let sel = ex.selection(q)?;
        let nj = sel.count_ones() as f64;
        if nj == 0.0 {
            per_segment.push((q.to_string(), 0.0));
            continue;
        }
        let s = segment_surprise(ex, q, &sel, &context_sel)?;
        weighted += nj / n * s;
        per_segment.push((q.to_string(), s));
    }
    Ok(Surprise {
        per_segment,
        weighted,
    })
}

/// Maximum deviation of the segment from the context over the attributes
/// the query does **not** constrain.
fn segment_surprise(
    ex: &Explorer<'_>,
    q: &Query,
    sel: &Bitmap,
    context: &Bitmap,
) -> CoreResult<f64> {
    let constrained = q.constrained_attributes();
    let mut max_dev = 0.0f64;
    for attr in ex.attributes() {
        if constrained.contains(&attr) {
            continue; // the query already says so — not a surprise
        }
        let ty = ex.type_of(attr)?;
        let dev = if ty.is_numeric() {
            match (ex.mean_and_var(attr, sel)?, ex.mean_and_var(attr, context)?) {
                (Some((m_seg, _)), Some((m_ctx, var_ctx))) if var_ctx > 0.0 => {
                    (m_seg - m_ctx).abs() / var_ctx.sqrt()
                }
                _ => 0.0,
            }
        } else {
            let (ft_seg, dict) = ex.frequencies(attr, sel)?;
            let (ft_ctx, _) = ex.frequencies(attr, context)?;
            total_variation(&ft_seg, &ft_ctx, dict.len())
        };
        max_dev = max_dev.max(dev);
    }
    Ok(max_dev)
}

/// Total variation distance between two frequency tables over the same
/// dictionary: `½ Σ_v |p(v) − q(v)|` ∈ [0, 1].
fn total_variation(
    a: &charles_store::FrequencyTable,
    b: &charles_store::FrequencyTable,
    dict_len: usize,
) -> f64 {
    let (ta, tb) = (a.total() as f64, b.total() as f64);
    if ta == 0.0 || tb == 0.0 {
        return 0.0;
    }
    let mut pa = vec![0.0f64; dict_len];
    for &(code, c) in a.entries() {
        pa[code as usize] = c as f64 / ta;
    }
    let mut pb = vec![0.0f64; dict_len];
    for &(code, c) in b.entries() {
        if (code as usize) < dict_len {
            pb[code as usize] = c as f64 / tb;
        }
    }
    0.5 * pa.iter().zip(&pb).map(|(x, y)| (x - y).abs()).sum::<f64>()
}

/// Re-rank advisor output by surprise (descending), tie-broken by the
/// original entropy order.
pub fn rank_by_surprise(ex: &Explorer<'_>, ranked: Vec<Ranked>) -> CoreResult<Vec<(f64, Ranked)>> {
    let mut scored: Vec<(f64, Ranked)> = Vec::with_capacity(ranked.len());
    for r in ranked {
        let s = surprise(ex, &r.segmentation)?;
        scored.push((s.weighted, r));
    }
    scored.sort_by(|a, b| {
        b.0.partial_cmp(&a.0)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(
                b.1.score
                    .entropy
                    .partial_cmp(&a.1.score.entropy)
                    .unwrap_or(std::cmp::Ordering::Equal),
            )
    });
    Ok(scored)
}

#[cfg(test)]
mod tests {
    use super::*;
    use charles_core::config::Config;
    use charles_core::primitives::cut_segmentation;
    use charles_store::{DataType, TableBuilder, Value};

    /// kind "a" rows have large y; kind "b" rows small y; z is pure noise.
    fn table() -> charles_store::Table {
        let mut b = TableBuilder::new("t");
        b.add_column("kind", DataType::Str)
            .add_column("y", DataType::Int)
            .add_column("z", DataType::Int);
        for i in 0..60i64 {
            let (kind, y) = if i % 2 == 0 {
                ("a", 100 + i % 7)
            } else {
                ("b", i % 7)
            };
            b.push_row(vec![Value::str(kind), Value::Int(y), Value::Int(i % 5)])
                .unwrap();
        }
        b.finish()
    }

    fn explorer(t: &charles_store::Table) -> Explorer<'_> {
        Explorer::new(
            t,
            Config::default(),
            charles_sdl::Query::wildcard(&["kind", "y", "z"]),
        )
        .unwrap()
    }

    #[test]
    fn informative_split_is_surprising() {
        // Splitting on kind shifts the (unconstrained) y mean by ~±1σ.
        let t = table();
        let ex = explorer(&t);
        let seg = cut_segmentation(&ex, &Segmentation::singleton(ex.context().clone()), "kind")
            .unwrap()
            .unwrap();
        let s = surprise(&ex, &seg).unwrap();
        assert!(s.weighted > 0.8, "weighted surprise {}", s.weighted);
        for (_, v) in &s.per_segment {
            assert!(*v > 0.8);
        }
    }

    #[test]
    fn noise_split_is_not_surprising() {
        let t = table();
        let ex = explorer(&t);
        let seg = cut_segmentation(&ex, &Segmentation::singleton(ex.context().clone()), "z")
            .unwrap()
            .unwrap();
        let s = surprise(&ex, &seg).unwrap();
        // z says nothing about kind or y.
        assert!(s.weighted < 0.3, "weighted surprise {}", s.weighted);
    }

    #[test]
    fn constrained_attributes_do_not_count() {
        // A segment defined on *all* attributes can never be surprising.
        let t = table();
        let ex = explorer(&t);
        let mut seg = Segmentation::singleton(ex.context().clone());
        for attr in ["kind", "y", "z"] {
            if let Some(next) = cut_segmentation(&ex, &seg, attr).unwrap() {
                seg = next;
            }
        }
        let s = surprise(&ex, &seg).unwrap();
        assert_eq!(s.weighted, 0.0);
    }

    #[test]
    fn rank_by_surprise_prefers_informative_splits() {
        let t = table();
        let ex = explorer(&t);
        let base = Segmentation::singleton(ex.context().clone());
        let by_kind = cut_segmentation(&ex, &base, "kind").unwrap().unwrap();
        let by_z = cut_segmentation(&ex, &base, "z").unwrap().unwrap();
        let ranked = vec![
            Ranked {
                score: charles_core::metrics::score(&ex, &by_z).unwrap(),
                segmentation: by_z,
            },
            Ranked {
                score: charles_core::metrics::score(&ex, &by_kind).unwrap(),
                segmentation: by_kind,
            },
        ];
        let reordered = rank_by_surprise(&ex, ranked).unwrap();
        assert_eq!(
            reordered[0].1.segmentation.attributes(),
            vec!["kind"],
            "the kind split should out-surprise the noise split"
        );
        assert!(reordered[0].0 > reordered[1].0);
    }

    #[test]
    fn total_variation_bounds() {
        use charles_store::FrequencyTable;
        let a = FrequencyTable::from_counts(vec![10, 0]);
        let b = FrequencyTable::from_counts(vec![0, 10]);
        assert_eq!(total_variation(&a, &b, 2), 1.0);
        assert_eq!(total_variation(&a, &a, 2), 0.0);
        let c = FrequencyTable::from_counts(vec![5, 5]);
        assert!((total_variation(&a, &c, 2) - 0.5).abs() < 1e-12);
    }
}
