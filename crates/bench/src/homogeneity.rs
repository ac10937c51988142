//! Homogeneity diagnostics — the measure the paper deliberately skipped.
//!
//! §3: "Among those, all items described by a query should be 'similar'
//! … Assigning a quantitative measure to this property is still an open
//! research challenge … we purposely neglect to quantify homogeneity.
//! However, the segmentations should still be meaningful."
//!
//! The paper's bet is that cutting along *dependent* attributes yields
//! "good enough" groups without ever computing a clustering objective.
//! This module implements the classical measures the paper cites as
//! alternatives — intra- vs total variance for numerics (the
//! clustering-literature dispersion criterion) and Gini impurity
//! reduction for nominals (the information-theoretic criterion) — so the
//! bet can be *checked*: experiment E12 scores HB-cuts' homogeneity
//! against the random baseline on the same data.
//!
//! All scores are *gains* in `[0, 1]`: 0 = segments look like the
//! context, 1 = segments are internally constant.

use charles_core::engine::Explorer;
use charles_core::error::CoreResult;
use charles_sdl::Segmentation;
use charles_store::Bitmap;

/// Homogeneity report for one segmentation.
#[derive(Debug, Clone, PartialEq)]
pub struct Homogeneity {
    /// Per-attribute gains `(attribute, gain)` over the context attributes
    /// that could be scored.
    pub per_attribute: Vec<(String, f64)>,
    /// Mean of the per-attribute gains (0 when nothing could be scored).
    pub mean_gain: f64,
}

/// Score a segmentation's homogeneity over every context attribute.
///
/// * numeric attribute — **variance reduction**
///   `1 − Σ_j (n_j/n)·var_j / var_total` (the ANOVA within/total ratio);
/// * nominal attribute — **Gini impurity reduction**
///   `1 − Σ_j (n_j/n)·gini_j / gini_total`.
///
/// Attributes that are constant in the context (zero variance/impurity)
/// are skipped: there is nothing to explain.
pub fn homogeneity(ex: &Explorer<'_>, seg: &Segmentation) -> CoreResult<Homogeneity> {
    let n = ex.context_size() as f64;
    let context_sel = ex.context_selection().clone();
    let piece_sels: Vec<_> = seg
        .queries()
        .iter()
        .map(|q| ex.selection(q))
        .collect::<CoreResult<_>>()?;

    let mut per_attribute = Vec::new();
    for attr in ex.attributes() {
        let ty = ex.type_of(attr)?;
        let gain = if ty.is_numeric() {
            numeric_gain(ex, attr, &context_sel, &piece_sels, n)?
        } else {
            nominal_gain(ex, attr, &context_sel, &piece_sels, n)?
        };
        if let Some(g) = gain {
            per_attribute.push((attr.to_string(), g));
        }
    }
    let mean_gain = if per_attribute.is_empty() {
        0.0
    } else {
        per_attribute.iter().map(|(_, g)| g).sum::<f64>() / per_attribute.len() as f64
    };
    Ok(Homogeneity {
        per_attribute,
        mean_gain,
    })
}

fn numeric_gain(
    ex: &Explorer<'_>,
    attr: &str,
    context: &Bitmap,
    pieces: &[std::sync::Arc<Bitmap>],
    n: f64,
) -> CoreResult<Option<f64>> {
    let Some((_, total_var)) = ex.mean_and_var(attr, context)? else {
        return Ok(None);
    };
    if total_var <= 0.0 {
        return Ok(None); // constant in the context: nothing to explain
    }
    let mut within = 0.0;
    for sel in pieces {
        let nj = sel.count_ones() as f64;
        if nj == 0.0 {
            continue;
        }
        if let Some((_, var)) = ex.mean_and_var(attr, sel)? {
            within += nj / n * var;
        }
    }
    Ok(Some((1.0 - within / total_var).clamp(0.0, 1.0)))
}

fn nominal_gain(
    ex: &Explorer<'_>,
    attr: &str,
    context: &Bitmap,
    pieces: &[std::sync::Arc<Bitmap>],
    n: f64,
) -> CoreResult<Option<f64>> {
    let gini = |sel: &Bitmap| -> CoreResult<Option<f64>> {
        let (ft, _) = ex.frequencies(attr, sel)?;
        let total = ft.total() as f64;
        if total == 0.0 {
            return Ok(None);
        }
        let sum_sq: f64 = ft
            .entries()
            .iter()
            .map(|&(_, c)| {
                let p = c as f64 / total;
                p * p
            })
            .sum();
        Ok(Some(1.0 - sum_sq))
    };
    let Some(total_gini) = gini(context)? else {
        return Ok(None);
    };
    if total_gini <= 0.0 {
        return Ok(None);
    }
    let mut within = 0.0;
    for sel in pieces {
        let nj = sel.count_ones() as f64;
        if nj == 0.0 {
            continue;
        }
        if let Some(g) = gini(sel)? {
            within += nj / n * g;
        }
    }
    Ok(Some((1.0 - within / total_gini).clamp(0.0, 1.0)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use charles_core::config::Config;
    use charles_core::primitives::cut_segmentation;
    use charles_sdl::{Constraint, Query};
    use charles_store::{DataType, TableBuilder, Value};

    /// Two clean clusters: kind "a" has x around 0, kind "b" around 100.
    fn clustered() -> charles_store::Table {
        let mut b = TableBuilder::new("t");
        b.add_column("x", DataType::Int)
            .add_column("kind", DataType::Str);
        for i in 0..50i64 {
            b.push_row(vec![Value::Int(i % 10), Value::str("a")])
                .unwrap();
            b.push_row(vec![Value::Int(100 + i % 10), Value::str("b")])
                .unwrap();
        }
        b.finish()
    }

    #[test]
    fn perfect_split_scores_high_on_both_families() {
        let t = clustered();
        let ex = Explorer::new(&t, Config::default(), Query::wildcard(&["x", "kind"])).unwrap();
        // Cut on kind — aligns with the true clusters.
        let seg = cut_segmentation(&ex, &Segmentation::singleton(ex.context().clone()), "kind")
            .unwrap()
            .unwrap();
        let h = homogeneity(&ex, &seg).unwrap();
        assert_eq!(h.per_attribute.len(), 2);
        for (attr, gain) in &h.per_attribute {
            assert!(
                *gain > 0.95,
                "{attr} gain {gain} should be near 1 for the aligned split"
            );
        }
        assert!(h.mean_gain > 0.95);
    }

    #[test]
    fn orthogonal_split_scores_low() {
        // A split on parity of x within each cluster explains neither the
        // x variance nor the kind distribution.
        let t = clustered();
        let ex = Explorer::new(&t, Config::default(), Query::wildcard(&["x", "kind"])).unwrap();
        let even = Query::wildcard(&["x", "kind"])
            .refined(
                "x",
                Constraint::set((0..=108).step_by(2).map(Value::Int).collect()).unwrap(),
            )
            .unwrap();
        let odd = Query::wildcard(&["x", "kind"])
            .refined(
                "x",
                Constraint::set((1..=109).step_by(2).map(Value::Int).collect()).unwrap(),
            )
            .unwrap();
        let seg = Segmentation::new(vec![even, odd]);
        let h = homogeneity(&ex, &seg).unwrap();
        // kind gain must be ~0 (parity says nothing about kind); x gain is
        // small (parity removes almost no variance).
        let kind_gain = h
            .per_attribute
            .iter()
            .find(|(a, _)| a == "kind")
            .map(|(_, g)| *g)
            .unwrap();
        assert!(kind_gain < 0.05, "kind gain {kind_gain}");
        assert!(h.mean_gain < 0.2, "mean {}", h.mean_gain);
    }

    #[test]
    fn trivial_segmentation_gains_nothing() {
        let t = clustered();
        let ex = Explorer::new(&t, Config::default(), Query::wildcard(&["x", "kind"])).unwrap();
        let seg = Segmentation::singleton(ex.context().clone());
        let h = homogeneity(&ex, &seg).unwrap();
        assert!(h.mean_gain < 1e-9);
    }

    #[test]
    fn constant_attributes_are_skipped() {
        let mut b = TableBuilder::new("t");
        b.add_column("c", DataType::Int)
            .add_column("x", DataType::Int);
        for i in 0..20 {
            b.push_row(vec![Value::Int(7), Value::Int(i)]).unwrap();
        }
        let t = b.finish();
        let ex = Explorer::new(&t, Config::default(), Query::wildcard(&["c", "x"])).unwrap();
        let seg = cut_segmentation(&ex, &Segmentation::singleton(ex.context().clone()), "x")
            .unwrap()
            .unwrap();
        let h = homogeneity(&ex, &seg).unwrap();
        // Only x is scored; c is constant.
        assert_eq!(h.per_attribute.len(), 1);
        assert_eq!(h.per_attribute[0].0, "x");
    }

    /// Two overlapping clusters: kind "a" has x in 0..10, kind "b" in
    /// 6..16. Only the kind cut separates them perfectly, so a random
    /// numeric split cannot tie the optimum by luck.
    fn overlapping_clusters() -> charles_store::Table {
        let mut b = TableBuilder::new("t");
        b.add_column("x", DataType::Int)
            .add_column("kind", DataType::Str);
        for i in 0..50i64 {
            b.push_row(vec![Value::Int(i % 10), Value::str("a")])
                .unwrap();
            b.push_row(vec![Value::Int(6 + i % 10), Value::str("b")])
                .unwrap();
        }
        b.finish()
    }

    #[test]
    fn hbcuts_bet_beats_random_on_dependent_data() {
        // E12 in miniature: HB-cuts' structural homogeneity should beat a
        // random segmentation of the same depth on clustered data.
        let t = overlapping_clusters();
        let ex = Explorer::new(&t, Config::default(), Query::wildcard(&["x", "kind"])).unwrap();
        let out = charles_core::hbcuts::hb_cuts(&ex).unwrap();
        let hb = homogeneity(&ex, &out.ranked[0].segmentation).unwrap();
        let rand = crate::baselines::random_segmentations(
            &ex,
            crate::baselines::RandomOptions {
                count: 6,
                target_depth: out.ranked[0].segmentation.depth(),
                seed: 5,
            },
        )
        .unwrap();
        let rand_mean: f64 = rand
            .iter()
            .map(|r| homogeneity(&ex, &r.segmentation).unwrap().mean_gain)
            .sum::<f64>()
            / rand.len() as f64;
        assert!(
            hb.mean_gain > rand_mean,
            "hb {} vs random mean {rand_mean}",
            hb.mean_gain
        );
    }
}
