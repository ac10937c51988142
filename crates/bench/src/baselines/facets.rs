//! Faceted-search baseline: single-attribute value partitions.
//!
//! Classic faceted engines (Flamenco & descendants, §6.2) present one
//! facet per attribute; each facet enumerates values (nominal) or fixed
//! value ranges (numeric). This is precisely the segmentation family with
//! breadth 1 — the foil for Charles' breadth principle.

use charles_core::engine::Explorer;
use charles_core::error::CoreResult;
use charles_core::metrics::score;
use charles_core::ranking::{rank, Ranked};
use charles_sdl::{Constraint, Segmentation};
use charles_store::Value;

/// Build one facet (segmentation) per context attribute.
///
/// Nominal attributes produce one segment per distinct value, most
/// frequent first, capped at `max_depth − 1` values plus a catch-all
/// bucket for the tail. Numeric attributes produce `bins` equal-width
/// ranges (the classic price-slider facet).
pub fn facet_segmentations(ex: &Explorer<'_>, bins: usize) -> CoreResult<Vec<Ranked>> {
    let bins = bins.max(2);
    let mut out = Vec::new();
    for attr in ex.attributes() {
        let seg = match facet_for(ex, attr, bins)? {
            Some(s) => s,
            None => continue,
        };
        let sc = score(ex, &seg)?;
        out.push((seg, sc));
    }
    Ok(rank(out))
}

fn facet_for(ex: &Explorer<'_>, attr: &str, bins: usize) -> CoreResult<Option<Segmentation>> {
    let ty = ex.type_of(attr)?;
    let ctx = ex.context().clone();
    let sel = ex.selection(&ctx)?;
    if ty.is_numeric() {
        let Some((min, max)) = ex.min_max(attr, &sel)? else {
            return Ok(None);
        };
        let (lo, hi) = (
            min.as_f64().expect("numeric"),
            max.as_f64().expect("numeric"),
        );
        if lo == hi {
            return Ok(None);
        }
        // Equal-width bins over [lo, hi]; the classic facet slider does
        // not adapt to density (that is Charles' job).
        let width = (hi - lo) / bins as f64;
        let mut pieces = Vec::with_capacity(bins);
        for i in 0..bins {
            let a = lo + width * i as f64;
            let b = if i == bins - 1 {
                hi
            } else {
                lo + width * (i + 1) as f64
            };
            let c = match Constraint::range_with(Value::Float(a), Value::Float(b), i == bins - 1) {
                Ok(c) => c,
                Err(_) => continue,
            };
            if let Some(p) = ctx.refined(attr, c) {
                pieces.push(p);
            }
        }
        if pieces.len() < 2 {
            return Ok(None);
        }
        Ok(Some(Segmentation::new(pieces)))
    } else {
        let (ft, dict) = ex.frequencies(attr, &sel)?;
        if ft.cardinality() < 2 {
            return Ok(None);
        }
        let ordered = ft.by_frequency();
        let head_len = ordered
            .len()
            .min(ex.config().max_depth.saturating_sub(1).max(1));
        let decode = |code: u32| -> Value {
            let s = &dict[code as usize];
            match ty {
                charles_store::DataType::Bool => Value::Bool(s == "true"),
                _ => Value::str(s.clone()),
            }
        };
        let mut pieces = Vec::new();
        for &(code, _) in &ordered[..head_len] {
            let c = Constraint::set(vec![decode(code)]).expect("non-empty");
            if let Some(p) = ctx.refined(attr, c) {
                pieces.push(p);
            }
        }
        // Tail bucket keeps the partition property.
        if head_len < ordered.len() {
            let tail: Vec<Value> = ordered[head_len..]
                .iter()
                .map(|&(c, _)| decode(c))
                .collect();
            let c = Constraint::set(tail).expect("non-empty");
            if let Some(p) = ctx.refined(attr, c) {
                pieces.push(p);
            }
        }
        if pieces.len() < 2 {
            return Ok(None);
        }
        Ok(Some(Segmentation::new(pieces)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use charles_core::config::Config;
    use charles_core::metrics::breadth;
    use charles_sdl::Query;
    use charles_store::{DataType, TableBuilder};

    fn table() -> charles_store::Table {
        let mut b = TableBuilder::new("t");
        b.add_column("x", DataType::Int)
            .add_column("k", DataType::Str);
        for i in 0..100i64 {
            let k = ["a", "b", "c", "d"][(i % 4) as usize];
            b.push_row(vec![Value::Int(i), Value::str(k)]).unwrap();
        }
        b.finish()
    }

    #[test]
    fn one_facet_per_attribute_breadth_one() {
        let t = table();
        let ex = Explorer::new(&t, Config::default(), Query::wildcard(&["x", "k"])).unwrap();
        let facets = facet_segmentations(&ex, 4).unwrap();
        assert_eq!(facets.len(), 2);
        for f in &facets {
            assert_eq!(breadth(&f.segmentation), 1, "facets are single-attribute");
            assert!(f
                .segmentation
                .check_partition(&t, ex.context_selection())
                .unwrap()
                .is_partition());
        }
    }

    #[test]
    fn nominal_facet_enumerates_values() {
        let t = table();
        let ex = Explorer::new(&t, Config::default(), Query::wildcard(&["k"])).unwrap();
        let facets = facet_segmentations(&ex, 4).unwrap();
        assert_eq!(facets.len(), 1);
        // 4 categories, all under the cap → 4 singleton segments.
        assert_eq!(facets[0].segmentation.depth(), 4);
    }

    #[test]
    fn nominal_facet_caps_with_tail_bucket() {
        let mut b = TableBuilder::new("t");
        b.add_column("k", DataType::Str);
        for i in 0..40 {
            b.push_row(vec![Value::str(format!("v{i}"))]).unwrap();
        }
        let t = b.finish();
        let cfg = Config::default().with_max_depth(6);
        let ex = Explorer::new(&t, cfg, Query::wildcard(&["k"])).unwrap();
        let facets = facet_segmentations(&ex, 4).unwrap();
        // 5 head values + 1 tail bucket = 6 segments.
        assert_eq!(facets[0].segmentation.depth(), 6);
        assert!(facets[0]
            .segmentation
            .check_partition(&t, ex.context_selection())
            .unwrap()
            .is_partition());
    }

    #[test]
    fn constant_attribute_yields_no_facet() {
        let mut b = TableBuilder::new("t");
        b.add_column("c", DataType::Int)
            .add_column("x", DataType::Int);
        for i in 0..10 {
            b.push_row(vec![Value::Int(5), Value::Int(i)]).unwrap();
        }
        let t = b.finish();
        let ex = Explorer::new(&t, Config::default(), Query::wildcard(&["c", "x"])).unwrap();
        let facets = facet_segmentations(&ex, 4).unwrap();
        assert_eq!(facets.len(), 1); // only x
    }

    #[test]
    fn equal_width_bins_are_unbalanced_on_skew() {
        // Exponential-ish skew: equal-width facet bins end up lopsided —
        // the contrast with Charles' equi-depth cuts that E9 quantifies.
        let mut b = TableBuilder::new("t");
        b.add_column("x", DataType::Float);
        for i in 0..1000 {
            let v = (i as f64 / 1000.0f64).powi(4) * 100.0;
            b.push_row(vec![Value::Float(v)]).unwrap();
        }
        let t = b.finish();
        let ex = Explorer::new(&t, Config::default(), Query::wildcard(&["x"])).unwrap();
        let facets = facet_segmentations(&ex, 4).unwrap();
        let s = &facets[0];
        assert!(
            s.score.balance() < 0.9,
            "equal-width bins should be unbalanced here, balance = {}",
            s.score.balance()
        );
    }
}
