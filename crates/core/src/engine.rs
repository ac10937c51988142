//! The exploration engine: a context plus caches over a backend.
//!
//! An [`Explorer`] pins down everything a Charles run needs: the backend,
//! the configuration, the *context* (the user's SDL query, Figure 1's left
//! panel) and its materialised extent. All primitives, metrics and the
//! HB-cuts algorithm operate through it.
//!
//! The explorer memoizes per-query selections — half of the §5.1
//! optimization ("the calculations of SDL products and entropy can be
//! reused from one iteration to the next"); the other half, pair INDEP
//! values, is carried by the HB-cuts loop itself ([`crate::hbcuts`]).
//! Both can be switched off ([`crate::Config::memoize`]) to measure
//! their effect.

use crate::config::Config;
use crate::error::{CoreError, CoreResult};
use charles_sdl::{eval, Query, Segmentation};
use charles_store::{Backend, Bitmap, Value};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::Arc;

/// Cache performance counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Selection-cache hits.
    pub sel_hits: u64,
    /// Selection-cache misses (predicate actually evaluated).
    pub sel_misses: u64,
    /// INDEP evaluations (pairwise counting actually performed): one per
    /// [`crate::indep()`] call and one per candidate pair of an HB-cuts
    /// run. The benchmark reports it as `core.indep_misses`.
    pub indep_misses: u64,
}

impl CacheStats {
    /// INDEP probes — equal to `indep_misses` by definition since
    /// every probe evaluates; kept because the benchmark reports both.
    pub fn indep_probes(&self) -> u64 {
        self.indep_misses
    }
}

#[derive(Default)]
struct Caches {
    selections: HashMap<String, Arc<Bitmap>>,
    stats: CacheStats,
}

/// A pinned exploration context over a backend.
pub struct Explorer<'a> {
    backend: &'a dyn Backend,
    config: Config,
    context: Query,
    context_sel: Arc<Bitmap>,
    caches: Mutex<Caches>,
}

impl<'a> Explorer<'a> {
    /// Create an explorer for a context query.
    ///
    /// The context extent is the query's result set restricted to rows
    /// that are non-null in **every** attribute the context mentions, so
    /// that cuts on any of those attributes partition the context exactly
    /// (a row null in one of them would fall in neither half of a cut on
    /// it). Errors if the configuration is invalid or the context is
    /// empty.
    pub fn new(
        backend: &'a dyn Backend,
        config: Config,
        context: Query,
    ) -> CoreResult<Explorer<'a>> {
        config.validate()?;
        let mut sel = eval::selection(&context, backend)?;
        for attr in context.attributes() {
            sel.and_inplace(&backend.not_null(attr)?);
        }
        if sel.none() {
            return Err(CoreError::EmptyContext);
        }
        Ok(Explorer {
            backend,
            config,
            context,
            context_sel: Arc::new(sel),
            caches: Mutex::new(Caches::default()),
        })
    }

    /// The backend under exploration.
    pub fn backend(&self) -> &dyn Backend {
        self.backend
    }

    /// The configuration in force.
    pub fn config(&self) -> &Config {
        &self.config
    }

    /// The context query (the user's framing of the exploration).
    pub fn context(&self) -> &Query {
        &self.context
    }

    /// The context's extent.
    pub fn context_selection(&self) -> &Bitmap {
        &self.context_sel
    }

    /// `|D|`: number of rows in the context.
    pub fn context_size(&self) -> usize {
        self.context_sel.count_ones()
    }

    /// Attributes available for cutting: those the context mentions
    /// ("we choose to restrict the exploration to the columns mentioned by
    /// the user", §2).
    pub fn attributes(&self) -> Vec<&str> {
        self.context.attributes()
    }

    /// Cache counters so far.
    pub fn cache_stats(&self) -> CacheStats {
        self.caches.lock().stats
    }

    /// Materialise (and cache) the selection of a query, intersected with
    /// the context extent.
    pub fn selection(&self, q: &Query) -> CoreResult<Arc<Bitmap>> {
        // The memo key is the rendered query; the §5.1 ablation has no
        // memo, so it renders none.
        let key = self.config.memoize.then(|| q.to_string());
        if let Some(key) = &key {
            let mut caches = self.caches.lock();
            if let Some(bm) = caches.selections.get(key).map(Arc::clone) {
                caches.stats.sel_hits += 1;
                return Ok(bm);
            }
        }
        let mut sel = eval::selection(q, self.backend)?;
        sel.and_inplace(&self.context_sel);
        let arc = Arc::new(sel);
        let mut caches = self.caches.lock();
        caches.stats.sel_misses += 1;
        if let Some(key) = key {
            caches.selections.insert(key, Arc::clone(&arc));
        }
        Ok(arc)
    }

    /// `|R(Q)|` within the context.
    pub fn count(&self, q: &Query) -> CoreResult<usize> {
        Ok(self.selection(q)?.count_ones())
    }

    /// Cover relative to the context (`|R(Q)| / |D|`).
    pub fn cover(&self, q: &Query) -> CoreResult<f64> {
        let n = self.context_size();
        if n == 0 {
            return Ok(0.0);
        }
        Ok(self.count(q)? as f64 / n as f64)
    }

    /// Covers of every segment of a segmentation.
    ///
    /// Each segment's selection evaluates independently, so this fans
    /// out across `charles-parallel`'s worker threads (order-preserving
    /// — the returned vector always matches `seg.queries()` order).
    pub fn covers(&self, seg: &Segmentation) -> CoreResult<Vec<f64>> {
        crate::par::try_map(seg.queries(), |q| self.cover(q))
    }

    /// Split point for a numeric cut, honouring the configured median
    /// strategy.
    pub(crate) fn split_point(&self, attr: &str, sel: &Bitmap) -> CoreResult<Option<Value>> {
        let med = match self.config.median {
            crate::config::MedianStrategy::Exact => self.backend.median(attr, sel)?,
            crate::config::MedianStrategy::Sampled { size, seed } => {
                self.backend.sampled_median(attr, sel, size, seed)?
            }
        };
        Ok(med)
    }

    /// Count `n` INDEP evaluations.
    pub(crate) fn count_indep_evaluations(&self, n: u64) {
        self.caches.lock().stats.indep_misses += n;
    }
}

/// Canonical fingerprint of a segmentation: its queries' rendered forms,
/// sorted (segmentations are sets — order must not matter).
pub fn fingerprint(seg: &Segmentation) -> String {
    let mut parts: Vec<String> = seg.queries().iter().map(|q| q.to_string()).collect();
    parts.sort();
    parts.join(" | ")
}

#[cfg(test)]
mod tests {
    use super::*;
    use charles_sdl::Constraint;
    use charles_store::{DataType, TableBuilder};

    fn table() -> charles_store::Table {
        let mut b = TableBuilder::new("t");
        b.add_column("x", DataType::Int)
            .add_column("k", DataType::Str);
        for i in 0..20i64 {
            let k = if i % 2 == 0 { "even" } else { "odd" };
            b.push_row(vec![Value::Int(i), Value::str(k)]).unwrap();
        }
        b.finish()
    }

    #[test]
    fn context_pins_extent() {
        let t = table();
        let ctx = Query::wildcard(&["x", "k"])
            .refined(
                "x",
                Constraint::range(Value::Int(0), Value::Int(9)).unwrap(),
            )
            .unwrap();
        let ex = Explorer::new(&t, Config::default(), ctx).unwrap();
        assert_eq!(ex.context_size(), 10);
        assert_eq!(ex.attributes(), vec!["x", "k"]);
    }

    #[test]
    fn empty_context_rejected() {
        let t = table();
        let ctx = Query::wildcard(&["x"])
            .refined(
                "x",
                Constraint::range(Value::Int(100), Value::Int(200)).unwrap(),
            )
            .unwrap();
        assert!(matches!(
            Explorer::new(&t, Config::default(), ctx),
            Err(CoreError::EmptyContext)
        ));
    }

    #[test]
    fn context_excludes_rows_null_in_context_attrs() {
        let mut b = TableBuilder::new("t");
        b.add_column("x", DataType::Int)
            .add_column("k", DataType::Str);
        b.push_row(vec![Value::Int(1), Value::str("a")]).unwrap();
        b.push_row_opt(vec![None, Some(Value::str("b"))]).unwrap();
        b.push_row_opt(vec![Some(Value::Int(3)), None]).unwrap();
        let t = b.finish();
        let ex = Explorer::new(&t, Config::default(), Query::wildcard(&["x", "k"])).unwrap();
        assert_eq!(ex.context_size(), 1);
        // A context mentioning only x keeps the row with null k.
        let ex = Explorer::new(&t, Config::default(), Query::wildcard(&["x"])).unwrap();
        assert_eq!(ex.context_size(), 2);
    }

    #[test]
    fn selections_are_cached() {
        let t = table();
        let ex = Explorer::new(&t, Config::default(), Query::wildcard(&["x", "k"])).unwrap();
        let q = Query::wildcard(&["x", "k"])
            .refined("k", Constraint::set(vec![Value::str("even")]).unwrap())
            .unwrap();
        let _ = ex.selection(&q).unwrap();
        let _ = ex.selection(&q).unwrap();
        let stats = ex.cache_stats();
        assert_eq!(stats.sel_misses, 1);
        assert_eq!(stats.sel_hits, 1);
    }

    #[test]
    fn memoize_off_always_misses() {
        let t = table();
        let ex = Explorer::new(
            &t,
            Config::default().with_memoize(false),
            Query::wildcard(&["x", "k"]),
        )
        .unwrap();
        let q = Query::wildcard(&["x", "k"]);
        let _ = ex.selection(&q).unwrap();
        let _ = ex.selection(&q).unwrap();
        let stats = ex.cache_stats();
        assert_eq!(stats.sel_hits, 0);
        assert_eq!(stats.sel_misses, 2);
    }

    #[test]
    fn cover_is_relative_to_context() {
        let t = table();
        let ctx = Query::wildcard(&["x", "k"])
            .refined(
                "x",
                Constraint::range(Value::Int(0), Value::Int(9)).unwrap(),
            )
            .unwrap();
        let ex = Explorer::new(&t, Config::default(), ctx.clone()).unwrap();
        let evens = ctx
            .refined("k", Constraint::set(vec![Value::str("even")]).unwrap())
            .unwrap();
        assert_eq!(ex.cover(&evens).unwrap(), 0.5);
        // Whole context covers 1.
        assert_eq!(ex.cover(&ctx).unwrap(), 1.0);
    }

    #[test]
    fn selection_clipped_to_context() {
        let t = table();
        let ctx = Query::wildcard(&["x", "k"])
            .refined(
                "x",
                Constraint::range(Value::Int(0), Value::Int(9)).unwrap(),
            )
            .unwrap();
        let ex = Explorer::new(&t, Config::default(), ctx).unwrap();
        // A query that nominally matches everything is clipped to |D| = 10.
        assert_eq!(ex.count(&Query::wildcard(&["x", "k"])).unwrap(), 10);
    }

    #[test]
    fn fingerprint_is_order_insensitive() {
        let q1 = Query::wildcard(&["a"]);
        let q2 = Query::wildcard(&["b"]);
        let s1 = Segmentation::new(vec![q1.clone(), q2.clone()]);
        let s2 = Segmentation::new(vec![q2, q1]);
        assert_eq!(fingerprint(&s1), fingerprint(&s2));
    }
}
