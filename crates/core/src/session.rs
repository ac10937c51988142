//! Drill-down exploration sessions.
//!
//! The paper's interaction loop (§2): "the user specifies a population he
//! is interested in … The system then generates several segmentations and
//! presents them in a ranked list … The user can then select one SDL
//! query, and submit it for further exploration." A [`Session`] keeps the
//! trail of advices so the user can drill in and back out.

use crate::advisor::{Advice, Advisor};
use crate::cache::AdviceCache;
use crate::config::Config;
use crate::error::{CoreError, CoreResult};
use charles_sdl::{parse_query, Query};
use charles_store::Backend;
use std::sync::Arc;

/// An interactive exploration session over one backend.
///
/// * The backend is shared (`Arc<dyn Backend>`), so a session is
///   long-lived state detached from any caller's stack frame and many
///   sessions can explore one dataset concurrently.
/// * Every advised context is **canonicalized** first
///   ([`Query::canonicalized`]) — the session's identity for a context
///   is its canonical form, which is what makes advice shareable across
///   sessions.
/// * Advice always comes through an [`AdviceCache`]: the session's own,
///   or the one [`Session::with_cache`] hands it, which makes equivalent
///   contexts across sessions cost exactly one advisor run. Advice is
///   held as `Arc<Advice>`, so a cached answer is shared, not copied.
///
/// Either way the advice returned for a context is byte-identical to
/// `Advisor::advise(context.canonicalized())` on the same backend and
/// config.
pub struct Session {
    backend: Arc<dyn Backend>,
    config: Config,
    cache: Arc<AdviceCache>,
    /// The advice of every context visited, current one last: level
    /// `i`'s breadcrumb is `trail[i].context`. Non-empty after `start`.
    trail: Vec<Arc<Advice>>,
}

impl Session {
    /// Open a session with the paper-default configuration.
    pub fn new(backend: Arc<dyn Backend>) -> Session {
        Session::with_config(backend, Config::default())
    }

    /// Open a session with an explicit configuration.
    pub fn with_config(backend: Arc<dyn Backend>, config: Config) -> Session {
        Session {
            backend,
            config,
            // One caller at a time (`&mut self`): one shard.
            cache: Arc::new(AdviceCache::with_shards(1)),
            trail: Vec::new(),
        }
    }

    /// Advise through a shared cache instead of the session's own:
    /// contexts advised by this session become reusable by every other
    /// session holding the same cache. The cache must only be shared
    /// between sessions over the same backend and config.
    pub fn with_cache(mut self, cache: Arc<AdviceCache>) -> Session {
        self.cache = cache;
        self
    }

    fn advise(&self, context: Query) -> CoreResult<Arc<Advice>> {
        let advisor = Advisor::with_config(self.backend.as_ref(), self.config.clone());
        self.cache.advise_cached(&advisor, context)
    }

    /// Enter the initial context (SDL text) and get the first advice.
    /// Resets any existing trail; on error the session is left as it was.
    pub fn start(&mut self, sdl: &str) -> CoreResult<&Arc<Advice>> {
        let context = parse_query(sdl, self.backend.schema())?;
        let advice = self.advise(context)?;
        self.trail.clear();
        Ok(self.push(advice))
    }

    /// Drill into segment `seg_idx` of ranked answer `rank_idx`: that
    /// segment's query becomes the new context. Stable errors:
    /// [`CoreError::SessionNotStarted`] before `start`,
    /// [`CoreError::NoSuchSegment`] for an out-of-range pair — the
    /// session state is unchanged on error.
    ///
    /// A segment whose rows are uniform in every context attribute is a
    /// legitimate end of the drill-down path, not a failure:
    /// [`Advisor::advise`] yields an [`Advice`] with an empty `ranked`
    /// list for it (the level is still pushed, so [`Session::back`]
    /// works as usual).
    pub fn drill(&mut self, rank_idx: usize, seg_idx: usize) -> CoreResult<&Arc<Advice>> {
        let current = self.current().ok_or(CoreError::SessionNotStarted)?;
        let target = current
            .segment(rank_idx, seg_idx)
            .ok_or(CoreError::NoSuchSegment { rank_idx, seg_idx })?
            .clone();
        let advice = self.advise(target)?;
        Ok(self.push(advice))
    }

    fn push(&mut self, advice: Arc<Advice>) -> &Arc<Advice> {
        self.trail.push(advice);
        &self.trail[self.trail.len() - 1]
    }

    /// Go back one level, with a stable error instead of a silent no-op:
    /// [`CoreError::SessionNotStarted`] before `start`,
    /// [`CoreError::AtRoot`] when the trail has nowhere to unwind.
    pub fn try_back(&mut self) -> CoreResult<&Arc<Advice>> {
        match self.trail.len() {
            0 => Err(CoreError::SessionNotStarted),
            1 => Err(CoreError::AtRoot),
            n => {
                self.trail.pop();
                Ok(&self.trail[n - 2])
            }
        }
    }

    /// Go back one level. Returns the advice of the restored context, or
    /// `None` when already at the root or not started (see
    /// [`Session::try_back`] for the error-reporting variant).
    pub fn back(&mut self) -> Option<&Arc<Advice>> {
        self.try_back().ok()
    }

    /// The advice for the current context.
    pub fn current(&self) -> Option<&Arc<Advice>> {
        self.trail.last()
    }

    /// Depth of the trail (1 = initial context).
    pub fn depth(&self) -> usize {
        self.trail.len()
    }

    /// The breadcrumbs: the canonical context of every level, oldest
    /// first.
    pub fn breadcrumbs(&self) -> impl ExactSizeIterator<Item = &Query> {
        self.trail.iter().map(|advice| &advice.context)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use charles_store::{DataType, TableBuilder, Value};

    /// The session's current (canonical) context query.
    fn context(s: &Session) -> Option<&Query> {
        s.current().map(|advice| &advice.context)
    }

    fn table() -> Arc<dyn Backend> {
        let mut b = TableBuilder::new("t");
        b.add_column("kind", DataType::Str)
            .add_column("size", DataType::Int);
        for i in 0..64i64 {
            let kind = if i % 2 == 0 { "even" } else { "odd" };
            b.push_row(vec![Value::str(kind), Value::Int(i)]).unwrap();
        }
        Arc::new(b.finish())
    }

    #[test]
    fn start_drill_back_loop() {
        let mut s = Session::new(table());
        let first = s.start("(size: , kind: )").unwrap();
        assert_eq!(first.context_size, 64);
        assert_eq!(s.depth(), 1);
        // Contexts are canonicalized: attribute order is sorted.
        assert_eq!(context(&s).unwrap().to_string(), "(kind: , size: )");

        let drilled = s.drill(0, 0).unwrap();
        assert!(drilled.context_size < 64);
        assert_eq!(s.depth(), 2);
        assert_eq!(s.breadcrumbs().len(), 2);

        let restored = s.back().unwrap();
        assert_eq!(restored.context_size, 64);
        assert_eq!(s.depth(), 1);
        // Back at the root: no further back.
        assert!(s.back().is_none());
    }

    #[test]
    fn drill_into_uniform_segment_is_a_leaf() {
        // Four identical rows per kind: after drilling into one kind the
        // remaining rows are constant in every attribute, which must end
        // the path gracefully (empty advice), not error.
        let mut b = TableBuilder::new("t");
        b.add_column("kind", DataType::Str)
            .add_column("size", DataType::Int);
        for _ in 0..4 {
            b.push_row(vec![Value::str("a"), Value::Int(1)]).unwrap();
            b.push_row(vec![Value::str("b"), Value::Int(2)]).unwrap();
        }
        let mut s = Session::new(Arc::new(b.finish()));
        s.start("(kind: , size: )").unwrap();
        let deeper = s.drill(0, 0).unwrap();
        assert!(deeper.ranked.is_empty());
        assert_eq!(deeper.context_size, 4);
        // The leaf still explains itself: all attributes skipped, loop
        // stopped for lack of candidates.
        assert_eq!(deeper.trace.skipped, vec!["kind", "size"]);
        assert_eq!(
            deeper.trace.stop,
            Some(crate::hbcuts::StopReason::ExhaustedCandidates)
        );
        assert_eq!(s.depth(), 2);
        // The breadcrumb still unwinds.
        assert!(s.back().is_some());
        assert_eq!(s.depth(), 1);
    }

    #[test]
    fn drill_out_of_range_errors() {
        let mut s = Session::new(table());
        s.start("(kind: , size: )").unwrap();
        // The error is stable and carries the offending indices.
        assert_eq!(
            s.drill(99, 0).unwrap_err(),
            CoreError::NoSuchSegment {
                rank_idx: 99,
                seg_idx: 0
            }
        );
        assert_eq!(
            s.drill(0, 42).unwrap_err(),
            CoreError::NoSuchSegment {
                rank_idx: 0,
                seg_idx: 42
            }
        );
        assert!(s.drill(9, 9).unwrap_err().to_string().contains("(9, 9)"));
        // Session state unchanged after a failed drill.
        assert_eq!(s.depth(), 1);
    }

    #[test]
    fn drill_before_start_errors() {
        let mut s = Session::new(table());
        assert_eq!(s.drill(0, 0).unwrap_err(), CoreError::SessionNotStarted);
        assert!(s.current().is_none());
        assert!(context(&s).is_none());
    }

    #[test]
    fn try_back_has_stable_errors() {
        let mut s = Session::new(table());
        // Empty trail: not started.
        assert_eq!(s.try_back().unwrap_err(), CoreError::SessionNotStarted);
        s.start("(kind: , size: )").unwrap();
        // At the root: AtRoot, and the state is untouched.
        assert_eq!(s.try_back().unwrap_err(), CoreError::AtRoot);
        assert_eq!(s.depth(), 1);
        s.drill(0, 0).unwrap();
        assert_eq!(s.try_back().unwrap().context_size, 64);
        assert_eq!(s.try_back().unwrap_err(), CoreError::AtRoot);
    }

    #[test]
    fn restart_resets_history() {
        let mut s = Session::new(table());
        s.start("(kind: , size: )").unwrap();
        s.drill(0, 0).unwrap();
        s.start("(size: )").unwrap();
        assert_eq!(s.depth(), 1);
    }

    #[test]
    fn breadcrumbs_are_the_contexts_of_the_trail() {
        let mut s = Session::new(table());
        s.start("(size: , kind: )").unwrap();
        s.drill(0, 0).unwrap();
        let abandoned = s.drill(0, 0).unwrap().context.clone();
        s.try_back().unwrap();
        s.drill(0, 1).unwrap();
        let crumbs: Vec<&Query> = s.breadcrumbs().collect();
        let contexts: Vec<&Query> = s.trail.iter().map(|a| &a.context).collect();
        assert_eq!(crumbs, contexts);
        assert_eq!(crumbs.len(), s.depth());
        assert_eq!(s.depth(), 3);
        assert_eq!(crumbs[0].to_string(), "(kind: , size: )");
        // Each level is the segment drilled from the level above it, and
        // the level that was backed out of is gone.
        assert_eq!(Some(crumbs[1]), s.trail[0].segment(0, 0));
        assert_eq!(Some(crumbs[2]), s.trail[1].segment(0, 1));
        assert_ne!(*crumbs[2], abandoned);
        assert_eq!(context(&s), Some(crumbs[2]));
    }

    #[test]
    fn session_matches_direct_advisor_bytes() {
        let backend = table();
        let mut s = Session::new(Arc::clone(&backend));
        let served = s.start("(size: , kind: )").unwrap().clone();
        let direct = Advisor::new(backend.as_ref())
            .advise_str("(kind: , size: )")
            .unwrap();
        assert_eq!(
            format!("{:?}", served.ranked),
            format!("{:?}", direct.ranked)
        );
        assert_eq!(format!("{:?}", served.trace), format!("{:?}", direct.trace));
    }

    #[test]
    fn a_standalone_session_re_drilling_a_segment_reuses_its_advice() {
        // No shared cache: the session's own answers for the context it
        // has already advised on.
        let backend = table();
        let mut s = Session::new(Arc::clone(&backend));
        s.start("(size: , kind: )").unwrap();
        let first = s.drill(0, 0).unwrap().clone();
        s.try_back().unwrap();
        let again = s.drill(0, 0).unwrap().clone();
        assert!(Arc::ptr_eq(&first, &again));
        let direct = Advisor::new(backend.as_ref())
            .advise(first.context.canonicalized())
            .unwrap();
        assert_eq!(again.context, direct.context);
        assert_eq!(
            format!("{:?}", again.ranked),
            format!("{:?}", direct.ranked)
        );
        assert_eq!(format!("{:?}", again.trace), format!("{:?}", direct.trace));
    }

    #[test]
    fn repeated_attribute_context_collapses_to_merged_breadcrumb() {
        let mut s = Session::new(table());
        s.start("(size: [0,40], size: [10,99], kind: )").unwrap();
        // The breadcrumb is the analyzed context: merged and canonical.
        assert_eq!(context(&s).unwrap().to_string(), "(kind: , size: [10,40])");
        assert!(!context(&s).unwrap().has_repeated_attributes());
    }

    #[test]
    fn unsatisfiable_start_leaves_the_session_unstarted() {
        let mut s = Session::new(table());
        assert_eq!(
            s.start("(size: [0,10], size: [20,30])").unwrap_err(),
            CoreError::UnsatisfiableContext
        );
        assert!(s.current().is_none());
        assert_eq!(s.depth(), 0);
        // And an ill-typed context reports its diagnostics.
        match s.start("(size: {'abc'})").unwrap_err() {
            CoreError::InvalidContext(diags) => {
                assert_eq!(diags[0].code, charles_sdl::DiagnosticCode::TypeMismatch);
            }
            other => panic!("expected InvalidContext, got {other:?}"),
        }
    }

    #[test]
    fn sessions_share_advice_through_the_cache() {
        let backend = table();
        let cache = Arc::new(crate::cache::AdviceCache::with_shards(4));
        let mut s1 = Session::new(Arc::clone(&backend)).with_cache(Arc::clone(&cache));
        let mut s2 = Session::new(Arc::clone(&backend)).with_cache(Arc::clone(&cache));
        let a1 = s1.start("(kind: , size: )").unwrap().clone();
        // Equivalent but permuted context: must reuse the same entry.
        let a2 = s2.start("(size: , kind: )").unwrap().clone();
        assert!(Arc::ptr_eq(&a1, &a2));
        assert_eq!(cache.stats().runs, 1);
        // Drilling the same segment from both sessions shares too.
        let d1 = s1.drill(0, 0).unwrap().clone();
        let d2 = s2.drill(0, 0).unwrap().clone();
        assert!(Arc::ptr_eq(&d1, &d2));
        assert_eq!(cache.stats().runs, 2);
    }
}
