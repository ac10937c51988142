//! The exploration engine: a context plus caches over a backend.
//!
//! An [`Explorer`] pins down everything a Charles run needs: the backend,
//! the configuration, the *context* (the user's SDL query, Figure 1's left
//! panel) and its materialised extent. All primitives, metrics and the
//! HB-cuts algorithm operate through it.
//!
//! It is also the one door to the store: it does not hand its backend
//! out, and every store call made through it — core's own, and those of
//! callers outside the crate ([`Explorer::min_max`],
//! [`Explorer::quantile`], …) — is counted in [`Explorer::backend_ops`]
//! by one rule (`docs/adr/0028-one-door-to-the-store.md`). Under that
//! rule a cut's extremes are part of its median, not a scan of their
//! own: they come from the same `cut_stats` call.
//!
//! Selections reach their consumers two ways. A query that CUT has just
//! derived travels as a `Piece`: the query plus its derivation — the
//! parent's bitmap and the one conjunct that narrows it — so its bitmap
//! is `parent ∧ scan(conjunct)`, computed when the piece is first needed
//! as the backend's `And[Rows(parent), conjunct]`: one scan, which reads
//! only the rows the parent holds, not the whole column. When CUT's
//! statistics covered every row of the parent (no null, no NaN in the cut
//! attribute) its two halves partition the parent, and the pair costs one
//! scan: the right half is what the left leaves, `parent ∧ ¬left`, an
//! AND-NOT over words already held (`Piece::halves`). That is the
//! definition of a conjunction and of a partition, not a cache, and no
//! switch turns it off. Any other query goes through
//! [`Explorer::selection`], which evaluates the whole conjunction within
//! the context's extent (`And[Rows(context), …]`, each conjunct reading
//! only the rows left by the ones before it) and
//! memoizes the result by the rendered query — half of the §5.1
//! optimization ("the calculations of SDL products and entropy can be
//! reused from one iteration to the next"); the other half, pair INDEP
//! values and the candidates' resolved pieces, is carried by the HB-cuts
//! loop itself ([`crate::hbcuts`]). Both halves can be switched off
//! ([`crate::Config::memoize`]) to measure their effect.

use crate::config::Config;
use crate::error::{CoreError, CoreResult};
use charles_sdl::{eval, Constraint, Query, Segmentation};
use charles_store::{
    Backend, BackendStats, Bitmap, CutStats, DataType, FrequencyTable, StorePredicate, Value,
};
use std::collections::HashMap;
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};

/// Cache performance counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Selection lookups answered without touching the backend: a memo
    /// hit, or the context asked for its own extent.
    pub sel_hits: u64,
    /// Selections materialised: a looked-up query's whole conjunction
    /// evaluated, a derived piece's one scan, or — one selection like
    /// any other, though it costs the backend no scan — a cut's right
    /// half taken as what the left half leaves of their parent.
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
    ops: BackendStats,
}

/// The column passes `eval` makes of `pred`: one per range or set leaf.
/// A `Rows` leaf is a selection already held and reads no column.
fn scans(pred: &StorePredicate) -> u64 {
    match pred {
        StorePredicate::Range(_) | StorePredicate::Set(_) => 1,
        StorePredicate::And(leaves) => leaves.iter().map(scans).sum(),
        StorePredicate::True | StorePredicate::Rows(_) => 0,
    }
}

/// A query with its selection inside the explorer's context — what CUT
/// takes and what it hands on.
pub(crate) struct Piece {
    pub(crate) query: Query,
    sel: PieceSelection,
}

enum PieceSelection {
    Ready(Arc<Bitmap>),
    /// `R(parent) ∩ R(query.predicates()[conjunct])`: the piece is its
    /// parent refined on that one conjunct, and refinement only narrows
    /// a constraint, so every other conjunct is already in `parent`.
    Derived {
        parent: Arc<Bitmap>,
        conjunct: usize,
        /// Set on both halves of a cut that partitions `parent`.
        pair: Option<(Half, LeftSelection)>,
    },
}

/// Which half of a partitioning cut a piece is.
enum Half {
    /// Scans its conjunct like any derived piece, and leaves the bitmap
    /// where its sibling finds it.
    Left,
    /// `parent ∧ ¬left` once the left half has been materialised — no
    /// scan; until then it can only scan its own conjunct. Halves leave
    /// CUT left first and every walk of them keeps that order.
    Right,
}

/// The left half's bitmap, shared by the two halves of one cut.
type LeftSelection = Arc<OnceLock<Arc<Bitmap>>>;

impl Piece {
    pub(crate) fn ready(query: Query, sel: Arc<Bitmap>) -> Piece {
        Piece {
            query,
            sel: PieceSelection::Ready(sel),
        }
    }

    /// The two halves `CUT_attr(Q)` of Definition 5. `partition` says
    /// that every row of `sel` satisfies exactly one of the two
    /// constraints — the statistics they were drawn from covered all of
    /// `sel` — and then the right half is what the left leaves of `sel`.
    /// The left half refines a clone of `query`, the right half `query`
    /// itself; when either refinement is provably empty there is no cut
    /// and `query` comes back unspent.
    pub(crate) fn halves(
        query: Query,
        sel: &Arc<Bitmap>,
        attr: &str,
        (left, right): (Constraint, Constraint),
        partition: bool,
    ) -> Result<[Piece; 2], Query> {
        // The right half spends the query, so its refinement is checked
        // before the left one is built.
        let held = query.constraint(attr);
        if held.is_some_and(|held| held.intersect(&right).is_none()) {
            return Err(query);
        }
        let shared = partition.then(LeftSelection::default);
        let pair = |half| shared.clone().map(|left| (half, left));
        let Some(left) = Piece::derived(query.clone(), sel, attr, left, pair(Half::Left)) else {
            return Err(query);
        };
        let right = Piece::derived(query, sel, attr, right, pair(Half::Right))
            .expect("the right refinement was checked satisfiable");
        Ok([left, right])
    }

    /// `(Q, attr: constraint)` of Definition 5, derived from `Q`'s
    /// selection; `None` when the refinement is provably empty.
    fn derived(
        query: Query,
        sel: &Arc<Bitmap>,
        attr: &str,
        constraint: Constraint,
        pair: Option<(Half, LeftSelection)>,
    ) -> Option<Piece> {
        let query = query.into_refined(attr, constraint)?;
        let conjunct = query.predicates().iter().position(|p| &*p.attr == attr)?;
        Some(Piece {
            query,
            sel: PieceSelection::Derived {
                parent: Arc::clone(sel),
                conjunct,
                pair,
            },
        })
    }
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
        let pred = eval::lower(&context);
        let mut sel = backend.eval(&pred)?;
        for attr in context.attributes() {
            sel.and_inplace(&backend.not_null(attr)?);
        }
        if sel.none() {
            return Err(CoreError::EmptyContext);
        }
        let mut caches = Caches::default();
        caches.ops.scans = scans(&pred);
        Ok(Explorer {
            backend,
            config,
            context,
            context_sel: Arc::new(sel),
            caches: Mutex::new(caches),
        })
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
        self.caches().stats
    }

    /// The store work this explorer has asked for so far — what
    /// [`crate::Advice::backend_ops`] reports for a run. It counts the
    /// calls this explorer makes, not what the backend did for anyone
    /// else, so runs sharing a backend do not see each other's work:
    ///
    /// * `scans`: one per range or set conjunct of each predicate handed
    ///   to `eval` (the context, a looked-up query's conjunction, a
    ///   piece's narrowing conjunct), however few rows it reads, and one
    ///   per [`Explorer::frequencies`], [`Explorer::min_max`] and
    ///   [`Explorer::mean_and_var`] call. A selection already held — the
    ///   context's own, a memo hit, a cut's right half taken as what the
    ///   left leaves of their parent — costs none;
    /// * `medians`: one per cut statistic that carries a median, and one
    ///   per [`Explorer::quantile`] call.
    ///
    /// `varies` (a counted cut's question) and `next_above` (a
    /// continuous cut's fallback split point) count as neither: each
    /// reads a selection only until it has its answer. Nor do a cut's
    /// extremes: they come with its median. Nor does
    /// [`Explorer::type_of`], a schema lookup. The explorer has no other
    /// door to its backend, so these are all the store calls a caller
    /// of this crate can make through it.
    pub fn backend_ops(&self) -> BackendStats {
        self.caches().ops
    }

    /// The memo and the counters. A panic under this lock leaves both
    /// valid (an insert or an increment either happened or did not), so
    /// a poisoned guard is recovered, not propagated.
    fn caches(&self) -> MutexGuard<'_, Caches> {
        self.caches.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// The context with its extent: the root every CUT derives from.
    pub(crate) fn context_piece(&self) -> Piece {
        Piece::ready(self.context.clone(), Arc::clone(&self.context_sel))
    }

    /// Materialise (and cache) the selection of a query, intersected with
    /// the context extent — evaluated within it, so no conjunct reads a
    /// row outside the context. The context's own selection is its extent.
    pub fn selection(&self, q: &Query) -> CoreResult<Arc<Bitmap>> {
        if *q == self.context {
            self.caches().stats.sel_hits += 1;
            return Ok(Arc::clone(&self.context_sel));
        }
        // The memo key is the rendered query; the §5.1 ablation has no
        // memo, so it renders none.
        let key = self.config.memoize.then(|| q.to_string());
        if let Some(key) = &key {
            let mut caches = self.caches();
            if let Some(bm) = caches.selections.get(key).map(Arc::clone) {
                caches.stats.sel_hits += 1;
                return Ok(bm);
            }
        }
        let within = StorePredicate::and(vec![
            StorePredicate::Rows(Arc::clone(&self.context_sel)),
            eval::lower(q),
        ]);
        let arc = Arc::new(self.backend.eval(&within)?);
        let mut caches = self.caches();
        caches.stats.sel_misses += 1;
        caches.ops.scans += scans(&within);
        if let Some(key) = key {
            caches.selections.insert(key, Arc::clone(&arc));
        }
        Ok(arc)
    }

    /// A piece's selection. For a derived piece that is one scan of the
    /// narrowing conjunct within the parent — it reads the parent's rows
    /// only — into a bitmap whose handle is the caller's to drop with the
    /// piece; for the right half of a partitioning cut whose left half
    /// has been materialised, one AND-NOT and no scan.
    pub(crate) fn materialise(&self, piece: &Piece) -> CoreResult<Arc<Bitmap>> {
        let (parent, conjunct, pair) = match &piece.sel {
            PieceSelection::Ready(sel) => return Ok(Arc::clone(sel)),
            PieceSelection::Derived {
                parent,
                conjunct,
                pair,
            } => (parent, *conjunct, pair),
        };
        let left = match pair {
            Some((Half::Right, left)) => left.get(),
            _ => None,
        };
        let (sel, scanned) = match left {
            Some(left) => (parent.and_not(left), 0),
            None => {
                let within = StorePredicate::and(vec![
                    StorePredicate::Rows(Arc::clone(parent)),
                    eval::lower_predicate(&piece.query.predicates()[conjunct]),
                ]);
                (self.backend.eval(&within)?, scans(&within))
            }
        };
        let sel = Arc::new(sel);
        if let Some((Half::Left, shared)) = pair {
            // A second materialisation finds the same bits already there.
            let _ = shared.set(Arc::clone(&sel));
        }
        let mut caches = self.caches();
        caches.stats.sel_misses += 1;
        caches.ops.scans += scanned;
        Ok(sel)
    }

    /// Hand a piece's query to a caller outside the crate. The selection
    /// memo takes the bitmap the piece derives, so the caller's next
    /// `selection`/`count` of that query is a hit, not a re-evaluation
    /// of the conjunction; the §5.1 ablation has no memo to put it in.
    pub(crate) fn release(&self, piece: Piece) -> CoreResult<Query> {
        if self.config.memoize {
            let key = piece.query.to_string();
            if !self.caches().selections.contains_key(&key) {
                let sel = self.materialise(&piece)?;
                self.caches().selections.insert(key, sel);
            }
        }
        Ok(piece.query)
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

    /// Covers of every segment of a segmentation, in `seg.queries()`
    /// order.
    pub fn covers(&self, seg: &Segmentation) -> CoreResult<Vec<f64>> {
        seg.queries().iter().map(|q| self.cover(q)).collect()
    }

    /// What a numeric cut needs of `attr` over `sel`
    /// ([`Backend::cut_stats`]): the exact median with the extremes, from
    /// one pass where the backend has one.
    pub(crate) fn cut_stats(&self, attr: &str, sel: &Bitmap) -> CoreResult<Option<CutStats>> {
        let stats = self.backend.cut_stats(attr, sel)?;
        if stats.as_ref().is_some_and(|s| s.median.is_some()) {
            self.caches().ops.medians += 1;
        }
        Ok(stats)
    }

    /// The type of the column `attr`: a schema lookup, no op.
    pub fn type_of(&self, attr: &str) -> CoreResult<DataType> {
        Ok(self.backend.schema().type_of(attr)?)
    }

    /// Whether `sel` holds two distinct values of `attr`
    /// ([`Backend::varies`]): what a cut that is only counted asks
    /// instead of its statistics. Neither a scan nor a median: it reads
    /// the selection only until it has its answer, usually at the second
    /// row.
    pub(crate) fn varies(&self, attr: &str, sel: &Bitmap) -> CoreResult<bool> {
        Ok(self.backend.varies(attr, sel)?)
    }

    /// The least value of `attr` above `v` in `sel`
    /// ([`Backend::next_above`]): a continuous cut's split point where
    /// its median is its minimum. Counted as no op, like
    /// [`Explorer::varies`].
    pub(crate) fn next_above(
        &self,
        attr: &str,
        sel: &Bitmap,
        v: &Value,
    ) -> CoreResult<Option<Value>> {
        Ok(self.backend.next_above(attr, sel, v)?)
    }

    /// The frequency table of a nominal `attr` over `sel`
    /// ([`Backend::frequencies`]): one scan.
    pub fn frequencies(
        &self,
        attr: &str,
        sel: &Bitmap,
    ) -> CoreResult<(FrequencyTable, Vec<String>)> {
        let table = self.backend.frequencies(attr, sel)?;
        self.caches().ops.scans += 1;
        Ok(table)
    }

    /// The least and greatest value of `attr` over `sel`
    /// ([`Backend::min_max`]): one scan, a pass over the selected values
    /// like [`Explorer::frequencies`]. A cut's extremes come with its
    /// median instead, from [`Backend::cut_stats`], and are not counted
    /// here.
    pub fn min_max(&self, attr: &str, sel: &Bitmap) -> CoreResult<Option<(Value, Value)>> {
        let extremes = self.backend.min_max(attr, sel)?;
        self.caches().ops.scans += 1;
        Ok(extremes)
    }

    /// Mean and population variance of a numeric `attr` over `sel`
    /// ([`Backend::mean_and_var`]): one scan.
    pub fn mean_and_var(&self, attr: &str, sel: &Bitmap) -> CoreResult<Option<(f64, f64)>> {
        let moments = self.backend.mean_and_var(attr, sel)?;
        self.caches().ops.scans += 1;
        Ok(moments)
    }

    /// The value of `attr` at quantile `q` of `sel`
    /// ([`Backend::quantile`]): one median, an order statistic like a
    /// cut's.
    pub fn quantile(&self, attr: &str, sel: &Bitmap, q: f64) -> CoreResult<Option<Value>> {
        let value = self.backend.quantile(attr, sel, q)?;
        self.caches().ops.medians += 1;
        Ok(value)
    }

    /// Count `n` INDEP evaluations.
    pub(crate) fn count_indep_evaluations(&self, n: u64) {
        self.caches().stats.indep_misses += n;
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
    use charles_store::{DataType, TableBuilder, Value};

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
        let q = Query::wildcard(&["x", "k"])
            .refined("k", Constraint::set(vec![Value::str("even")]).unwrap())
            .unwrap();
        let _ = ex.selection(&q).unwrap();
        let _ = ex.selection(&q).unwrap();
        let stats = ex.cache_stats();
        assert_eq!(stats.sel_hits, 0);
        assert_eq!(stats.sel_misses, 2);
    }

    #[test]
    fn the_context_answers_for_itself_without_a_scan() {
        // The context's selection *is* its extent — with or without the
        // memo, and without re-scanning its own conjunction.
        let t = table();
        let ctx = Query::wildcard(&["x", "k"])
            .refined(
                "x",
                Constraint::range(Value::Int(0), Value::Int(9)).unwrap(),
            )
            .unwrap();
        for memoize in [true, false] {
            let cfg = Config::default().with_memoize(memoize);
            let ex = Explorer::new(&t, cfg, ctx.clone()).unwrap();
            let scans = ex.backend_ops().scans;
            let sel = ex.selection(&ctx).unwrap();
            assert_eq!(*sel, *ex.context_selection());
            assert_eq!(ex.backend_ops().scans, scans);
            let stats = ex.cache_stats();
            assert_eq!((stats.sel_hits, stats.sel_misses), (1, 0));
        }
    }

    #[test]
    fn a_derived_piece_costs_one_scan_and_equals_the_conjunction() {
        let t = table();
        let ctx = Query::wildcard(&["x", "k"])
            .refined(
                "x",
                Constraint::range(Value::Int(0), Value::Int(15)).unwrap(),
            )
            .unwrap();
        let ex = Explorer::new(&t, Config::default(), ctx.clone()).unwrap();
        let root = ex.context_piece();
        let root_sel = ex.materialise(&root).unwrap();
        let evens = Constraint::set(vec![Value::str("even")]).unwrap();
        let piece = Piece::derived(root.query, &root_sel, "k", evens, None).unwrap();
        // Refining the attribute the context already constrains
        // intersects: the narrowed conjunct is the one scanned.
        let low = Constraint::range(Value::Int(4), Value::Int(99)).unwrap();
        let piece = {
            let sel = ex.materialise(&piece).unwrap();
            Piece::derived(piece.query, &sel, "x", low, None).unwrap()
        };
        let scans = ex.backend_ops().scans;
        let derived = ex.materialise(&piece).unwrap();
        assert_eq!(ex.backend_ops().scans, scans + 1);
        assert_eq!(
            derived.iter_ones().collect::<Vec<_>>(),
            [4, 6, 8, 10, 12, 14]
        );
        let mut evaluated = eval::selection(&piece.query, &t).unwrap();
        evaluated.and_inplace(ex.context_selection());
        assert_eq!(*derived, evaluated);
        // Released, the memo answers for it.
        let q = ex.release(piece).unwrap();
        let before = ex.cache_stats();
        assert_eq!(*ex.selection(&q).unwrap(), evaluated);
        assert_eq!(ex.cache_stats().sel_hits, before.sel_hits + 1);
        assert_eq!(ex.cache_stats().sel_misses, before.sel_misses);
    }

    #[test]
    fn a_partitioning_cut_pair_costs_one_scan() {
        let t = table();
        let ex = Explorer::new(&t, Config::default(), Query::wildcard(&["x", "k"])).unwrap();
        let root = ex.context_piece();
        let root_sel = ex.materialise(&root).unwrap();
        let range = |lo, hi| Constraint::range(Value::Int(lo), Value::Int(hi)).unwrap();
        let halves = |partition| {
            let split = (range(0, 6), range(7, 19));
            Piece::halves(root.query.clone(), &root_sel, "x", split, partition).unwrap()
        };
        let evaluated = |piece: &Piece| {
            let mut sel = eval::selection(&piece.query, &t).unwrap();
            sel.and_inplace(ex.context_selection());
            sel
        };
        // Left then right: the right half is what the left one leaves —
        // two selections, one scan. Told nothing about the split, each
        // half scans for itself, and so does a right half asked first:
        // the order moves the cost, never the bits.
        for (partition, right_first, scans) in
            [(true, false, 1), (false, false, 2), (true, true, 2)]
        {
            let mut pair = halves(partition);
            if right_first {
                pair.reverse();
            }
            let before = (ex.backend_ops().scans, ex.cache_stats().sel_misses);
            let sels = pair.each_ref().map(|p| ex.materialise(p).unwrap());
            assert_eq!(ex.backend_ops().scans - before.0, scans);
            assert_eq!(ex.cache_stats().sel_misses - before.1, 2);
            for (piece, sel) in pair.iter().zip(&sels) {
                assert_eq!(**sel, evaluated(piece), "{}", piece.query);
            }
            assert_eq!(sels[0].count_ones() + sels[1].count_ones(), 20);
        }
    }

    #[test]
    fn a_cut_with_an_empty_half_hands_its_query_back() {
        // The context holds x ∈ [0, 9]: a half beyond it refines to
        // nothing, whichever half it is, and the query comes back whole.
        let t = table();
        let ctx = Query::wildcard(&["x", "k"])
            .refined(
                "x",
                Constraint::range(Value::Int(0), Value::Int(9)).unwrap(),
            )
            .unwrap();
        let ex = Explorer::new(&t, Config::default(), ctx.clone()).unwrap();
        let sel = Arc::clone(&ex.context_sel);
        let range = |lo, hi| Constraint::range(Value::Int(lo), Value::Int(hi)).unwrap();
        for split in [(range(20, 25), range(0, 4)), (range(0, 4), range(20, 25))] {
            for partition in [true, false] {
                let back = Piece::halves(ctx.clone(), &sel, "x", split.clone(), partition);
                assert_eq!(back.err(), Some(ctx.clone()));
            }
        }
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
