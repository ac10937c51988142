//! The user-facing facade: ask Charles for advice.
//!
//! An [`Advisor`] wraps a backend plus a [`Config`]; each call to
//! [`Advisor::advise`] pins a context, runs HB-cuts and returns the ranked
//! answer list of Figure 1's top panel together with the execution trace
//! and backend operation counts.

use crate::config::Config;
use crate::engine::{CacheStats, Explorer};
use crate::error::{CoreError, CoreResult};
use crate::hbcuts::{hb_cuts, Trace};
use crate::ranking::Ranked;
use charles_sdl::{parse_query, Query};
use charles_store::{Backend, BackendStats};
use std::sync::OnceLock;

/// The advisor: owns nothing but a reference to the data and the tuning.
pub struct Advisor<'a> {
    backend: &'a dyn Backend,
    config: Config,
}

/// A full answer to one context query.
#[derive(Debug, Clone)]
pub struct Advice {
    /// The context that was advised on.
    pub context: Query,
    /// Number of rows in the context extent.
    pub context_size: usize,
    /// Ranked segmentations, best first.
    pub ranked: Vec<Ranked>,
    /// HB-cuts execution trace (the Figure 3 tree).
    pub trace: Trace,
    /// Backend operations this run asked for, counted by the run itself
    /// ([`Explorer::backend_ops`] has the rule), so other runs on the
    /// same backend never move them. Every selection the run needs is
    /// derived from its parent's exactly once.
    pub backend_ops: BackendStats,
    /// Selections materialised and INDEP pairs evaluated while
    /// answering; as deterministic as [`Advice::backend_ops`].
    pub cache: CacheStats,
    /// What this advice renders to, kept once a server has sent it.
    pub encoded: Encoded,
}

// The server shares cached advices across its connection threads, and
// a query's attribute names are `Arc<str>`s, shared between its clones:
// the three types stay `Send + Sync`, or this stops compiling.
const _: fn() = || {
    fn send_sync<T: Send + Sync>() {}
    send_sync::<Query>();
    send_sync::<charles_sdl::Segmentation>();
    send_sync::<Advice>();
};

/// Write-once slots for the two rendered forms of an [`Advice`] a
/// server sends — one binary, one text. The core stores what it is
/// handed and knows neither format: whoever first sends the advice
/// passes the renderer, every later send borrows the stored form.
///
/// The slots belong to one `Advice` value and are freed with it; they
/// describe its other fields as they were at the first send, so code
/// that edits an advice in place afterwards must also reset `encoded`.
/// A clone starts with empty slots, and `Debug` prints the same whether
/// or not they are filled.
#[derive(Default)]
pub struct Encoded {
    binary: OnceLock<Box<[u8]>>,
    text: OnceLock<Box<str>>,
}

impl Encoded {
    /// The binary form: `render` runs on the first call only (racing
    /// first calls run one renderer and share its output).
    pub fn binary(&self, render: impl FnOnce() -> Vec<u8>) -> &[u8] {
        self.binary.get_or_init(|| render().into_boxed_slice())
    }

    /// The text form; as [`Encoded::binary`].
    pub fn text(&self, render: impl FnOnce() -> String) -> &str {
        self.text.get_or_init(|| render().into_boxed_str())
    }
}

impl Clone for Encoded {
    fn clone(&self) -> Encoded {
        Encoded::default()
    }
}

impl std::fmt::Debug for Encoded {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("Encoded")
    }
}

impl<'a> Advisor<'a> {
    /// Advisor with the paper-default configuration.
    pub fn new(backend: &'a dyn Backend) -> Advisor<'a> {
        Advisor {
            backend,
            config: Config::default(),
        }
    }

    /// Advisor with an explicit configuration.
    pub fn with_config(backend: &'a dyn Backend, config: Config) -> Advisor<'a> {
        Advisor { backend, config }
    }

    /// Admission gate shared by [`Advisor::advise`] and the advice
    /// cache: analyze the context ([`charles_sdl::admit`], which builds
    /// a normal form only for repeated attributes) and decide what (if
    /// anything) the expensive machinery should see.
    ///
    /// * ill-typed → [`CoreError::InvalidContext`] with the diagnostics;
    /// * provably empty → [`CoreError::UnsatisfiableContext`], before
    ///   any backend operation;
    /// * repeated attributes → the normalized (merged) query;
    /// * otherwise → the context untouched, so analysis is invisible on
    ///   every context the parser accepted before analysis existed.
    ///
    /// With `config.analysis` off, every context passes through verbatim.
    pub(crate) fn admit(&self, context: Query) -> CoreResult<Query> {
        if !self.config.analysis {
            return Ok(context);
        }
        charles_sdl::admit(context, self.backend.schema()).map_err(|report| {
            if report.is_valid() {
                CoreError::UnsatisfiableContext
            } else {
                CoreError::InvalidContext(report.into_errors())
            }
        })
    }

    /// Advise on a context given as an SDL query.
    ///
    /// The context is statically analyzed first (unless disabled via
    /// [`Config::analysis`]): ill-typed or provably-empty contexts
    /// error out with zero backend operations, and repeated-attribute
    /// conjunctions are merged before advising.
    ///
    /// A context whose rows are uniform in every attribute (nothing is
    /// cuttable) is a legitimate leaf of the exploration, not a failure:
    /// it yields an `Advice` with an empty `ranked` list. Other errors
    /// (bad config, empty context, backend failures) propagate.
    pub fn advise(&self, context: Query) -> CoreResult<Advice> {
        let context = self.admit(context)?;
        // The run counts its own store work (`Explorer::backend_ops`);
        // these two calls only bracket it for a backend that times the
        // interval between them, as the benchmark's tracing backend does.
        self.backend.reset_stats();
        let ex = Explorer::new(self.backend, self.config.clone(), context.clone())?;
        let (ranked, trace) = match hb_cuts(&ex) {
            Ok(out) => (out.ranked, out.trace),
            Err(crate::error::CoreError::NoCuttableAttribute) => {
                // Leaf trace: every attribute was constant (skipped), no
                // pair ever existed to compose. Keeps the "why zero
                // answers" question answerable from the trace alone.
                let trace = Trace {
                    seeds: Vec::new(),
                    skipped: ex.attributes().iter().map(|s| s.to_string()).collect(),
                    steps: Vec::new(),
                    skipped_pairs: Vec::new(),
                    stop: Some(crate::hbcuts::StopReason::ExhaustedCandidates),
                };
                (Vec::new(), trace)
            }
            Err(other) => return Err(other),
        };
        let _ = self.backend.stats();
        Ok(Advice {
            context,
            context_size: ex.context_size(),
            ranked,
            trace,
            backend_ops: ex.backend_ops(),
            cache: ex.cache_stats(),
            encoded: Encoded::default(),
        })
    }

    /// Advise on a context given in SDL's textual syntax, e.g.
    /// `"(type: , tonnage: [1000,5000])"`.
    pub fn advise_str(&self, sdl: &str) -> CoreResult<Advice> {
        let context = parse_query(sdl, self.backend.schema())?;
        self.advise(context)
    }
}

impl Advice {
    /// The query of segment `seg_idx` of answer `rank_idx` — what the user
    /// clicks to drill down.
    pub fn segment(&self, rank_idx: usize, seg_idx: usize) -> Option<&Query> {
        self.ranked
            .get(rank_idx)
            .and_then(|r| r.segmentation.queries().get(seg_idx))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use charles_store::{
        Bitmap, DataType, FrequencyTable, Schema, StoreError, StorePredicate, StoreResult,
        TableBuilder, Value,
    };

    /// A backend that knows its schema and size and fails every call
    /// that would read a row: advice that gets past admission errs.
    struct SchemaOnly(Schema);

    fn no_rows<T>() -> StoreResult<T> {
        Err(StoreError::Io(
            "the schema-only backend reads no rows".into(),
        ))
    }

    impl Backend for SchemaOnly {
        fn row_count(&self) -> usize {
            8
        }
        fn schema(&self) -> &Schema {
            &self.0
        }
        fn eval(&self, _: &StorePredicate) -> StoreResult<Bitmap> {
            no_rows()
        }
        fn not_null(&self, _: &str) -> StoreResult<Bitmap> {
            no_rows()
        }
        fn count(&self, _: &StorePredicate) -> StoreResult<usize> {
            no_rows()
        }
        fn median(&self, _: &str, _: &Bitmap) -> StoreResult<Option<Value>> {
            no_rows()
        }
        fn sampled_median(
            &self,
            _: &str,
            _: &Bitmap,
            _: usize,
            _: u64,
        ) -> StoreResult<Option<Value>> {
            no_rows()
        }
        fn quantile(&self, _: &str, _: &Bitmap, _: f64) -> StoreResult<Option<Value>> {
            no_rows()
        }
        fn min_max(&self, _: &str, _: &Bitmap) -> StoreResult<Option<(Value, Value)>> {
            no_rows()
        }
        fn next_above(&self, _: &str, _: &Bitmap, _: &Value) -> StoreResult<Option<Value>> {
            no_rows()
        }
        fn mean_and_var(&self, _: &str, _: &Bitmap) -> StoreResult<Option<(f64, f64)>> {
            no_rows()
        }
        fn frequencies(&self, _: &str, _: &Bitmap) -> StoreResult<(FrequencyTable, Vec<String>)> {
            no_rows()
        }
        fn distinct_count(&self, _: &str, _: &Bitmap) -> StoreResult<usize> {
            no_rows()
        }
    }

    fn schema_only() -> SchemaOnly {
        SchemaOnly(voc_like().schema().clone())
    }

    fn voc_like() -> charles_store::Table {
        let mut b = TableBuilder::new("boats");
        b.add_column("type", DataType::Str)
            .add_column("tonnage", DataType::Int)
            .add_column("harbour", DataType::Str);
        let rows = [
            ("fluit", 1000, "Bantam"),
            ("fluit", 1050, "Bantam"),
            ("fluit", 1100, "Rammekens"),
            ("fluit", 1150, "Rammekens"),
            ("jacht", 2400, "Surat"),
            ("jacht", 2500, "Surat"),
            ("jacht", 2600, "Zeeland"),
            ("jacht", 2700, "Zeeland"),
        ];
        for (ty, t, h) in rows {
            b.push_row(vec![Value::str(ty), Value::Int(t), Value::str(h)])
                .unwrap();
        }
        b.finish()
    }

    #[test]
    fn advise_returns_ranked_answers() {
        let t = voc_like();
        let advisor = Advisor::new(&t);
        let advice = advisor
            .advise_str("(type: , tonnage: , harbour: )")
            .unwrap();
        assert_eq!(advice.context_size, 8);
        assert!(!advice.ranked.is_empty());
        // Entropy-descending order.
        for w in advice.ranked.windows(2) {
            assert!(w[0].score.entropy >= w[1].score.entropy - 1e-12);
        }
        // Backend actually worked.
        assert!(advice.backend_ops.scans > 0);
        assert!(advice.backend_ops.medians > 0);
    }

    #[test]
    fn advise_with_constrained_context() {
        let t = voc_like();
        let advisor = Advisor::new(&t);
        let advice = advisor.advise_str("(type: {fluit}, tonnage: )").unwrap();
        assert_eq!(advice.context_size, 4);
        // All proposed segments stay within the fluit context.
        for r in &advice.ranked {
            for q in r.segmentation.queries() {
                let p = q.constraint("type");
                assert!(p.is_some(), "{q} lost the context constraint");
            }
        }
    }

    #[test]
    fn advise_bad_sdl_errors() {
        let t = voc_like();
        let advisor = Advisor::new(&t);
        assert!(advisor.advise_str("(nope: )").is_err());
        assert!(advisor.advise_str("garbage").is_err());
    }

    #[test]
    fn segment_accessor() {
        let t = voc_like();
        let advisor = Advisor::new(&t);
        let advice = advisor.advise_str("(type: , tonnage: )").unwrap();
        assert!(advice.segment(0, 0).is_some());
        assert!(advice.segment(999, 0).is_none());
    }

    #[test]
    fn encoded_slots_render_once_and_stay_with_their_advice() {
        let t = voc_like();
        let advice = Advisor::new(&t).advise_str("(type: , tonnage: )").unwrap();
        let before = format!("{advice:?}");

        // First call renders, later calls borrow what it stored — the
        // two slots independently.
        assert_eq!(advice.encoded.binary(|| vec![1, 2, 3]), [1, 2, 3]);
        assert_eq!(
            advice.encoded.binary(|| unreachable!("rendered once")),
            [1, 2, 3]
        );
        assert_eq!(advice.encoded.text(|| "abc".to_string()), "abc");
        assert_eq!(advice.encoded.text(|| unreachable!("rendered once")), "abc");

        // Serving leaves no mark on `Debug`.
        assert_eq!(format!("{advice:?}"), before);

        // A clone starts empty: it renders for itself, and what it
        // stores is not its original's.
        let clone = advice.clone();
        assert_eq!(clone.encoded.binary(|| vec![9]), [9]);
        assert_eq!(clone.encoded.text(|| "z".to_string()), "z");
        assert_eq!(
            advice.encoded.binary(|| unreachable!("rendered once")),
            [1, 2, 3]
        );
        assert_eq!(format!("{clone:?}"), before);
    }

    #[test]
    fn racing_first_renders_store_one() {
        let t = voc_like();
        let advice = Advisor::new(&t).advise_str("(type: , tonnage: )").unwrap();
        let rendered = std::sync::atomic::AtomicUsize::new(0);
        let barrier = std::sync::Barrier::new(4);
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    barrier.wait();
                    let bytes = advice.encoded.binary(|| {
                        rendered.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                        vec![7; 64]
                    });
                    assert_eq!(bytes, [7; 64]);
                });
            }
        });
        assert_eq!(rendered.load(std::sync::atomic::Ordering::Relaxed), 1);
    }

    #[test]
    fn config_flows_through() {
        let t = voc_like();
        let advisor = Advisor::with_config(&t, Config::default().with_max_results(1));
        let advice = advisor.advise_str("(type: , tonnage: )").unwrap();
        assert_eq!(advice.ranked.len(), 1);
    }

    #[test]
    fn ill_typed_contexts_are_rejected_with_diagnostics() {
        use charles_sdl::DiagnosticCode;
        use charles_sdl::{Constraint, Predicate};
        // Over a backend that reads no row: every rejection below comes
        // from analysis, none from a failed read.
        let t = schema_only();
        let advisor = Advisor::new(&t);
        // A quoted literal on an int column is the one ill-typed form
        // the parser lets through (a quoted literal is always a string).
        match advisor.advise_str("(tonnage: {'abc'})") {
            Err(CoreError::InvalidContext(diags)) => {
                assert_eq!(diags.len(), 1);
                assert_eq!(diags[0].code, DiagnosticCode::TypeMismatch);
                assert_eq!(diags[0].attr, "tonnage");
            }
            other => panic!("expected InvalidContext, got {other:?}"),
        }
        // The other error codes need hand-built queries (the parser's
        // validating constructors reject them textually); `advise` must
        // still catch them for programmatic callers.
        let cases: [(Query, DiagnosticCode); 4] = [
            (Query::wildcard(&["nope"]), DiagnosticCode::UnknownAttribute),
            (
                Query::conjunction(vec![Predicate::new(
                    "tonnage",
                    Constraint::Range {
                        lo: Value::Int(9),
                        hi: Value::Int(1),
                        hi_inclusive: true,
                    },
                )]),
                DiagnosticCode::EmptyRange,
            ),
            (
                Query::conjunction(vec![Predicate::new("type", Constraint::Set(vec![]))]),
                DiagnosticCode::EmptySet,
            ),
            (
                Query::conjunction(vec![Predicate::new(
                    "tonnage",
                    Constraint::Set(vec![Value::Int(1), Value::str("abc")]),
                )]),
                DiagnosticCode::MixedTypeSet,
            ),
        ];
        for (q, code) in cases {
            match advisor.advise(q.clone()) {
                Err(CoreError::InvalidContext(diags)) => {
                    assert_eq!(diags[0].code, code, "{q}");
                }
                other => panic!("{q}: expected InvalidContext, got {other:?}"),
            }
        }
    }

    #[test]
    fn unsatisfiable_context_costs_zero_backend_ops() {
        // Any read would be an `Io` error instead of the prune.
        let t = schema_only();
        let advisor = Advisor::new(&t);
        let err = advisor
            .advise_str("(tonnage: [0,100], tonnage: [200,300])")
            .unwrap_err();
        assert_eq!(err, CoreError::UnsatisfiableContext);
        // A satisfiable context does reach the backend.
        assert!(matches!(
            advisor.advise_str("(tonnage: [0,100])"),
            Err(CoreError::Store(StoreError::Io(_)))
        ));
    }

    #[test]
    fn redundant_conjuncts_merge_before_advising() {
        let t = voc_like();
        let advisor = Advisor::new(&t);
        let merged = advisor
            .advise_str("(tonnage: [0,2000], tonnage: [500,9999], type: )")
            .unwrap();
        let plain = advisor.advise_str("(tonnage: [500,2000], type: )").unwrap();
        assert_eq!(merged.context, plain.context.canonicalized());
        assert_eq!(merged.context_size, plain.context_size);
        assert_eq!(
            format!("{:?}", merged.ranked),
            format!("{:?}", plain.ranked)
        );
    }

    #[test]
    fn analysis_off_feeds_contexts_verbatim() {
        let t = voc_like();
        let advisor = Advisor::with_config(&t, Config::default().with_analysis(false));
        // Unsatisfiable conjunction now reaches evaluation and selects
        // zero rows — the pre-analysis behavior.
        let err = advisor
            .advise_str("(tonnage: [0,100], tonnage: [200,300])")
            .unwrap_err();
        assert_eq!(err, CoreError::EmptyContext);
    }
}
