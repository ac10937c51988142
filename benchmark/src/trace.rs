//! The per-layer trace: spans recorded from the benchmark's own files
//! around the calls into each layer, kept in memory, attributed to ops
//! after the fact and written out as JSON lines when the run ends.
//!
//! The one seam every workload shares is [`Backend`]: the advisor takes
//! `&dyn Backend` and the server `Arc<dyn Backend>`, so a
//! [`TracedBackend`] in front of the real table sees every store call
//! on both paths. It also sees `Advisor::advise` itself, because that
//! function's first backend call is `reset_stats()` and its last is
//! `stats()`, both on the calling thread: the interval between them is
//! recorded as a `core.advise` span, which is how a *served* advise run
//! gets a span without touching the server.
//!
//! Spans carry no ids while they are recorded. The load is one
//! closed-loop caller, so ops are disjoint in time and attribution is
//! plain containment: a span belongs to the op whose interval holds it,
//! and a `store.*` span's parent is the `core.advise` span that holds
//! it.

use crate::sys::cpu_ns;
use charles_store::{
    Backend, BackendStats, Bitmap, FrequencyTable, Schema, StorePredicate, StoreResult, Value,
};
use std::cell::Cell;
use std::collections::BTreeMap;
use std::io::Write;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Name of the root span of one op.
pub const OP: &str = "op";
/// Name of the span bracketing one `Advisor::advise` run.
pub const ADVISE: &str = "core.advise";

/// A recorded interval, before attribution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RawSpan {
    /// Layer-qualified name, e.g. `store.eval`.
    pub name: &'static str,
    /// Nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// Nanoseconds since the recorder was created.
    pub end_ns: u64,
}

impl RawSpan {
    fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// An attributed span, as written to the `.jsonl` file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Index of the op this span belongs to; `None` if no op holds it.
    pub op_id: Option<usize>,
    /// Index (line number) of the parent span; `None` for ops.
    pub parent: Option<usize>,
    /// The interval itself.
    pub raw: RawSpan,
}

/// Thread-safe in-memory span sink with an on/off switch, so one
/// set-up can run an untraced cycle and a traced one back to back.
pub struct Recorder {
    base: Instant,
    enabled: AtomicBool,
    spans: Mutex<Vec<RawSpan>>,
}

thread_local! {
    /// Start of the `Advisor::advise` run in progress on this thread.
    static ADVISE_START: Cell<Option<u64>> = const { Cell::new(None) };
}

impl Recorder {
    /// A recorder that starts switched off.
    pub fn new() -> Arc<Recorder> {
        Arc::new(Recorder {
            base: Instant::now(),
            enabled: AtomicBool::new(false),
            spans: Mutex::new(Vec::new()),
        })
    }

    /// Switch recording on or off.
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::SeqCst);
    }

    fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    fn now_ns(&self) -> u64 {
        self.base.elapsed().as_nanos() as u64
    }

    fn push(&self, name: &'static str, start_ns: u64) {
        let span = RawSpan {
            name,
            start_ns,
            end_ns: self.now_ns(),
        };
        self.spans.lock().expect("span sink poisoned").push(span);
    }

    /// Run `f`, recording it as a span named `name` when switched on.
    pub fn span<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.enabled() {
            return f();
        }
        let start = self.now_ns();
        let out = f();
        self.push(name, start);
        out
    }

    /// Take everything recorded so far.
    pub fn drain(&self) -> Vec<RawSpan> {
        std::mem::take(&mut *self.spans.lock().expect("span sink poisoned"))
    }
}

/// What one op or step cost: the caller's wall time, and the CPU time
/// of the whole process — server threads and `par_map` workers too.
#[derive(Debug, Clone, Copy)]
pub struct Cost {
    /// Wall time.
    pub wall: Duration,
    /// Process CPU nanoseconds.
    pub cpu_ns: u64,
}

/// Run `f` as one op: time it, and record it as a root span when a
/// recorder is present and switched on. The returned wall time is what
/// the end-to-end run samples, so both runs time the same interval; the
/// CPU clock is read outside it.
pub fn op<T>(rec: Option<&Recorder>, f: impl FnOnce() -> T) -> (T, Cost) {
    let cpu0 = cpu_ns();
    let t0 = Instant::now();
    let out = match rec {
        Some(rec) => rec.span(OP, f),
        None => f(),
    };
    let wall = t0.elapsed();
    let cpu_ns = cpu_ns() - cpu0;
    (out, Cost { wall, cpu_ns })
}

/// A [`Backend`] that delegates to the real one and records a span per
/// call (see the module docs for the `core.advise` bracket).
pub struct TracedBackend {
    inner: Arc<dyn Backend>,
    rec: Arc<Recorder>,
}

impl TracedBackend {
    /// Wrap `inner`, reporting to `rec`.
    pub fn new(inner: Arc<dyn Backend>, rec: Arc<Recorder>) -> TracedBackend {
        TracedBackend { inner, rec }
    }
}

impl Backend for TracedBackend {
    fn row_count(&self) -> usize {
        self.inner.row_count()
    }

    fn schema(&self) -> &Schema {
        self.inner.schema()
    }

    fn eval(&self, pred: &StorePredicate) -> StoreResult<Bitmap> {
        self.rec.span("store.eval", || self.inner.eval(pred))
    }

    fn not_null(&self, column: &str) -> StoreResult<Bitmap> {
        self.rec
            .span("store.not_null", || self.inner.not_null(column))
    }

    fn count(&self, pred: &StorePredicate) -> StoreResult<usize> {
        self.rec.span("store.count", || self.inner.count(pred))
    }

    fn median(&self, column: &str, sel: &Bitmap) -> StoreResult<Option<Value>> {
        self.rec
            .span("store.median", || self.inner.median(column, sel))
    }

    fn sampled_median(
        &self,
        column: &str,
        sel: &Bitmap,
        sample_size: usize,
        seed: u64,
    ) -> StoreResult<Option<Value>> {
        self.rec.span("store.sampled_median", || {
            self.inner.sampled_median(column, sel, sample_size, seed)
        })
    }

    fn quantile(&self, column: &str, sel: &Bitmap, q: f64) -> StoreResult<Option<Value>> {
        self.rec
            .span("store.quantile", || self.inner.quantile(column, sel, q))
    }

    fn min_max(&self, column: &str, sel: &Bitmap) -> StoreResult<Option<(Value, Value)>> {
        self.rec
            .span("store.min_max", || self.inner.min_max(column, sel))
    }

    fn next_above(&self, column: &str, sel: &Bitmap, v: &Value) -> StoreResult<Option<Value>> {
        self.rec
            .span("store.next_above", || self.inner.next_above(column, sel, v))
    }

    fn mean_and_var(&self, column: &str, sel: &Bitmap) -> StoreResult<Option<(f64, f64)>> {
        self.rec.span("store.mean_and_var", || {
            self.inner.mean_and_var(column, sel)
        })
    }

    fn frequencies(
        &self,
        column: &str,
        sel: &Bitmap,
    ) -> StoreResult<(FrequencyTable, Vec<String>)> {
        self.rec
            .span("store.frequencies", || self.inner.frequencies(column, sel))
    }

    fn distinct_count(&self, column: &str, sel: &Bitmap) -> StoreResult<usize> {
        self.rec.span("store.distinct_count", || {
            self.inner.distinct_count(column, sel)
        })
    }

    fn stats(&self) -> BackendStats {
        if let Some(start) = ADVISE_START.with(Cell::take) {
            if self.rec.enabled() {
                self.rec.push(ADVISE, start);
            }
        }
        self.inner.stats()
    }

    fn reset_stats(&self) {
        ADVISE_START.with(|s| s.set(Some(self.rec.now_ns())));
        self.inner.reset_stats()
    }
}

/// Total length of the union of `intervals` (sorted in place).
pub fn union_ns(intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let (mut total, mut reach) = (0, 0);
    for &(start, end) in intervals.iter() {
        let start = start.max(reach);
        if end > start {
            total += end - start;
            reach = end;
        }
    }
    total
}

/// A span's self time: its duration minus the union of its children,
/// each clipped to the span. Union, so children running concurrently
/// under `par_map` are not counted twice.
pub fn self_ns(span: &RawSpan, children: &[RawSpan]) -> u64 {
    let mut clipped: Vec<(u64, u64)> = children
        .iter()
        .map(|c| {
            (
                c.start_ns.max(span.start_ns),
                c.end_ns.min(span.end_ns).max(span.start_ns),
            )
        })
        .collect();
    span.ns() - union_ns(&mut clipped)
}

/// Index of the span in `holders` (disjoint, ascending by start) whose
/// interval contains `span`.
fn holder(holders: &[(usize, RawSpan)], span: &RawSpan) -> Option<usize> {
    let after = holders.partition_point(|(_, h)| h.start_ns <= span.start_ns);
    let (idx, h) = holders.get(after.checked_sub(1)?)?;
    (span.end_ns <= h.end_ns).then_some(*idx)
}

/// Attribute raw spans: ops first (numbered in time order), every other
/// span to the op that contains it, `store.*` spans under the
/// `core.advise` span that contains them.
pub fn attribute(mut raw: Vec<RawSpan>) -> Vec<Span> {
    raw.sort_by_key(|s| (s.start_ns, std::cmp::Reverse(s.end_ns)));
    let indexed = |name: &str| -> Vec<(usize, RawSpan)> {
        raw.iter()
            .enumerate()
            .filter(|(_, s)| s.name == name)
            .map(|(i, s)| (i, *s))
            .collect()
    };
    let ops = indexed(OP);
    let advises = indexed(ADVISE);
    let op_number: BTreeMap<usize, usize> =
        ops.iter().enumerate().map(|(n, (i, _))| (*i, n)).collect();
    raw.iter()
        .enumerate()
        .map(|(i, s)| {
            if s.name == OP {
                return Span {
                    op_id: Some(op_number[&i]),
                    parent: None,
                    raw: *s,
                };
            }
            let op = holder(&ops, s);
            let parent = match op {
                Some(_) if s.name.starts_with("store.") => holder(&advises, s).or(op),
                other => other,
            };
            Span {
                op_id: op.map(|o| op_number[&o]),
                parent,
                raw: *s,
            }
        })
        .collect()
}

/// Calls and busy time of one span name, summed over ops. Busy time is
/// the per-op union of that name's spans.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Busy {
    /// Number of spans.
    pub calls: u64,
    /// Nanoseconds at least one of them was running.
    pub busy_ns: u64,
}

/// Where the time of the traced ops went.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Breakdown {
    /// Ops traced.
    pub ops: u64,
    /// Sum of op span durations.
    pub op_ns: u64,
    /// Sum of op self times: op time no child span accounts for.
    pub op_self_ns: u64,
    /// Sum of `core.advise` span durations.
    pub advise_ns: u64,
    /// Sum of `core.advise` self times (advise minus store children).
    pub advise_self_ns: u64,
    /// Per op, the union of all `store.*` spans, summed.
    pub store_busy_ns: u64,
    /// Per span name (ops excluded).
    pub by_name: BTreeMap<&'static str, Busy>,
    /// Spans no op contains (a closed-loop run should have none).
    pub orphans: u64,
    /// Per op: its duration and the duration of the advise runs inside
    /// it, in op order (served miss overhead is the difference).
    pub per_op: Vec<(u64, u64)>,
}

impl Breakdown {
    /// Share of op time that named child spans account for.
    pub fn coverage_pct(&self) -> f64 {
        100.0 * (self.op_ns - self.op_self_ns) as f64 / (self.op_ns as f64).max(1.0)
    }
}

/// Fold attributed spans into per-layer totals.
pub fn breakdown(spans: &[Span]) -> Breakdown {
    let mut children: BTreeMap<usize, Vec<RawSpan>> = BTreeMap::new();
    let mut by_op: BTreeMap<usize, Vec<RawSpan>> = BTreeMap::new();
    let mut out = Breakdown::default();
    for s in spans.iter().filter(|s| s.raw.name != OP) {
        match (s.op_id, s.parent) {
            (Some(op), Some(parent)) => {
                children.entry(parent).or_default().push(s.raw);
                by_op.entry(op).or_default().push(s.raw);
            }
            _ => out.orphans += 1,
        }
    }
    let none = Vec::new();
    for (i, s) in spans.iter().enumerate() {
        let kids = children.get(&i).unwrap_or(&none);
        if s.raw.name == OP {
            out.ops += 1;
            out.op_ns += s.raw.ns();
            out.op_self_ns += self_ns(&s.raw, kids);
        } else if s.raw.name == ADVISE {
            out.advise_ns += s.raw.ns();
            out.advise_self_ns += self_ns(&s.raw, kids);
        }
    }
    for (op_index, op) in spans.iter().filter(|s| s.raw.name == OP).enumerate() {
        let inside = by_op.get(&op_index).unwrap_or(&none);
        let mut names: BTreeMap<&'static str, Vec<(u64, u64)>> = BTreeMap::new();
        for s in inside {
            names
                .entry(s.name)
                .or_default()
                .push((s.start_ns, s.end_ns));
        }
        let mut store = Vec::new();
        let mut advise_ns = 0;
        for (name, mut intervals) in names {
            let busy = out.by_name.entry(name).or_default();
            busy.calls += intervals.len() as u64;
            busy.busy_ns += union_ns(&mut intervals);
            if name.starts_with("store.") {
                store.extend(intervals);
            } else if name == ADVISE {
                advise_ns += intervals.iter().map(|(s, e)| e - s).sum::<u64>();
            }
        }
        out.store_busy_ns += union_ns(&mut store);
        out.per_op.push((op.raw.ns(), advise_ns));
    }
    out
}

/// Write attributed spans as JSON lines:
/// `{"op_id":…,"name":…,"parent":…,"start_ns":…,"end_ns":…}`.
pub fn write_jsonl(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    let opt = |v: Option<usize>| v.map_or("null".to_string(), |v| v.to_string());
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        writeln!(
            out,
            "{{\"op_id\":{},\"name\":\"{}\",\"parent\":{},\"start_ns\":{},\"end_ns\":{}}}",
            opt(s.op_id),
            s.raw.name,
            opt(s.parent),
            s.raw.start_ns,
            s.raw.end_ns
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn raw(name: &'static str, start_ns: u64, end_ns: u64) -> RawSpan {
        RawSpan {
            name,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn union_merges_overlaps_and_skips_gaps() {
        assert_eq!(union_ns(&mut []), 0);
        assert_eq!(union_ns(&mut [(0, 10)]), 10);
        assert_eq!(union_ns(&mut [(0, 10), (5, 15)]), 15);
        assert_eq!(union_ns(&mut [(20, 30), (0, 10)]), 20);
        assert_eq!(union_ns(&mut [(0, 10), (2, 3), (10, 12)]), 12);
        assert_eq!(union_ns(&mut [(5, 5), (0, 1)]), 1);
    }

    #[test]
    fn self_time_subtracts_the_union_of_clipped_children() {
        let parent = raw(ADVISE, 100, 200);
        // Two children overlapping on [130,150): union covers 60.
        let kids = [raw("store.eval", 110, 150), raw("store.eval", 130, 170)];
        assert_eq!(self_ns(&parent, &kids), 40);
        // A child sticking out is clipped to the parent.
        assert_eq!(self_ns(&parent, &[raw("store.eval", 50, 120)]), 80);
        assert_eq!(self_ns(&parent, &[raw("store.eval", 0, 50)]), 100);
        assert_eq!(self_ns(&parent, &[]), 100);
    }

    #[test]
    fn spans_are_attributed_by_containment() {
        let spans = attribute(vec![
            raw("store.eval", 120, 140), // op 0, under its advise
            raw(OP, 100, 200),
            raw(ADVISE, 110, 190),
            raw("store.median", 130, 160), // concurrent with the eval
            raw(OP, 300, 400),
            raw("serve.wire.recv", 310, 390), // op 1, no advise: parent is the op
            raw("store.eval", 250, 260),      // between ops: orphan
        ]);
        let find = |name: &str, start: u64| {
            spans
                .iter()
                .position(|s| s.raw.name == name && s.raw.start_ns == start)
                .unwrap()
        };
        let (op0, op1, advise) = (find(OP, 100), find(OP, 300), find(ADVISE, 110));
        assert_eq!(spans[op0].op_id, Some(0));
        assert_eq!(spans[op1].op_id, Some(1));
        assert_eq!(spans[advise].parent, Some(op0));
        assert_eq!(spans[find("store.eval", 120)].parent, Some(advise));
        assert_eq!(spans[find("store.median", 130)].op_id, Some(0));
        assert_eq!(spans[find("serve.wire.recv", 310)].parent, Some(op1));
        assert_eq!(spans[find("store.eval", 250)].op_id, None);

        let b = breakdown(&spans);
        assert_eq!(b.ops, 2);
        assert_eq!(b.orphans, 1);
        assert_eq!(b.op_ns, 200);
        // op 0: 100 − advise 80; op 1: 100 − recv 80.
        assert_eq!(b.op_self_ns, 40);
        assert_eq!(b.advise_ns, 80);
        // advise [110,190) minus union of [120,140) ∪ [130,160) = 40.
        assert_eq!(b.advise_self_ns, 40);
        assert_eq!(b.store_busy_ns, 40);
        assert_eq!(
            b.by_name["store.eval"],
            Busy {
                calls: 1,
                busy_ns: 20
            }
        );
        assert_eq!(b.per_op, vec![(100, 80), (100, 0)]);
        assert!((b.coverage_pct() - 80.0).abs() < 1e-9);
    }

    #[test]
    fn traced_backend_brackets_advise_and_counts_calls() {
        let table: Arc<dyn Backend> = Arc::new(charles_datagen::voc_table(2_000, 1));
        let rec = Recorder::new();
        let traced = TracedBackend::new(Arc::clone(&table), Arc::clone(&rec));
        let sdl = "(type_of_boat: , tonnage: , built: )";
        let advisor = charles_core::Advisor::new(&traced);
        // Switched off: same answer, nothing recorded.
        let quiet = advisor.advise_str(sdl).unwrap();
        assert!(rec.drain().is_empty());
        rec.set_enabled(true);
        let loud = rec.span(OP, || advisor.advise_str(sdl).unwrap());
        rec.set_enabled(false);
        assert_eq!(
            crate::oracle::advice_digest(&quiet),
            crate::oracle::advice_digest(&loud)
        );
        let b = breakdown(&attribute(rec.drain()));
        assert_eq!((b.ops, b.orphans), (1, 0));
        assert_eq!(b.by_name[ADVISE].calls, 1);
        assert!(b.by_name["store.eval"].calls > 0);
        assert!(b.by_name["store.median"].calls > 0);
        assert!(b.advise_self_ns < b.advise_ns && b.advise_ns <= b.op_ns);
        assert!(b.coverage_pct() > 50.0);
    }
}
