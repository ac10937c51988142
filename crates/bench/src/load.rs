//! `charles-load` — the production load harness for `charles-serve`.
//!
//! An **open-loop** driver: operation *i* of a scenario is scheduled at
//! `start + i / target_rps` regardless of how long earlier operations
//! took, and each operation's latency is measured **from its scheduled
//! start**, not from when a connection finally got around to sending
//! it. A closed-loop driver (send, wait, send) silently absorbs server
//! stalls into a lower offered rate — the coordinated-omission trap —
//! whereas this schedule bills every stall to the requests queued
//! behind it, which is what a production client would experience.
//!
//! The workload is the paper's interactive loop at scale: N keep-alive
//! connections each replay drill/back sessions against a live server —
//! `POST /session`, then `drill "0 0"` / `back` pairs, then `DELETE`.
//! A [`Proto`] switch picks the listener: the HTTP/JSON one (one
//! [`charles_serve::Client`] request per round trip) or the binary
//! wire-protocol one (a pipelined [`WireConn`], whole session bursts
//! staged per write). Session contexts are
//! drawn **hot** (a small fixed pool of canonical contexts, so repeat
//! sessions hit the shared [`charles_core::AdviceCache`]) or **cold**
//! (a never-repeating range predicate, so every advise runs HB-cuts)
//! with a configurable ratio — the cache-hit split is the single
//! biggest driver of tail latency, so scenarios pin it explicitly.
//!
//! Results ([`LoadResult`]) carry warmup-excluded p50/p95/p99/p999
//! from a dependency-free HDR-style [`Histogram`], achieved vs target
//! rate, error counts, and both ends' counters (client connects,
//! server `/metrics`, shared-cache `/cache/stats`). They serialize to
//! the committed `BENCH_serve.json` artefact (schema
//! `charles-load/v1`, validated by [`validate`]) and to a
//! [`ResultsCache`] so a grid sweep never re-runs a completed
//! configuration.

use crate::mini_json::{self, Json};
use charles_datagen::voc_table;
use charles_serve::{
    http_request, wire_request, Client, ClientConfig, ServeConfig, Server, ServerHandle, WireConn,
    WireError, WireRequest, WireResponse,
};
use charles_store::Backend;
use std::collections::{HashMap, VecDeque};
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Schema tag stamped into every emitted result document.
pub const RESULT_SCHEMA: &str = "charles-load/v1";

// ---------------------------------------------------------------------------
// Histogram
// ---------------------------------------------------------------------------

/// Values below this are counted exactly (one bucket per microsecond).
const LINEAR_MAX: u64 = 64;
/// Sub-buckets per power-of-two group above the linear range: 32 sub-
/// buckets bound the relative quantization error at 1/32 ≈ 3.1%.
const SUB_BUCKETS: usize = 32;
/// Power-of-two groups needed to cover the rest of the u64 range.
const GROUPS: usize = 58;
const SLOTS: usize = LINEAR_MAX as usize + GROUPS * SUB_BUCKETS;

/// A fixed-footprint log-linear latency histogram (HDR-histogram
/// style, dependency-free): microsecond-exact below `LINEAR_MAX`
/// (64), ≤ ~3.1% relative error above, covering the full `u64` range
/// in `SLOTS` (1920) counters. Recording is O(1); percentiles are one
/// cumulative walk. Per-worker histograms [`merge`](Histogram::merge)
/// into the scenario total, so the hot path never shares a counter.
#[derive(Clone)]
pub struct Histogram {
    counts: Vec<u64>,
    total: u64,
    sum: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram::new()
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Histogram {
        Histogram {
            counts: vec![0; SLOTS],
            total: 0,
            sum: 0,
            max: 0,
        }
    }

    fn slot(value: u64) -> usize {
        if value < LINEAR_MAX {
            return value as usize;
        }
        // value ∈ [2^(g+5), 2^(g+6)) maps into group g's 32 sub-buckets.
        let group = (63 - value.leading_zeros() as u64 - 5) as usize;
        let sub = ((value >> group) - SUB_BUCKETS as u64) as usize;
        LINEAR_MAX as usize + (group - 1) * SUB_BUCKETS + sub
    }

    /// The largest value a slot can hold (the bound percentiles report).
    fn slot_upper(slot: usize) -> u64 {
        if slot < LINEAR_MAX as usize {
            return slot as u64;
        }
        let group = (slot - LINEAR_MAX as usize) / SUB_BUCKETS + 1;
        let sub = ((slot - LINEAR_MAX as usize) % SUB_BUCKETS) as u64;
        ((sub + SUB_BUCKETS as u64 + 1) << group) - 1
    }

    /// Record one value (saturating on the u64 running sum).
    pub fn record(&mut self, value: u64) {
        self.counts[Histogram::slot(value)] += 1;
        self.total += 1;
        self.sum = self.sum.saturating_add(value);
        self.max = self.max.max(value);
    }

    /// Fold another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        for (mine, theirs) in self.counts.iter_mut().zip(&other.counts) {
            *mine += theirs;
        }
        self.total += other.total;
        self.sum = self.sum.saturating_add(other.sum);
        self.max = self.max.max(other.max);
    }

    /// Total recorded values.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Exact maximum recorded value (not bucket-quantized).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Mean of recorded values (0 when empty).
    pub fn mean(&self) -> u64 {
        self.sum.checked_div(self.total).unwrap_or(0)
    }

    /// The value at or below which `p` percent of recordings fall
    /// (upper bucket bound; exact for the maximum). 0 when empty.
    pub fn percentile(&self, p: f64) -> u64 {
        if self.total == 0 {
            return 0;
        }
        let target = ((p / 100.0) * self.total as f64).ceil() as u64;
        let target = target.clamp(1, self.total);
        let mut seen = 0u64;
        for (slot, &count) in self.counts.iter().enumerate() {
            seen += count;
            if seen >= target {
                // Never report past the true maximum.
                return Histogram::slot_upper(slot).min(self.max);
            }
        }
        self.max
    }
}

// ---------------------------------------------------------------------------
// Scenario configuration
// ---------------------------------------------------------------------------

/// Which listener a scenario drives: the JSON/HTTP one or the binary
/// wire-protocol one. Both dispatch through the same API layer on the
/// server, so a scenario measures pure framing + pipelining overhead
/// when only this knob changes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Proto {
    /// HTTP/1.1 keep-alive, one request per round trip ([`Client`]).
    #[default]
    Http,
    /// Length-prefixed binary frames, pipelined ([`WireConn`]).
    Binary,
}

impl Proto {
    /// Stable lowercase name (fingerprints, flags, artefacts).
    pub fn as_str(self) -> &'static str {
        match self {
            Proto::Http => "http",
            Proto::Binary => "binary",
        }
    }

    /// Parse a `--proto` flag value.
    pub fn parse(s: &str) -> Option<Proto> {
        match s {
            "http" => Some(Proto::Http),
            "binary" => Some(Proto::Binary),
            _ => None,
        }
    }
}

/// One load scenario: dataset shape, server knobs and offered load.
/// [`fingerprint`](ScenarioConfig::fingerprint) is the identity the
/// [`ResultsCache`] keys on — every field that changes the measurement
/// is part of it.
#[derive(Debug, Clone)]
pub struct ScenarioConfig {
    /// Scenario label (shows up in tables and the result artefact).
    pub name: String,
    /// Rows in the synthetic VOC backend (in-process runs only).
    pub rows: usize,
    /// Server worker threads.
    pub server_workers: usize,
    /// Advice-cache shard count.
    pub cache_shards: usize,
    /// Advice-cache entry bound (0 = unbounded).
    pub cache_capacity: usize,
    /// Client connections = concurrent load workers.
    pub connections: usize,
    /// Offered operation rate (ops/second, open-loop schedule).
    pub target_rps: f64,
    /// Measured window (after warmup).
    pub duration: Duration,
    /// Operations scheduled inside this initial window are excluded
    /// from the measured histogram (cold caches, first connects).
    pub warmup: Duration,
    /// Percentage (0–100) of sessions drawn from the hot context pool;
    /// the rest use never-repeating cold contexts.
    pub hot_percent: u32,
    /// Drill/back pairs per session between start and delete.
    pub drills_per_session: usize,
    /// Which listener to drive (HTTP/JSON or the binary wire protocol).
    pub proto: Proto,
}

impl ScenarioConfig {
    /// The pinned smoke scenario CI runs on every push and whose result
    /// is committed as `BENCH_serve.json`. Small enough for a debug CI
    /// box (~3.5 s wall, ~500 ops), hot-heavy so the cache-hit path —
    /// the common production case — dominates the percentiles.
    pub fn smoke() -> ScenarioConfig {
        ScenarioConfig {
            name: "smoke".to_string(),
            rows: 4_000,
            server_workers: 8,
            cache_shards: 16,
            cache_capacity: 1024,
            connections: 4,
            target_rps: 150.0,
            duration: Duration::from_millis(3_000),
            warmup: Duration::from_millis(500),
            hot_percent: 90,
            drills_per_session: 2,
            proto: Proto::Http,
        }
    }

    /// The saturation scenario the proto A/B runs on both listeners:
    /// 100% hot contexts (every advise is a cache hit), drill-dense
    /// sessions (long pipelinable bursts between session starts), and a
    /// target rate far past what either listener can serve — the
    /// open-loop schedule is permanently behind, so workers issue
    /// back-to-back and `achieved_rps` measures saturation throughput
    /// of cached-advice traffic.
    pub fn throughput(proto: Proto) -> ScenarioConfig {
        ScenarioConfig {
            name: format!("throughput-{}", proto.as_str()),
            target_rps: 1_000_000.0,
            duration: Duration::from_millis(48),
            warmup: Duration::from_millis(12),
            connections: 2,
            hot_percent: 100,
            drills_per_session: 16,
            proto,
            ..ScenarioConfig::smoke()
        }
    }

    /// Stable identity string: every measurement-relevant knob,
    /// pipe-joined. Cached results are keyed by this.
    pub fn fingerprint(&self) -> String {
        format!(
            "name={}|rows={}|sworkers={}|cshards={}|ccap={}|conns={}|rate={:.3}|dur={}|warm={}|hot={}|drills={}|proto={}",
            self.name,
            self.rows,
            self.server_workers,
            self.cache_shards,
            self.cache_capacity,
            self.connections,
            self.target_rps,
            self.duration.as_millis(),
            self.warmup.as_millis(),
            self.hot_percent,
            self.drills_per_session,
            self.proto.as_str(),
        )
    }

    /// Total operations the open-loop schedule will offer.
    pub fn total_ops(&self) -> u64 {
        let window = (self.warmup + self.duration).as_secs_f64();
        ((self.target_rps * window).round() as u64).max(1)
    }
}

// ---------------------------------------------------------------------------
// Session script (one worker's request stream)
// ---------------------------------------------------------------------------

/// Canonical contexts for **hot** sessions: a fixed pool, so repeat
/// sessions resolve to the same cache keys (the same pool the
/// cross-session concurrency harness pins byte-equality on).
const HOT_CONTEXTS: [&str; 4] = [
    "(type_of_boat: , tonnage: , departure_harbour: )",
    "(tonnage: , trip: )",
    "(type_of_boat: , built: )",
    "(departure_harbour: , tonnage: , trip: )",
];

/// Context for session number `n`: drawn from the hot pool
/// `hot_percent`% of the time, otherwise a never-repeating cold
/// predicate. Shared by the HTTP and wire scripts so a proto A/B
/// offers byte-identical context streams.
fn choose_context(n: u64, hot_percent: u32) -> String {
    if (n % 100) < hot_percent as u64 {
        HOT_CONTEXTS[(n % HOT_CONTEXTS.len() as u64) as usize].to_string()
    } else {
        format!("(type_of_boat: , tonnage: [0, {}])", 100_000 + n)
    }
}

/// One planned request: method, path, body and the status a healthy
/// server must answer with.
struct PlannedOp {
    method: &'static str,
    path: String,
    body: String,
    expect: u16,
}

/// What happened to a planned op, from the script's point of view.
enum OpOutcome<'a> {
    /// Expected status; `body` is borrowed for id extraction.
    Ok(&'a str),
    /// Wrong status or transport error — abandon the current session.
    Failed,
}

/// The per-worker session state machine: `start → (drill "0 0" →
/// back) × drills → delete`, then a fresh session. Context choice is
/// driven by a process-wide session counter so the hot/cold ratio
/// holds across workers. Cold contexts embed that counter in a range
/// predicate — same rows selected every time (tonnage tops out well
/// below the bound), but a distinct canonical cache key per session.
struct SessionScript {
    session_seq: Arc<AtomicU64>,
    hot_percent: u32,
    drills_per_session: usize,
    session_id: Option<String>,
    context: String,
    /// Steps completed inside the current session (0 = next is start).
    step: usize,
}

impl SessionScript {
    fn new(session_seq: Arc<AtomicU64>, hot_percent: u32, drills_per_session: usize) -> Self {
        SessionScript {
            session_seq,
            hot_percent,
            drills_per_session,
            session_id: None,
            context: String::new(),
            step: 0,
        }
    }

    fn next_op(&mut self) -> PlannedOp {
        if self.session_id.is_none() {
            let n = self.session_seq.fetch_add(1, Ordering::Relaxed);
            self.context = choose_context(n, self.hot_percent);
            self.step = 0;
            return PlannedOp {
                method: "POST",
                path: "/session".to_string(),
                body: self.context.clone(),
                expect: 201,
            };
        }
        let id = self.session_id.as_deref().expect("session is live");
        // Steps after start: drill, back, drill, back, …, delete.
        if self.step < 2 * self.drills_per_session {
            let drilling = self.step.is_multiple_of(2);
            self.step += 1;
            if drilling {
                PlannedOp {
                    method: "POST",
                    path: format!("/session/{id}/drill"),
                    body: "0 0".to_string(),
                    expect: 200,
                }
            } else {
                PlannedOp {
                    method: "POST",
                    path: format!("/session/{id}/back"),
                    body: String::new(),
                    expect: 200,
                }
            }
        } else {
            PlannedOp {
                method: "DELETE",
                path: format!("/session/{id}"),
                body: String::new(),
                expect: 204,
            }
        }
    }

    fn observe(&mut self, op: &PlannedOp, outcome: OpOutcome) {
        match outcome {
            OpOutcome::Ok(body) => {
                if op.method == "POST" && op.path == "/session" {
                    self.session_id = extract_session_id(body);
                    if self.session_id.is_none() {
                        // 201 without an id would be a server bug; fall
                        // through to a fresh session rather than loop.
                        self.step = 0;
                    }
                } else if op.method == "DELETE" {
                    self.session_id = None;
                }
            }
            OpOutcome::Failed => {
                // Abandon the session; the server reaps it via the
                // registry (and the run ends with a bounded number of
                // live sessions either way).
                self.session_id = None;
            }
        }
    }
}

/// Pull `"s<N>"` out of a `{"session":"s<N>", …}` envelope without
/// paying for a full parse of the (large) advice payload.
fn extract_session_id(body: &str) -> Option<String> {
    let rest = body.split_once("\"session\":\"")?.1;
    let id = rest.split_once('"')?.0;
    (!id.is_empty()).then(|| id.to_string())
}

// ---------------------------------------------------------------------------
// Wire session script (the pipelined twin of SessionScript)
// ---------------------------------------------------------------------------

/// One planned wire operation (owned, so it can sit in the in-flight
/// queue while later frames are staged behind it).
enum WirePlan {
    Start(String),
    Drill(String),
    Back(String),
    Delete(String),
}

impl WirePlan {
    /// The status a healthy server must answer with (wire responses
    /// carry HTTP-equivalent statuses).
    fn expect(&self) -> u16 {
        match self {
            WirePlan::Start(_) => 201,
            WirePlan::Drill(_) | WirePlan::Back(_) => 200,
            WirePlan::Delete(_) => 204,
        }
    }
}

/// The same `start → (drill → back) × drills → delete` state machine
/// as [`SessionScript`], restructured for pipelining: every op after a
/// session's start depends only on the session **id**, so once the
/// `Started` response has resolved the id, the whole drill/back/delete
/// tail — plus the *next* session's start — can be staged back-to-back
/// without waiting for any response. The only pipeline bubble is
/// [`blocked`](WireScript::blocked): a start is in flight and its id
/// is not yet known.
struct WireScript {
    session_seq: Arc<AtomicU64>,
    hot_percent: u32,
    drills_per_session: usize,
    session_id: Option<String>,
    /// A start frame is in flight; ops that need its id must wait.
    start_pending: bool,
    step: usize,
}

impl WireScript {
    fn new(session_seq: Arc<AtomicU64>, hot_percent: u32, drills_per_session: usize) -> WireScript {
        WireScript {
            session_seq,
            hot_percent,
            drills_per_session,
            session_id: None,
            start_pending: false,
            step: 0,
        }
    }

    /// True while the next op cannot be planned yet (start in flight).
    fn blocked(&self) -> bool {
        self.start_pending
    }

    /// Plan the next op. Must not be called while [`blocked`](Self::blocked).
    fn next_op(&mut self) -> WirePlan {
        match self.session_id.clone() {
            None => {
                let n = self.session_seq.fetch_add(1, Ordering::Relaxed);
                self.start_pending = true;
                self.step = 0;
                WirePlan::Start(choose_context(n, self.hot_percent))
            }
            Some(id) => {
                if self.step < 2 * self.drills_per_session {
                    let drilling = self.step.is_multiple_of(2);
                    self.step += 1;
                    if drilling {
                        WirePlan::Drill(id)
                    } else {
                        WirePlan::Back(id)
                    }
                } else {
                    // The delete is staged, not answered — but nothing
                    // later references this session, so the next plan
                    // can start a fresh one immediately.
                    self.session_id = None;
                    WirePlan::Delete(id)
                }
            }
        }
    }

    /// The in-flight start resolved (id from the `Started` envelope;
    /// `None` — a protocol bug — falls through to a fresh session).
    fn started(&mut self, id: Option<String>) {
        self.start_pending = false;
        self.session_id = id;
    }

    /// The in-flight start failed; plan a fresh session next.
    fn start_failed(&mut self) {
        self.start_pending = false;
        self.session_id = None;
    }

    /// Transport loss: every in-flight op is gone, start over.
    fn reset(&mut self) {
        self.session_id = None;
        self.start_pending = false;
        self.step = 0;
    }
}

// ---------------------------------------------------------------------------
// Results
// ---------------------------------------------------------------------------

/// Warmup-excluded latency percentiles, microseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LatencySummary {
    pub p50: u64,
    pub p95: u64,
    pub p99: u64,
    pub p999: u64,
    pub max: u64,
    pub mean: u64,
}

impl LatencySummary {
    fn from_histogram(h: &Histogram) -> LatencySummary {
        LatencySummary {
            p50: h.percentile(50.0),
            p95: h.percentile(95.0),
            p99: h.percentile(99.0),
            p999: h.percentile(99.9),
            max: h.max(),
            mean: h.mean(),
        }
    }
}

/// Shared advice-cache counters (`GET /cache/stats`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheCounters {
    pub hits: u64,
    pub misses: u64,
    pub runs: u64,
    pub evictions: u64,
    pub entries: u64,
}

/// Serving-layer counters (`GET /metrics`). Includes the harness's own
/// stat probes (one extra connection + request each).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ServerCounters {
    pub connections: u64,
    pub requests: u64,
    pub responses_2xx: u64,
    pub responses_4xx: u64,
    pub responses_5xx: u64,
}

/// Everything one scenario run produced.
#[derive(Debug, Clone)]
pub struct LoadResult {
    pub name: String,
    pub fingerprint: String,
    /// Operations offered by the schedule (= warmup + measured + errors).
    pub ops_total: u64,
    /// Successful operations scheduled after the warmup window — the
    /// population of the latency histogram.
    pub ops_measured: u64,
    /// Successful operations scheduled inside the warmup window.
    pub ops_warmup: u64,
    /// Transport failures + unexpected statuses (any window).
    pub errors: u64,
    /// First error observed, for the post-mortem.
    pub first_error: Option<String>,
    pub target_rps: f64,
    /// Measured-window completions / measured wall time.
    pub achieved_rps: f64,
    pub elapsed_ms: u64,
    pub latency: LatencySummary,
    pub cache: CacheCounters,
    pub server: ServerCounters,
    /// TCP connections the load clients opened in total.
    pub client_connects: u64,
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

impl LoadResult {
    /// The `charles-load/v1` artefact (committed as `BENCH_serve.json`
    /// for the smoke scenario). Single line, stable key order.
    pub fn to_json(&self) -> String {
        let first_error = match &self.first_error {
            Some(e) => format!("\"{}\"", json_escape(e)),
            None => "null".to_string(),
        };
        format!(
            concat!(
                "{{\"schema\":\"{schema}\",\"name\":\"{name}\",\"fingerprint\":\"{fp}\",",
                "\"ops\":{{\"total\":{total},\"measured\":{measured},\"warmup\":{warmup},\"errors\":{errors}}},",
                "\"target_rps\":{target:.3},\"achieved_rps\":{achieved:.3},\"elapsed_ms\":{elapsed},",
                "\"latency_us\":{{\"p50\":{p50},\"p95\":{p95},\"p99\":{p99},\"p999\":{p999},\"max\":{max},\"mean\":{mean}}},",
                "\"cache\":{{\"hits\":{hits},\"misses\":{misses},\"runs\":{runs},\"evictions\":{evictions},\"entries\":{entries}}},",
                "\"server\":{{\"connections\":{sconn},\"requests\":{sreq},\"responses_2xx\":{s2},\"responses_4xx\":{s4},\"responses_5xx\":{s5}}},",
                "\"client_connects\":{connects},\"first_error\":{first_error}}}"
            ),
            schema = RESULT_SCHEMA,
            name = json_escape(&self.name),
            fp = json_escape(&self.fingerprint),
            total = self.ops_total,
            measured = self.ops_measured,
            warmup = self.ops_warmup,
            errors = self.errors,
            target = self.target_rps,
            achieved = self.achieved_rps,
            elapsed = self.elapsed_ms,
            p50 = self.latency.p50,
            p95 = self.latency.p95,
            p99 = self.latency.p99,
            p999 = self.latency.p999,
            max = self.latency.max,
            mean = self.latency.mean,
            hits = self.cache.hits,
            misses = self.cache.misses,
            runs = self.cache.runs,
            evictions = self.cache.evictions,
            entries = self.cache.entries,
            sconn = self.server.connections,
            sreq = self.server.requests,
            s2 = self.server.responses_2xx,
            s4 = self.server.responses_4xx,
            s5 = self.server.responses_5xx,
            connects = self.client_connects,
            first_error = first_error,
        )
    }

    /// Rebuild a result from its artefact (the [`ResultsCache`] read
    /// path). Inverse of [`to_json`](LoadResult::to_json).
    pub fn from_json(text: &str) -> Result<LoadResult, String> {
        let doc = mini_json::parse(text)?;
        validate(&doc)?;
        let num = |path: &str| -> u64 { doc.path(path).and_then(Json::as_u64).unwrap_or_default() };
        let float = |path: &str| doc.path(path).and_then(Json::as_f64).unwrap_or_default();
        Ok(LoadResult {
            name: doc
                .get("name")
                .and_then(Json::as_str)
                .unwrap_or("")
                .to_string(),
            fingerprint: doc
                .get("fingerprint")
                .and_then(Json::as_str)
                .unwrap_or("")
                .to_string(),
            ops_total: num("ops.total"),
            ops_measured: num("ops.measured"),
            ops_warmup: num("ops.warmup"),
            errors: num("ops.errors"),
            first_error: doc
                .get("first_error")
                .and_then(Json::as_str)
                .map(str::to_string),
            target_rps: float("target_rps"),
            achieved_rps: float("achieved_rps"),
            elapsed_ms: num("elapsed_ms"),
            latency: LatencySummary {
                p50: num("latency_us.p50"),
                p95: num("latency_us.p95"),
                p99: num("latency_us.p99"),
                p999: num("latency_us.p999"),
                max: num("latency_us.max"),
                mean: num("latency_us.mean"),
            },
            cache: CacheCounters {
                hits: num("cache.hits"),
                misses: num("cache.misses"),
                runs: num("cache.runs"),
                evictions: num("cache.evictions"),
                entries: num("cache.entries"),
            },
            server: ServerCounters {
                connections: num("server.connections"),
                requests: num("server.requests"),
                responses_2xx: num("server.responses_2xx"),
                responses_4xx: num("server.responses_4xx"),
                responses_5xx: num("server.responses_5xx"),
            },
            client_connects: num("client_connects"),
        })
    }
}

/// Validate a parsed `charles-load/v1` document: schema tag, every
/// required field, percentile monotonicity, op accounting, and a clean
/// run (no client errors, no non-2xx server responses) — the contract
/// CI holds the committed `BENCH_serve.json` to.
pub fn validate(doc: &Json) -> Result<(), String> {
    match doc.get("schema").and_then(Json::as_str) {
        Some(RESULT_SCHEMA) => {}
        other => return Err(format!("schema is {other:?}, want {RESULT_SCHEMA:?}")),
    }
    for key in ["name", "fingerprint"] {
        if doc
            .get(key)
            .and_then(Json::as_str)
            .is_none_or(str::is_empty)
        {
            return Err(format!("missing or empty string field {key:?}"));
        }
    }
    let need = |path: &str| -> Result<u64, String> {
        doc.path(path)
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("missing numeric field {path:?}"))
    };
    for path in ["target_rps", "achieved_rps"] {
        let v = doc
            .path(path)
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("missing numeric field {path:?}"))?;
        if !v.is_finite() || v <= 0.0 {
            return Err(format!("{path} must be positive, got {v}"));
        }
    }
    need("elapsed_ms")?;
    need("client_connects")?;
    for path in [
        "cache.hits",
        "cache.misses",
        "cache.runs",
        "cache.evictions",
        "cache.entries",
        "server.connections",
        "server.requests",
    ] {
        need(path)?;
    }
    let (total, measured, warmup, errors) = (
        need("ops.total")?,
        need("ops.measured")?,
        need("ops.warmup")?,
        need("ops.errors")?,
    );
    if total != measured + warmup + errors {
        return Err(format!(
            "op accounting is off: total {total} != measured {measured} + warmup {warmup} + errors {errors}"
        ));
    }
    if measured == 0 {
        return Err("no measured operations (duration shorter than warmup?)".to_string());
    }
    let (p50, p95, p99, p999, max) = (
        need("latency_us.p50")?,
        need("latency_us.p95")?,
        need("latency_us.p99")?,
        need("latency_us.p999")?,
        need("latency_us.max")?,
    );
    need("latency_us.mean")?;
    if !(p50 <= p95 && p95 <= p99 && p99 <= p999 && p999 <= max) {
        return Err(format!(
            "percentiles are not monotone: p50 {p50} p95 {p95} p99 {p99} p999 {p999} max {max}"
        ));
    }
    if errors > 0 {
        return Err(format!("run recorded {errors} client-side errors"));
    }
    let (s4, s5) = (need("server.responses_4xx")?, need("server.responses_5xx")?);
    if s4 + s5 > 0 {
        return Err(format!(
            "server answered non-2xx during the run: {s4} 4xx, {s5} 5xx"
        ));
    }
    need("server.responses_2xx")?;
    Ok(())
}

// ---------------------------------------------------------------------------
// Proto A/B artefact (BENCH_wire.json)
// ---------------------------------------------------------------------------

/// Schema tag of the proto A/B artefact committed as `BENCH_wire.json`.
pub const WIRE_AB_SCHEMA: &str = "charles-wire-ab/v1";

/// Cached-advice throughput multiple the binary listener must prove
/// over the JSON/HTTP path (per core; both legs run on the same box).
pub const WIRE_AB_MIN_SPEEDUP: f64 = 5.0;

/// Render the proto A/B artefact: both legs' full `charles-load/v1`
/// documents plus the headline speedup and the core count they shared
/// (the legs run serially on the same machine, so requests/sec-per-core
/// divides out to the plain `achieved_rps` ratio).
pub fn wire_ab_to_json(http: &LoadResult, binary: &LoadResult) -> String {
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    format!(
        "{{\"schema\":\"{WIRE_AB_SCHEMA}\",\"cores\":{cores},\"speedup\":{:.3},\"http\":{},\"binary\":{}}}",
        wire_ab_speedup(http, binary),
        http.to_json(),
        binary.to_json(),
    )
}

/// Binary-over-HTTP throughput ratio (0 when the HTTP leg recorded no
/// throughput — a failed run, caught by validation).
pub fn wire_ab_speedup(http: &LoadResult, binary: &LoadResult) -> f64 {
    if http.achieved_rps > 0.0 {
        binary.achieved_rps / http.achieved_rps
    } else {
        0.0
    }
}

/// Validate a parsed `charles-wire-ab/v1` document — the CI gate for
/// the committed `BENCH_wire.json`. Both embedded legs must pass the
/// full [`validate`] clean-run contract (zero client errors, zero
/// non-2xx / error frames), they must describe the *same* workload
/// apart from name and proto, the headline speedup must match the
/// legs' achieved rates, and it must clear [`WIRE_AB_MIN_SPEEDUP`].
pub fn validate_wire_ab(doc: &Json) -> Result<(), String> {
    match doc.get("schema").and_then(Json::as_str) {
        Some(WIRE_AB_SCHEMA) => {}
        other => return Err(format!("schema is {other:?}, want {WIRE_AB_SCHEMA:?}")),
    }
    match doc.get("cores").and_then(Json::as_u64) {
        Some(n) if n >= 1 => {}
        other => return Err(format!("cores must be a positive integer, got {other:?}")),
    }
    let mut fingerprints = Vec::new();
    let mut rates = Vec::new();
    for key in ["http", "binary"] {
        let leg = doc.get(key).ok_or_else(|| format!("missing {key:?} leg"))?;
        validate(leg).map_err(|e| format!("{key} leg: {e}"))?;
        let fp = leg.get("fingerprint").and_then(Json::as_str).unwrap_or("");
        if !fp.ends_with(&format!("|proto={key}")) {
            return Err(format!("{key} leg fingerprint {fp:?} ran proto != {key}"));
        }
        fingerprints.push(fp.to_string());
        rates.push(
            leg.get("achieved_rps")
                .and_then(Json::as_f64)
                .unwrap_or_default(),
        );
    }
    let workload = |fp: &str| -> String {
        fp.split('|')
            .filter(|kv| !kv.starts_with("name=") && !kv.starts_with("proto="))
            .collect::<Vec<_>>()
            .join("|")
    };
    if workload(&fingerprints[0]) != workload(&fingerprints[1]) {
        return Err(format!(
            "legs ran different workloads: {:?} vs {:?}",
            fingerprints[0], fingerprints[1]
        ));
    }
    let speedup = doc
        .get("speedup")
        .and_then(Json::as_f64)
        .ok_or_else(|| "missing numeric field \"speedup\"".to_string())?;
    let recomputed = if rates[0] > 0.0 {
        rates[1] / rates[0]
    } else {
        0.0
    };
    // The artefact rounds to 3 decimals; allow that much slack.
    if (speedup - recomputed).abs() > 0.002 + 1e-6 * recomputed.abs() {
        return Err(format!(
            "speedup {speedup} does not match achieved rates ({:.3} binary / {:.3} http = {recomputed:.3})",
            rates[1], rates[0]
        ));
    }
    if speedup < WIRE_AB_MIN_SPEEDUP {
        return Err(format!(
            "binary listener is only {speedup:.2}× the HTTP path (must be ≥ {WIRE_AB_MIN_SPEEDUP}×)"
        ));
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// The driver
// ---------------------------------------------------------------------------

struct WorkerOutcome {
    warm: Histogram,
    measured: Histogram,
    errors: u64,
    first_error: Option<String>,
    connects: u64,
}

impl WorkerOutcome {
    fn new() -> WorkerOutcome {
        WorkerOutcome {
            warm: Histogram::new(),
            measured: Histogram::new(),
            errors: 0,
            first_error: None,
            connects: 0,
        }
    }
}

/// Everything one worker thread needs: the target, the shared op
/// schedule, and the scenario knobs that shape its session stream.
struct WorkerCtx {
    addr: std::net::SocketAddr,
    next_op: Arc<AtomicU64>,
    session_seq: Arc<AtomicU64>,
    start: Instant,
    total_ops: u64,
    warmup_ops: u64,
    rate: f64,
    hot_percent: u32,
    drills_per_session: usize,
}

/// The HTTP worker: one keep-alive [`Client`], one request per round
/// trip, latency billed from each op's scheduled start.
fn http_worker(ctx: WorkerCtx) -> WorkerOutcome {
    let mut outcome = WorkerOutcome::new();
    let mut client = match Client::new(ctx.addr, ClientConfig::default()) {
        Ok(c) => c,
        Err(e) => {
            outcome.errors += 1;
            outcome.first_error = Some(format!("client setup: {e}"));
            return outcome;
        }
    };
    let mut script = SessionScript::new(
        Arc::clone(&ctx.session_seq),
        ctx.hot_percent,
        ctx.drills_per_session,
    );
    loop {
        let i = ctx.next_op.fetch_add(1, Ordering::Relaxed);
        if i >= ctx.total_ops {
            break;
        }
        let sched = ctx.start + Duration::from_secs_f64(i as f64 / ctx.rate);
        let now = Instant::now();
        if sched > now {
            std::thread::sleep(sched - now);
        }
        let op = script.next_op();
        let result = client.request(op.method, &op.path, &op.body);
        let latency_us = Instant::now()
            .saturating_duration_since(sched)
            .as_micros()
            .min(u64::MAX as u128) as u64;
        match &result {
            Ok(resp) if resp.status == op.expect => {
                if i < ctx.warmup_ops {
                    outcome.warm.record(latency_us);
                } else {
                    outcome.measured.record(latency_us);
                }
                script.observe(&op, OpOutcome::Ok(&resp.body));
            }
            Ok(resp) => {
                outcome.errors += 1;
                outcome.first_error.get_or_insert_with(|| {
                    format!(
                        "{} {} → {} (want {}): {}",
                        op.method,
                        op.path,
                        resp.status,
                        op.expect,
                        &resp.body[..resp.body.len().min(200)]
                    )
                });
                script.observe(&op, OpOutcome::Failed);
            }
            Err(e) => {
                outcome.errors += 1;
                outcome
                    .first_error
                    .get_or_insert_with(|| format!("{} {} → {e}", op.method, op.path));
                script.observe(&op, OpOutcome::Failed);
            }
        }
    }
    outcome.connects = client.connects();
    outcome
}

/// Frames the wire worker keeps in flight ahead of the oldest
/// unanswered response. Deep enough to amortize syscalls over a whole
/// session burst (`2 × drills + 2` frames), comfortably under the
/// server's own bounded response queue.
const WIRE_PIPELINE_WINDOW: usize = 16;

/// The binary-protocol worker: one [`WireConn`], pipelined. Frames are
/// staged while the schedule is behind and the script can plan (the
/// only stall is an unresolved session start), flushed as one write,
/// and responses settle FIFO against the in-flight queue — each op's
/// latency still billed from its open-loop scheduled start. Under an
/// under-offered schedule the queue drains before each send, so pacing
/// is honoured exactly like the HTTP worker's; at saturation the
/// window fills and throughput comes from batched syscalls.
fn wire_worker(ctx: WorkerCtx) -> WorkerOutcome {
    struct InFlight {
        index: u64,
        sched: Instant,
        expect: u16,
        is_start: bool,
    }
    let mut outcome = WorkerOutcome::new();
    let mut conn = match WireConn::connect(&ctx.addr, &ClientConfig::default()) {
        Ok(c) => {
            outcome.connects += 1;
            c
        }
        Err(e) => {
            outcome.errors += 1;
            outcome.first_error = Some(format!("client setup: {e}"));
            return outcome;
        }
    };
    let mut script = WireScript::new(
        Arc::clone(&ctx.session_seq),
        ctx.hot_percent,
        ctx.drills_per_session,
    );
    let mut inflight: VecDeque<InFlight> = VecDeque::new();
    // An op index claimed from the shared schedule whose time hasn't
    // come yet (claims are not returnable; it is staged next round).
    let mut carry: Option<u64> = None;
    let mut done = false;
    loop {
        // Stage phase: fill the window as far as the schedule and the
        // script allow.
        while !done && inflight.len() < WIRE_PIPELINE_WINDOW && !script.blocked() {
            let i = match carry.take() {
                Some(i) => i,
                None => ctx.next_op.fetch_add(1, Ordering::Relaxed),
            };
            if i >= ctx.total_ops {
                done = true;
                break;
            }
            let sched = ctx.start + Duration::from_secs_f64(i as f64 / ctx.rate);
            let now = Instant::now();
            if sched > now {
                if inflight.is_empty() && conn.staged_bytes() == 0 {
                    std::thread::sleep(sched - now);
                } else {
                    // Not due yet — drain in-flight work first so the
                    // open-loop schedule is never sent ahead of plan.
                    carry = Some(i);
                    break;
                }
            }
            let plan = script.next_op();
            match &plan {
                WirePlan::Start(context) => conn.stage(&WireRequest::Start { body: context }),
                WirePlan::Drill(id) => conn.stage(&WireRequest::Drill {
                    id,
                    rank: 0,
                    seg: 0,
                }),
                WirePlan::Back(id) => conn.stage(&WireRequest::Back { id }),
                WirePlan::Delete(id) => conn.stage(&WireRequest::Delete { id }),
            }
            inflight.push_back(InFlight {
                index: i,
                sched,
                expect: plan.expect(),
                is_start: matches!(plan, WirePlan::Start(_)),
            });
        }
        // One write for the whole staged burst.
        let flush_err = conn.flush().err();
        if inflight.is_empty() && flush_err.is_none() {
            if done {
                break;
            }
            continue;
        }
        // Settle the oldest response, freeing a window slot (and, after
        // a start, unblocking the script).
        let step = match flush_err {
            Some(e) => Err(WireError::from(e)),
            None => conn.recv_summary(),
        };
        match step {
            Ok(summary) => match inflight.pop_front() {
                Some(inf) => {
                    let latency_us = Instant::now()
                        .saturating_duration_since(inf.sched)
                        .as_micros()
                        .min(u64::MAX as u128) as u64;
                    if summary.status == inf.expect {
                        if inf.index < ctx.warmup_ops {
                            outcome.warm.record(latency_us);
                        } else {
                            outcome.measured.record(latency_us);
                        }
                        if inf.is_start {
                            script.started(summary.session_id);
                        }
                    } else {
                        outcome.errors += 1;
                        outcome.first_error.get_or_insert_with(|| {
                            let detail =
                                summary.error.map(|e| format!(": {e}")).unwrap_or_default();
                            format!("wire op → {} (want {}){detail}", summary.status, inf.expect)
                        });
                        if inf.is_start {
                            script.start_failed();
                        }
                        // Later frames of a failed session fail on
                        // their own and are counted as they settle.
                    }
                }
                None => {
                    // A response with nothing in flight: frame desync,
                    // a can't-happen server bug. Abandon the run.
                    outcome.errors += 1 + carry.is_some() as u64;
                    outcome
                        .first_error
                        .get_or_insert_with(|| "unsolicited wire response frame".to_string());
                    break;
                }
            },
            Err(e) => {
                // Transport loss: every in-flight op fails. Reconnect
                // once and continue with the remaining schedule.
                outcome.errors += inflight.len().max(1) as u64;
                outcome
                    .first_error
                    .get_or_insert_with(|| format!("wire transport: {e}"));
                inflight.clear();
                script.reset();
                match WireConn::connect(&ctx.addr, &ClientConfig::default()) {
                    Ok(c) => {
                        outcome.connects += 1;
                        conn = c;
                    }
                    Err(_) => {
                        outcome.errors += carry.is_some() as u64;
                        break;
                    }
                }
            }
        }
    }
    outcome
}

/// Drive one scenario against a live server at `addr`.
///
/// The target may be external (`charles-load smoke --addr …`) — it must
/// serve the VOC schema — or the in-process server
/// [`run_in_process`] boots. Returns an error only when the harness
/// itself cannot run (no connection at all, stats endpoints
/// unreachable); request-level failures are *data* (`errors`,
/// `first_error`), not early exits.
pub fn run_against(
    addr: std::net::SocketAddr,
    cfg: &ScenarioConfig,
) -> std::io::Result<LoadResult> {
    let total_ops = cfg.total_ops();
    let warmup_ops = (cfg.target_rps * cfg.warmup.as_secs_f64()).floor() as u64;
    let next_op = Arc::new(AtomicU64::new(0));
    let session_seq = Arc::new(AtomicU64::new(0));
    let rate = cfg.target_rps.max(1e-9);
    let start = Instant::now();

    let workers: Vec<std::thread::JoinHandle<WorkerOutcome>> = (0..cfg.connections.max(1))
        .map(|_| {
            let ctx = WorkerCtx {
                addr,
                next_op: Arc::clone(&next_op),
                session_seq: Arc::clone(&session_seq),
                start,
                total_ops,
                warmup_ops,
                rate,
                hot_percent: cfg.hot_percent,
                drills_per_session: cfg.drills_per_session,
            };
            let proto = cfg.proto;
            std::thread::spawn(move || match proto {
                Proto::Http => http_worker(ctx),
                Proto::Binary => wire_worker(ctx),
            })
        })
        .collect();

    let mut warm = Histogram::new();
    let mut measured = Histogram::new();
    let mut errors = 0u64;
    let mut first_error: Option<String> = None;
    let mut client_connects = 0u64;
    for handle in workers {
        let outcome = handle.join().expect("load worker panicked");
        warm.merge(&outcome.warm);
        measured.merge(&outcome.measured);
        errors += outcome.errors;
        if first_error.is_none() {
            first_error = outcome.first_error;
        }
        client_connects += outcome.connects;
    }
    let elapsed = start.elapsed();
    let measured_window = elapsed
        .checked_sub(cfg.warmup)
        .unwrap_or(Duration::from_millis(1))
        .as_secs_f64()
        .max(1e-9);

    // Fetch both ends' counters over the same listener the run used —
    // a binary run must not require the HTTP port to be reachable.
    let (cache, server) = match cfg.proto {
        Proto::Http => (fetch_cache_counters(addr)?, fetch_server_counters(addr)?),
        Proto::Binary => (
            fetch_cache_counters_wire(addr)?,
            fetch_server_counters_wire(addr)?,
        ),
    };

    Ok(LoadResult {
        name: cfg.name.clone(),
        fingerprint: cfg.fingerprint(),
        ops_total: total_ops,
        ops_measured: measured.count(),
        ops_warmup: warm.count(),
        errors,
        first_error,
        target_rps: cfg.target_rps,
        achieved_rps: measured.count() as f64 / measured_window,
        elapsed_ms: elapsed.as_millis() as u64,
        latency: LatencySummary::from_histogram(&measured),
        cache,
        server,
        client_connects,
    })
}

fn stats_error(what: &str, detail: String) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, format!("{what}: {detail}"))
}

fn fetch_cache_counters(addr: std::net::SocketAddr) -> std::io::Result<CacheCounters> {
    let (status, body) = http_request(addr, "GET", "/cache/stats", "")?;
    if status != 200 {
        return Err(stats_error("GET /cache/stats", format!("status {status}")));
    }
    let doc = mini_json::parse(&body).map_err(|e| stats_error("GET /cache/stats", e))?;
    let num = |key: &str| doc.get(key).and_then(Json::as_u64).unwrap_or_default();
    Ok(CacheCounters {
        hits: num("hits"),
        misses: num("misses"),
        runs: num("runs"),
        evictions: num("evictions"),
        entries: num("entries"),
    })
}

fn fetch_server_counters(addr: std::net::SocketAddr) -> std::io::Result<ServerCounters> {
    let (status, body) = http_request(addr, "GET", "/metrics", "")?;
    if status != 200 {
        return Err(stats_error("GET /metrics", format!("status {status}")));
    }
    let doc = mini_json::parse(&body).map_err(|e| stats_error("GET /metrics", e))?;
    let num = |key: &str| doc.get(key).and_then(Json::as_u64).unwrap_or_default();
    Ok(ServerCounters {
        connections: num("connections"),
        requests: num("requests"),
        responses_2xx: num("responses_2xx"),
        responses_4xx: num("responses_4xx"),
        responses_5xx: num("responses_5xx"),
    })
}

fn fetch_cache_counters_wire(addr: std::net::SocketAddr) -> std::io::Result<CacheCounters> {
    match wire_request(addr, &WireRequest::CacheStats) {
        Ok(WireResponse::CacheStats(s)) => Ok(CacheCounters {
            hits: s.hits,
            misses: s.misses,
            runs: s.runs,
            evictions: s.evictions,
            entries: s.entries,
        }),
        Ok(other) => Err(stats_error(
            "wire cache-stats",
            format!("unexpected response (status {})", other.status()),
        )),
        Err(e) => Err(stats_error("wire cache-stats", e.to_string())),
    }
}

fn fetch_server_counters_wire(addr: std::net::SocketAddr) -> std::io::Result<ServerCounters> {
    match wire_request(addr, &WireRequest::Metrics) {
        Ok(WireResponse::Metrics(m)) => Ok(ServerCounters {
            connections: m.connections,
            requests: m.requests,
            responses_2xx: m.responses_2xx,
            responses_4xx: m.responses_4xx,
            responses_5xx: m.responses_5xx,
        }),
        Ok(other) => Err(stats_error(
            "wire metrics",
            format!("unexpected response (status {})", other.status()),
        )),
        Err(e) => Err(stats_error("wire metrics", e.to_string())),
    }
}

/// Boot an in-process server over a synthetic VOC backend shaped by
/// the scenario (rows, worker and cache knobs). Both listeners
/// are always bound (the wire one on its own ephemeral port), so one
/// booted server can serve either protocol's scenarios.
pub fn boot(cfg: &ScenarioConfig) -> std::io::Result<ServerHandle> {
    let backend: Arc<dyn Backend> = Arc::new(voc_table(cfg.rows, 0xC1DA));
    Server::bind(
        "127.0.0.1:0",
        backend,
        ServeConfig {
            workers: cfg.server_workers,
            cache_shards: cfg.cache_shards,
            cache_capacity: cfg.cache_capacity,
            ..ServeConfig::default()
        },
    )?
    .with_wire_listener("127.0.0.1:0")?
    .spawn()
}

/// Boot, drive, shut down.
pub fn run_in_process(cfg: &ScenarioConfig) -> std::io::Result<LoadResult> {
    let handle = boot(cfg)?;
    let target = match cfg.proto {
        Proto::Http => handle.addr(),
        Proto::Binary => handle.wire_addr().ok_or_else(|| {
            std::io::Error::new(
                std::io::ErrorKind::AddrNotAvailable,
                "booted server has no wire listener",
            )
        })?,
    };
    let result = run_against(target, cfg);
    handle.shutdown();
    result
}

// ---------------------------------------------------------------------------
// Results cache
// ---------------------------------------------------------------------------

/// A don't-rerun-completed-configs store: one line per finished
/// scenario, `fingerprint \t result-json`, rewritten atomically-enough
/// for a single-driver harness. Lines that no longer parse (schema
/// bump, hand edits) are dropped on load — the scenario just re-runs.
pub struct ResultsCache {
    path: PathBuf,
    entries: HashMap<String, String>,
}

impl ResultsCache {
    /// Load the cache at `path` (missing file = empty cache).
    pub fn load(path: impl Into<PathBuf>) -> ResultsCache {
        let path = path.into();
        let mut entries = HashMap::new();
        if let Ok(text) = std::fs::read_to_string(&path) {
            for line in text.lines() {
                if let Some((fp, json)) = line.split_once('\t') {
                    if LoadResult::from_json(json).is_ok() {
                        entries.insert(fp.to_string(), json.to_string());
                    }
                }
            }
        }
        ResultsCache { path, entries }
    }

    /// Completed scenarios on record.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing is cached yet.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The cached result for a fingerprint, if that config already ran.
    pub fn get(&self, fingerprint: &str) -> Option<LoadResult> {
        let json = self.entries.get(fingerprint)?;
        LoadResult::from_json(json).ok()
    }

    /// Record a finished run and persist the whole cache (sorted by
    /// fingerprint, so the file is diff-stable).
    pub fn put(&mut self, result: &LoadResult) -> std::io::Result<()> {
        self.entries
            .insert(result.fingerprint.clone(), result.to_json());
        if let Some(dir) = self.path.parent() {
            if !dir.as_os_str().is_empty() {
                std::fs::create_dir_all(dir)?;
            }
        }
        let mut lines: Vec<(&String, &String)> = self.entries.iter().collect();
        lines.sort();
        let mut out = std::fs::File::create(&self.path)?;
        for (fp, json) in lines {
            writeln!(out, "{fp}\t{json}")?;
        }
        Ok(())
    }

    /// Where this cache persists.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

// ---------------------------------------------------------------------------
// Reporting
// ---------------------------------------------------------------------------

/// Render results as an aligned comparison table (grid sweeps, A/B
/// runs, the smoke report).
pub fn comparison_table(results: &[LoadResult]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<28} {:>9} {:>9} {:>8} {:>8} {:>8} {:>8} {:>9} {:>6} {:>6}\n",
        "scenario",
        "target/s",
        "achieved",
        "p50µs",
        "p95µs",
        "p99µs",
        "p999µs",
        "maxµs",
        "err",
        "hit%"
    ));
    for r in results {
        let lookups = r.cache.hits + r.cache.misses;
        let hit_pct = if lookups == 0 {
            0.0
        } else {
            100.0 * r.cache.hits as f64 / lookups as f64
        };
        out.push_str(&format!(
            "{:<28} {:>9.1} {:>9.1} {:>8} {:>8} {:>8} {:>8} {:>9} {:>6} {:>5.1}%\n",
            r.name,
            r.target_rps,
            r.achieved_rps,
            r.latency.p50,
            r.latency.p95,
            r.latency.p99,
            r.latency.p999,
            r.latency.max,
            r.errors,
            hit_pct,
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn harness_contexts_pass_admission_analysis() {
        // The server now statically analyzes contexts at admission: a
        // harness context that failed analysis would 422 and poison the
        // whole run's expectations. Pin every hot context and a sample
        // of cold ones as valid + satisfiable against the VOC schema.
        let t = charles_datagen::voc_table(16, 1);
        let schema = charles_store::Backend::schema(&t);
        let mut contexts: Vec<String> = HOT_CONTEXTS.iter().map(|s| s.to_string()).collect();
        for n in 0..5u64 {
            // The cold-context shape from `SessionScript::next_op`.
            contexts.push(format!("(type_of_boat: , tonnage: [0, {}])", 100_000 + n));
        }
        for (i, ctx) in contexts.iter().enumerate() {
            let q = charles_sdl::parse_query(ctx, schema).unwrap_or_else(|e| {
                panic!("context {i} {ctx:?} does not parse: {e}");
            });
            let report = charles_sdl::analyze(&q, schema);
            assert!(
                report.is_valid(),
                "context {i} {ctx:?}: {:?}",
                report.diagnostics
            );
            assert!(
                report.is_satisfiable(),
                "context {i} {ctx:?} is provably empty"
            );
        }
    }

    #[test]
    fn histogram_is_exact_below_the_linear_range() {
        let mut h = Histogram::new();
        for v in [0u64, 1, 5, 5, 63] {
            h.record(v);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.percentile(50.0), 5);
        assert_eq!(h.percentile(100.0), 63);
        assert_eq!(h.max(), 63);
        assert_eq!(h.mean(), (1 + 5 + 5 + 63) / 5);
    }

    #[test]
    fn histogram_error_is_bounded_above_the_linear_range() {
        for v in [64u64, 100, 1_000, 4_097, 65_535, 1 << 20, (1 << 40) + 12345] {
            let mut h = Histogram::new();
            h.record(v);
            let reported = h.percentile(50.0);
            assert!(reported >= v || reported == h.max(), "{v} → {reported}");
            assert!(
                (reported as f64) <= v as f64 * (1.0 + 1.0 / SUB_BUCKETS as f64) + 1.0,
                "{v} → {reported} exceeds the error bound"
            );
        }
    }

    #[test]
    fn histogram_percentiles_are_monotone_and_bounded_by_max() {
        let mut h = Histogram::new();
        // Deterministic LCG spread over ~6 decades.
        let mut x = 12345u64;
        for _ in 0..10_000 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            h.record(x % 1_000_000);
        }
        let ps: Vec<u64> = [10.0, 50.0, 90.0, 95.0, 99.0, 99.9, 100.0]
            .iter()
            .map(|&p| h.percentile(p))
            .collect();
        assert!(ps.windows(2).all(|w| w[0] <= w[1]), "{ps:?}");
        assert!(*ps.last().unwrap() <= h.max());
    }

    #[test]
    fn histogram_merge_equals_single_recording() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        let mut whole = Histogram::new();
        for v in 0..5_000u64 {
            let v = v * 37 % 100_000;
            if v % 2 == 0 {
                a.record(v);
            } else {
                b.record(v);
            }
            whole.record(v);
        }
        a.merge(&b);
        assert_eq!(a.count(), whole.count());
        assert_eq!(a.max(), whole.max());
        for p in [50.0, 95.0, 99.9] {
            assert_eq!(a.percentile(p), whole.percentile(p));
        }
    }

    #[test]
    fn session_script_replays_start_drill_back_delete() {
        let seq = Arc::new(AtomicU64::new(0));
        let mut script = SessionScript::new(seq, 100, 2);
        let start = script.next_op();
        assert_eq!(
            (start.method, start.path.as_str(), start.expect),
            ("POST", "/session", 201)
        );
        script.observe(&start, OpOutcome::Ok("{\"session\":\"s7\",\"advice\":{}}"));
        let expected = [
            ("POST", "/session/s7/drill", 200),
            ("POST", "/session/s7/back", 200),
            ("POST", "/session/s7/drill", 200),
            ("POST", "/session/s7/back", 200),
            ("DELETE", "/session/s7", 204),
        ];
        for (method, path, status) in expected {
            let op = script.next_op();
            assert_eq!(
                (op.method, op.path.as_str(), op.expect),
                (method, path, status)
            );
            script.observe(&op, OpOutcome::Ok(""));
        }
        // Deleted → the next op starts a fresh session.
        assert_eq!(script.next_op().path, "/session");
    }

    #[test]
    fn session_script_abandons_a_failed_session() {
        let seq = Arc::new(AtomicU64::new(0));
        let mut script = SessionScript::new(seq, 0, 3);
        let start = script.next_op();
        // Cold contexts embed the session counter → distinct keys.
        assert!(
            start.body.contains("tonnage: [0, 100000]"),
            "{}",
            start.body
        );
        script.observe(&start, OpOutcome::Ok("{\"session\":\"s1\",\"advice\":{}}"));
        let drill = script.next_op();
        script.observe(&drill, OpOutcome::Failed);
        let next = script.next_op();
        assert_eq!(next.path, "/session", "failure must reset to a new session");
        assert!(next.body.contains("tonnage: [0, 100001]"), "{}", next.body);
    }

    #[test]
    fn fingerprints_differ_per_knob_and_are_stable() {
        let base = ScenarioConfig::smoke();
        let fp = base.fingerprint();
        assert_eq!(fp, base.fingerprint());
        for (label, tweaked) in [
            (
                "cache",
                ScenarioConfig {
                    cache_capacity: 0,
                    ..base.clone()
                },
            ),
            (
                "rate",
                ScenarioConfig {
                    target_rps: 151.0,
                    ..base.clone()
                },
            ),
            (
                "proto",
                ScenarioConfig {
                    proto: Proto::Binary,
                    ..base.clone()
                },
            ),
        ] {
            assert_ne!(
                fp,
                tweaked.fingerprint(),
                "{label} must change the fingerprint"
            );
        }
    }

    fn sample_result() -> LoadResult {
        LoadResult {
            name: "unit".to_string(),
            fingerprint: ScenarioConfig::smoke().fingerprint(),
            ops_total: 100,
            ops_measured: 80,
            ops_warmup: 20,
            errors: 0,
            first_error: None,
            target_rps: 50.0,
            achieved_rps: 49.5,
            elapsed_ms: 2_000,
            latency: LatencySummary {
                p50: 100,
                p95: 200,
                p99: 300,
                p999: 400,
                max: 500,
                mean: 120,
            },
            cache: CacheCounters {
                hits: 60,
                misses: 20,
                runs: 20,
                evictions: 0,
                entries: 20,
            },
            server: ServerCounters {
                connections: 4,
                requests: 101,
                responses_2xx: 101,
                responses_4xx: 0,
                responses_5xx: 0,
            },
            client_connects: 4,
        }
    }

    #[test]
    fn result_json_round_trips_and_validates() {
        let result = sample_result();
        let json = result.to_json();
        let doc = mini_json::parse(&json).expect("emitted JSON parses");
        validate(&doc).expect("emitted JSON validates");
        let back = LoadResult::from_json(&json).unwrap();
        assert_eq!(back.fingerprint, result.fingerprint);
        assert_eq!(back.latency, result.latency);
        assert_eq!(back.cache, result.cache);
        assert_eq!(back.server, result.server);
        assert_eq!(back.ops_measured, result.ops_measured);
        assert!((back.achieved_rps - result.achieved_rps).abs() < 1e-6);
    }

    #[test]
    fn validation_rejects_dirty_or_inconsistent_runs() {
        let mut dirty = sample_result();
        dirty.errors = 1;
        dirty.ops_measured -= 1; // keep the accounting consistent
        let err = LoadResult::from_json(&dirty.to_json()).unwrap_err();
        assert!(err.contains("errors"), "{err}");

        let mut non2xx = sample_result();
        non2xx.server.responses_5xx = 2;
        let err = LoadResult::from_json(&non2xx.to_json()).unwrap_err();
        assert!(err.contains("non-2xx"), "{err}");

        let mut off = sample_result();
        off.ops_total += 7;
        let err = LoadResult::from_json(&off.to_json()).unwrap_err();
        assert!(err.contains("accounting"), "{err}");

        let mut swapped = sample_result();
        swapped.latency.p95 = swapped.latency.p999 + 1_000_000;
        let err = LoadResult::from_json(&swapped.to_json()).unwrap_err();
        assert!(err.contains("monotone"), "{err}");
    }

    #[test]
    fn results_cache_skips_completed_configs() {
        let dir = std::env::temp_dir().join(format!(
            "charles-load-cache-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let path = dir.join("results.tsv");
        let _ = std::fs::remove_dir_all(&dir);

        let mut cache = ResultsCache::load(&path);
        assert!(cache.is_empty());
        let result = sample_result();
        assert!(cache.get(&result.fingerprint).is_none());
        cache.put(&result).unwrap();

        // A fresh load sees the completed config; an unknown one misses.
        let reloaded = ResultsCache::load(&path);
        assert_eq!(reloaded.len(), 1);
        let hit = reloaded.get(&result.fingerprint).expect("cache hit");
        assert_eq!(hit.latency, result.latency);
        assert!(reloaded.get("name=other|rows=1").is_none());

        // Corrupt lines are dropped, not fatal.
        std::fs::write(&path, "garbage-fingerprint\t{not json}\n").unwrap();
        assert!(ResultsCache::load(&path).is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn wire_script_stages_whole_sessions_between_starts() {
        let seq = Arc::new(AtomicU64::new(0));
        let mut script = WireScript::new(seq, 100, 2);
        assert!(!script.blocked());
        let start = script.next_op();
        assert!(matches!(&start, WirePlan::Start(ctx) if ctx == HOT_CONTEXTS[0]));
        assert_eq!(start.expect(), 201);
        // The start is unresolved: nothing further can be planned.
        assert!(script.blocked());
        script.started(Some("s9".to_string()));
        assert!(!script.blocked());
        // The whole tail — and the next session's start — plan without
        // any interleaved responses.
        type PlanCheck<'a> = (&'a dyn Fn(&WirePlan) -> bool, u16);
        let expected: [PlanCheck; 6] = [
            (&|p| matches!(p, WirePlan::Drill(id) if id == "s9"), 200),
            (&|p| matches!(p, WirePlan::Back(id) if id == "s9"), 200),
            (&|p| matches!(p, WirePlan::Drill(id) if id == "s9"), 200),
            (&|p| matches!(p, WirePlan::Back(id) if id == "s9"), 200),
            (&|p| matches!(p, WirePlan::Delete(id) if id == "s9"), 204),
            (&|p| matches!(p, WirePlan::Start(_)), 201),
        ];
        for (i, (matcher, status)) in expected.iter().enumerate() {
            assert!(!script.blocked(), "blocked before step {i}");
            let plan = script.next_op();
            assert!(matcher(&plan), "step {i} planned the wrong op");
            assert_eq!(plan.expect(), *status, "step {i}");
        }
        assert!(script.blocked(), "second start must block until resolved");
        // A failed start falls through to a fresh session, not a hang.
        script.start_failed();
        assert!(!script.blocked());
        assert!(matches!(script.next_op(), WirePlan::Start(_)));
    }

    #[test]
    fn wire_ab_artefact_validates_and_gates_the_speedup() {
        let mut http = sample_result();
        http.fingerprint = ScenarioConfig::throughput(Proto::Http).fingerprint();
        http.achieved_rps = 100.0;
        let mut binary = sample_result();
        binary.fingerprint = ScenarioConfig::throughput(Proto::Binary).fingerprint();
        binary.achieved_rps = 612.5;

        let json = wire_ab_to_json(&http, &binary);
        let doc = mini_json::parse(&json).expect("artefact parses");
        validate_wire_ab(&doc).expect("clean 6.1× artefact validates");

        // Below the 5× bar → rejected.
        let mut slow = binary.clone();
        slow.achieved_rps = 499.0;
        let doc = mini_json::parse(&wire_ab_to_json(&http, &slow)).unwrap();
        let err = validate_wire_ab(&doc).unwrap_err();
        assert!(err.contains("must be ≥"), "{err}");

        // A dirty leg fails the embedded clean-run contract.
        let mut dirty = binary.clone();
        dirty.server.responses_5xx = 1;
        let doc = mini_json::parse(&wire_ab_to_json(&http, &dirty)).unwrap();
        let err = validate_wire_ab(&doc).unwrap_err();
        assert!(err.starts_with("binary leg:"), "{err}");

        // Legs must be the same workload apart from name and proto.
        let mut other = binary.clone();
        other.fingerprint = ScenarioConfig {
            rows: 1,
            ..ScenarioConfig::throughput(Proto::Binary)
        }
        .fingerprint();
        let doc = mini_json::parse(&wire_ab_to_json(&http, &other)).unwrap();
        let err = validate_wire_ab(&doc).unwrap_err();
        assert!(err.contains("different workloads"), "{err}");

        // Legs must actually be the protos they claim.
        let doc = mini_json::parse(&wire_ab_to_json(&http, &http)).unwrap();
        let err = validate_wire_ab(&doc).unwrap_err();
        assert!(err.contains("proto"), "{err}");

        // A tampered headline speedup is caught.
        let forged =
            wire_ab_to_json(&http, &binary).replace("\"speedup\":6.125", "\"speedup\":9.000");
        let doc = mini_json::parse(&forged).unwrap();
        let err = validate_wire_ab(&doc).unwrap_err();
        assert!(err.contains("does not match"), "{err}");
    }

    #[test]
    fn extracts_session_ids_from_envelopes() {
        assert_eq!(
            extract_session_id("{\"session\":\"s42\",\"advice\":{}}").as_deref(),
            Some("s42")
        );
        assert_eq!(extract_session_id("{\"error\":\"nope\"}"), None);
        assert_eq!(extract_session_id("{\"session\":\"\"}"), None);
    }
}
