//! The advisory server: session lifecycle over HTTP, advice shared
//! across sessions through one [`AdviceCache`].
//!
//! | Route | Body | Effect |
//! |---|---|---|
//! | `POST /session` | SDL context text | start a session → 201 |
//! | `GET /session/{id}` | — | breadcrumbs + current advice |
//! | `POST /session/{id}/drill` | `rank seg` | drill into a segment |
//! | `POST /session/{id}/back` | — | pop one breadcrumb |
//! | `DELETE /session/{id}` | — | drop the session → 204 |
//! | `GET /cache/stats` | — | shared-cache counters |
//! | `GET /metrics` | — | serving-layer counters |
//! | `GET /healthz` | — | liveness probe |
//!
//! Requests are handled by a fixed [`WorkerPool`]; per-session state is
//! a [`Session`] behind its own mutex, so requests to different
//! sessions never serialize on each other and requests to the same
//! session are ordered. All advice flows through the shared cache:
//! N sessions asking for the same canonical context cost one HB-cuts
//! run, and the payload served from the cache is byte-identical to a
//! fresh advisor run on the same canonical context.

use crate::http::{parse_request, write_response, HttpError, Method, Request};
use crate::json::{
    cache_stats_body, encode_error, encode_error_with_diagnostics, info_body, metrics_body,
    served_advice, session_body, HEALTH_BODY,
};
use crate::wire::WireCacheStats;
use charles_core::{Advice, AdviceCache, Config, CoreError, Session};
use charles_parallel::WorkerPool;
use charles_sdl::{Diagnostic, DiagnosticCode, SdlError};
use charles_store::{Backend, Table};
use std::collections::HashMap;
use std::io::BufReader;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Server tuning knobs.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Connection-handling worker threads.
    pub workers: usize,
    /// Upper bound on cached advice entries (per cache — the default
    /// backend's and each loaded dataset's). Once full, the
    /// least-recently-used settled entry is evicted, so a long-running
    /// server does not grow without bound with the number of distinct
    /// contexts ever advised. `0` disables the bound entirely.
    pub cache_capacity: usize,
    /// Whole-request read deadline, re-armed per request on persistent
    /// connections: a connection that has not delivered its complete
    /// next request within this window — whether idle between requests
    /// or trickling bytes — is dropped (anti-slowloris: a fixed worker
    /// pool must not be pinnable by slow or idle clients).
    pub read_timeout: Duration,
    /// Upper bound on requests served over one keep-alive connection;
    /// the last allowed response is sent with `Connection: close`. Keeps
    /// a single client from pinning a pool worker indefinitely — note
    /// the bound this buys: a client pacing tiny requests just inside
    /// the read deadline can hold one worker for up to
    /// `max_requests_per_connection × read_timeout` (~21 min at the
    /// defaults) before it must reconnect. Facing untrusted clients,
    /// lower one or both (or raise `workers`).
    pub max_requests_per_connection: usize,
    /// Upper bound on live sessions; `POST /session` answers 503 once
    /// reached (sessions are server-side state, so an uncapped registry
    /// would let clients grow memory without bound).
    pub max_sessions: usize,
    /// When set, `POST /session` bodies may begin with an `@<path>`
    /// line naming a `.charles` file **under this directory**; the
    /// session then explores that dataset (lazily loaded on first use,
    /// cached per canonical path, each with its own advice cache)
    /// instead of the server's default backend. `None` (the default)
    /// disables dataset-by-path bodies entirely — paths outside the
    /// root are rejected with `dataset_forbidden` either way.
    pub dataset_root: Option<PathBuf>,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            workers: 8,
            cache_capacity: 1024,
            read_timeout: Duration::from_secs(10),
            max_requests_per_connection: 128,
            max_sessions: 4096,
            dataset_root: None,
        }
    }
}

/// One loaded dataset: its backend plus its own advice cache (cache
/// keys are canonical contexts, so distinct datasets must never share
/// one cache — identical contexts over different data would collide).
#[derive(Clone)]
struct Dataset {
    backend: Arc<dyn Backend>,
    cache: Arc<AdviceCache>,
}

/// Monotonic serving-layer counters, incremented at the connection
/// layer (so the pure `route` dispatcher stays side-effect free).
/// Exposed in-process via [`Server::metrics`]/[`ServerHandle::metrics`]
/// and over the wire at `GET /metrics` — a caller can read both ends
/// to cross-check that every request it sent was accounted for.
#[derive(Debug, Default)]
pub struct ServerMetrics {
    connections: AtomicU64,
    requests: AtomicU64,
    responses_2xx: AtomicU64,
    responses_4xx: AtomicU64,
    responses_5xx: AtomicU64,
    analysis_rejects: AtomicU64,
    analysis_prunes: AtomicU64,
}

impl ServerMetrics {
    pub(crate) fn record_response(&self, status: u16) {
        self.requests.fetch_add(1, Ordering::Relaxed);
        match status {
            200..=299 => &self.responses_2xx,
            400..=499 => &self.responses_4xx,
            _ => &self.responses_5xx,
        }
        .fetch_add(1, Ordering::Relaxed);
    }

    fn record_analysis_reject(&self) {
        self.analysis_rejects.fetch_add(1, Ordering::Relaxed);
    }

    fn record_analysis_prune(&self) {
        self.analysis_prunes.fetch_add(1, Ordering::Relaxed);
    }

    /// A consistent-enough copy of the counters (each is read
    /// atomically; the set is not a snapshot under concurrent traffic).
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            connections: self.connections.load(Ordering::Relaxed),
            requests: self.requests.load(Ordering::Relaxed),
            responses_2xx: self.responses_2xx.load(Ordering::Relaxed),
            responses_4xx: self.responses_4xx.load(Ordering::Relaxed),
            responses_5xx: self.responses_5xx.load(Ordering::Relaxed),
            analysis_rejects: self.analysis_rejects.load(Ordering::Relaxed),
            analysis_prunes: self.analysis_prunes.load(Ordering::Relaxed),
        }
    }
}

/// Point-in-time copy of [`ServerMetrics`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// Connections accepted.
    pub connections: u64,
    /// Requests answered (every response, success or error).
    pub requests: u64,
    /// Responses with a 2xx status.
    pub responses_2xx: u64,
    /// Responses with a 4xx status.
    pub responses_4xx: u64,
    /// Responses with a 5xx status (or any status outside 2xx/4xx).
    pub responses_5xx: u64,
    /// Contexts rejected at admission by static analysis (ill-typed for
    /// the dataset's schema: unknown attribute, type mismatch, …).
    pub analysis_rejects: u64,
    /// Contexts pruned at admission as provably empty — answered with
    /// zero backend operations.
    pub analysis_prunes: u64,
}

/// One successful API outcome, listener-agnostic: the HTTP listener
/// renders these to JSON ([`render_ok`]), the binary listener to typed
/// frames (`wire::encode_api_result`). Keeping the session logic behind
/// this seam is what makes the two listeners answer with the *same
/// decisions* by construction — only the encoding differs.
pub(crate) enum ApiOk {
    /// `POST /session` → 201.
    Created { id: String, advice: Arc<Advice> },
    /// Drill / back → 200.
    Advice { id: String, advice: Arc<Advice> },
    /// `GET /session/{id}` → 200.
    Info {
        id: String,
        depth: usize,
        breadcrumbs: Vec<String>,
        advice: Arc<Advice>,
    },
    /// `DELETE /session/{id}` → 204, empty body.
    Deleted,
    /// `GET /cache/stats`.
    CacheStats(WireCacheStats),
    /// `GET /metrics`.
    Metrics(MetricsSnapshot),
    /// `GET /healthz`.
    Health,
}

/// One failed API outcome: status, stable snake_case code, human
/// detail, and (for admission rejections) the static-analysis findings.
pub(crate) struct ApiError {
    pub status: u16,
    pub code: &'static str,
    pub message: String,
    /// `Some` ⇒ the JSON rendering attaches a `diagnostics` array
    /// (even when empty, matching the established wire shape).
    pub diagnostics: Option<Vec<Diagnostic>>,
}

impl ApiError {
    fn new(status: u16, code: &'static str, message: impl Into<String>) -> ApiError {
        ApiError {
            status,
            code,
            message: message.into(),
            diagnostics: None,
        }
    }
}

pub(crate) struct ServerState {
    backend: Arc<dyn Backend>,
    advisor_config: Config,
    cache: Arc<AdviceCache>,
    sessions: Mutex<HashMap<String, Arc<Mutex<Session>>>>,
    next_id: AtomicU64,
    max_sessions: usize,
    /// Advice-cache entry bound (0 = unbounded), applied to every cache
    /// this server creates — the default backend's and each loaded
    /// dataset's.
    cache_capacity: usize,
    dataset_root: Option<PathBuf>,
    /// Datasets loaded through `@path` session bodies, keyed by
    /// canonical path so aliases of one file share a single load.
    datasets: Mutex<HashMap<PathBuf, Dataset>>,
    metrics: Arc<ServerMetrics>,
    /// Clones of every live connection's socket, so shutdown can
    /// `shutdown(2)` them and unblock workers parked in reads. Without
    /// this, draining the pool waits out the full read deadline of every
    /// idle keep-alive connection — a stop that should take milliseconds
    /// took `read_timeout` (10 s at the defaults); a caller that starts
    /// and stops a server per scenario cannot ignore that stall.
    conns: Mutex<HashMap<u64, TcpStream>>,
    conn_seq: AtomicU64,
}

/// Shard count of every advice cache a server creates.
const CACHE_SHARDS: usize = 16;

/// Build an advice cache honouring the configured bound (0 = unbounded).
fn new_cache(capacity: usize) -> AdviceCache {
    if capacity == 0 {
        AdviceCache::with_shards(CACHE_SHARDS)
    } else {
        AdviceCache::bounded(CACHE_SHARDS, capacity)
    }
}

/// A bound advisory server, ready to [`run`](Server::run) or
/// [`spawn`](Server::spawn).
pub struct Server {
    listener: TcpListener,
    /// Optional second listener speaking the binary wire protocol
    /// (see [`crate::wire`]); both listeners share one worker pool,
    /// session registry, advice cache, and metrics.
    wire_listener: Option<TcpListener>,
    state: Arc<ServerState>,
    config: ServeConfig,
}

impl Server {
    /// Bind to `addr` (use port 0 for an ephemeral port) over a shared
    /// backend, with the paper-default advisor configuration.
    pub fn bind(
        addr: impl ToSocketAddrs,
        backend: Arc<dyn Backend>,
        config: ServeConfig,
    ) -> std::io::Result<Server> {
        Server::bind_with_advisor_config(addr, backend, config, Config::default())
    }

    /// Bind with an explicit advisor configuration (shared by every
    /// session — the cache key space assumes one config per server).
    pub fn bind_with_advisor_config(
        addr: impl ToSocketAddrs,
        backend: Arc<dyn Backend>,
        config: ServeConfig,
        advisor_config: Config,
    ) -> std::io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let state = Arc::new(ServerState {
            backend,
            advisor_config,
            cache: Arc::new(new_cache(config.cache_capacity)),
            sessions: Mutex::new(HashMap::new()),
            next_id: AtomicU64::new(1),
            max_sessions: config.max_sessions.max(1),
            cache_capacity: config.cache_capacity,
            dataset_root: config.dataset_root.clone(),
            datasets: Mutex::new(HashMap::new()),
            metrics: Arc::new(ServerMetrics::default()),
            conns: Mutex::new(HashMap::new()),
            conn_seq: AtomicU64::new(0),
        });
        Ok(Server {
            listener,
            wire_listener: None,
            state,
            config,
        })
    }

    /// Additionally listen for the binary wire protocol on `addr` (use
    /// port 0 for an ephemeral port). Wire connections are served by
    /// the same worker pool and operate on the same sessions, caches,
    /// and metrics as HTTP ones — a session started over HTTP can be
    /// drilled over the wire protocol and vice versa.
    pub fn with_wire_listener(mut self, addr: impl ToSocketAddrs) -> std::io::Result<Server> {
        self.wire_listener = Some(TcpListener::bind(addr)?);
        Ok(self)
    }

    /// The bound address (resolves port 0).
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// The binary wire listener's address, if one was configured.
    pub fn wire_addr(&self) -> Option<SocketAddr> {
        self.wire_listener
            .as_ref()
            .and_then(|l| l.local_addr().ok())
    }

    /// The shared advice cache (for in-process stats inspection).
    pub fn cache(&self) -> Arc<AdviceCache> {
        Arc::clone(&self.state.cache)
    }

    /// The serving-layer counters (for in-process inspection).
    pub fn metrics(&self) -> Arc<ServerMetrics> {
        Arc::clone(&self.state.metrics)
    }

    /// Serve connections until `shutdown` flips true (checked between
    /// accepts; connect once per listener after flipping to unblock the
    /// accepts).
    fn serve(self, shutdown: Arc<AtomicBool>) {
        let pool = Arc::new(WorkerPool::new(self.config.workers));
        // The wire listener (if any) accepts on its own thread; both
        // loops hand connections to the one shared pool.
        let wire_thread = self.wire_listener.map(|listener| {
            let state = Arc::clone(&self.state);
            let pool = Arc::clone(&pool);
            let config = self.config.clone();
            let flag = Arc::clone(&shutdown);
            std::thread::spawn(move || {
                accept_loop(listener, &state, &pool, &config, &flag, ConnKind::Wire)
            })
        });
        accept_loop(
            self.listener,
            &self.state,
            &pool,
            &self.config,
            &shutdown,
            ConnKind::Http,
        );
        if let Some(thread) = wire_thread {
            let _ = thread.join();
        }
        // Force every live connection closed before draining the pool:
        // a worker blocked in a read returns immediately instead of
        // waiting out its deadline, so shutdown is bounded by in-flight
        // *work*, not by idle keep-alive timers.
        for (_, conn) in self
            .state
            .conns
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .drain()
        {
            let _ = conn.shutdown(std::net::Shutdown::Both);
        }
        // Dropping the pool drains in-flight connections.
    }

    /// Run the accept loop on the calling thread, forever.
    pub fn run(self) {
        self.serve(Arc::new(AtomicBool::new(false)));
    }

    /// Run the accept loop on a background thread; the returned handle
    /// stops the server when dropped (or via [`ServerHandle::shutdown`]).
    pub fn spawn(self) -> std::io::Result<ServerHandle> {
        let addr = self.local_addr()?;
        let wire_addr = self.wire_addr();
        let cache = self.cache();
        let metrics = self.metrics();
        let shutdown = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&shutdown);
        let thread = std::thread::spawn(move || self.serve(flag));
        Ok(ServerHandle {
            addr,
            wire_addr,
            cache,
            metrics,
            shutdown,
            thread: Some(thread),
        })
    }
}

/// Handle to a background server; shuts the server down on drop.
pub struct ServerHandle {
    addr: SocketAddr,
    wire_addr: Option<SocketAddr>,
    cache: Arc<AdviceCache>,
    metrics: Arc<ServerMetrics>,
    shutdown: Arc<AtomicBool>,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl ServerHandle {
    /// The address the server is listening on.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The binary wire listener's address, if one was configured.
    pub fn wire_addr(&self) -> Option<SocketAddr> {
        self.wire_addr
    }

    /// The server's shared advice cache.
    pub fn cache(&self) -> Arc<AdviceCache> {
        Arc::clone(&self.cache)
    }

    /// The server's serving-layer counters.
    pub fn metrics(&self) -> Arc<ServerMetrics> {
        Arc::clone(&self.metrics)
    }

    /// Stop accepting, drain in-flight requests, join the accept loop.
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        let Some(thread) = self.thread.take() else {
            return;
        };
        self.shutdown.store(true, Ordering::SeqCst);
        // Unblock each accept call with one throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(wire) = self.wire_addr {
            let _ = TcpStream::connect(wire);
        }
        let _ = thread.join();
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.stop();
    }
}

/// A `TcpStream` reader that enforces one absolute deadline across the
/// *whole* request: before every read the socket timeout is re-armed
/// with the time remaining, so a client trickling one byte per
/// near-timeout interval still gets cut off at the deadline instead of
/// resetting the clock with each byte.
pub(crate) struct DeadlineStream {
    stream: TcpStream,
    deadline: std::time::Instant,
}

impl DeadlineStream {
    pub(crate) fn new(stream: TcpStream, timeout: Duration) -> DeadlineStream {
        DeadlineStream {
            stream,
            deadline: std::time::Instant::now() + timeout,
        }
    }

    /// Start a fresh whole-request deadline (once per request on a
    /// persistent connection — idle time between requests counts too).
    pub(crate) fn rearm(&mut self, timeout: Duration) {
        self.deadline = std::time::Instant::now() + timeout;
    }
}

impl std::io::Read for DeadlineStream {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let remaining = self
            .deadline
            .checked_duration_since(std::time::Instant::now())
            .filter(|d| !d.is_zero())
            .ok_or_else(|| {
                std::io::Error::new(std::io::ErrorKind::TimedOut, "request deadline exceeded")
            })?;
        self.stream.set_read_timeout(Some(remaining))?;
        self.stream.read(buf)
    }
}

/// Which protocol a listener's connections speak.
#[derive(Clone, Copy)]
enum ConnKind {
    Http,
    Wire,
}

/// Accept connections until `shutdown` flips true, handing each to the
/// shared worker pool with the per-kind connection handler.
fn accept_loop(
    listener: TcpListener,
    state: &Arc<ServerState>,
    pool: &Arc<WorkerPool>,
    config: &ServeConfig,
    shutdown: &Arc<AtomicBool>,
    kind: ConnKind,
) {
    for stream in listener.incoming() {
        if shutdown.load(Ordering::SeqCst) {
            break;
        }
        let stream = match stream {
            Ok(s) => s,
            Err(_) => {
                // Transient accept failures (fd exhaustion, aborted
                // handshakes) must not busy-spin the accept thread.
                std::thread::sleep(Duration::from_millis(10));
                continue;
            }
        };
        // Advice exchanges are one small write per direction — the
        // worst case for Nagle's algorithm, which would hold a tiny
        // response back waiting for an ACK that the client's
        // delayed-ACK timer won't send for tens of ms. Best-effort:
        // a socket that rejects the option still gets served.
        let _ = stream.set_nodelay(true);
        state.metrics.connections.fetch_add(1, Ordering::Relaxed);
        let state = Arc::clone(state);
        let timeout = config.read_timeout;
        let max_requests = config.max_requests_per_connection.max(1);
        // Register the socket so shutdown can unblock the worker if
        // it is parked reading this connection when the flag flips.
        let conn_id = state.conn_seq.fetch_add(1, Ordering::Relaxed);
        if let Ok(clone) = stream.try_clone() {
            state
                .conns
                .lock()
                .unwrap_or_else(|p| p.into_inner())
                .insert(conn_id, clone);
        }
        pool.execute(move || {
            let _registered = Registered {
                state: &state,
                conn_id,
            };
            match kind {
                ConnKind::Http => handle_connection(stream, &state, timeout, max_requests),
                ConnKind::Wire => crate::wire::handle_wire_connection(stream, &state, timeout),
            }
        });
    }
}

/// A connection's entry in [`ServerState::conns`], removed when this
/// drops: on the handler's return and on its unwind alike. The pool
/// contains a panicking job, so a `remove` written after the handler
/// would not run and the cloned socket — one fd, one map entry — would
/// stay until shutdown.
struct Registered<'a> {
    state: &'a ServerState,
    conn_id: u64,
}

impl Drop for Registered<'_> {
    fn drop(&mut self) {
        self.state
            .conns
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .remove(&self.conn_id);
    }
}

/// Serve requests from one connection until the client closes, asks to
/// close, errs, exhausts its request budget, or goes idle past the
/// deadline (HTTP/1.1 keep-alive — the ROADMAP follow-up from the
/// one-request-per-connection first cut).
fn handle_connection(
    stream: TcpStream,
    state: &ServerState,
    timeout: Duration,
    max_requests: usize,
) {
    use std::io::BufRead;
    let reader = match stream.try_clone() {
        Ok(s) => DeadlineStream::new(s, timeout),
        Err(_) => return,
    };
    let mut reader = BufReader::new(reader);
    let mut writer = stream;
    let _ = writer.set_write_timeout(Some(timeout));
    for served in 1..=max_requests {
        // Each request gets a fresh whole-request deadline; the time a
        // persistent connection sits idle counts against it too.
        reader.get_mut().rearm(timeout);
        // Peek before parsing: a connection closed (or idle-expired)
        // between requests ends quietly, with no error response.
        match reader.fill_buf() {
            Ok([]) => return, // clean EOF between requests
            Ok(_) => {}       // next request has begun
            Err(_) => return, // idle deadline or transport error
        }
        let (status, body, keep_alive) = match parse_request(&mut reader) {
            Ok(req) => {
                let keep = req.keep_alive && served < max_requests;
                let (status, body) = route(state, &req);
                (status, body, keep)
            }
            // A malformed request poisons the framing: answer and close.
            Err(e) => (
                e.status(),
                encode_error(http_error_code(&e), &e.to_string()),
                false,
            ),
        };
        state.metrics.record_response(status);
        if write_response(&mut writer, status, &body, keep_alive).is_err() || !keep_alive {
            return;
        }
    }
}

/// The stable machine-readable code for a transport-layer error.
fn http_error_code(e: &HttpError) -> &'static str {
    match e {
        HttpError::UnsupportedMethod(_) => "unsupported_method",
        HttpError::UnsupportedVersion(_) => "unsupported_http_version",
        HttpError::UnsupportedTransferEncoding(_) => "unsupported_transfer_encoding",
        HttpError::HeadTooLarge => "head_too_large",
        HttpError::BodyTooLarge(_) => "body_too_large",
        _ => "bad_request",
    }
}

/// Split a request target's path component into non-empty segments.
/// The query (everything from the first `?`) is ignored: a load
/// balancer's `GET /healthz?probe=lb` is a health probe, not a 404.
fn segments(target: &str) -> Vec<&str> {
    let path = target.split_once('?').map_or(target, |(path, _)| path);
    path.split('/').filter(|s| !s.is_empty()).collect()
}

/// Dispatch one request to (status, JSON body). Everything that can
/// also arrive over the binary listener goes through the shared `api_*`
/// layer; only HTTP-specific concerns (path routing, the textual drill
/// body) live here.
fn route(state: &ServerState, req: &Request) -> (u16, String) {
    match (req.method, segments(&req.path).as_slice()) {
        (Method::Get, ["healthz"]) => render(Ok(ApiOk::Health)),
        (Method::Get, ["cache", "stats"]) => render(Ok(api_cache_stats(state))),
        (Method::Get, ["metrics"]) => render(Ok(api_metrics(state))),
        (Method::Post, ["session"]) => render(api_create_session(state, &req.body)),
        (Method::Get, ["session", id]) => render(api_session_info(state, id)),
        (Method::Delete, ["session", id]) => render(api_delete_session(state, id)),
        (Method::Post, ["session", id, "drill"]) => match parse_drill_body(&req.body) {
            Some((rank, seg)) => render(api_drill(state, id, rank, seg)),
            None => (
                400,
                encode_error(
                    "bad_request",
                    "drill body must be two indices: \"rank seg\"",
                ),
            ),
        },
        (Method::Post, ["session", id, "back"]) => render(api_back(state, id)),
        // Known paths with the wrong method get a 405, the rest 404.
        (_, ["session"]) | (_, ["session", _]) | (_, ["session", _, "drill" | "back"]) => (
            405,
            encode_error("method_not_allowed", "method not allowed for this route"),
        ),
        _ => (404, encode_error("no_such_route", "no such route")),
    }
}

/// Parse an HTTP drill body: exactly two whitespace-separated indices.
fn parse_drill_body(body: &str) -> Option<(usize, usize)> {
    let mut parts = body.split_ascii_whitespace();
    match (
        parts.next().and_then(|t| t.parse::<usize>().ok()),
        parts.next().and_then(|t| t.parse::<usize>().ok()),
        parts.next(),
    ) {
        (Some(rank), Some(seg), None) => Some((rank, seg)),
        _ => None,
    }
}

/// Render an API outcome as this listener's (status, JSON body).
fn render(result: Result<ApiOk, ApiError>) -> (u16, String) {
    match result {
        Ok(ok) => render_ok(&ok),
        Err(e) => render_err(&e),
    }
}

fn render_ok(ok: &ApiOk) -> (u16, String) {
    match ok {
        ApiOk::Created { id, advice } => (201, session_body(id, served_advice(advice))),
        ApiOk::Advice { id, advice } => (200, session_body(id, served_advice(advice))),
        ApiOk::Info {
            id,
            depth,
            breadcrumbs,
            advice,
        } => (
            200,
            info_body(id, *depth as u64, breadcrumbs, served_advice(advice)),
        ),
        ApiOk::Deleted => (204, String::new()),
        ApiOk::CacheStats(c) => (200, cache_stats_body(c)),
        ApiOk::Metrics(m) => (200, metrics_body(m)),
        ApiOk::Health => (200, HEALTH_BODY.to_string()),
    }
}

fn render_err(e: &ApiError) -> (u16, String) {
    let body = match &e.diagnostics {
        Some(diags) => encode_error_with_diagnostics(e.code, &e.message, diags),
        None => encode_error(e.code, &e.message),
    };
    (e.status, body)
}

/// Split an optional leading `@<path>` line off a session body,
/// returning `(dataset path, SDL context)`.
fn split_dataset_directive(body: &str) -> (Option<&str>, &str) {
    let trimmed = body.trim_start();
    let Some(rest) = trimmed.strip_prefix('@') else {
        return (None, body);
    };
    match rest.split_once('\n') {
        Some((path, sdl)) => (Some(path.trim()), sdl),
        None => (Some(rest.trim()), ""),
    }
}

impl ServerState {
    /// Resolve an `@path` dataset directive: confine the path to the
    /// configured root, then load (or reuse) the `.charles` file. The
    /// registry lock is held across `Table::open`, which reads only
    /// header + footer — a few hundred bytes — so the hold is short and
    /// concurrent first requests for one dataset load it exactly once.
    fn dataset(&self, rel: &str) -> Result<Dataset, ApiError> {
        let Some(root) = &self.dataset_root else {
            return Err(ApiError::new(
                403,
                "dataset_disabled",
                "this server has no dataset root; '@path' session bodies are disabled",
            ));
        };
        let root = root.canonicalize().map_err(|e| {
            ApiError::new(
                500,
                "backend_failure",
                format!("dataset root unavailable: {e}"),
            )
        })?;
        let joined = root.join(rel);
        let canonical = joined
            .canonicalize()
            .map_err(|_| ApiError::new(404, "no_such_dataset", format!("no dataset at {rel:?}")))?;
        if !canonical.starts_with(&root) {
            return Err(ApiError::new(
                403,
                "dataset_forbidden",
                format!("dataset path {rel:?} escapes the dataset root"),
            ));
        }
        let mut registry = self.datasets.lock().unwrap_or_else(|p| p.into_inner());
        if let Some(d) = registry.get(&canonical) {
            return Ok(d.clone());
        }
        match Table::open(&canonical) {
            Ok(table) => {
                let dataset = Dataset {
                    backend: Arc::new(table),
                    cache: Arc::new(new_cache(self.cache_capacity)),
                };
                registry.insert(canonical, dataset.clone());
                Ok(dataset)
            }
            Err(e) => Err(ApiError::new(
                422,
                "bad_dataset",
                format!("failed to load dataset {rel:?}: {e}"),
            )),
        }
    }

    /// The serving-layer counters (for the binary listener's handler).
    pub(crate) fn metrics(&self) -> &ServerMetrics {
        &self.metrics
    }
}

pub(crate) fn api_create_session(state: &ServerState, body: &str) -> Result<ApiOk, ApiError> {
    let (dataset_path, sdl) = split_dataset_directive(body);
    if sdl.trim().is_empty() {
        return Err(ApiError::new(
            400,
            "bad_request",
            "request body must be an SDL context",
        ));
    }
    let dataset = match dataset_path {
        None => Dataset {
            backend: Arc::clone(&state.backend),
            cache: Arc::clone(&state.cache),
        },
        Some(rel) => state.dataset(rel)?,
    };
    let mut session = Session::with_config(dataset.backend, state.advisor_config.clone())
        .with_cache(dataset.cache);
    let advice = match session.start(sdl) {
        Ok(advice) => Arc::clone(advice),
        Err(e) => return Err(admission_error(&state.metrics, &e)),
    };
    let id = format!("s{}", state.next_id.fetch_add(1, Ordering::Relaxed));
    {
        // Cap check and insert under one lock so racing creates cannot
        // overshoot the bound. (The advise work above is not wasted on
        // rejection: it landed in the shared cache.)
        let mut sessions = state.sessions.lock().unwrap_or_else(|p| p.into_inner());
        if sessions.len() >= state.max_sessions {
            return Err(ApiError::new(
                503,
                "capacity_exhausted",
                "session capacity exhausted; DELETE finished sessions and retry",
            ));
        }
        sessions.insert(id.clone(), Arc::new(Mutex::new(session)));
    }
    Ok(ApiOk::Created { id, advice })
}

pub(crate) fn api_delete_session(state: &ServerState, id: &str) -> Result<ApiOk, ApiError> {
    let removed = state
        .sessions
        .lock()
        .unwrap_or_else(|p| p.into_inner())
        .remove(id);
    match removed {
        Some(_) => Ok(ApiOk::Deleted),
        None => Err(no_such_session(id)),
    }
}

pub(crate) fn api_session_info(state: &ServerState, id: &str) -> Result<ApiOk, ApiError> {
    with_session(state, id, |id, session| {
        let Some(advice) = session.current() else {
            return Err(core_error(&CoreError::SessionNotStarted));
        };
        let advice = Arc::clone(advice);
        Ok(ApiOk::Info {
            id: id.to_string(),
            depth: session.depth(),
            breadcrumbs: session.breadcrumbs().map(|q| q.to_string()).collect(),
            advice,
        })
    })
}

pub(crate) fn api_drill(
    state: &ServerState,
    id: &str,
    rank: usize,
    seg: usize,
) -> Result<ApiOk, ApiError> {
    with_session(state, id, |id, session| match session.drill(rank, seg) {
        Ok(advice) => Ok(ApiOk::Advice {
            id: id.to_string(),
            advice: Arc::clone(advice),
        }),
        Err(e) => Err(admission_error(&state.metrics, &e)),
    })
}

pub(crate) fn api_back(state: &ServerState, id: &str) -> Result<ApiOk, ApiError> {
    with_session(state, id, |id, session| match session.try_back() {
        Ok(advice) => Ok(ApiOk::Advice {
            id: id.to_string(),
            advice: Arc::clone(advice),
        }),
        Err(e) => Err(core_error(&e)),
    })
}

pub(crate) fn api_cache_stats(state: &ServerState) -> ApiOk {
    let stats = state.cache.stats();
    ApiOk::CacheStats(WireCacheStats {
        hits: stats.hits,
        misses: stats.misses,
        runs: stats.runs,
        evictions: stats.evictions,
        entries: state.cache.len() as u64,
        capacity: state.cache.capacity().map(|c| c as u64),
    })
}

pub(crate) fn api_metrics(state: &ServerState) -> ApiOk {
    ApiOk::Metrics(state.metrics.snapshot())
}

fn no_such_session(id: &str) -> ApiError {
    ApiError::new(404, "no_such_session", format!("no session {id:?}"))
}

/// Look a session up and run `f` on it under its own lock (the registry
/// lock is released first, so sessions never serialize on each other).
fn with_session<F>(state: &ServerState, id: &str, f: F) -> Result<ApiOk, ApiError>
where
    F: FnOnce(&str, &mut Session) -> Result<ApiOk, ApiError>,
{
    let session = state
        .sessions
        .lock()
        .unwrap_or_else(|p| p.into_inner())
        .get(id)
        .cloned();
    match session {
        Some(cell) => {
            let mut session = cell.lock().unwrap_or_else(|p| p.into_inner());
            f(id, &mut session)
        }
        None => Err(no_such_session(id)),
    }
}

/// Map advisor errors onto statuses and stable codes: client mistakes
/// are 4xx, backend faults are the only 500s.
fn core_error(e: &CoreError) -> ApiError {
    let message = e.to_string();
    let (status, code) = match e {
        // Static-analysis rejections: the context parsed but is
        // ill-typed for this dataset's schema. 422 with the findings
        // attached, so clients see every problem at once.
        CoreError::InvalidContext(diags) => {
            return ApiError {
                status: 422,
                code: "invalid_context",
                message,
                diagnostics: Some(diags.clone()),
            };
        }
        // An unknown attribute surfaces from the parser (it resolves
        // names against the schema), but to a client it is the same
        // admission failure — answer it in the same shape.
        CoreError::Sdl(SdlError::UnknownAttribute { attr, .. }) => {
            let diag = Diagnostic::new(
                DiagnosticCode::UnknownAttribute,
                attr.clone(),
                format!("the dataset's schema has no attribute {attr:?}"),
            );
            return ApiError {
                status: 422,
                code: "invalid_context",
                message,
                diagnostics: Some(vec![diag]),
            };
        }
        // Provably-empty conjunction: valid, but answered without any
        // backend work.
        CoreError::UnsatisfiableContext => (422, "unsatisfiable_context"),
        // The context didn't parse or validate: the request was wrong.
        CoreError::Sdl(_) => (400, "bad_context"),
        CoreError::BadConfig(_) => (400, "bad_config"),
        // Stable session-state errors: the request is well-formed but
        // cannot apply to the current state.
        CoreError::SessionNotStarted => (409, "session_not_started"),
        CoreError::NoSuchSegment { .. } => (422, "no_such_segment"),
        CoreError::AtRoot => (422, "at_root"),
        // Semantically empty/uniform contexts are client-visible dead
        // ends, not server faults.
        CoreError::EmptyContext => (422, "empty_context"),
        CoreError::NoCuttableAttribute => (422, "no_cuttable_attribute"),
        CoreError::Store(_) => (500, "backend_failure"),
    };
    ApiError::new(status, code, message)
}

/// [`core_error`] for the two operations that advise (start and drill),
/// additionally counting static-analysis outcomes: rejects (ill-typed
/// contexts) and prunes (provably-empty contexts answered with zero
/// backend operations). Kept separate so `core_error` stays a pure
/// mapping.
fn admission_error(metrics: &ServerMetrics, e: &CoreError) -> ApiError {
    match e {
        CoreError::InvalidContext(_) | CoreError::Sdl(SdlError::UnknownAttribute { .. }) => {
            metrics.record_analysis_reject();
        }
        CoreError::UnsatisfiableContext => metrics.record_analysis_prune(),
        _ => {}
    }
    core_error(e)
}

#[cfg(test)]
mod tests {
    use super::*;
    use charles_store::{DataType, TableBuilder, Value};

    fn backend() -> Arc<dyn Backend> {
        let mut b = TableBuilder::new("t");
        b.add_column("kind", DataType::Str)
            .add_column("size", DataType::Int);
        for i in 0..48i64 {
            let kind = if i % 2 == 0 { "even" } else { "odd" };
            b.push_row(vec![Value::str(kind), Value::Int(i)]).unwrap();
        }
        Arc::new(b.finish())
    }

    fn state() -> ServerState {
        ServerState {
            backend: backend(),
            advisor_config: Config::default(),
            cache: Arc::new(new_cache(64)),
            sessions: Mutex::new(HashMap::new()),
            next_id: AtomicU64::new(1),
            max_sessions: 4096,
            cache_capacity: 64,
            dataset_root: None,
            datasets: Mutex::new(HashMap::new()),
            metrics: Arc::new(ServerMetrics::default()),
            conns: Mutex::new(HashMap::new()),
            conn_seq: AtomicU64::new(0),
        }
    }

    fn post(path: &str, body: &str) -> Request {
        Request {
            method: Method::Post,
            path: path.to_string(),
            body: body.to_string(),
            keep_alive: true,
        }
    }

    fn get(path: &str) -> Request {
        Request {
            method: Method::Get,
            path: path.to_string(),
            body: String::new(),
            keep_alive: true,
        }
    }

    #[test]
    fn full_lifecycle_through_route() {
        let st = state();
        let (status, body) = route(&st, &post("/session", "(kind: , size: )"));
        assert_eq!(status, 201, "{body}");
        assert!(body.starts_with("{\"session\":\"s1\",\"advice\":"));

        let (status, info) = route(&st, &get("/session/s1"));
        assert_eq!(status, 200);
        assert!(info.contains("\"depth\":1"));
        assert!(info.contains("\"breadcrumbs\":[\"(kind: , size: )\"]"));

        let (status, drilled) = route(&st, &post("/session/s1/drill", "0 0"));
        assert_eq!(status, 200, "{drilled}");

        let (status, back) = route(&st, &post("/session/s1/back", ""));
        assert_eq!(status, 200, "{back}");

        // Back at the root: 422 with a stable message.
        let (status, err) = route(&st, &post("/session/s1/back", ""));
        assert_eq!(status, 422);
        assert!(err.contains("root"));

        let (status, _) = route(
            &st,
            &Request {
                method: Method::Delete,
                path: "/session/s1".into(),
                body: String::new(),
                keep_alive: true,
            },
        );
        assert_eq!(status, 204);
        let (status, _) = route(&st, &get("/session/s1"));
        assert_eq!(status, 404);
    }

    #[test]
    fn a_connection_leaves_the_registry_when_its_handler_returns_or_panics() {
        let st = state();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        for (conn_id, panics) in [(1, false), (2, true)] {
            let stream = TcpStream::connect(addr).unwrap();
            st.conns.lock().unwrap().insert(conn_id, stream);
            // What the pool does with a job: run it, contain its panic.
            let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                let _registered = Registered {
                    state: &st,
                    conn_id,
                };
                assert!(st.conns.lock().unwrap().contains_key(&conn_id));
                if panics {
                    panic!("a handler bug");
                }
            }));
            assert_eq!(outcome.is_err(), panics);
            assert!(st.conns.lock().unwrap().is_empty(), "panics: {panics}");
        }
    }

    #[test]
    fn error_statuses() {
        let st = state();
        // Unknown attribute → 422 admission rejection (see
        // `analysis_rejections_are_structured_and_counted`).
        let (status, _) = route(&st, &post("/session", "(nope: )"));
        assert_eq!(status, 422);
        // Unparseable SDL → 400.
        let (status, _) = route(&st, &post("/session", "garbage"));
        assert_eq!(status, 400);
        // Empty body → 400.
        let (status, _) = route(&st, &post("/session", "   "));
        assert_eq!(status, 400);
        // Unknown session → 404.
        let (status, _) = route(&st, &get("/session/zzz"));
        assert_eq!(status, 404);
        // Unknown route → 404; known route, wrong method → 405.
        let (status, _) = route(&st, &get("/frobnicate"));
        assert_eq!(status, 404);
        // A query string neither creates nor hides a route.
        let (status, _) = route(&st, &get("/nope?x"));
        assert_eq!(status, 404);
        let (status, _) = route(&st, &get("/cache/stats?"));
        assert_eq!(status, 200);
        let (status, _) = route(&st, &get("/session/s1/drill"));
        assert_eq!(status, 405);
        // Out-of-range drill → 422 with the indices echoed.
        route(&st, &post("/session", "(kind: , size: )"));
        let (status, body) = route(&st, &post("/session/s1/drill", "99 7"));
        assert_eq!(status, 422);
        assert!(body.contains("(99, 7)"));
        // Malformed drill body → 400.
        let (status, _) = route(&st, &post("/session/s1/drill", "one two"));
        assert_eq!(status, 400);
        let (status, _) = route(&st, &post("/session/s1/drill", "1 2 3"));
        assert_eq!(status, 400);
        // Empty context (selects no rows) → 422.
        let (status, _) = route(&st, &post("/session", "(kind: {neither}, size: )"));
        assert_eq!(status, 422);
    }

    #[test]
    fn cache_is_shared_across_sessions() {
        let st = state();
        let (s1, _) = route(&st, &post("/session", "(kind: , size: )"));
        // Permuted conjuncts: same canonical context, so a cache hit.
        let (s2, _) = route(&st, &post("/session", "(size: , kind: )"));
        assert_eq!((s1, s2), (201, 201));
        assert_eq!(st.cache.stats().runs, 1);
        let (status, stats) = route(&st, &get("/cache/stats"));
        assert_eq!(status, 200);
        assert!(stats.contains("\"runs\":1"), "{stats}");
        assert!(stats.contains("\"entries\":1"), "{stats}");
        assert!(stats.contains("\"evictions\":0"), "{stats}");
        assert!(stats.contains("\"capacity\":64"), "{stats}");
    }

    #[test]
    fn cache_stats_report_evictions_and_the_bound_holds() {
        // A tiny bounded cache: more distinct contexts than capacity
        // must evict rather than grow, and /cache/stats must say so.
        let st = ServerState {
            cache: Arc::new(AdviceCache::bounded(1, 2)),
            cache_capacity: 2,
            ..state()
        };
        for body in ["(kind: )", "(size: )", "(kind: , size: )", "(size: [3,9])"] {
            let (status, resp) = route(&st, &post("/session", body));
            assert_eq!(status, 201, "{resp}");
        }
        assert!(st.cache.len() <= 2, "cache grew to {}", st.cache.len());
        let stats = st.cache.stats();
        assert_eq!(stats.runs, 4, "every distinct context ran");
        assert!(stats.evictions >= 2, "evictions: {}", stats.evictions);
        let (_, body) = route(&st, &get("/cache/stats"));
        assert!(body.contains("\"capacity\":2"), "{body}");
        let evictions_field = body
            .split("\"evictions\":")
            .nth(1)
            .and_then(|s| s.split(',').next())
            .unwrap()
            .parse::<u64>()
            .unwrap();
        assert!(evictions_field >= 2, "{body}");
    }

    #[test]
    fn encodings_are_freed_with_their_advice() {
        // One cache entry: the second context evicts the first, whose
        // only other holder is session s1's history. No registry keeps
        // an encoding alive past its advice.
        let st = ServerState {
            cache: Arc::new(AdviceCache::bounded(1, 1)),
            cache_capacity: 1,
            ..state()
        };
        let first = api_create_session(&st, "(kind: )");
        let Ok(ApiOk::Created { advice, .. }) = &first else {
            panic!("start failed");
        };
        let weak = Arc::downgrade(advice);
        // Send it on both listeners' encoders: both slots filled.
        let (status, _) = render(Ok(ApiOk::Advice {
            id: "s1".to_string(),
            advice: Arc::clone(advice),
        }));
        assert_eq!(status, 200);
        let mut frame = Vec::new();
        crate::wire::encode_api_result(&mut frame, &first);
        drop(first);
        assert!(weak.upgrade().is_some(), "cache and session hold it");

        let (status, body) = route(&st, &post("/session", "(size: )"));
        assert_eq!(status, 201, "{body}");
        assert_eq!(st.cache.stats().evictions, 1);
        assert!(weak.upgrade().is_some(), "session s1 still holds it");

        assert!(matches!(api_delete_session(&st, "s1"), Ok(ApiOk::Deleted)));
        assert!(weak.upgrade().is_none(), "nothing else kept it alive");
    }

    #[test]
    fn unknown_session_errors_are_structured() {
        // The documented error shape: {"error":{"code","message"}} with
        // a stable code — on GET and DELETE of a dead session id alike.
        let st = state();
        let (status, body) = route(&st, &get("/session/s42"));
        assert_eq!(status, 404);
        assert_eq!(
            body,
            "{\"error\":{\"code\":\"no_such_session\",\"message\":\"no session \\\"s42\\\"\"}}"
        );
        let (status, body) = route(
            &st,
            &Request {
                method: Method::Delete,
                path: "/session/s42".into(),
                body: String::new(),
                keep_alive: true,
            },
        );
        assert_eq!(status, 404);
        assert!(body.contains("\"code\":\"no_such_session\""), "{body}");
        // Other error classes carry their own stable codes.
        let (_, body) = route(&st, &get("/frobnicate"));
        assert!(body.contains("\"code\":\"no_such_route\""), "{body}");
        let (_, body) = route(&st, &get("/session/s1/drill"));
        assert!(body.contains("\"code\":\"method_not_allowed\""), "{body}");
        let (_, body) = route(&st, &post("/session", "garbage"));
        assert!(body.contains("\"code\":\"bad_context\""), "{body}");
    }

    #[test]
    fn analysis_rejections_are_structured_and_counted() {
        let st = state();
        // Unknown attribute: previously a 400 parse error; now a 422
        // admission rejection carrying a machine-readable diagnostic.
        let (status, body) = route(&st, &post("/session", "(nope: , kind: )"));
        assert_eq!(status, 422, "{body}");
        assert!(body.contains("\"code\":\"invalid_context\""), "{body}");
        assert!(body.contains("\"diagnostics\":["), "{body}");
        assert!(body.contains("\"code\":\"unknown_attribute\""), "{body}");
        assert!(body.contains("\"attr\":\"nope\""), "{body}");
        // Ill-typed literal: previously crossed admission and died at
        // eval as a 500 backend failure; now a 422 with the finding.
        let (status, body) = route(&st, &post("/session", "(size: {'abc'})"));
        assert_eq!(status, 422, "{body}");
        assert!(body.contains("\"code\":\"invalid_context\""), "{body}");
        assert!(body.contains("\"code\":\"type_mismatch\""), "{body}");
        assert!(body.contains("\"attr\":\"size\""), "{body}");
        assert_eq!(st.metrics.snapshot().analysis_rejects, 2);
        assert_eq!(st.metrics.snapshot().analysis_prunes, 0);
    }

    #[test]
    fn unsatisfiable_context_is_pruned_without_backend_work() {
        let st = state();
        // Warm up with a real session so backend counters are non-zero
        // and would move if the pruned request touched the backend.
        let (status, _) = route(&st, &post("/session", "(kind: , size: )"));
        assert_eq!(status, 201);
        let before = st.backend.stats();
        assert!(before.scans > 0);
        let (status, body) = route(
            &st,
            &post("/session", "(size: [0,10], size: [20,30], kind: )"),
        );
        assert_eq!(status, 422, "{body}");
        assert!(
            body.contains("\"code\":\"unsatisfiable_context\""),
            "{body}"
        );
        assert!(body.contains("provably empty"), "{body}");
        assert_eq!(
            st.backend.stats(),
            before,
            "pruned context must cost zero backend operations"
        );
        assert_eq!(st.metrics.snapshot().analysis_prunes, 1);
        // The counters are on the wire too. (`route` is the pure
        // dispatcher — 4xx/5xx totals are recorded at the connection
        // layer, covered by the end-to-end tests below.)
        let (status, metrics) = route(&st, &get("/metrics"));
        assert_eq!(status, 200);
        assert!(metrics.contains("\"analysis_prunes\":1"), "{metrics}");
        assert!(metrics.contains("\"analysis_rejects\":0"), "{metrics}");
    }

    #[test]
    fn repeated_attribute_contexts_share_one_cache_entry() {
        let st = state();
        // Three spellings of one context: a plain one, a redundant
        // conjunction, and its permutation. Analysis normalizes all
        // three to a single cache key.
        for body in [
            "(size: [10,40], kind: )",
            "(size: [0,40], size: [10,99], kind: )",
            "(kind: , size: [10,50], size: [0,40])",
        ] {
            let (status, resp) = route(&st, &post("/session", body));
            assert_eq!(status, 201, "{resp}");
        }
        assert_eq!(st.cache.stats().runs, 1, "one advisor run for all three");
        assert_eq!(st.cache.len(), 1);
        // The session's breadcrumb is the merged canonical context.
        let (_, info) = route(&st, &get("/session/s2"));
        assert!(
            info.contains("\"breadcrumbs\":[\"(kind: , size: [10,40])\"]"),
            "{info}"
        );
    }

    #[test]
    fn drill_requests_count_analysis_metrics_too() {
        let st = state();
        let (status, _) = route(&st, &post("/session", "(kind: , size: )"));
        assert_eq!(status, 201);
        // A plain out-of-range drill is not an analysis event.
        let (status, _) = route(&st, &post("/session/s1/drill", "99 0"));
        assert_eq!(status, 422);
        let snap = st.metrics.snapshot();
        assert_eq!(snap.analysis_rejects + snap.analysis_prunes, 0);
    }

    #[test]
    fn dataset_directive_parsing() {
        assert_eq!(split_dataset_directive("(kind: )"), (None, "(kind: )"));
        assert_eq!(
            split_dataset_directive("@boats.charles\n(kind: )"),
            (Some("boats.charles"), "(kind: )")
        );
        assert_eq!(
            split_dataset_directive("  @ sub/boats.charles \r\n(kind: )"),
            (Some("sub/boats.charles"), "(kind: )")
        );
        // Directive without a context line: empty SDL (rejected later).
        assert_eq!(
            split_dataset_directive("@boats.charles"),
            (Some("boats.charles"), "")
        );
    }

    #[test]
    fn dataset_sessions_load_from_disk_within_the_root() {
        use charles_store::disk::write_table;
        // A root directory holding one saved dataset.
        let root = std::env::temp_dir().join(format!("charles-ds-root-{}", std::process::id()));
        std::fs::create_dir_all(&root).unwrap();
        let mut b = TableBuilder::new("saved");
        b.add_column("kind", DataType::Str)
            .add_column("size", DataType::Int);
        for i in 0..40i64 {
            let kind = if i % 2 == 0 { "even" } else { "odd" };
            b.push_row(vec![Value::str(kind), Value::Int(i)]).unwrap();
        }
        let saved = b.finish();
        write_table(&saved, root.join("boats.charles")).unwrap();

        let st = ServerState {
            dataset_root: Some(root.clone()),
            ..state()
        };

        // A dataset session starts, drills, and is served from the file.
        let (status, body) = route(&st, &post("/session", "@boats.charles\n(kind: , size: )"));
        assert_eq!(status, 201, "{body}");
        let (status, body) = route(&st, &post("/session/s1/drill", "0 0"));
        assert_eq!(status, 200, "{body}");
        // Same path again reuses the loaded dataset (one registry entry).
        let (status, _) = route(&st, &post("/session", "@boats.charles\n(kind: )"));
        assert_eq!(status, 201);
        assert_eq!(st.datasets.lock().unwrap().len(), 1);

        // Traversal out of the root is forbidden; missing files are 404;
        // non-.charles files are rejected as bad datasets.
        let (status, body) = route(&st, &post("/session", "@../../etc/passwd\n(kind: )"));
        assert!(
            status == 403 || status == 404,
            "traversal must not resolve: {status} {body}"
        );
        assert!(
            body.contains("dataset_forbidden") || body.contains("no_such_dataset"),
            "{body}"
        );
        let (status, body) = route(&st, &post("/session", "@nope.charles\n(kind: )"));
        assert_eq!(status, 404, "{body}");
        assert!(body.contains("\"code\":\"no_such_dataset\""), "{body}");
        std::fs::write(root.join("junk.charles"), b"not a charles file").unwrap();
        let (status, body) = route(&st, &post("/session", "@junk.charles\n(kind: )"));
        assert_eq!(status, 422, "{body}");
        assert!(body.contains("\"code\":\"bad_dataset\""), "{body}");

        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn dataset_sessions_disabled_without_a_root() {
        let st = state();
        let (status, body) = route(&st, &post("/session", "@boats.charles\n(kind: )"));
        assert_eq!(status, 403, "{body}");
        assert!(body.contains("\"code\":\"dataset_disabled\""), "{body}");
    }

    #[test]
    fn healthz() {
        let st = state();
        for target in ["/healthz", "/healthz?probe=1"] {
            let (status, body) = route(&st, &get(target));
            assert_eq!(status, 200, "{target}");
            assert_eq!(body, "{\"ok\":true}");
        }
    }

    #[test]
    fn session_capacity_is_capped() {
        let st = ServerState {
            max_sessions: 2,
            ..state()
        };
        let (s1, _) = route(&st, &post("/session", "(kind: , size: )"));
        let (s2, _) = route(&st, &post("/session", "(kind: )"));
        assert_eq!((s1, s2), (201, 201));
        // Third session bounces with 503 until one is deleted.
        let (status, body) = route(&st, &post("/session", "(size: )"));
        assert_eq!(status, 503, "{body}");
        assert!(body.contains("capacity"));
        let (status, _) = route(
            &st,
            &Request {
                method: Method::Delete,
                path: "/session/s1".into(),
                body: String::new(),
                keep_alive: true,
            },
        );
        assert_eq!(status, 204);
        let (status, _) = route(&st, &post("/session", "(size: )"));
        assert_eq!(status, 201);
    }

    /// Read one `Content-Length`-framed response off a keep-alive
    /// connection, returning (status line, Connection header, body).
    fn read_framed_response(stream: &mut TcpStream) -> (String, String, String) {
        use std::io::Read;
        let mut head = Vec::new();
        let mut byte = [0u8; 1];
        while !head.ends_with(b"\r\n\r\n") {
            stream.read_exact(&mut byte).expect("response head");
            head.push(byte[0]);
        }
        let head = String::from_utf8(head).unwrap();
        let status = head.lines().next().unwrap().to_string();
        let mut connection = String::new();
        let mut len = 0usize;
        for line in head.lines().skip(1) {
            if let Some((name, value)) = line.split_once(':') {
                match name.trim().to_ascii_lowercase().as_str() {
                    "connection" => connection = value.trim().to_string(),
                    "content-length" => len = value.trim().parse().unwrap(),
                    _ => {}
                }
            }
        }
        let mut body = vec![0u8; len];
        stream.read_exact(&mut body).expect("response body");
        (status, connection, String::from_utf8(body).unwrap())
    }

    #[test]
    fn keep_alive_serves_multiple_requests_on_one_connection() {
        use std::io::Write;
        let server = Server::bind("127.0.0.1:0", backend(), ServeConfig::default()).unwrap();
        let addr = server.local_addr().unwrap();
        let handle = server.spawn().unwrap();

        let mut stream = TcpStream::connect(addr).unwrap();
        // Three requests, one connection: the first two persist...
        for _ in 0..2 {
            stream
                .write_all(b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n")
                .unwrap();
            let (status, connection, body) = read_framed_response(&mut stream);
            assert!(status.starts_with("HTTP/1.1 200"), "{status}");
            assert_eq!(connection, "keep-alive");
            assert_eq!(body, "{\"ok\":true}");
        }
        // ...and a request asking to close is answered with close and
        // the connection actually ends.
        stream
            .write_all(b"GET /cache/stats HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n")
            .unwrap();
        let (status, connection, _) = read_framed_response(&mut stream);
        assert!(status.starts_with("HTTP/1.1 200"), "{status}");
        assert_eq!(connection, "close");
        let mut rest = Vec::new();
        std::io::Read::read_to_end(&mut stream, &mut rest).unwrap();
        assert!(rest.is_empty(), "server must close after Connection: close");
        handle.shutdown();
    }

    #[test]
    fn http10_without_keep_alive_closes_after_one_response() {
        use std::io::{Read, Write};
        let server = Server::bind("127.0.0.1:0", backend(), ServeConfig::default()).unwrap();
        let addr = server.local_addr().unwrap();
        let handle = server.spawn().unwrap();
        let mut stream = TcpStream::connect(addr).unwrap();
        stream
            .write_all(b"GET /healthz HTTP/1.0\r\nHost: x\r\n\r\n")
            .unwrap();
        let mut all = String::new();
        stream.read_to_string(&mut all).unwrap();
        assert!(all.starts_with("HTTP/1.1 200"), "{all}");
        assert!(all.contains("\r\nConnection: close\r\n"), "{all}");
        handle.shutdown();
    }

    #[test]
    fn request_budget_closes_the_connection_with_notice() {
        use std::io::Write;
        let server = Server::bind(
            "127.0.0.1:0",
            backend(),
            ServeConfig {
                max_requests_per_connection: 2,
                ..ServeConfig::default()
            },
        )
        .unwrap();
        let addr = server.local_addr().unwrap();
        let handle = server.spawn().unwrap();
        let mut stream = TcpStream::connect(addr).unwrap();
        stream
            .write_all(b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n")
            .unwrap();
        let (_, connection, _) = read_framed_response(&mut stream);
        assert_eq!(connection, "keep-alive");
        stream
            .write_all(b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n")
            .unwrap();
        let (_, connection, _) = read_framed_response(&mut stream);
        assert_eq!(connection, "close", "budget exhausted → close announced");
        let mut rest = Vec::new();
        std::io::Read::read_to_end(&mut stream, &mut rest).unwrap();
        assert!(rest.is_empty());
        handle.shutdown();
    }

    #[test]
    fn idle_keep_alive_connections_are_reaped_at_the_deadline() {
        use std::io::{Read, Write};
        let server = Server::bind(
            "127.0.0.1:0",
            backend(),
            ServeConfig {
                read_timeout: Duration::from_millis(200),
                ..ServeConfig::default()
            },
        )
        .unwrap();
        let addr = server.local_addr().unwrap();
        let handle = server.spawn().unwrap();
        let mut stream = TcpStream::connect(addr).unwrap();
        stream
            .write_all(b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n")
            .unwrap();
        let (_, connection, _) = read_framed_response(&mut stream);
        assert_eq!(connection, "keep-alive");
        // Go idle: the server must hang up (quietly) at the deadline
        // instead of pinning a pool worker forever.
        let start = std::time::Instant::now();
        let mut rest = Vec::new();
        stream.read_to_end(&mut rest).unwrap();
        assert!(rest.is_empty(), "idle reap sends no error response");
        assert!(
            start.elapsed() < Duration::from_secs(3),
            "idle connection not reaped: {:?}",
            start.elapsed()
        );
        handle.shutdown();
    }

    #[test]
    fn trickling_clients_hit_the_request_deadline() {
        use std::io::{Read, Write};
        let server = Server::bind(
            "127.0.0.1:0",
            backend(),
            ServeConfig {
                read_timeout: Duration::from_millis(250),
                ..ServeConfig::default()
            },
        )
        .unwrap();
        let addr = server.local_addr().unwrap();
        let handle = server.spawn().unwrap();

        // Drip request-line bytes forever, never completing the line:
        // every read on the server side succeeds within ~80 ms, so a
        // *per-read* timeout would never fire — only the absolute
        // deadline cuts this client off.
        let mut stream = TcpStream::connect(addr).unwrap();
        let writer = stream.try_clone().unwrap();
        let start = std::time::Instant::now();
        let drip = std::thread::spawn(move || {
            let mut writer = writer;
            for _ in 0..25 {
                if writer.write_all(b"P").is_err() {
                    break; // server hung up: the deadline fired
                }
                std::thread::sleep(Duration::from_millis(80));
            }
        });
        let mut out = String::new();
        let _ = stream.read_to_string(&mut out);
        let elapsed = start.elapsed();
        drip.join().unwrap();
        // 25 drips × 80 ms = 2 s of per-read-tolerable traffic; the
        // 250 ms deadline must have ended the request long before that.
        assert!(
            elapsed < Duration::from_millis(1500),
            "deadline did not bound the slow request: {elapsed:?}"
        );
        if !out.is_empty() {
            assert!(out.starts_with("HTTP/1.1 400"), "{out}");
        }
        handle.shutdown();
    }
}
