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
//! Every accepted connection, HTTP or CHRW, owns one thread that runs
//! the one connection loop (`handle_connection`): decode a request in
//! its listener's framing, dispatch it through the shared `api_*`
//! layer, and append the encoded answer to the connection's pending
//! bytes, which go out before the thread next blocks reading the socket
//! (ADR 0031). An idle keep-alive connection parks a thread of its own,
//! not a shared one. Compute is bounded apart from connections:
//! starting a session and drilling — the two requests that may run the
//! advisor — each hold one of [`ServeConfig::workers`] advice slots.
//! Per-session state is a [`Session`] behind its own mutex, so requests
//! to different sessions never serialize on each other and requests to
//! the same session are ordered. All advice flows through the shared
//! cache: N sessions asking for the same canonical context cost one
//! HB-cuts run, and the payload served from the cache is byte-identical
//! to a fresh advisor run on the same canonical context.

use crate::codes::ErrorCode;
use crate::http::{http_error_code, parse_request, write_response, Method, Request};
use crate::json::{
    cache_stats_body, encode_error, encode_error_with_diagnostics, info_body, metrics_body,
    served_advice, session_body, HEALTH_BODY,
};
use crate::wire::{
    api_status, dispatch, encode_api_result, encode_frame_error, read_frame, WireCacheStats,
    WireRequest, MAX_REQUEST_PAYLOAD,
};
use charles_core::{Advice, AdviceCache, Config, CoreError, Session};
use charles_sdl::{Diagnostic, DiagnosticCode, SdlError};
use charles_store::{Backend, Table};
use std::collections::HashMap;
use std::io::{BufReader, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::Scope;
use std::time::Duration;

/// Server tuning knobs.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Advice slots: how many session starts and drills may run at once
    /// across both listeners (clamped to ≥ 1). A request of either kind
    /// holds a slot for its whole length — a cold context's HB-cuts run
    /// and each single-flight waiter behind it alike, a cache hit for
    /// the moment it takes — and waits for one while all are held. No
    /// other request takes a slot, and no connection holds one: each
    /// connection has a thread of its own.
    pub workers: usize,
    /// Upper bound on cached advice entries (per cache — the default
    /// backend's and each loaded dataset's). Once full, the
    /// least-recently-used settled entry is evicted, so a long-running
    /// server does not grow without bound with the number of distinct
    /// contexts ever advised. `0` disables the bound entirely.
    pub cache_capacity: usize,
    /// Whole-request read deadline, re-armed per request on persistent
    /// connections: a connection that has not delivered its complete
    /// next request (an HTTP message or a CHRW frame) within this window
    /// — whether idle between requests or trickling bytes — is dropped
    /// and its thread ends (anti-slowloris). It also bounds each write
    /// to a client that stops reading.
    pub read_timeout: Duration,
    /// Upper bound on requests served over one HTTP keep-alive
    /// connection; the last allowed response is sent with `Connection:
    /// close`. (A CHRW connection has no budget: it would have to fail
    /// frames the client already pipelined out.) The bound this buys: a
    /// client pacing tiny requests just inside the read deadline keeps
    /// its connection's thread for up to `max_requests_per_connection ×
    /// read_timeout` (~21 min at the defaults) before it must reconnect.
    /// That thread is parked, not an advice slot, so such a client costs
    /// memory, not other clients' service; facing untrusted clients,
    /// lower one or both.
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

/// One failed API outcome: stable code (which fixes the status), human
/// detail, and (for admission rejections) the static-analysis findings.
pub(crate) struct ApiError {
    pub code: ErrorCode,
    pub message: String,
    /// `Some` ⇒ the JSON rendering attaches a `diagnostics` array
    /// (even when empty, matching the established wire shape).
    pub diagnostics: Option<Vec<Diagnostic>>,
}

impl ApiError {
    fn new(code: ErrorCode, message: impl Into<String>) -> ApiError {
        ApiError {
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
    /// `shutdown(2)` them and unblock connection threads parked in
    /// reads. Without this, the end of `serve`'s thread scope waits out
    /// the full read deadline of every idle keep-alive connection — a
    /// stop that should take milliseconds took `read_timeout` (10 s at
    /// the defaults); a caller that starts and stops a server per
    /// scenario cannot ignore that stall.
    conns: Mutex<HashMap<u64, TcpStream>>,
    conn_seq: AtomicU64,
    /// The advice slots (`ServeConfig::workers` of them).
    slots: Mutex<Slots>,
    slot_freed: Condvar,
}

/// The advice slots' count: free ones, and requests waiting for one.
struct Slots {
    free: usize,
    waiting: usize,
}

impl Slots {
    fn new(workers: usize) -> Slots {
        Slots {
            free: workers.max(1),
            waiting: 0,
        }
    }
}

/// Build an advice cache honouring the configured bound (0 = unbounded).
fn new_cache(capacity: usize) -> AdviceCache {
    if capacity == 0 {
        AdviceCache::new()
    } else {
        AdviceCache::bounded(capacity)
    }
}

/// A bound advisory server, ready to [`run`](Server::run) or
/// [`spawn`](Server::spawn).
pub struct Server {
    listener: TcpListener,
    /// Optional second listener speaking the binary wire protocol
    /// (see [`crate::wire`]); both listeners share one set of advice
    /// slots, session registry, advice cache, and metrics.
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
            slots: Mutex::new(Slots::new(config.workers)),
            slot_freed: Condvar::new(),
        });
        Ok(Server {
            listener,
            wire_listener: None,
            state,
            config,
        })
    }

    /// Additionally listen for the binary wire protocol on `addr` (use
    /// port 0 for an ephemeral port). Wire connections run the same
    /// connection loop, hold the same advice slots and operate on the
    /// same sessions, caches, and metrics as HTTP ones — a session
    /// started over HTTP can be drilled over the wire protocol and vice
    /// versa.
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
    /// accepts). Every connection runs on a thread scoped to this call,
    /// so it returns once the last connection has ended.
    fn serve(self, shutdown: Arc<AtomicBool>) {
        let Server {
            listener,
            wire_listener,
            state,
            config,
        } = self;
        let (state, config, shutdown) = (&*state, &config, &*shutdown);
        std::thread::scope(|scope| {
            // The wire listener (if any) accepts on a thread of its own.
            // If the OS refuses that thread, the listener closes with the
            // dropped closure and HTTP is served alone.
            let wire_thread = wire_listener.and_then(|listener| {
                std::thread::Builder::new()
                    .spawn_scoped(scope, move || {
                        accept_loop(scope, listener, state, config, shutdown, ConnKind::Wire)
                    })
                    .ok()
            });
            accept_loop(scope, listener, state, config, shutdown, ConnKind::Http);
            if let Some(thread) = wire_thread {
                let _ = thread.join();
            }
            // Force every live connection closed before the scope joins
            // its threads: a thread blocked in a read returns at once
            // instead of waiting out its deadline, so shutdown is bounded
            // by in-flight *work*, not by idle keep-alive timers.
            for (_, conn) in state
                .conns
                .lock()
                .unwrap_or_else(|p| p.into_inner())
                .drain()
            {
                let _ = conn.shutdown(Shutdown::Both);
            }
        });
    }

    /// Run the accept loop on the calling thread, forever.
    pub fn run(self) {
        self.serve(Arc::new(AtomicBool::new(false)));
    }

    /// Run the accept loop on a background thread; the returned handle
    /// stops the server when dropped (or via [`ServerHandle::shutdown`]).
    /// Fails if the OS refuses that thread.
    pub fn spawn(self) -> std::io::Result<ServerHandle> {
        let addr = self.local_addr()?;
        let wire_addr = self.wire_addr();
        let cache = self.cache();
        let metrics = self.metrics();
        let shutdown = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&shutdown);
        let thread = std::thread::Builder::new().spawn(move || self.serve(flag))?;
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

/// A connection's one socket, read against a whole-request deadline
/// and written in batches of finished answers.
///
/// Before every read the socket timeout is re-armed with the time
/// remaining, so a client trickling one byte per near-timeout interval
/// still gets cut off at the deadline instead of resetting the clock
/// with each byte. Each write is bounded by the same timeout.
struct DeadlineStream {
    stream: TcpStream,
    deadline: std::time::Instant,
    /// Encoded answers not yet written, in request order. They go out
    /// before the next read (the thread may block there for the
    /// client's next bytes) or once past [`WRITE_BATCH_BYTES`], so a
    /// pipelined burst that sits whole in the reader's buffer is
    /// answered in one `write`.
    pending: Vec<u8>,
}

impl DeadlineStream {
    fn new(stream: TcpStream, timeout: Duration) -> DeadlineStream {
        let _ = stream.set_write_timeout(Some(timeout));
        DeadlineStream {
            stream,
            deadline: std::time::Instant::now() + timeout,
            pending: Vec::new(),
        }
    }

    /// Start a fresh whole-request deadline (once per request on a
    /// persistent connection — idle time between requests counts too).
    fn rearm(&mut self, timeout: Duration) {
        self.deadline = std::time::Instant::now() + timeout;
    }

    /// Write out every pending answer. A failed write (the client hung
    /// up, or read nothing for a whole timeout) shuts the socket down,
    /// so the loop's next read or write fails at once instead of
    /// waiting out the timeout again.
    fn write_pending(&mut self) -> std::io::Result<()> {
        // `write_all` of nothing makes no syscall.
        let written = self.stream.write_all(&self.pending);
        self.pending.clear();
        if written.is_err() {
            let _ = self.stream.shutdown(Shutdown::Both);
        }
        written
    }
}

impl std::io::Read for DeadlineStream {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        // Answer first: a client may wait for an answer before it sends
        // the rest of its next request.
        self.write_pending()?;
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

/// Accept connections until `shutdown` flips true, giving each a
/// thread of its own in `scope` that runs [`handle_connection`].
fn accept_loop<'scope>(
    scope: &'scope Scope<'scope, '_>,
    listener: TcpListener,
    state: &'scope ServerState,
    config: &'scope ServeConfig,
    shutdown: &AtomicBool,
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
        // A connection shutdown could not reach is closed unserved.
        let Ok(registered) = Registered::new(state, &stream) else {
            continue;
        };
        // A refused thread drops the closure, and with it the socket and
        // the registration: the client sees its connection close.
        let _ = std::thread::Builder::new().spawn_scoped(scope, move || {
            let _registered = registered;
            // A handler panic ends its own connection and no other (the
            // scope would otherwise re-raise it when the server stops).
            let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                handle_connection(stream, kind, state, config)
            }));
        });
    }
}

/// A connection's entry in [`ServerState::conns`], removed when this
/// drops: when its thread ends, by return or by a contained panic, and
/// when a refused thread drops it unrun. A `remove` written after the
/// handler would not run on unwind, and the cloned socket — one fd, one
/// map entry — would stay until shutdown.
struct Registered<'a> {
    state: &'a ServerState,
    conn_id: u64,
}

impl<'a> Registered<'a> {
    /// Register a clone of `stream` so shutdown can unblock its thread
    /// if it is parked reading or writing when the flag flips. Fails if
    /// the socket cannot be cloned (no file descriptor left).
    fn new(state: &'a ServerState, stream: &TcpStream) -> std::io::Result<Registered<'a>> {
        let clone = stream.try_clone()?;
        let conn_id = state.conn_seq.fetch_add(1, Ordering::Relaxed);
        state
            .conns
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .insert(conn_id, clone);
        Ok(Registered { state, conn_id })
    }
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

/// Pending answers are written out once they pass roughly this many
/// bytes, even if the next request is already buffered.
const WRITE_BATCH_BYTES: usize = 256 * 1024;

/// Serve one connection until the client closes, the read deadline
/// passes between requests, or a request is malformed (answered, then
/// closed: the framing is lost). An HTTP connection also ends when its
/// request budget runs out or the client asks to close, the last answer
/// saying `Connection: close`; a CHRW connection has no budget, since
/// it would have to fail frames the client already pipelined out.
///
/// One thread reads, decodes, dispatches and writes. Each answer is
/// appended to the stream's pending bytes, which go out before the
/// thread next reads the socket (see [`DeadlineStream`]), so pipelined
/// requests are answered in batched writes, and a client that stops
/// reading stops this thread's reads: the socket is the backpressure.
/// The pending buffer is reused, so the steady-state request path
/// allocates nothing.
fn handle_connection(stream: TcpStream, kind: ConnKind, state: &ServerState, config: &ServeConfig) {
    use std::io::BufRead;
    let timeout = config.read_timeout;
    let mut reader = BufReader::new(DeadlineStream::new(stream, timeout));
    let mut budget = config.max_requests_per_connection.max(1);
    let mut scratch: Vec<u8> = Vec::new();
    loop {
        // Each request gets a fresh whole-request deadline; the time a
        // persistent connection sits idle counts against it too.
        reader.get_mut().rearm(timeout);
        // Peek before decoding: a connection closed (or idle-expired)
        // between requests ends quietly, with no error answer.
        match reader.fill_buf() {
            Ok([]) | Err(_) => break,
            Ok(_) => {}
        }
        let (status, keep_open) = match kind {
            ConnKind::Http => {
                let (status, body, keep_alive) = match parse_request(&mut reader) {
                    Ok(req) => {
                        budget -= 1;
                        let (status, body) = route(state, &req);
                        (status, body, req.keep_alive && budget > 0)
                    }
                    Err(e) => {
                        let code = http_error_code(&e);
                        let body = encode_error(code.as_str(), &e.to_string());
                        (code.status(), body, false)
                    }
                };
                let _ = write_response(&mut reader.get_mut().pending, status, &body, keep_alive);
                (status, keep_alive)
            }
            ConnKind::Wire => match read_frame(&mut reader, &mut scratch, MAX_REQUEST_PAYLOAD)
                .and_then(|opcode| WireRequest::decode(opcode, &scratch))
            {
                Ok(req) => {
                    let result = dispatch(state, &req);
                    encode_api_result(&mut reader.get_mut().pending, &result);
                    (api_status(&result), true)
                }
                Err(err) => {
                    encode_frame_error(&mut reader.get_mut().pending, &err);
                    (ErrorCode::BadFrame.status(), false)
                }
            },
        };
        state.metrics.record_response(status);
        let conn = reader.get_mut();
        let full = conn.pending.len() >= WRITE_BATCH_BYTES;
        if !keep_open || (full && conn.write_pending().is_err()) {
            break;
        }
    }
    // The answers still pending: a closing answer among them.
    let _ = reader.get_mut().write_pending();
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
            None => render(Err(ApiError::new(
                ErrorCode::BadRequest,
                "drill body must be two indices: \"rank seg\"",
            ))),
        },
        (Method::Post, ["session", id, "back"]) => render(api_back(state, id)),
        // Known paths with the wrong method get a 405, the rest 404.
        (_, ["session"]) | (_, ["session", _]) | (_, ["session", _, "drill" | "back"]) => {
            render(Err(ApiError::new(
                ErrorCode::MethodNotAllowed,
                "method not allowed for this route",
            )))
        }
        _ => render(Err(ApiError::new(ErrorCode::NoSuchRoute, "no such route"))),
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
        Some(diags) => encode_error_with_diagnostics(e.code.as_str(), &e.message, diags),
        None => encode_error(e.code.as_str(), &e.message),
    };
    (e.code.status(), body)
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
                ErrorCode::DatasetDisabled,
                "this server has no dataset root; '@path' session bodies are disabled",
            ));
        };
        let root = root.canonicalize().map_err(|e| {
            ApiError::new(
                ErrorCode::BackendFailure,
                format!("dataset root unavailable: {e}"),
            )
        })?;
        let joined = root.join(rel);
        let canonical = joined.canonicalize().map_err(|_| {
            ApiError::new(ErrorCode::NoSuchDataset, format!("no dataset at {rel:?}"))
        })?;
        if !canonical.starts_with(&root) {
            return Err(ApiError::new(
                ErrorCode::DatasetForbidden,
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
                ErrorCode::BadDataset,
                format!("failed to load dataset {rel:?}: {e}"),
            )),
        }
    }

    /// Take an advice slot, waiting while every one is held. The slot
    /// goes back when the guard drops, on return and on unwind alike.
    fn advice_slot(&self) -> AdviceSlot<'_> {
        let mut slots = self.slots.lock().unwrap_or_else(|p| p.into_inner());
        if slots.free == 0 {
            slots.waiting += 1;
            slots = self
                .slot_freed
                .wait_while(slots, |s| s.free == 0)
                .unwrap_or_else(|p| p.into_inner());
            slots.waiting -= 1;
        }
        slots.free -= 1;
        AdviceSlot(self)
    }
}

/// One held advice slot (see [`ServeConfig::workers`]).
struct AdviceSlot<'a>(&'a ServerState);

impl Drop for AdviceSlot<'_> {
    fn drop(&mut self) {
        let mut slots = self.0.slots.lock().unwrap_or_else(|p| p.into_inner());
        slots.free += 1;
        // `notify_one` is a syscall even when no one waits: a cache hit
        // on a server with a slot to spare makes none.
        if slots.waiting > 0 {
            self.0.slot_freed.notify_one();
        }
    }
}

pub(crate) fn api_create_session(state: &ServerState, body: &str) -> Result<ApiOk, ApiError> {
    let _slot = state.advice_slot();
    let (dataset_path, sdl) = split_dataset_directive(body);
    if sdl.trim().is_empty() {
        return Err(ApiError::new(
            ErrorCode::BadRequest,
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
                ErrorCode::CapacityExhausted,
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
    let _slot = state.advice_slot();
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
    ApiError::new(ErrorCode::NoSuchSession, format!("no session {id:?}"))
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
    let code = match e {
        // Static-analysis rejections: the context parsed but is
        // ill-typed for this dataset's schema. 422 with the findings
        // attached, so clients see every problem at once.
        CoreError::InvalidContext(diags) => {
            return ApiError {
                code: ErrorCode::InvalidContext,
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
                code: ErrorCode::InvalidContext,
                message,
                diagnostics: Some(vec![diag]),
            };
        }
        // Provably-empty conjunction: valid, but answered without any
        // backend work.
        CoreError::UnsatisfiableContext => ErrorCode::UnsatisfiableContext,
        // The context didn't parse or validate: the request was wrong.
        CoreError::Sdl(_) => ErrorCode::BadContext,
        CoreError::BadConfig(_) => ErrorCode::BadConfig,
        // Stable session-state errors: the request is well-formed but
        // cannot apply to the current state.
        CoreError::SessionNotStarted => ErrorCode::SessionNotStarted,
        CoreError::NoSuchSegment { .. } => ErrorCode::NoSuchSegment,
        CoreError::AtRoot => ErrorCode::AtRoot,
        // Semantically empty/uniform contexts are client-visible dead
        // ends, not server faults.
        CoreError::EmptyContext => ErrorCode::EmptyContext,
        CoreError::NoCuttableAttribute => ErrorCode::NoCuttableAttribute,
        CoreError::Store(_) => ErrorCode::BackendFailure,
    };
    ApiError::new(code, message)
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
    use charles_store::{
        Bitmap, DataType, FrequencyTable, Schema, StoreError, StorePredicate, StoreResult,
        TableBuilder, Value,
    };

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

    /// A backend that knows the test table's schema and fails every call
    /// that would read a row.
    struct SchemaOnly(Schema);

    fn no_rows<T>() -> StoreResult<T> {
        Err(StoreError::Io(
            "the schema-only backend reads no rows".into(),
        ))
    }

    impl Backend for SchemaOnly {
        fn row_count(&self) -> usize {
            48
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

    fn state() -> ServerState {
        state_over(backend())
    }

    fn state_over(backend: Arc<dyn Backend>) -> ServerState {
        ServerState {
            backend,
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
            slots: Mutex::new(Slots::new(1)),
            slot_freed: Condvar::new(),
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
            // What a connection's thread does: run the handler, contain
            // its panic.
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
    fn a_connection_whose_thread_is_refused_leaves_the_registry() {
        let st = state();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let stream = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let registered = Registered::new(&st, &stream);
        assert_eq!(st.conns.lock().unwrap().len(), 1);
        // What a refused `spawn_scoped` does with its closure: drop it
        // without running it.
        let job = move || {
            let _registered = registered;
            drop(stream);
        };
        drop(job);
        assert!(st.conns.lock().unwrap().is_empty());
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
            cache: Arc::new(AdviceCache::bounded(2)),
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
    fn a_full_cache_holds_its_capacity_and_evicts_the_least_recent_entry() {
        // The bound is the cache's, not a share of it per key hash: 8
        // distinct contexts fill a capacity of 8 with nothing evicted,
        // and a ninth evicts the one touched longest ago.
        let st = ServerState {
            cache: Arc::new(new_cache(8)),
            cache_capacity: 8,
            ..state()
        };
        let stat = |name: &str| -> u64 {
            let (status, body) = route(&st, &get("/cache/stats"));
            assert_eq!(status, 200, "{body}");
            let after = body.split(&format!("\"{name}\":")).nth(1).unwrap();
            let digits: String = after.chars().take_while(char::is_ascii_digit).collect();
            digits.parse().unwrap()
        };
        let start = |lo: usize| {
            let body = format!("(size: [{lo},{}], kind: )", lo + 20);
            let (status, resp) = route(&st, &post("/session", &body));
            assert_eq!(status, 201, "{resp}");
        };
        for lo in 0..8 {
            start(lo);
        }
        assert_eq!((stat("entries"), stat("evictions")), (8, 0));
        // Touch the first context again: the second is now the least
        // recently used.
        start(0);
        assert_eq!(stat("runs"), 8);
        start(8);
        assert_eq!((stat("entries"), stat("evictions")), (8, 1));
        assert_eq!(stat("runs"), 9);
        // Every other context is still a hit; the second runs again.
        for lo in (0..9).filter(|&lo| lo != 1) {
            start(lo);
        }
        assert_eq!((stat("runs"), stat("evictions")), (9, 1));
        start(1);
        assert_eq!((stat("runs"), stat("evictions")), (10, 2));
    }

    #[test]
    fn encodings_are_freed_with_their_advice() {
        // One cache entry: the second context evicts the first, whose
        // only other holder is session s1's history. No registry keeps
        // an encoding alive past its advice.
        let st = ServerState {
            cache: Arc::new(AdviceCache::bounded(1)),
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
        // Any read would answer with the backend's error, not the prune.
        let st = state_over(Arc::new(SchemaOnly(backend().schema().clone())));
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
        assert_eq!(st.metrics.snapshot().analysis_prunes, 1);
        // A satisfiable context does read, and gets the error.
        let (status, body) = route(&st, &post("/session", "(kind: , size: )"));
        assert_eq!(status, 500, "{body}");
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
        // Go idle: the server must hang up (quietly) at the deadline.
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
