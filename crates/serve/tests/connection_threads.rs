//! A connection owns a thread and an advice request owns a slot: idle
//! keep-alive clients starve no fresh client, a panicking handler
//! closes its own connection and gives its slot back, and no more than
//! `ServeConfig::workers` advice runs are ever inside the store at once.
//! The connection's thread writes its own answers: a finished answer
//! goes out before the thread waits for the rest of the next request,
//! and a thread blocked writing to a client that never reads does not
//! hold up shutdown.

use charles_serve::wire::{
    read_frame, wire_request, WireConn, WireRequest, WireResponse, HEADER_LEN, MAX_RESPONSE_PAYLOAD,
};
use charles_serve::{http_request, Client, ClientConfig, ServeConfig, Server, ServerHandle};
use charles_store::{Backend, Bitmap, CutStats, FrequencyTable, Schema};
use charles_store::{DataType, StorePredicate, StoreResult, Table, TableBuilder, Value};
use std::io::{ErrorKind, Read, Write};
use std::mem::ManuallyDrop;
use std::net::TcpStream;
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

fn table() -> Table {
    let mut b = TableBuilder::new("t");
    b.add_column("kind", DataType::Str)
        .add_column("size", DataType::Int);
    for i in 0..48i64 {
        let kind = if i % 2 == 0 { "even" } else { "odd" };
        b.push_row(vec![Value::str(kind), Value::Int(i)]).unwrap();
    }
    b.finish()
}

/// Both listeners over `backend`, every other knob at its default (a
/// 10 s read deadline among them).
fn spawn(backend: impl Backend + 'static, workers: usize) -> ServerHandle {
    let config = ServeConfig {
        workers,
        ..ServeConfig::default()
    };
    Server::bind("127.0.0.1:0", Arc::new(backend), config)
        .and_then(|server| server.with_wire_listener("127.0.0.1:0"))
        .and_then(Server::spawn)
        .unwrap()
}

/// The test table with `around_eval` wrapped around every `eval`; it is
/// handed the predicate and the table's own evaluation.
struct Hooked<F> {
    inner: Table,
    around_eval: F,
}

type Eval<'a> = &'a dyn Fn() -> StoreResult<Bitmap>;

impl<F> Backend for Hooked<F>
where
    F: Fn(&StorePredicate, Eval<'_>) -> StoreResult<Bitmap> + Send + Sync,
{
    fn row_count(&self) -> usize {
        self.inner.row_count()
    }
    fn schema(&self) -> &Schema {
        self.inner.schema()
    }
    fn eval(&self, pred: &StorePredicate) -> StoreResult<Bitmap> {
        (self.around_eval)(pred, &|| self.inner.eval(pred))
    }
    fn not_null(&self, column: &str) -> StoreResult<Bitmap> {
        self.inner.not_null(column)
    }
    fn count(&self, pred: &StorePredicate) -> StoreResult<usize> {
        self.inner.count(pred)
    }
    fn median(&self, column: &str, sel: &Bitmap) -> StoreResult<Option<Value>> {
        self.inner.median(column, sel)
    }
    fn sampled_median(
        &self,
        column: &str,
        sel: &Bitmap,
        sample_size: usize,
        seed: u64,
    ) -> StoreResult<Option<Value>> {
        self.inner.sampled_median(column, sel, sample_size, seed)
    }
    fn quantile(&self, column: &str, sel: &Bitmap, q: f64) -> StoreResult<Option<Value>> {
        self.inner.quantile(column, sel, q)
    }
    fn min_max(&self, column: &str, sel: &Bitmap) -> StoreResult<Option<(Value, Value)>> {
        self.inner.min_max(column, sel)
    }
    fn cut_stats(&self, column: &str, sel: &Bitmap) -> StoreResult<Option<CutStats>> {
        self.inner.cut_stats(column, sel)
    }
    fn next_above(&self, column: &str, sel: &Bitmap, v: &Value) -> StoreResult<Option<Value>> {
        self.inner.next_above(column, sel, v)
    }
    fn mean_and_var(&self, column: &str, sel: &Bitmap) -> StoreResult<Option<(f64, f64)>> {
        self.inner.mean_and_var(column, sel)
    }
    fn frequencies(
        &self,
        column: &str,
        sel: &Bitmap,
    ) -> StoreResult<(FrequencyTable, Vec<String>)> {
        self.inner.frequencies(column, sel)
    }
    fn distinct_count(&self, column: &str, sel: &Bitmap) -> StoreResult<usize> {
        self.inner.distinct_count(column, sel)
    }
}

/// How long a test waits for something that should happen at once.
const PATIENCE: Duration = Duration::from_secs(10);

#[test]
fn idle_keep_alive_connections_starve_no_fresh_client() {
    let workers = 2;
    let server = spawn(table(), workers);
    let wire = server.wire_addr().unwrap();
    // `workers + 1` idle connections on each listener, connected and
    // silent: to the server, keep-alive connections between requests.
    // Each parks its own thread until the 10 s read deadline.
    let _idle: Vec<TcpStream> = (0..=workers)
        .flat_map(|_| [server.addr(), wire])
        .map(|addr| TcpStream::connect(addr).unwrap())
        .collect();
    let impatient = ClientConfig::with_timeout(Duration::from_secs(2));

    let start = Instant::now();
    let healthz = Client::new(server.addr(), impatient.clone())
        .and_then(|mut client| client.request("GET", "/healthz", ""));
    let http_took = start.elapsed();
    let start = Instant::now();
    let health = WireConn::connect(&wire, &impatient)
        .map_err(Into::into)
        .and_then(|mut conn| {
            conn.send(&WireRequest::Health)?;
            conn.recv()
        });
    let wire_took = start.elapsed();

    assert_eq!(healthz.map(|r| r.status).ok(), Some(200), "{http_took:?}");
    assert_eq!(health.map(|r| r.status()).ok(), Some(200), "{wire_took:?}");
    let budget = Duration::from_millis(100);
    assert!(http_took < budget, "HTTP /healthz took {http_took:?}");
    assert!(wire_took < budget, "CHRW Health took {wire_took:?}");
}

#[test]
fn a_panicking_handler_closes_its_connection_and_gives_back_its_slot() {
    // One slot: had the panic leaked it, every later start would wait
    // forever (here: time out). The server is shut down only once the
    // test has passed: shutdown waits for in-flight requests, and one
    // stuck behind a leaked slot would hang the test instead of failing
    // it.
    let poisoned = |pred: &StorePredicate| format!("{pred:?}").contains("Int(1000)");
    let server = ManuallyDrop::new(spawn(
        Hooked {
            inner: table(),
            around_eval: move |pred: &StorePredicate, eval: Eval<'_>| {
                assert!(!poisoned(pred), "a backend bug on one context");
                eval()
            },
        },
        1,
    ));
    let wire = server.wire_addr().unwrap();
    let context = "(kind: , size: [0,1000])";
    let http = http_request(server.addr(), "POST", "/session", context);
    assert!(http.is_err(), "closed unanswered: {http:?}");
    let chrw = wire_request(wire, &WireRequest::Start { body: context });
    assert!(chrw.is_err(), "closed unanswered: {chrw:?}");

    let patient = ClientConfig::with_timeout(PATIENCE);
    let mut client = Client::new(server.addr(), patient.clone()).unwrap();
    assert_eq!(client.request("GET", "/healthz", "").unwrap().status, 200);
    let mut client = Client::new(server.addr(), patient.clone()).unwrap();
    let started = client.request("POST", "/session", "(kind: , size: )");
    assert_eq!(started.unwrap().status, 201);
    let mut conn = WireConn::connect(&wire, &patient).unwrap();
    conn.send(&WireRequest::Start {
        body: "(kind: , size: [0,40])",
    })
    .unwrap();
    assert_eq!(conn.recv().unwrap().status(), 201);
    let metrics = server.metrics().snapshot();
    assert_eq!((metrics.requests, metrics.responses_5xx), (3, 0));
    ManuallyDrop::into_inner(server).shutdown();
}

/// Counts the `eval`s inside the store and parks each one until the
/// gate opens (or [`PATIENCE`] runs out, so a failing test ends).
#[derive(Default)]
struct Gate {
    state: Mutex<GateState>,
    changed: Condvar,
}

#[derive(Default)]
struct GateState {
    inside: usize,
    peak: usize,
    open: bool,
}

impl Gate {
    fn pass(&self, eval: Eval<'_>) -> StoreResult<Bitmap> {
        {
            let mut state = self.state.lock().unwrap();
            state.inside += 1;
            state.peak = state.peak.max(state.inside);
            self.changed.notify_all();
            let _parked = self
                .changed
                .wait_timeout_while(state, PATIENCE, |s| !s.open)
                .unwrap();
        }
        let out = eval();
        self.state.lock().unwrap().inside -= 1;
        out
    }

    /// Wait until `n` evals are parked (or `PATIENCE` runs out); the
    /// number parked.
    fn parked(&self, n: usize) -> usize {
        let state = self.state.lock().unwrap();
        let (state, _) = self
            .changed
            .wait_timeout_while(state, PATIENCE, |s| s.inside < n)
            .unwrap();
        state.inside
    }

    fn open(&self) {
        self.state.lock().unwrap().open = true;
        self.changed.notify_all();
    }
}

/// Start four cold sessions on distinct contexts, two per listener,
/// with every run parked in the store until the slots are full; return
/// the most runs ever inside the store at once.
fn peak_runs_inside_the_store(workers: usize) -> usize {
    let gate = Arc::new(Gate::default());
    let server = spawn(
        Hooked {
            inner: table(),
            around_eval: {
                let gate = Arc::clone(&gate);
                move |_: &StorePredicate, eval: Eval<'_>| gate.pass(eval)
            },
        },
        workers,
    );
    let (http, wire) = (server.addr(), server.wire_addr().unwrap());
    let starts: Vec<JoinHandle<u16>> = (0..4)
        .map(|i| {
            let context = format!("(kind: , size: [{i},47])");
            std::thread::spawn(move || match i % 2 {
                0 => http_request(http, "POST", "/session", &context).unwrap().0,
                _ => wire_request(wire, &WireRequest::Start { body: &context })
                    .unwrap()
                    .status(),
            })
        })
        .collect();
    let slots = workers.max(1);
    assert_eq!(gate.parked(slots), slots, "workers = {workers}");
    // Every slot is held by a parked run. Give a run that should not
    // get in the time to show up in the peak.
    std::thread::sleep(Duration::from_millis(200));
    gate.open();
    for start in starts {
        assert_eq!(start.join().unwrap(), 201);
    }
    let peak = gate.state.lock().unwrap().peak;
    peak
}

#[test]
fn advice_slots_bound_the_runs_inside_the_store() {
    // An advice run is one thread, so the evals inside the store count
    // runs. At two slots two runs overlap; `workers = 0` is one slot.
    for (workers, slots) in [(1, 1), (2, 2), (0, 1)] {
        assert_eq!(
            peak_runs_inside_the_store(workers),
            slots,
            "workers = {workers}"
        );
    }
}

/// Connect to `addr`, send `bytes` and read under a 2 s deadline.
fn send_part(addr: std::net::SocketAddr, bytes: &[u8]) -> TcpStream {
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(2)))
        .unwrap();
    stream.write_all(bytes).unwrap();
    stream
}

#[test]
fn an_answer_is_written_before_the_rest_of_the_next_request_arrives() {
    let server = spawn(table(), 1);

    // HTTP: a whole `GET /healthz`, then the next one up to mid-path.
    let healthz = b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n";
    let two = healthz.repeat(2);
    let (sent, rest) = two.split_at(healthz.len() + 8);
    let mut http = send_part(server.addr(), sent);
    for part in [rest, &[]] {
        let mut answer = Vec::new();
        let mut byte = [0u8; 1];
        while !answer.ends_with(b"{\"ok\":true}") {
            let read = http.read_exact(&mut byte);
            assert!(read.is_ok(), "{read:?} after {answer:?}");
            answer.push(byte[0]);
        }
        assert!(answer.starts_with(b"HTTP/1.1 200 OK\r\n"), "{answer:?}");
        http.write_all(part).unwrap();
    }

    // CHRW: a whole `Health` frame, then a `Start` frame's header.
    let mut frames = Vec::new();
    WireRequest::Health.encode(&mut frames);
    let split = frames.len() + HEADER_LEN;
    WireRequest::Start { body: "(kind: )" }.encode(&mut frames);
    let (sent, rest) = frames.split_at(split);
    let mut wire = send_part(server.wire_addr().unwrap(), sent);
    let mut scratch = Vec::new();
    let mut recv = |wire: &mut TcpStream| {
        read_frame(wire, &mut scratch, MAX_RESPONSE_PAYLOAD)
            .and_then(|opcode| WireResponse::decode(opcode, &scratch))
            .map(|response| response.status())
    };
    assert_eq!(recv(&mut wire).ok(), Some(200), "the Health answer");
    wire.write_all(rest).unwrap();
    assert_eq!(recv(&mut wire).ok(), Some(201), "the Start answer");
    server.shutdown();
}

#[test]
fn shutdown_ends_a_connection_blocked_writing_to_a_client_that_never_reads() {
    let config = ServeConfig {
        read_timeout: Duration::from_secs(30),
        ..ServeConfig::default()
    };
    let server = Server::bind("127.0.0.1:0", Arc::new(table()), config)
        .and_then(|server| server.with_wire_listener("127.0.0.1:0"))
        .and_then(Server::spawn)
        .unwrap();
    let wire = server.wire_addr().unwrap();
    let context = "(kind: , size: )";
    let warm = wire_request(wire, &WireRequest::Start { body: context });
    assert_eq!(warm.map(|r| r.status()).ok(), Some(201));

    // Pipeline starts of the cached context and read nothing, until a
    // write of ours stalls: the server has stopped reading, because its
    // own writes to us block.
    let silent = TcpStream::connect(wire).unwrap();
    let mut writer = silent.try_clone().unwrap();
    writer
        .set_write_timeout(Some(Duration::from_millis(500)))
        .unwrap();
    let pipeliner = std::thread::spawn(move || {
        let mut burst = Vec::new();
        for _ in 0..64 {
            WireRequest::Start { body: context }.encode(&mut burst);
        }
        let begun = Instant::now();
        while begun.elapsed() < PATIENCE {
            if let Err(e) = writer.write_all(&burst) {
                return Some(e.kind());
            }
        }
        None
    });
    let stalled = pipeliner.join().unwrap();
    assert!(
        matches!(stalled, Some(ErrorKind::WouldBlock | ErrorKind::TimedOut)),
        "the server never stopped reading: {stalled:?}"
    );

    let begun = Instant::now();
    server.shutdown();
    let took = begun.elapsed();
    assert!(took < Duration::from_secs(2), "shutdown took {took:?}");
    drop(silent);
}
