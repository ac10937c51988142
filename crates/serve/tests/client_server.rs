//! Socket-level tests of the serving path the load harness stands on:
//! the persistent [`Client`] reusing one keep-alive connection across
//! many requests without desync, `TCP_NODELAY` keeping small pipelined
//! exchanges inside an interactive latency budget, client-side deadlines
//! turning a stalled server into an error instead of a hang, and a
//! bounded response body.

use charles_serve::wire::MAX_RESPONSE_PAYLOAD;
use charles_serve::{http_request, Client, ClientConfig, ServeConfig, Server};
use charles_store::{Backend, DataType, TableBuilder, Value};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

fn backend() -> Arc<dyn Backend> {
    let mut b = TableBuilder::new("t");
    b.add_column("kind", DataType::Str)
        .add_column("size", DataType::Int);
    for i in 0..60i64 {
        let kind = match i % 3 {
            0 => "alpha",
            1 => "beta",
            _ => "gamma",
        };
        b.push_row(vec![Value::str(kind), Value::Int(i)]).unwrap();
    }
    Arc::new(b.finish())
}

fn spawn_server(config: ServeConfig) -> charles_serve::ServerHandle {
    Server::bind("127.0.0.1:0", backend(), config)
        .unwrap()
        .spawn()
        .unwrap()
}

#[test]
fn keep_alive_client_reuses_one_connection_for_k_requests() {
    // K requests through the pooled client must produce K in-order
    // responses on ONE TCP connection, each framed with the right
    // Connection: header — any desync (stale bytes, misattributed
    // bodies) would surface as a wrong status or unparseable payload.
    let handle = spawn_server(ServeConfig::default());
    let mut client = Client::new(handle.addr(), ClientConfig::default()).unwrap();

    let resp = client
        .request("POST", "/session", "(kind: , size: )")
        .unwrap();
    assert_eq!(resp.status, 201, "{}", resp.body);
    assert!(resp.keep_alive);
    assert!(
        resp.body.starts_with("{\"session\":\"s1\""),
        "{}",
        resp.body
    );

    const K: usize = 24;
    for i in 0..K {
        // Mix routes so each response has a distinct, checkable shape.
        match i % 3 {
            0 => {
                let r = client.request("GET", "/session/s1", "").unwrap();
                assert_eq!(r.status, 200, "{}", r.body);
                assert!(r.body.contains("\"breadcrumbs\""), "{}", r.body);
            }
            1 => {
                let r = client.request("GET", "/healthz", "").unwrap();
                assert_eq!((r.status, r.body.as_str()), (200, "{\"ok\":true}"));
            }
            _ => {
                let r = client.request("GET", "/cache/stats", "").unwrap();
                assert_eq!(r.status, 200, "{}", r.body);
                assert!(r.body.contains("\"runs\":"), "{}", r.body);
            }
        }
    }
    assert_eq!(client.requests(), K as u64 + 1);
    assert_eq!(client.connects(), 1, "all requests on one connection");
    let metrics = handle.metrics().snapshot();
    assert_eq!(metrics.connections, 1);
    assert_eq!(metrics.requests, K as u64 + 1);
    assert_eq!(metrics.responses_2xx, K as u64 + 1);
    handle.shutdown();
}

#[test]
fn client_reconnects_when_the_request_budget_closes_the_connection() {
    // The server announces `Connection: close` on the budget's last
    // response; the client must drop its socket and transparently
    // reconnect — with no failed or lost requests.
    let handle = spawn_server(ServeConfig {
        max_requests_per_connection: 3,
        ..ServeConfig::default()
    });
    let mut client = Client::new(handle.addr(), ClientConfig::default()).unwrap();
    for _ in 0..12 {
        let r = client.request("GET", "/healthz", "").unwrap();
        assert_eq!(r.status, 200);
    }
    assert_eq!(client.requests(), 12);
    assert_eq!(
        client.connects(),
        4,
        "12 requests / budget 3 = 4 connections"
    );
    handle.shutdown();
}

#[test]
fn pipelined_small_responses_fit_an_interactive_latency_budget() {
    // The Nagle regression pin: without TCP_NODELAY on both ends, each
    // tiny request/response on a reused connection can stall ~40 ms
    // waiting out the peer's delayed-ACK timer — 100 sequential
    // exchanges would take > 4 s. With nodelay set, loopback round
    // trips are tens of microseconds; even a heavily loaded CI box
    // stays far under the budget.
    let handle = spawn_server(ServeConfig::default());
    let mut client = Client::new(handle.addr(), ClientConfig::default()).unwrap();
    const N: u32 = 100;
    let start = Instant::now();
    for _ in 0..N {
        let r = client.request("GET", "/healthz", "").unwrap();
        assert_eq!(r.status, 200);
    }
    let elapsed = start.elapsed();
    assert_eq!(client.connects(), 1);
    assert!(
        elapsed < Duration::from_secs(2),
        "{N} keep-alive round trips took {elapsed:?} — Nagle/delayed-ACK stalls are back"
    );
    handle.shutdown();
}

#[test]
fn client_times_out_on_a_silent_server() {
    // A listener that accepts and never answers: the client must give
    // up within its deadline instead of hanging forever (the original
    // client read to EOF with no deadline), and on a fresh connection
    // it does so once (no silent retry loop).
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let hold = std::thread::spawn(move || {
        // Accept and park the connection until the test ends.
        let held = listener.accept();
        std::thread::sleep(Duration::from_secs(2));
        drop(held);
    });

    let mut client =
        Client::new(addr, ClientConfig::with_timeout(Duration::from_millis(200))).unwrap();
    let start = Instant::now();
    let err = client
        .request("GET", "/healthz", "")
        .expect_err("silent server must not yield a response");
    assert!(
        matches!(
            err.kind(),
            std::io::ErrorKind::TimedOut | std::io::ErrorKind::WouldBlock
        ),
        "unexpected error: {err:?}"
    );
    assert!(start.elapsed() < Duration::from_secs(1));
    hold.join().unwrap();
}

#[test]
fn shutdown_with_idle_keep_alive_connections_is_fast() {
    // The shutdown-latency regression the load harness exposed: with a
    // client connection parked idle in keep-alive, stopping the server
    // used to block on the worker pool until that connection's whole
    // read deadline (10 s default) expired. Shutdown now force-closes
    // live sockets, so it is bounded by in-flight work only.
    let handle = spawn_server(ServeConfig::default());
    let mut client = Client::new(handle.addr(), ClientConfig::default()).unwrap();
    let r = client.request("GET", "/healthz", "").unwrap();
    assert_eq!(r.status, 200);
    assert!(r.keep_alive, "connection must be parked in keep-alive");
    let start = Instant::now();
    handle.shutdown(); // client still holds its idle connection
    assert!(
        start.elapsed() < Duration::from_secs(3),
        "shutdown stalled {:?} on an idle keep-alive connection",
        start.elapsed()
    );
}

#[test]
fn one_shot_requests_still_work_end_to_end() {
    // The pre-existing helper keeps its contract (status + body) with
    // deadlines now applied underneath.
    let handle = spawn_server(ServeConfig::default());
    let (status, body) =
        http_request(handle.addr(), "POST", "/session", "(kind: , size: )").unwrap();
    assert_eq!(status, 201, "{body}");
    let (status, body) = http_request(handle.addr(), "GET", "/metrics", "").unwrap();
    assert_eq!(status, 200);
    assert!(body.contains("\"connections\":"), "{body}");
    assert!(body.contains("\"responses_2xx\":"), "{body}");
    handle.shutdown();
}

/// A one-connection server that reads a request and answers with a head
/// claiming a `Content-Length` of `claimed` and a two-byte body, then
/// waits for the client to hang up.
fn lying_server(claimed: u64) -> (SocketAddr, JoinHandle<()>) {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let liar = std::thread::spawn(move || {
        let (stream, _) = listener.accept().unwrap();
        let mut reader = BufReader::new(stream);
        let mut line = String::new();
        while reader.read_line(&mut line).unwrap() > 0 && line != "\r\n" {
            line.clear();
        }
        let mut stream = reader.into_inner();
        write!(
            stream,
            "HTTP/1.1 200 OK\r\nContent-Length: {claimed}\r\nConnection: close\r\n\r\n{{}}"
        )
        .unwrap();
        let _ = stream.read_to_end(&mut Vec::new());
    });
    (addr, liar)
}

#[test]
fn a_content_length_beyond_the_frame_bound_is_invalid_data() {
    // The client sizes the body buffer from the server's head; past the
    // wire client's frame bound it refuses instead. `u64::MAX` used to
    // panic with a capacity overflow, a merely huge value to abort on
    // allocation.
    let over = u64::from(MAX_RESPONSE_PAYLOAD) + 1;
    for claimed in [u64::MAX, 1 << 40, over] {
        let (addr, liar) = lying_server(claimed);
        let err = http_request(addr, "GET", "/healthz", "").expect_err("a lying head");
        assert_eq!(
            err.kind(),
            std::io::ErrorKind::InvalidData,
            "{claimed}: {err}"
        );
        liar.join().unwrap();
    }
    // The keep-alive client reads heads the same way.
    let (addr, liar) = lying_server(u64::MAX);
    let mut client = Client::new(addr, ClientConfig::default()).unwrap();
    let err = client
        .request("GET", "/healthz", "")
        .expect_err("a lying head");
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{err}");
    drop(client);
    liar.join().unwrap();
}
