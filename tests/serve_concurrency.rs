//! Multi-session concurrency harness for the serving layer (the
//! ROADMAP's "many advisors over one shared backend" item).
//!
//! The server is spun up on an ephemeral port over one shared
//! [`charles::Table`]; ≥ 8 client threads then drive interleaved
//! start / inspect / drill / back / error / delete traffic against it.
//! Three things are pinned:
//!
//! 1. **Oracle equality** — every served advice payload is bitwise
//!    equal to a direct single-threaded `Advisor::advise` run on the
//!    same backend (the canonical context, encoded with the same JSON
//!    encoder), regardless of interleaving or cache state.
//! 2. **Shared-cache sharing** — identical contexts across sessions
//!    trigger exactly one advisor computation: the cache's `runs`
//!    counter equals the number of *distinct* canonical contexts the
//!    whole swarm touched.
//! 3. **Protocol sanity under load** — stable 4xx answers for
//!    out-of-range drills, back-at-root, bad SDL and dead sessions,
//!    interleaved with the happy paths.

use charles::serve::http_request;
use charles::serve::json::encode_advice;
use charles::serve::wire::{wire_request, WireConn, WireRequest, WireResponse};
use charles::serve::ClientConfig;
use charles::{Advisor, Backend, Query, ServeConfig, Server};
use std::collections::HashSet;
use std::sync::{Arc, Barrier};

const CLIENT_THREADS: usize = 10;
const ITERATIONS: usize = 2;

/// The four canonical contexts the swarm explores, each with a permuted
/// spelling — equivalent under canonicalization, so sessions using
/// either spelling must share one cache entry.
fn context_pool() -> Vec<[&'static str; 2]> {
    vec![
        [
            "(type_of_boat: , tonnage: , departure_harbour: )",
            "(departure_harbour: , type_of_boat: , tonnage: )",
        ],
        ["(tonnage: , trip: )", "(trip: ,   tonnage: )"],
        ["(type_of_boat: , built: )", "(built: ,type_of_boat: )"],
        [
            "(departure_harbour: , tonnage: , trip: )",
            "(trip: , departure_harbour: , tonnage: )",
        ],
    ]
}

struct Oracle {
    /// Expected advice JSON for the root context.
    root_json: String,
    /// Expected advice JSON after drilling (0, 0).
    drill_json: String,
    /// Canonical renderings for the breadcrumb assertions.
    root_crumb: String,
    drill_crumb: String,
}

/// Run the single-threaded oracle: direct `Advisor::advise` calls on
/// the canonical contexts, no server, no cache.
fn oracle(backend: &dyn Backend, sdl: &str, distinct: &mut HashSet<String>) -> Oracle {
    let advisor = Advisor::new(backend);
    let root_ctx: Query = charles::parse_query(sdl, backend.schema())
        .expect("pool contexts are valid")
        .canonicalized();
    distinct.insert(root_ctx.cache_key());
    let root = advisor.advise(root_ctx.clone()).expect("root advises");
    let target = root
        .segment(0, 0)
        .expect("pool contexts have a drillable first segment")
        .clone()
        .canonicalized();
    distinct.insert(target.cache_key());
    let drill = advisor.advise(target.clone()).expect("target advises");
    Oracle {
        root_json: encode_advice(&root),
        drill_json: encode_advice(&drill),
        root_crumb: root_ctx.to_string(),
        drill_crumb: target.to_string(),
    }
}

/// One client's full lifecycle against the server; returns the number
/// of advise-path requests it made (start + drill per iteration).
fn client_script(addr: std::net::SocketAddr, spelling: &str, oracle: &Oracle) -> usize {
    let mut advised = 0;
    for _ in 0..ITERATIONS {
        // Start a session; the served advice must equal the oracle's.
        let (status, body) = http_request(addr, "POST", "/session", spelling).unwrap();
        assert_eq!(status, 201, "start failed: {body}");
        let id = body
            .strip_prefix("{\"session\":\"")
            .and_then(|rest| rest.split_once('"'))
            .map(|(id, _)| id.to_string())
            .unwrap_or_else(|| panic!("no session id in {body}"));
        assert_eq!(
            body,
            format!("{{\"session\":\"{id}\",\"advice\":{}}}", oracle.root_json),
            "served root advice differs from the direct advisor oracle"
        );
        advised += 1;

        // Bad SDL and bad drill bodies answer 4xx without advising:
        // unknown attributes are a 422 admission rejection (static
        // analysis), unparseable bodies stay 400.
        let (status, err) = http_request(addr, "POST", "/session", "(no_such_column: )").unwrap();
        assert_eq!(status, 422, "{err}");
        assert!(err.contains("\"code\":\"invalid_context\""), "{err}");
        let (status, _) = http_request(addr, "POST", "/session", "not sdl at all").unwrap();
        assert_eq!(status, 400);
        let (status, _) =
            http_request(addr, "POST", &format!("/session/{id}/drill"), "zero one").unwrap();
        assert_eq!(status, 400);

        // Inspect: depth 1, canonical breadcrumb, same advice bytes.
        let (status, info) = http_request(addr, "GET", &format!("/session/{id}"), "").unwrap();
        assert_eq!(status, 200);
        assert_eq!(
            info,
            format!(
                "{{\"session\":\"{id}\",\"depth\":1,\"breadcrumbs\":[{}],\"advice\":{}}}",
                charles::serve::json::json_string(&oracle.root_crumb),
                oracle.root_json
            )
        );

        // Out-of-range drill: stable 422, session state untouched.
        let (status, err) =
            http_request(addr, "POST", &format!("/session/{id}/drill"), "99 424242").unwrap();
        assert_eq!(status, 422, "{err}");
        assert!(err.contains("(99, 424242)"), "{err}");

        // Back at root: stable 422.
        let (status, err) = http_request(addr, "POST", &format!("/session/{id}/back"), "").unwrap();
        assert_eq!(status, 422, "{err}");

        // Drill (0, 0): byte-equal to the oracle's drilled advice.
        let (status, body) =
            http_request(addr, "POST", &format!("/session/{id}/drill"), "0 0").unwrap();
        assert_eq!(status, 200, "drill failed: {body}");
        assert_eq!(
            body,
            format!("{{\"session\":\"{id}\",\"advice\":{}}}", oracle.drill_json),
            "served drilled advice differs from the direct advisor oracle"
        );
        advised += 1;

        // Breadcrumbs now two deep, both canonical.
        let (status, info) = http_request(addr, "GET", &format!("/session/{id}"), "").unwrap();
        assert_eq!(status, 200);
        assert_eq!(
            info,
            format!(
                "{{\"session\":\"{id}\",\"depth\":2,\"breadcrumbs\":[{},{}],\"advice\":{}}}",
                charles::serve::json::json_string(&oracle.root_crumb),
                charles::serve::json::json_string(&oracle.drill_crumb),
                oracle.drill_json
            )
        );

        // Back out: the root advice again, bit for bit.
        let (status, body) =
            http_request(addr, "POST", &format!("/session/{id}/back"), "").unwrap();
        assert_eq!(status, 200);
        assert_eq!(
            body,
            format!("{{\"session\":\"{id}\",\"advice\":{}}}", oracle.root_json)
        );

        // Delete; the id is then gone for every verb.
        let (status, body) = http_request(addr, "DELETE", &format!("/session/{id}"), "").unwrap();
        assert_eq!(status, 204, "{body}");
        let (status, _) = http_request(addr, "GET", &format!("/session/{id}"), "").unwrap();
        assert_eq!(status, 404);
        let (status, _) = http_request(addr, "DELETE", &format!("/session/{id}"), "").unwrap();
        assert_eq!(status, 404);
    }
    advised
}

/// One request and its response over `conn`.
fn exchange(conn: &mut WireConn, req: &WireRequest<'_>) -> WireResponse {
    conn.send(req).unwrap();
    conn.recv().unwrap()
}

/// The binary-listener mirror of [`client_script`]: the same lifecycle
/// over wire frames, every response rendered back to HTTP form via
/// [`WireResponse::to_http`] and asserted byte-equal against the same
/// oracle strings the HTTP clients use. (The one HTTP-only step —
/// the unparseable `"zero one"` drill body — has no wire analogue:
/// drill indices are typed fields there and cannot be malformed.)
fn wire_client_script(addr: std::net::SocketAddr, spelling: &str, oracle: &Oracle) -> usize {
    let mut conn = WireConn::connect(&addr, &ClientConfig::default()).unwrap();
    let mut advised = 0;
    for _ in 0..ITERATIONS {
        // Start a session; the served advice must equal the oracle's.
        let resp = exchange(&mut conn, &WireRequest::Start { body: spelling });
        let WireResponse::Started { id, .. } = &resp else {
            panic!("start failed: {resp:?}");
        };
        let id = id.clone();
        let (status, body) = resp.to_http();
        assert_eq!(status, 201, "start failed: {body}");
        assert_eq!(
            body,
            format!("{{\"session\":\"{id}\",\"advice\":{}}}", oracle.root_json),
            "served root advice differs from the direct advisor oracle (binary listener)"
        );
        advised += 1;

        // Bad SDL answers the same 4xx codes and bodies as HTTP.
        let (status, err) = exchange(
            &mut conn,
            &WireRequest::Start {
                body: "(no_such_column: )",
            },
        )
        .to_http();
        assert_eq!(status, 422, "{err}");
        assert!(err.contains("\"code\":\"invalid_context\""), "{err}");
        let (status, _) = exchange(
            &mut conn,
            &WireRequest::Start {
                body: "not sdl at all",
            },
        )
        .to_http();
        assert_eq!(status, 400);

        // Inspect: depth 1, canonical breadcrumb, same advice bytes.
        let (status, info) = exchange(&mut conn, &WireRequest::Inspect { id: &id }).to_http();
        assert_eq!(status, 200);
        assert_eq!(
            info,
            format!(
                "{{\"session\":\"{id}\",\"depth\":1,\"breadcrumbs\":[{}],\"advice\":{}}}",
                charles::serve::json::json_string(&oracle.root_crumb),
                oracle.root_json
            )
        );

        // Out-of-range drill: stable 422, session state untouched.
        let (status, err) = exchange(
            &mut conn,
            &WireRequest::Drill {
                id: &id,
                rank: 99,
                seg: 424242,
            },
        )
        .to_http();
        assert_eq!(status, 422, "{err}");
        assert!(err.contains("(99, 424242)"), "{err}");

        // Back at root: stable 422.
        let (status, err) = exchange(&mut conn, &WireRequest::Back { id: &id }).to_http();
        assert_eq!(status, 422, "{err}");

        // Drill (0, 0): byte-equal to the oracle's drilled advice.
        let (status, body) = exchange(
            &mut conn,
            &WireRequest::Drill {
                id: &id,
                rank: 0,
                seg: 0,
            },
        )
        .to_http();
        assert_eq!(status, 200, "drill failed: {body}");
        assert_eq!(
            body,
            format!("{{\"session\":\"{id}\",\"advice\":{}}}", oracle.drill_json),
            "served drilled advice differs from the direct advisor oracle (binary listener)"
        );
        advised += 1;

        // Breadcrumbs now two deep, both canonical.
        let (status, info) = exchange(&mut conn, &WireRequest::Inspect { id: &id }).to_http();
        assert_eq!(status, 200);
        assert_eq!(
            info,
            format!(
                "{{\"session\":\"{id}\",\"depth\":2,\"breadcrumbs\":[{},{}],\"advice\":{}}}",
                charles::serve::json::json_string(&oracle.root_crumb),
                charles::serve::json::json_string(&oracle.drill_crumb),
                oracle.drill_json
            )
        );

        // Back out: the root advice again, bit for bit.
        let (status, body) = exchange(&mut conn, &WireRequest::Back { id: &id }).to_http();
        assert_eq!(status, 200);
        assert_eq!(
            body,
            format!("{{\"session\":\"{id}\",\"advice\":{}}}", oracle.root_json)
        );

        // Delete; the id is then gone for every verb.
        let (status, body) = exchange(&mut conn, &WireRequest::Delete { id: &id }).to_http();
        assert_eq!(status, 204, "{body}");
        assert_eq!(body, "");
        let (status, _) = exchange(&mut conn, &WireRequest::Inspect { id: &id }).to_http();
        assert_eq!(status, 404);
        let (status, _) = exchange(&mut conn, &WireRequest::Delete { id: &id }).to_http();
        assert_eq!(status, 404);
    }
    advised
}

#[test]
fn concurrent_sessions_serve_oracle_bytes_and_share_one_cache() {
    let table = charles::voc_table(600, 42);

    // Single-threaded oracle over the very same backend.
    let mut distinct = HashSet::new();
    let oracles: Vec<Oracle> = context_pool()
        .iter()
        .map(|spellings| oracle(&table, spellings[0], &mut distinct))
        .collect();

    let backend: Arc<dyn Backend> = Arc::new(table);
    let server = Server::bind(
        "127.0.0.1:0",
        backend,
        ServeConfig {
            workers: 8,
            ..ServeConfig::default()
        },
    )
    .expect("bind ephemeral port")
    .with_wire_listener("127.0.0.1:0")
    .expect("bind wire listener");
    let addr = server.local_addr().unwrap();
    let wire_addr = server.wire_addr().expect("wire listener bound");
    let cache = server.cache();
    let handle = server.spawn().expect("spawn server");

    // ≥ 8 clients, all released at once for maximal interleaving. Each
    // uses one of the four contexts, alternating between the canonical
    // and the permuted spelling — and between the HTTP and binary
    // listeners, so both protocols race each other over the one cache
    // and must serve the same oracle bytes.
    let pool = context_pool();
    let barrier = Arc::new(Barrier::new(CLIENT_THREADS));
    let advised: usize = std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for t in 0..CLIENT_THREADS {
            let spellings = pool[t % pool.len()];
            let spelling = spellings[t % 2];
            let oracle = &oracles[t % pool.len()];
            let barrier = Arc::clone(&barrier);
            handles.push(scope.spawn(move || {
                barrier.wait();
                if t % 2 == 0 {
                    client_script(addr, spelling, oracle)
                } else {
                    wire_client_script(wire_addr, spelling, oracle)
                }
            }));
        }
        handles.into_iter().map(|h| h.join().expect("client")).sum()
    });

    // The cache proves the sharing: every advise-path request hit the
    // cache exactly once, and the advisor ran exactly once per distinct
    // canonical context — duplicates across sessions, spellings,
    // iterations and threads were all served from the shared entries.
    let stats = cache.stats();
    assert_eq!(
        advised,
        CLIENT_THREADS * ITERATIONS * 2,
        "each client advises twice per iteration"
    );
    assert_eq!(
        stats.hits + stats.misses,
        advised as u64,
        "every advise-path request goes through the cache"
    );
    assert_eq!(
        stats.runs,
        distinct.len() as u64,
        "identical contexts across sessions must share one advisor run \
         (distinct canonical contexts: {distinct:?})"
    );
    assert!(
        stats.misses >= stats.runs,
        "a miss either ran the advisor or blocked on the flight that did: {stats:?}"
    );

    // The HTTP view of the same counters agrees. (Capacity reports the
    // effective per-shard-rounded bound; no eviction can have happened
    // with this few distinct contexts.)
    let (status, body) = http_request(addr, "GET", "/cache/stats", "").unwrap();
    assert_eq!(status, 200);
    let capacity = cache.capacity().expect("server caches are bounded");
    assert_eq!(
        body,
        format!(
            "{{\"hits\":{},\"misses\":{},\"runs\":{},\"evictions\":0,\"entries\":{},\"capacity\":{}}}",
            stats.hits,
            stats.misses,
            stats.runs,
            distinct.len(),
            capacity
        )
    );

    // And the binary listener's view of the same counters renders to
    // the very same HTTP bytes (stats queries don't touch the advice
    // cache, so the counters are stable between the two reads).
    let (wire_status, wire_body) = wire_request(wire_addr, &WireRequest::CacheStats)
        .expect("wire cache-stats")
        .to_http();
    assert_eq!(wire_status, status);
    assert_eq!(wire_body, body);

    handle.shutdown();
}

/// Pipelining: many frames written in one burst are answered in request
/// order, each response byte-equal to what sequential requests produce.
#[test]
fn pipelined_wire_frames_answer_in_order() {
    let backend: Arc<dyn Backend> = Arc::new(charles::voc_table(400, 7));
    let server = Server::bind("127.0.0.1:0", backend, ServeConfig::default())
        .unwrap()
        .with_wire_listener("127.0.0.1:0")
        .unwrap();
    let wire_addr = server.wire_addr().unwrap();
    let handle = server.spawn().unwrap();

    let mut conn = WireConn::connect(&wire_addr, &ClientConfig::default()).unwrap();

    // Burst 1: start a session, then immediately pipeline inspects,
    // an out-of-range drill, a real drill and a back behind it —
    // without reading a single response first. The session id is
    // assigned server-side, so the lifecycle ops name the id the
    // start *will* produce: ids are deterministic ("s1" first).
    conn.stage(&WireRequest::Start {
        body: "(master: , tonnage: )",
    });
    conn.stage(&WireRequest::Inspect { id: "s1" });
    conn.stage(&WireRequest::Drill {
        id: "s1",
        rank: 99,
        seg: 424242,
    });
    conn.stage(&WireRequest::Drill {
        id: "s1",
        rank: 0,
        seg: 0,
    });
    conn.stage(&WireRequest::Back { id: "s1" });
    conn.stage(&WireRequest::Delete { id: "s1" });
    conn.stage(&WireRequest::Health);
    conn.flush().unwrap();

    let started = conn.recv().unwrap();
    let WireResponse::Started { id, advice } = &started else {
        panic!("expected Started, got {started:?}");
    };
    assert_eq!(id, "s1", "first session id is deterministic");
    let root_json = advice.to_json();

    let info = conn.recv().unwrap();
    let WireResponse::Info { depth, advice, .. } = &info else {
        panic!("expected Info, got {info:?}");
    };
    assert_eq!(*depth, 1);
    assert_eq!(advice.to_json(), root_json, "inspect echoes root advice");

    let bad = conn.recv().unwrap();
    assert_eq!(bad.status(), 422, "out-of-range drill: {bad:?}");

    let drilled = conn.recv().unwrap();
    let WireResponse::Advice { advice, .. } = &drilled else {
        panic!("expected Advice, got {drilled:?}");
    };
    let drill_json = advice.to_json();
    assert_ne!(drill_json, root_json, "drill changes the context");

    let back = conn.recv().unwrap();
    let WireResponse::Advice { advice, .. } = &back else {
        panic!("expected Advice, got {back:?}");
    };
    assert_eq!(advice.to_json(), root_json, "back restores root bytes");

    assert_eq!(conn.recv().unwrap().status(), 204, "delete");
    assert_eq!(conn.recv().unwrap().status(), 200, "health");

    handle.shutdown();
}

/// One wire exchange kept raw: the decoded response plus the payload
/// bytes exactly as they crossed the socket. Asserts on the way that
/// the pure owned-side encoder reproduces those bytes from the decode.
fn raw_wire_exchange(
    stream: &mut std::net::TcpStream,
    req: &WireRequest<'_>,
) -> (WireResponse, Vec<u8>) {
    use charles::serve::wire::{read_frame, HEADER_LEN, MAX_RESPONSE_PAYLOAD};
    use std::io::Write;
    let mut frame = Vec::new();
    req.encode(&mut frame);
    stream.write_all(&frame).unwrap();
    let mut payload = Vec::new();
    let opcode = read_frame(stream, &mut payload, MAX_RESPONSE_PAYLOAD).unwrap();
    let resp = WireResponse::decode(opcode, &payload).unwrap();
    let mut pure = Vec::new();
    resp.encode(&mut pure);
    assert_eq!(pure[5], opcode);
    assert_eq!(
        &pure[HEADER_LEN..],
        payload.as_slice(),
        "served frame differs from WireResponse::encode of its own decode"
    );
    (resp, payload)
}

/// The advice a session reply carries.
fn advice_of(resp: &WireResponse) -> &charles::serve::wire::WireAdvice {
    match resp {
        WireResponse::Started { advice, .. }
        | WireResponse::Advice { advice, .. }
        | WireResponse::Info { advice, .. } => advice,
        other => panic!("expected a session reply, got {other:?}"),
    }
}

/// Start / inspect / drill / inspect / back / inspect over raw wire
/// frames: every advice equals the direct-advisor oracle, and every
/// re-send of an advice carries the same payload bytes as its first.
fn raw_wire_script(addr: std::net::SocketAddr, spelling: &str, oracle: &Oracle) {
    let mut stream = std::net::TcpStream::connect(addr).unwrap();
    let (started, _) = raw_wire_exchange(&mut stream, &WireRequest::Start { body: spelling });
    let WireResponse::Started { id, .. } = &started else {
        panic!("start failed: {started:?}");
    };
    let id = id.as_str();
    assert_eq!(advice_of(&started).to_json(), oracle.root_json);

    let (info, root_info) = raw_wire_exchange(&mut stream, &WireRequest::Inspect { id });
    assert_eq!(advice_of(&info).to_json(), oracle.root_json);

    let drill = WireRequest::Drill {
        id,
        rank: 0,
        seg: 0,
    };
    let (drilled, drilled_payload) = raw_wire_exchange(&mut stream, &drill);
    assert_eq!(advice_of(&drilled).to_json(), oracle.drill_json);
    let (info, drill_info) = raw_wire_exchange(&mut stream, &WireRequest::Inspect { id });
    assert_eq!(advice_of(&info).to_json(), oracle.drill_json);
    // An `Advice` payload is id + advice, an `Info` payload is id +
    // depth + breadcrumbs + advice: the advice bytes are the tail.
    let drill_advice = &drilled_payload[4 + id.len()..];
    assert!(drill_info.ends_with(drill_advice));

    let (back, back_payload) = raw_wire_exchange(&mut stream, &WireRequest::Back { id });
    assert_eq!(advice_of(&back).to_json(), oracle.root_json);
    let root_advice = &back_payload[4 + id.len()..];
    assert!(root_info.ends_with(root_advice));
    let (_, root_info_again) = raw_wire_exchange(&mut stream, &WireRequest::Inspect { id });
    assert_eq!(root_info_again, root_info);

    let (deleted, _) = raw_wire_exchange(&mut stream, &WireRequest::Delete { id });
    assert_eq!(deleted.status(), 204);
}

/// First send ⇔ n-th send ⇔ pure render, on both listeners: K
/// connections start one cold context at the same instant — one advisor
/// run, and the first sends of its advice race each other (a server
/// that keeps an advice's encoding must fill it exactly once) — then
/// re-read it through inspect / drill / back. Every payload is the
/// direct-advisor oracle's, bit for bit.
#[test]
fn racing_first_sends_and_resends_serve_the_pure_render() {
    let table = charles::voc_table(500, 23);
    let spellings = context_pool()[0];
    let mut distinct = HashSet::new();
    let oracle = oracle(&table, spellings[0], &mut distinct);

    let backend: Arc<dyn Backend> = Arc::new(table);
    let server = Server::bind("127.0.0.1:0", backend, ServeConfig::default())
        .unwrap()
        .with_wire_listener("127.0.0.1:0")
        .unwrap();
    let addr = server.local_addr().unwrap();
    let wire_addr = server.wire_addr().unwrap();
    let cache = server.cache();
    let handle = server.spawn().unwrap();

    let barrier = Barrier::new(CLIENT_THREADS);
    std::thread::scope(|scope| {
        for t in 0..CLIENT_THREADS {
            let (barrier, oracle) = (&barrier, &oracle);
            let spelling = spellings[(t / 2) % 2];
            scope.spawn(move || {
                barrier.wait();
                if t % 2 == 0 {
                    client_script(addr, spelling, oracle);
                } else {
                    raw_wire_script(wire_addr, spelling, oracle);
                }
            });
        }
    });

    assert_eq!(
        cache.stats().runs,
        distinct.len() as u64,
        "one advisor run per distinct context, however many sends"
    );
    handle.shutdown();
}

/// The cache must also be *correct* under contention when many threads
/// race the very same brand-new context: single-flight, one run.
#[test]
fn racing_identical_contexts_compute_once() {
    let backend: Arc<dyn Backend> = Arc::new(charles::voc_table(400, 7));
    let server = Server::bind("127.0.0.1:0", backend, ServeConfig::default()).unwrap();
    let addr = server.local_addr().unwrap();
    let cache = server.cache();
    let handle = server.spawn().unwrap();

    let threads = 8;
    let barrier = Arc::new(Barrier::new(threads));
    let bodies: Vec<String> = std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for t in 0..threads {
            let barrier = Arc::clone(&barrier);
            // Both spellings of one context, hitting the cold cache at
            // the same instant.
            let sdl = if t % 2 == 0 {
                "(master: , tonnage: )"
            } else {
                "(tonnage: , master: )"
            };
            handles.push(scope.spawn(move || {
                barrier.wait();
                let (status, body) = http_request(addr, "POST", "/session", sdl).unwrap();
                assert_eq!(status, 201, "{body}");
                // Strip the per-session id: the advice bytes must agree.
                body.split_once(",\"advice\":").unwrap().1.to_string()
            }));
        }
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    assert_eq!(
        cache.stats().runs,
        1,
        "one run for {threads} racing sessions"
    );
    for w in bodies.windows(2) {
        assert_eq!(w[0], w[1], "all racers must be served identical bytes");
    }
    handle.shutdown();
}
