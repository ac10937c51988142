//! Serve-layer smoke drive: boot the advisory server over a VOC
//! dataset, then act as two analysts sharing one drill-down path over
//! real HTTP — start, inspect, drill, back, delete — and show that the
//! second analyst's identical context was answered from the shared
//! cache (one HB-cuts run, two sessions).
//!
//!     cargo run --release --example serve_client
//!
//! With `CHARLES_DATASET=/path/to/file.charles` the server boots onto
//! that saved dataset instead of generating one — the persistence
//! round trip (datagen → save → serve) that CI smoke-tests:
//!
//!     cargo run -p charles-datagen --bin datagen -- voc 2000 42 /tmp/voc.charles
//!     CHARLES_DATASET=/tmp/voc.charles cargo run --release --example serve_client

use charles::serve::http_request;
use charles::{ServeConfig, Server, Table};
use std::sync::Arc;

fn main() {
    // One shared backend: the VOC register — regenerated in memory by
    // default, lazily loaded from a .charles file when CHARLES_DATASET
    // points at one.
    let backend: Arc<dyn charles::Backend> = match std::env::var("CHARLES_DATASET") {
        Ok(path) => {
            let disk =
                Table::open(&path).unwrap_or_else(|e| panic!("cannot open dataset {path:?}: {e}"));
            println!(
                "serving saved dataset {path} ({:?}, {} rows)",
                disk.name(),
                disk.len()
            );
            Arc::new(disk)
        }
        Err(_) => Arc::new(charles::voc_table(2_000, 42)),
    };

    let server =
        Server::bind("127.0.0.1:0", backend, ServeConfig::default()).expect("bind ephemeral port");
    let addr = server.local_addr().expect("bound address");
    let handle = server.spawn().expect("spawn accept loop");
    println!("advisory server listening on http://{addr}");

    let context = "(type_of_boat: , tonnage: , departure_harbour: )";

    // Analyst 1 starts a session.
    let (status, body) = http_request(addr, "POST", "/session", context).expect("POST /session");
    assert_eq!(status, 201, "unexpected response: {body}");
    let id = extract(&body, "\"session\":\"", "\"");
    println!("\nanalyst 1 opened session {id} on {context}");
    println!("  first advice: {}…", &body[..body.len().min(160)]);

    // Analyst 2 asks for the same population, conjuncts permuted — the
    // canonical cache key is identical, so no second HB-cuts run.
    let permuted = "(tonnage: , departure_harbour: , type_of_boat: )";
    let (status, body2) = http_request(addr, "POST", "/session", permuted).expect("POST /session");
    assert_eq!(status, 201, "unexpected response: {body2}");
    let id2 = extract(&body2, "\"session\":\"", "\"");
    println!("analyst 2 opened session {id2} on a permuted spelling of the same context");

    // Drill into the best answer's first segment, look around, back out.
    let (status, drilled) =
        http_request(addr, "POST", &format!("/session/{id}/drill"), "0 0").expect("drill");
    assert_eq!(status, 200, "drill failed: {drilled}");
    println!(
        "\nanalyst 1 drilled (0, 0): {}…",
        &drilled[..drilled.len().min(160)]
    );

    let (status, info) = http_request(addr, "GET", &format!("/session/{id}"), "").expect("GET");
    assert_eq!(status, 200);
    println!(
        "  breadcrumbs now: {}",
        extract(&info, "\"breadcrumbs\":[", "]")
    );

    let (status, _) = http_request(addr, "POST", &format!("/session/{id}/back"), "").expect("back");
    assert_eq!(status, 200);
    println!("  …and backed out to the root");

    // Both sessions close.
    for sid in [&id, &id2] {
        let (status, _) =
            http_request(addr, "DELETE", &format!("/session/{sid}"), "").expect("DELETE");
        assert_eq!(status, 204);
    }

    let (status, stats) = http_request(addr, "GET", "/cache/stats", "").expect("stats");
    assert_eq!(status, 200);
    println!("\nshared advice cache after both analysts: {stats}");
    println!("(two sessions on one context ⇒ \"runs\" stays at 1 for it: shared, not recomputed)");

    handle.shutdown();
    println!("\nserver drained and shut down cleanly");
}

/// Pull the first `prefix`…`suffix` span out of a JSON string — enough
/// for a demo printout without a decoder.
fn extract(body: &str, prefix: &str, suffix: &str) -> String {
    let Some(start) = body.find(prefix).map(|i| i + prefix.len()) else {
        return String::from("<missing>");
    };
    match body[start..].find(suffix) {
        Some(len) => body[start..start + len].to_string(),
        None => String::from("<missing>"),
    }
}
