//! End-to-end pin of the load harness against a live in-process
//! server: op accounting (histogram totals match the offered schedule),
//! deterministic warmup exclusion, monotone percentiles, cache traffic
//! in both hot and cold regimes, and an emitted artefact that passes
//! the same validation CI applies to the committed `BENCH_serve.json`.

use charles_bench::load::{run_in_process, validate, Proto, ScenarioConfig};
use charles_bench::mini_json;
use std::time::Duration;

/// Small enough for a debug test run, big enough to cycle several
/// sessions per worker.
fn tiny(name: &str) -> ScenarioConfig {
    ScenarioConfig {
        name: name.to_string(),
        rows: 400,
        server_workers: 4,
        cache_shards: 4,
        cache_capacity: 256,
        connections: 2,
        target_rps: 60.0,
        duration: Duration::from_millis(1_200),
        warmup: Duration::from_millis(300),
        hot_percent: 100,
        drills_per_session: 1,
        proto: Proto::Http,
    }
}

#[test]
fn hot_run_accounts_for_every_op_and_validates() {
    let cfg = tiny("it-hot");
    let result = run_in_process(&cfg).expect("harness runs");

    // Every scheduled op lands in exactly one bucket: warmup histogram,
    // measured histogram, or the error count.
    assert_eq!(result.errors, 0, "first error: {:?}", result.first_error);
    assert_eq!(
        result.ops_total,
        result.ops_measured + result.ops_warmup + result.errors
    );
    assert_eq!(result.ops_total, cfg.total_ops());

    // Warmup exclusion is deterministic: ops are classified by their
    // *scheduled* time, so exactly floor(rate × warmup) ops warm up.
    let expected_warmup = (cfg.target_rps * cfg.warmup.as_secs_f64()).floor() as u64;
    assert_eq!(result.ops_warmup, expected_warmup);
    assert!(result.ops_measured > 0);

    // Percentiles are monotone and bounded by the exact max.
    let l = &result.latency;
    assert!(
        l.p50 <= l.p95 && l.p95 <= l.p99 && l.p99 <= l.p999 && l.p999 <= l.max,
        "{l:?}"
    );
    assert!(result.achieved_rps > 0.0);

    // 100% hot traffic over a 4-context pool: the shared cache must
    // take real traffic and almost all of it must hit.
    assert!(result.cache.runs >= 1);
    assert!(
        result.cache.hits > result.cache.misses,
        "hot traffic should be hit-dominated: {:?}",
        result.cache
    );

    // The server saw only well-formed requests.
    assert_eq!(result.server.responses_4xx, 0);
    assert_eq!(result.server.responses_5xx, 0);
    assert!(result.server.requests >= result.ops_total);
    assert!(result.client_connects >= cfg.connections as u64);

    // The emitted artefact passes the CI gate's validation.
    let doc = mini_json::parse(&result.to_json()).expect("artefact parses");
    validate(&doc).expect("artefact validates");
}

#[test]
fn cold_traffic_runs_the_advisor_instead_of_hitting() {
    // 0% hot: every session uses a fresh canonical context, so runs
    // grow with sessions instead of flatlining at the pool size.
    let cfg = ScenarioConfig {
        hot_percent: 0,
        target_rps: 40.0,
        duration: Duration::from_millis(1_000),
        warmup: Duration::from_millis(250),
        ..tiny("it-cold")
    };
    let result = run_in_process(&cfg).expect("harness runs");
    assert_eq!(result.errors, 0, "first error: {:?}", result.first_error);
    // A 4-entry hot pool would cap runs at ~8 (roots + drills); a cold
    // stream must advise far more often than that.
    assert!(
        result.cache.runs > 8,
        "cold traffic barely ran the advisor: {:?}",
        result.cache
    );
    let doc = mini_json::parse(&result.to_json()).expect("artefact parses");
    validate(&doc).expect("artefact validates");
}

#[test]
fn binary_proto_run_accounts_for_every_op_and_validates() {
    // The same pinned accounting invariants over the wire listener:
    // the pipelined worker must settle every claimed op exactly once
    // and produce an artefact that passes the same CI validation.
    let cfg = ScenarioConfig {
        proto: Proto::Binary,
        ..tiny("it-wire")
    };
    let result = run_in_process(&cfg).expect("harness runs");
    assert_eq!(result.errors, 0, "first error: {:?}", result.first_error);
    assert_eq!(
        result.ops_total,
        result.ops_measured + result.ops_warmup + result.errors
    );
    assert_eq!(result.ops_total, cfg.total_ops());
    assert_eq!(result.server.responses_4xx, 0);
    assert_eq!(result.server.responses_5xx, 0);
    assert!(
        result.cache.hits > result.cache.misses,
        "hot traffic should be hit-dominated: {:?}",
        result.cache
    );
    let doc = mini_json::parse(&result.to_json()).expect("artefact parses");
    validate(&doc).expect("artefact validates");
}
