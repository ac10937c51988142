//! `charles-load` — drive load scenarios against `charles-serve`.
//!
//! ```text
//! cargo run --release -p charles-bench --bin load -- <mode> [options]
//!
//! Modes:
//!   smoke [--json PATH] [--addr HOST:PORT] [--proto http|binary]
//!       The pinned CI scenario. Boots an in-process server (or targets
//!       a live one via --addr — it must serve the VOC schema; with
//!       --proto binary the address is the wire listener's), prints
//!       the report, optionally writes the charles-load/v1 artefact.
//!       Exits non-zero on ANY error, non-2xx response or error frame.
//!   grid [--results PATH] [--rerun]
//!       Sweep cache capacity × server workers. Completed
//!       configs are read from the results cache instead of re-run
//!       (--rerun ignores the cache).
//!   ab [--results PATH] [--rerun] [--json PATH]
//!       A/B the two listeners, same workload otherwise: HTTP/JSON vs
//!       the pipelined binary wire protocol on the saturation
//!       scenario; prints the cached-advice speedup, fails unless it
//!       clears the 5× bar, and with --json writes the
//!       charles-wire-ab/v1 artefact (committed as BENCH_wire.json).
//!   check PATH
//!       Validate a result artefact (CI gate for the committed
//!       BENCH_serve.json / BENCH_wire.json), dispatching on the
//!       schema tag: charles-load/v1 — field presence, percentile
//!       monotonicity, op accounting, clean-run invariants;
//!       charles-wire-ab/v1 — both embedded legs plus the ≥5×
//!       speedup gate.
//! ```

use charles_bench::load::{
    comparison_table, run_against, run_in_process, validate, validate_wire_ab, wire_ab_speedup,
    wire_ab_to_json, LoadResult, Proto, ResultsCache, ScenarioConfig, WIRE_AB_MIN_SPEEDUP,
    WIRE_AB_SCHEMA,
};
use charles_bench::mini_json;
use std::time::Duration;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match args.first().map(String::as_str) {
        Some("smoke") => smoke(&args[1..]),
        Some("grid") => grid(&args[1..]),
        Some("ab") => ab(&args[1..]),
        Some("check") => check(&args[1..]),
        _ => {
            eprintln!("usage: load <smoke|grid|ab|check> [options] (see --help in the source)");
            2
        }
    };
    std::process::exit(code);
}

/// Pull `--flag VALUE` out of an option list.
fn opt_value(args: &[String], flag: &str) -> Option<String> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

fn has_flag(args: &[String], flag: &str) -> bool {
    args.iter().any(|a| a == flag)
}

fn report(result: &LoadResult) {
    print!("{}", comparison_table(std::slice::from_ref(result)));
    println!(
        "  ops: {} total = {} measured + {} warmup + {} errors | mean {}µs | {} client connects | server: {} conns, {} reqs ({} 2xx / {} 4xx / {} 5xx) | cache: {} hits / {} misses / {} runs / {} evictions",
        result.ops_total,
        result.ops_measured,
        result.ops_warmup,
        result.errors,
        result.latency.mean,
        result.client_connects,
        result.server.connections,
        result.server.requests,
        result.server.responses_2xx,
        result.server.responses_4xx,
        result.server.responses_5xx,
        result.cache.hits,
        result.cache.misses,
        result.cache.runs,
        result.cache.evictions,
    );
    if let Some(err) = &result.first_error {
        println!("  first error: {err}");
    }
}

fn parse_proto(args: &[String]) -> Result<Proto, String> {
    match opt_value(args, "--proto") {
        None => Ok(Proto::Http),
        Some(v) => Proto::parse(&v).ok_or(v),
    }
    .map_err(|v| format!("bad --proto {v:?} (want http or binary)"))
}

fn smoke(args: &[String]) -> i32 {
    let proto = match parse_proto(args) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("smoke: {e}");
            return 2;
        }
    };
    let cfg = ScenarioConfig {
        proto,
        ..ScenarioConfig::smoke()
    };
    println!(
        "smoke: {} ops at {} ops/s over {} connections (warmup {}ms, proto {})",
        cfg.total_ops(),
        cfg.target_rps,
        cfg.connections,
        cfg.warmup.as_millis(),
        cfg.proto.as_str(),
    );
    let run = match opt_value(args, "--addr") {
        Some(addr) => match addr.parse() {
            Ok(addr) => run_against(addr, &cfg),
            Err(e) => {
                eprintln!("smoke: bad --addr {addr:?}: {e}");
                return 2;
            }
        },
        None => run_in_process(&cfg),
    };
    let result = match run {
        Ok(r) => r,
        Err(e) => {
            eprintln!("smoke: harness failed: {e}");
            return 1;
        }
    };
    report(&result);
    if let Some(path) = opt_value(args, "--json") {
        if let Err(e) = std::fs::write(&path, result.to_json() + "\n") {
            eprintln!("smoke: writing {path}: {e}");
            return 1;
        }
        println!("  wrote {path}");
    }
    let non_2xx = result.server.responses_4xx + result.server.responses_5xx;
    if result.errors > 0 || non_2xx > 0 {
        eprintln!(
            "smoke: FAILED — {} client errors, {} non-2xx responses",
            result.errors, non_2xx
        );
        return 1;
    }
    println!("smoke: OK");
    0
}

/// The grid and A/B modes share one cached-run executor.
fn run_cached(cfg: &ScenarioConfig, cache: &mut ResultsCache, rerun: bool) -> Option<LoadResult> {
    if !rerun {
        if let Some(result) = cache.get(&cfg.fingerprint()) {
            println!("  {} — cached, skipping", cfg.name);
            return Some(result);
        }
    }
    println!("  {} — running ({} ops)…", cfg.name, cfg.total_ops());
    match run_in_process(cfg) {
        Ok(result) => {
            if let Err(e) = cache.put(&result) {
                eprintln!("  {}: could not persist result: {e}", cfg.name);
            }
            Some(result)
        }
        Err(e) => {
            eprintln!("  {}: harness failed: {e}", cfg.name);
            None
        }
    }
}

fn results_cache(args: &[String]) -> ResultsCache {
    let path = opt_value(args, "--results")
        .unwrap_or_else(|| "target/charles-load-results.tsv".to_string());
    let cache = ResultsCache::load(path);
    if !cache.is_empty() {
        println!(
            "{} completed config(s) in {} (pass --rerun to ignore)",
            cache.len(),
            cache.path().display()
        );
    }
    cache
}

fn grid(args: &[String]) -> i32 {
    let mut cache = results_cache(args);
    let rerun = has_flag(args, "--rerun");
    // A shorter, grid-sized variant of the smoke shape.
    let base = ScenarioConfig {
        duration: Duration::from_millis(2_000),
        warmup: Duration::from_millis(400),
        target_rps: 120.0,
        ..ScenarioConfig::smoke()
    };
    let mut results = Vec::new();
    let mut failed = false;
    for cache_capacity in [0usize, 1024] {
        for server_workers in [2usize, 8] {
            let cfg = ScenarioConfig {
                name: format!("grid-c{cache_capacity}-w{server_workers}"),
                cache_capacity,
                server_workers,
                ..base.clone()
            };
            match run_cached(&cfg, &mut cache, rerun) {
                Some(r) => results.push(r),
                None => failed = true,
            }
        }
    }
    println!("\n{}", comparison_table(&results));
    if failed {
        1
    } else {
        0
    }
}

/// A/B the two listeners on the saturation scenario: same workload,
/// same box, run serially — the achieved-rate ratio IS the per-core
/// cached-advice speedup the binary protocol must prove.
fn ab(args: &[String]) -> i32 {
    let mut cache = results_cache(args);
    let rerun = has_flag(args, "--rerun");
    let mut results = Vec::new();
    for proto in [Proto::Http, Proto::Binary] {
        let cfg = ScenarioConfig::throughput(proto);
        match run_cached(&cfg, &mut cache, rerun) {
            Some(r) => results.push(r),
            None => return 1,
        }
    }
    println!("\n{}", comparison_table(&results));
    let [http, binary] = results.as_slice() else {
        return 1;
    };
    let speedup = wire_ab_speedup(http, binary);
    println!(
        "binary vs http: {:.1} vs {:.1} cached-advice ops/s → {speedup:.2}× (bar: {WIRE_AB_MIN_SPEEDUP}×)",
        binary.achieved_rps, http.achieved_rps,
    );
    if let Some(path) = opt_value(args, "--json") {
        if let Err(e) = std::fs::write(&path, wire_ab_to_json(http, binary) + "\n") {
            eprintln!("ab: writing {path}: {e}");
            return 1;
        }
        println!("  wrote {path}");
    }
    let errors = http.errors + binary.errors;
    let non_2xx = http.server.responses_4xx
        + http.server.responses_5xx
        + binary.server.responses_4xx
        + binary.server.responses_5xx;
    if errors > 0 || non_2xx > 0 {
        eprintln!("ab: FAILED — {errors} client errors, {non_2xx} non-2xx responses");
        return 1;
    }
    if speedup < WIRE_AB_MIN_SPEEDUP {
        eprintln!(
            "ab: FAILED — binary speedup {speedup:.2}× is below the {WIRE_AB_MIN_SPEEDUP}× bar"
        );
        return 1;
    }
    println!("ab: OK");
    0
}

fn check(args: &[String]) -> i32 {
    let Some(path) = args.first() else {
        eprintln!("usage: load check PATH");
        return 2;
    };
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("check: reading {path}: {e}");
            return 1;
        }
    };
    let doc = match mini_json::parse(text.trim()) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("check: {path} is not valid JSON: {e}");
            return 1;
        }
    };
    let (schema, result) = match doc.get("schema").and_then(mini_json::Json::as_str) {
        Some(WIRE_AB_SCHEMA) => (WIRE_AB_SCHEMA, validate_wire_ab(&doc)),
        _ => ("charles-load/v1", validate(&doc)),
    };
    match result {
        Ok(()) => {
            println!("check: {path} is a valid {schema} artefact");
            0
        }
        Err(e) => {
            eprintln!("check: {path} FAILED validation: {e}");
            1
        }
    }
}
