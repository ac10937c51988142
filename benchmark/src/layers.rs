//! Layer probes of the traced run: small replays that time one layer's
//! entry point on the workload's own inputs — the SDL strings it sends,
//! the advices it gets back, the selections its contexts produce. They
//! give a cost to layers no span can isolate from outside the program
//! (a parse inside `advise_str`, an encode inside the server).

use crate::workloads::{Facts, Plan};
use charles_core::{AdviceCache, Advisor, Config, Explorer};
use charles_sdl::{analyze, parse_query};
use charles_serve::{http, json};
use charles_store::Backend;
use std::hint::black_box;
use std::time::Instant;

/// Mean microseconds per call of `f` over `reps` calls.
pub(crate) fn mean_us(reps: usize, mut f: impl FnMut()) -> f64 {
    let t0 = Instant::now();
    for _ in 0..reps {
        f();
    }
    t0.elapsed().as_secs_f64() * 1e6 / reps.max(1) as f64
}

/// Run every workload-independent probe on `plan`'s inputs.
pub fn probe(plan: &impl Plan, facts: &mut Facts) {
    let table = plan.table();
    let schema = Backend::schema(&table);
    let contexts = plan.contexts();
    let refs = plan.references();

    // sdl: parse and analyze every context the workload sends.
    let rounds = 2_000 / contexts.len().max(1) + 1;
    let parsed: Vec<_> = contexts
        .iter()
        .map(|sdl| parse_query(sdl, schema).expect("planned contexts parse"))
        .collect();
    let parse = mean_us(rounds, || {
        for sdl in &contexts {
            black_box(parse_query(black_box(sdl), schema)).ok();
        }
    });
    let analysis = mean_us(rounds, || {
        for q in &parsed {
            black_box(analyze(black_box(q), schema));
        }
    });
    facts.insert("sdl.parse_us", parse / contexts.len() as f64);
    facts.insert("sdl.analyze_us", analysis / contexts.len() as f64);

    // core: a cache hit on a settled key — admission, canonical key,
    // shard lookup; everything a hit costs short of encoding.
    let advisor = Advisor::new(&table);
    let cache = AdviceCache::new();
    let settled = cache.advise_cached(&advisor, parsed[0].clone());
    assert!(settled.is_ok(), "planned context advises");
    facts.insert(
        "core.cache_hit_us",
        mean_us(5_000, || {
            black_box(cache.advise_cached(&advisor, parsed[0].clone())).ok();
        }),
    );

    // store: the bitmap kernels, on selections the workload's own
    // contexts produce — the extent of each context the ops reach
    // (drilled ones included) against the first segment of its
    // best-ranked answer.
    let (mut and_us, mut and_count_us, mut density, mut pairs) = (0.0, 0.0, 0.0, 0.0);
    for advice in refs.iter().take(16) {
        let Some(segment) = advice.segment(0, 0) else {
            continue;
        };
        let Ok(explorer) = Explorer::new(&table, Config::default(), advice.context.clone()) else {
            continue;
        };
        let Ok(piece) = explorer.selection(segment) else {
            continue;
        };
        let extent = explorer.context_selection();
        and_us += mean_us(200, || {
            black_box(black_box(extent).and(black_box(&piece)));
        });
        and_count_us += mean_us(200, || {
            black_box(black_box(extent).and_count(black_box(&piece)));
        });
        density += 100.0 * piece.count_ones() as f64 / piece.len().max(1) as f64;
        pairs += 1.0;
    }
    if pairs > 0.0 {
        facts.insert("store.bitmap.and_us", and_us / pairs);
        facts.insert("store.bitmap.and_count_us", and_count_us / pairs);
        facts.insert("store.bitmap.selection_density_pct", density / pairs);
    }

    // parallel: what one fan-out costs before any work is done.
    let items = [0u8; 4];
    facts.insert(
        "parallel.par_map_spawn_us",
        mean_us(2_000, || {
            black_box(charles_parallel::par_map(black_box(&items), |x| *x));
        }),
    );

    // serve: JSON encoding of the advices this workload returns, and
    // parsing the request that asks for one.
    let mut bytes = 0;
    let encode = mean_us(20, || {
        bytes = refs.iter().map(|a| json::encode_advice(a).len()).sum();
    });
    facts.insert("serve.json.encode_us", encode / refs.len().max(1) as f64);
    facts.insert("serve.json.bytes", bytes as f64 / refs.len().max(1) as f64);
    let request = format!(
        "POST /session HTTP/1.1\r\nHost: charles\r\nContent-Length: {}\r\nConnection: keep-alive\r\n\r\n{}",
        contexts[0].len(),
        contexts[0]
    );
    facts.insert(
        "serve.http.parse_us",
        mean_us(5_000, || {
            black_box(http::parse_request(&mut black_box(request.as_bytes()))).ok();
        }),
    );
}
