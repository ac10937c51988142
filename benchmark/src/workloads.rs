//! The four workloads. Each has a *plan* (its seeded op list plus the
//! single-thread reference every op is checked against), a *set-up*
//! (data, servers, cache fill, warm-up pass) and a *cycle* (one pass
//! over the op list). The runner repeats whole cycles until the window
//! is full, so every op is sampled equally often and the percentiles
//! compare like with like however fast the tree is.

use crate::gen::{self, Frame, Rng};
use crate::layers::mean_us;
use crate::oracle::{self, advice_digest, digest};
use crate::trace::{self, Cost, Recorder, TracedBackend};
use charles_core::{Advice, AdviceCacheStats, Advisor};
use charles_datagen::{sweep_table, voc_table};
use charles_sdl::parse_query;
use charles_serve::wire::{self, WireRequest, WireResponse};
use charles_serve::{Client, ClientConfig, MetricsSnapshot, ServeConfig, Server, ServerHandle};
use charles_store::{write_table, Backend, DiskTable, Table};
use std::collections::{BTreeMap, BTreeSet};
use std::hint::black_box;
use std::io::{BufReader, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Every table is generated from this seed, whatever the workload seed:
/// the data is part of the frozen structure (see [`crate::gen`]).
const TABLE_SEED: u64 = 7;

/// Named measurements a plan or set-up takes on the side (build times,
/// file sizes, exact counts); the traced run reports them.
pub type Facts = BTreeMap<&'static str, f64>;

/// Which workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkloadId {
    /// Cold advice, many rows.
    ColdTall,
    /// Cold advice, many attributes.
    ColdWide,
    /// A drill session served over HTTP from a `.charles` file.
    SessionDrill,
    /// Cached advice over the pipelined wire protocol.
    HotWire,
}

impl WorkloadId {
    /// Every workload, in reporting order.
    pub const ALL: [WorkloadId; 4] = [
        WorkloadId::ColdTall,
        WorkloadId::ColdWide,
        WorkloadId::SessionDrill,
        WorkloadId::HotWire,
    ];

    /// The name used on the command line and in every report.
    pub fn name(self) -> &'static str {
        match self {
            WorkloadId::ColdTall => "cold_tall",
            WorkloadId::ColdWide => "cold_wide",
            WorkloadId::SessionDrill => "session_drill",
            WorkloadId::HotWire => "hot_wire",
        }
    }

    /// Parse a command-line name.
    pub fn parse(name: &str) -> Option<WorkloadId> {
        WorkloadId::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Why this workload exists (one line, for `BENCHMARK.json`).
    pub fn why(self) -> &'static str {
        match self {
            WorkloadId::ColdTall => "Sec. 5.1 horizontal scaling: cold advice on a tall table is almost all store work (predicate scans, medians, frequencies); core and serve do next to nothing.",
            WorkloadId::ColdWide => "Sec. 5.1 vertical scaling: cold advice over 24-48 attributes of a small table is core self time (HB-cuts pair loop, INDEP grids, memo, compose, rank). One par_map thread; the trace times the default.",
            WorkloadId::SessionDrill => "The analyst's loop served over HTTP from a .charles file: narrowing selections, the disk backend, cache inserts, session history, JSON; 4 of 6 advice replies run the advisor, 2 are back-steps.",
            WorkloadId::HotWire => "100% cache hits over one 64-deep pipelined wire connection: sdl parse/analyze, cache probe, wire encode, writer queue, socket; store does nothing and kernels must not move it.",
        }
    }
}

/// The frozen size of a workload.
#[derive(Debug, Clone, Copy)]
pub struct Sizing {
    /// Table rows.
    pub rows: usize,
    /// Table columns (`cold_wide` only; VOC tables always have nine).
    pub columns: usize,
    /// Ops lists per cycle: contexts, sessions or batches.
    pub per_cycle: usize,
    /// Of those, how many the warm-up pass runs (it may exceed a cycle).
    pub warmup: usize,
    /// Frames per pipelined batch (`hot_wire` only).
    pub depth: usize,
    /// Run every `par_map` on the calling thread (`set_num_threads(1)`)
    /// in place of the program's default, one thread per available
    /// core. Set on `cold_wide` only: its fan-outs are hundreds of
    /// sub-millisecond units per op, two threads answer no faster
    /// (`parallel.speedup_x` 0.92–1.0) and what they add to the window
    /// is join wake-ups, whose floor spreads 25% over ten runs on a
    /// shared 2-vCPU box where one thread spreads 4–7%. The traced run
    /// still times both thread counts.
    pub serial: bool,
}

impl WorkloadId {
    /// Frozen sizes; `quick` shrinks them to smoke-test scale.
    pub fn sizing(self, quick: bool) -> Sizing {
        let s = |rows, columns, per_cycle, warmup, depth| Sizing {
            rows,
            columns,
            per_cycle,
            warmup,
            depth,
            serial: self == WorkloadId::ColdWide,
        };
        match (self, quick) {
            (WorkloadId::ColdTall, false) => s(200_000, 9, 12, 12, 0),
            (WorkloadId::ColdTall, true) => s(3_000, 9, 12, 3, 0),
            (WorkloadId::ColdWide, false) => s(4_000, 48, 20, 20, 0),
            (WorkloadId::ColdWide, true) => s(400, 12, 4, 2, 0),
            (WorkloadId::SessionDrill, false) => s(100_000, 9, 4, 2, 0),
            (WorkloadId::SessionDrill, true) => s(4_000, 9, 3, 1, 0),
            (WorkloadId::HotWire, false) => s(20_000, 9, 100, 400, 64),
            (WorkloadId::HotWire, true) => s(2_000, 9, 4, 2, 8),
        }
    }
}

/// What one cycle observed. Every cycle runs the same op list, so the
/// `k`-th entry a cycle appends to `lat_ns` (or to the step vectors)
/// always belongs to the same op (or step): the runner folds each
/// cycle into per-op and per-step floors and clears the vectors. The
/// counters run on over the cycles.
#[derive(Debug, Default)]
pub struct Samples {
    /// One entry per advice-returning op: its latency in nanoseconds,
    /// or 0 if it failed (a failed op contributes no latency sample).
    pub lat_ns: Vec<u32>,
    /// One entry per step: the wall nanoseconds of each unit the caller
    /// runs one after the other — an op, or a pipelined batch of them.
    pub step_ns: Vec<u32>,
    /// The process CPU nanoseconds of the same steps.
    pub step_cpu_ns: Vec<u32>,
    /// Ops attempted.
    pub attempted: u64,
    /// Ops that errored, answered an unexpected status or failed the
    /// oracle.
    pub failed: u64,
    /// The first failure's description, for the report.
    pub first_failure: Option<String>,
}

fn ns(nanos: u128) -> u32 {
    u32::try_from(nanos).unwrap_or(u32::MAX).max(1)
}

impl Samples {
    /// Record one op. `latency` is `Some` for advice-returning ops,
    /// whatever the verdict.
    fn op(&mut self, verdict: Result<(), String>, latency: Option<Duration>) {
        self.attempted += 1;
        if let Some(l) = latency {
            self.lat_ns
                .push(if verdict.is_ok() { ns(l.as_nanos()) } else { 0 });
        }
        if let Err(why) = verdict {
            self.failed += 1;
            self.first_failure.get_or_insert(why);
        }
    }

    /// Record one step: `wall` on the caller's clock, `cpu_ns` of
    /// process CPU time.
    fn step(&mut self, wall: Duration, cpu_ns: u64) {
        self.step_ns.push(ns(wall.as_nanos()));
        self.step_cpu_ns.push(ns(cpu_ns.into()));
    }

    /// Record one op that is also a step of its own.
    fn op_step(&mut self, verdict: Result<(), String>, cost: Cost, advice: bool) {
        self.op(verdict, advice.then_some(cost.wall));
        self.step(cost.wall, cost.cpu_ns);
    }
}

/// Where a set-up may write, and whether it is traced.
pub struct Env {
    /// Directory for the `.charles` file (inside the checkout).
    pub out_dir: PathBuf,
    /// When set, backends are wrapped in a [`TracedBackend`] and ops
    /// record root spans.
    pub rec: Option<Arc<Recorder>>,
}

impl Env {
    fn backend(&self, table: impl Backend + 'static) -> Arc<dyn Backend> {
        let plain: Arc<dyn Backend> = Arc::new(table);
        match &self.rec {
            Some(rec) => Arc::new(TracedBackend::new(plain, Arc::clone(rec))),
            None => plain,
        }
    }
}

/// A workload's seeded op list and references.
pub trait Plan: Sized {
    /// Build the op list for `seed` and compute every reference on one
    /// thread. `Err` if the generated ops cannot all succeed.
    fn build(id: WorkloadId, seed: u64, size: Sizing) -> Result<Self, String>;
    /// The workload's table, built afresh.
    fn table(&self) -> Table;
    /// The SDL contexts the ops advise on (roots, for sessions).
    fn contexts(&self) -> Vec<&str>;
    /// The reference advice of every distinct context the ops reach.
    fn references(&self) -> &[Advice];
}

/// A workload that is set up and ready to run cycles.
pub trait Workload: Sized {
    /// Its plan type.
    type Plan: Plan;
    /// One full set-up — data, servers, cache fill, warm-up pass.
    fn setup(plan: Arc<Self::Plan>, env: &Env, facts: &mut Facts) -> Result<Self, String>;
    /// One pass over the op list.
    fn cycle(&mut self, out: &mut Samples);
    /// Layer measurements that need the live set-up (traced run only).
    fn probe(&mut self, _facts: &mut Facts) {}
    /// Tear down, reporting what the servers counted.
    fn finish(self, _facts: &mut Facts) {}
}

fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed().as_secs_f64())
}

/// Exact per-context counts the references carry, averaged: what the
/// advisor did (`Advice.trace`, `Advice.cache`) and how many rows the
/// store scanned for it (`BackendStats.scans × row_count`).
pub fn reference_facts(refs: &[Advice], rows: usize, facts: &mut Facts) {
    let n = refs.len().max(1) as f64;
    let mean = |f: &dyn Fn(&Advice) -> f64| refs.iter().map(f).sum::<f64>() / n;
    facts.insert("core.seed_cuts", mean(&|a| a.trace.seeds.len() as f64));
    facts.insert("core.compose_steps", mean(&|a| a.trace.steps.len() as f64));
    facts.insert(
        "core.indep_probes",
        mean(&|a| a.cache.indep_probes() as f64),
    );
    facts.insert("core.indep_misses", mean(&|a| a.cache.indep_misses as f64));
    let (hits, misses) = refs.iter().fold((0, 0), |(h, m), a| {
        (h + a.cache.sel_hits, m + a.cache.sel_misses)
    });
    facts.insert(
        "core.selection_hit_ratio",
        hits as f64 / ((hits + misses) as f64).max(1.0),
    );
    facts.insert(
        "store.rows_scanned",
        mean(&|a| (a.backend_ops.scans * rows as u64) as f64),
    );
}

// ---------------------------------------------------------------------
// cold_tall / cold_wide
// ---------------------------------------------------------------------

/// Plan of the two in-process cold workloads.
pub struct ColdPlan {
    id: WorkloadId,
    size: Sizing,
    contexts: Vec<String>,
    refs: Vec<Advice>,
    digests: Vec<u64>,
}

impl Plan for ColdPlan {
    fn build(id: WorkloadId, seed: u64, size: Sizing) -> Result<ColdPlan, String> {
        let contexts = match id {
            WorkloadId::ColdTall => {
                gen::voc_contexts(&gen::TALL_SHAPES, size.per_cycle, &mut Rng::new(seed, 1))
            }
            _ => gen::sweep_contexts(size.columns, size.per_cycle, &mut Rng::new(seed, 2)),
        };
        let mut plan = ColdPlan {
            id,
            size,
            contexts,
            refs: Vec::new(),
            digests: Vec::new(),
        };
        let table = plan.table();
        plan.refs = oracle::single_threaded(|| {
            plan.contexts
                .iter()
                .map(|sdl| oracle::reference(&table, sdl))
                .collect::<Result<_, _>>()
        })?;
        plan.digests = plan.refs.iter().map(advice_digest).collect();
        Ok(plan)
    }

    fn table(&self) -> Table {
        match self.id {
            WorkloadId::ColdTall => voc_table(self.size.rows, TABLE_SEED),
            _ => sweep_table(self.size.rows, self.size.columns, TABLE_SEED),
        }
    }

    fn contexts(&self) -> Vec<&str> {
        self.contexts.iter().map(String::as_str).collect()
    }

    fn references(&self) -> &[Advice] {
        &self.refs
    }
}

/// In-process cold advice: `Advisor::advise_str` on a fresh `Explorer`
/// per op, no `AdviceCache`.
pub struct Cold {
    plan: Arc<ColdPlan>,
    backend: Arc<dyn Backend>,
    rec: Option<Arc<Recorder>>,
}

impl Cold {
    fn run(&self, ops: usize, out: &mut Samples) {
        let advisor = Advisor::new(self.backend.as_ref());
        for i in (0..self.plan.contexts.len()).cycle().take(ops) {
            let sdl = &self.plan.contexts[i];
            let (answer, cost) = trace::op(self.rec.as_deref(), || advisor.advise_str(sdl));
            let verdict = match answer {
                Ok(advice) if advice_digest(&advice) == self.plan.digests[i] => Ok(()),
                Ok(_) => Err(format!("digest mismatch on {sdl}")),
                Err(e) => Err(format!("advise failed on {sdl}: {e}")),
            };
            out.op_step(verdict, cost, true);
        }
    }
}

impl Workload for Cold {
    type Plan = ColdPlan;

    fn setup(plan: Arc<ColdPlan>, env: &Env, facts: &mut Facts) -> Result<Cold, String> {
        let (table, build_s) = timed(|| plan.table());
        facts.insert("datagen.build_s", build_s);
        let cold = Cold {
            backend: env.backend(table),
            rec: env.rec.clone(),
            plan,
        };
        let mut warm = Samples::default();
        cold.run(cold.plan.size.warmup, &mut warm);
        match warm.first_failure {
            Some(why) => Err(format!("warm-up: {why}")),
            None => Ok(cold),
        }
    }

    fn cycle(&mut self, out: &mut Samples) {
        self.run(self.plan.contexts.len(), out);
    }
}

// ---------------------------------------------------------------------
// session_drill
// ---------------------------------------------------------------------

/// One session: its root and the digests of the four contexts it
/// reaches — root, drill(0,0), drill(0,0) again, and drill(0,1) from
/// the root.
struct Script {
    root: String,
    digests: [u64; 4],
}

/// What a script asks and which of its contexts must come back.
const SESSION_STEPS: [(&str, usize); 6] = [
    ("start", 0),
    ("0 0", 1),
    ("0 0", 2),
    ("back", 1),
    ("back", 0),
    ("0 1", 3),
];

/// Plan of the served drill-session workload.
pub struct SessionPlan {
    size: Sizing,
    scripts: Vec<Script>,
    refs: Vec<Advice>,
}

impl Plan for SessionPlan {
    fn build(_: WorkloadId, seed: u64, size: Sizing) -> Result<SessionPlan, String> {
        let mut plan = SessionPlan {
            size,
            scripts: Vec::new(),
            refs: Vec::new(),
        };
        let table = plan.table();
        let mut rng = Rng::new(seed, 3);
        let mut seen = BTreeSet::new();
        // The dry run: a candidate root becomes a script only if every
        // drill target exists and none of its four contexts has been
        // reached before, so that every start and drill is a miss.
        oracle::single_threaded(|| {
            for candidate in 0..size.per_cycle * 4 {
                if plan.scripts.len() == size.per_cycle {
                    break;
                }
                let shape = gen::SESSION_SHAPES[candidate % gen::SESSION_SHAPES.len()];
                let root = gen::voc_context(shape, &mut rng);
                let Ok(reached) = dry_run(&table, &root) else {
                    continue;
                };
                let keys: Vec<String> = reached.iter().map(|a| a.context.to_string()).collect();
                if keys.iter().any(|k| seen.contains(k))
                    || keys.iter().collect::<BTreeSet<_>>().len() < keys.len()
                {
                    continue;
                }
                seen.extend(keys);
                let digests = [0, 1, 2, 3].map(|i| advice_digest(&reached[i]));
                plan.scripts.push(Script { root, digests });
                plan.refs.extend(reached);
            }
        });
        if plan.scripts.len() < size.per_cycle {
            return Err(format!(
                "only {} of {} session roots survived the dry run",
                plan.scripts.len(),
                size.per_cycle
            ));
        }
        Ok(plan)
    }

    fn table(&self) -> Table {
        voc_table(self.size.rows, TABLE_SEED)
    }

    fn contexts(&self) -> Vec<&str> {
        self.scripts.iter().map(|s| s.root.as_str()).collect()
    }

    fn references(&self) -> &[Advice] {
        &self.refs
    }
}

/// Replay one session script in-process the way the server will run it
/// (every context canonicalized before advising): the four advices the
/// script reaches, or `Err` if a drill target does not exist.
fn dry_run(table: &Table, root: &str) -> Result<Vec<Advice>, String> {
    let root = parse_query(root, Backend::schema(table)).map_err(|e| e.to_string())?;
    let target = |from: &Advice, seg: usize| {
        from.segment(0, seg)
            .cloned()
            .ok_or_else(|| format!("no segment (0,{seg}) under {}", from.context))
    };
    let a0 = oracle::reference_query(table, root.canonicalized())?;
    let a1 = oracle::reference_query(table, target(&a0, 0)?.canonicalized())?;
    let a2 = oracle::reference_query(table, target(&a1, 0)?.canonicalized())?;
    let a3 = oracle::reference_query(table, target(&a0, 1)?.canonicalized())?;
    Ok(vec![a0, a1, a2, a3])
}

/// Drill sessions over the HTTP/JSON listener, on a `DiskTable`, by one
/// keep-alive client. Every cycle boots a fresh server over the same
/// open table, so the advice cache starts empty and the session list
/// can repeat exactly.
pub struct Session {
    plan: Arc<SessionPlan>,
    backend: Arc<dyn Backend>,
    rec: Option<Arc<Recorder>>,
    file: PathBuf,
    /// What the last cycle's server counted.
    last: Option<(AdviceCacheStats, MetricsSnapshot)>,
}

/// `ServeConfig.workers = 2` is the benchmark's single override of a
/// program default: the box has two cores.
fn serve_config() -> ServeConfig {
    ServeConfig {
        workers: 2,
        ..ServeConfig::default()
    }
}

fn boot(backend: &Arc<dyn Backend>, wire: bool) -> Result<ServerHandle, String> {
    let server = Server::bind("127.0.0.1:0", Arc::clone(backend), serve_config());
    let server = match wire {
        true => server.and_then(|s| s.with_wire_listener("127.0.0.1:0")),
        false => server,
    };
    server
        .and_then(Server::spawn)
        .map_err(|e| format!("server boot failed: {e}"))
}

impl Session {
    /// Boot a server, run `scripts` sessions on one keep-alive client,
    /// shut the server down. The client is dropped first: a keep-alive
    /// socket left open pins one of the two workers for `read_timeout`.
    fn serve(&mut self, scripts: usize, out: &mut Samples) -> Result<(), String> {
        let server = boot(&self.backend, false)?;
        let mut client = Client::new(server.addr(), ClientConfig::default())
            .map_err(|e| format!("client: {e}"))?;
        for script in self.plan.scripts.iter().cycle().take(scripts) {
            run_script(&mut client, script, self.rec.as_deref(), out);
        }
        drop(client);
        self.last = Some((server.cache().stats(), server.metrics().snapshot()));
        server.shutdown();
        Ok(())
    }
}

fn run_script(client: &mut Client, script: &Script, rec: Option<&Recorder>, out: &mut Samples) {
    let mut id = String::new();
    for (step, expect) in SESSION_STEPS {
        let (path, body) = match step {
            "start" => ("/session".to_string(), script.root.as_str()),
            "back" => (format!("/session/{id}/back"), ""),
            drill => (format!("/session/{id}/drill"), drill),
        };
        let (reply, cost) = trace::op(rec, || client.request("POST", &path, body));
        let verdict = reply.map_err(|e| e.to_string()).and_then(|r| {
            let want = if step == "start" { 201 } else { 200 };
            let advice = oracle::envelope_advice(&r.body)
                .filter(|_| r.status == want)
                .ok_or_else(|| format!("status {} body {:.120}", r.status, r.body))?;
            if digest(advice.as_bytes()) != script.digests[expect] {
                return Err("digest mismatch".to_string());
            }
            if step == "start" {
                id = oracle::envelope_session(&r.body).unwrap_or("").to_string();
            }
            Ok(())
        });
        let verdict = verdict.map_err(|e| format!("{step} on {}: {e}", script.root));
        out.op_step(verdict, cost, true);
    }
    let (reply, cost) = trace::op(None, || {
        client.request("DELETE", &format!("/session/{id}"), "")
    });
    let verdict = match reply {
        Ok(r) if r.status == 204 => Ok(()),
        Ok(r) => Err(format!("delete answered {}", r.status)),
        Err(e) => Err(format!("delete: {e}")),
    };
    out.op_step(verdict, cost, false);
}

/// Median unpipelined round trip of a cache hit over HTTP: a session on
/// `root`, then drill/back pairs that are all hits after the first.
/// Informational — request/response ping-pong over loopback does
/// not repeat on a small VM.
fn http_hit_rtt_us(client: &mut Client, root: &str) -> Option<f64> {
    let started = client.request("POST", "/session", root).ok()?;
    let id = oracle::envelope_session(&started.body)?.to_string();
    let mut rtts = Vec::new();
    for i in 0..400 {
        let (path, body) = match i % 2 {
            0 => (format!("/session/{id}/drill"), "0 0"),
            _ => (format!("/session/{id}/back"), ""),
        };
        let t0 = Instant::now();
        let reply = client.request("POST", &path, body).ok()?;
        if reply.status == 200 && i >= 2 {
            rtts.push(t0.elapsed().as_secs_f64() * 1e6);
        }
    }
    client
        .request("DELETE", &format!("/session/{id}"), "")
        .ok()?;
    Some(crate::stats::median(&rtts))
}

impl Workload for Session {
    type Plan = SessionPlan;

    fn setup(plan: Arc<SessionPlan>, env: &Env, facts: &mut Facts) -> Result<Session, String> {
        let (table, build_s) = timed(|| plan.table());
        facts.insert("datagen.build_s", build_s);
        std::fs::create_dir_all(&env.out_dir).map_err(|e| format!("out dir: {e}"))?;
        let file = env
            .out_dir
            .join(format!("session_drill-{}.charles", std::process::id()));
        let (written, write_s) = timed(|| write_table(&table, &file));
        written.map_err(|e| format!("write {}: {e}", file.display()))?;
        drop(table);
        facts.insert("store.disk.write_s", write_s);
        let bytes = std::fs::metadata(&file).map_or(0, |m| m.len());
        facts.insert("store.disk.file_mb", bytes as f64 / (1024.0 * 1024.0));
        let (disk, open_s) = timed(|| DiskTable::open(&file));
        let disk = disk.map_err(|e| format!("open {}: {e}", file.display()))?;
        facts.insert("store.disk.open_ms", open_s * 1e3);
        // First touch: the first advice on the fresh handle faults in
        // every column it mentions.
        let (first, touch_s) = timed(|| Advisor::new(&disk).advise_str(&plan.scripts[0].root));
        first.map_err(|e| format!("first touch: {e}"))?;
        facts.insert("store.disk.first_touch_ms", touch_s * 1e3);
        let mut session = Session {
            backend: env.backend(disk),
            rec: env.rec.clone(),
            file,
            last: None,
            plan,
        };
        let mut warm = Samples::default();
        session.serve(session.plan.size.warmup, &mut warm)?;
        match warm.first_failure {
            Some(why) => Err(format!("warm-up: {why}")),
            None => Ok(session),
        }
    }

    fn cycle(&mut self, out: &mut Samples) {
        let scripts = self.plan.scripts.len();
        if let Err(why) = self.serve(scripts, out) {
            out.op(Err(why), None);
        }
    }

    fn probe(&mut self, facts: &mut Facts) {
        let Ok(server) = boot(&self.backend, false) else {
            return;
        };
        if let Ok(mut client) = Client::new(server.addr(), ClientConfig::default()) {
            let rtt = http_hit_rtt_us(&mut client, &self.plan.scripts[0].root);
            facts.insert("serve.http.hit_rtt_us", rtt.unwrap_or(0.0));
        }
        server.shutdown();
    }

    fn finish(self, facts: &mut Facts) {
        if let Some((cache, served)) = self.last {
            cache_facts(cache, facts);
            served_facts(served, facts);
        }
    }
}

impl Drop for Session {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.file);
    }
}

fn cache_facts(cache: AdviceCacheStats, facts: &mut Facts) {
    facts.insert("core.cache_hits", cache.hits as f64);
    facts.insert("core.cache_misses", cache.misses as f64);
    facts.insert("core.cache_runs", cache.runs as f64);
    facts.insert("core.cache_evictions", cache.evictions as f64);
}

fn served_facts(served: MetricsSnapshot, facts: &mut Facts) {
    facts.insert("serve.requests", served.requests as f64);
    facts.insert("serve.responses_5xx", served.responses_5xx as f64);
    facts.insert("serve.connections", served.connections as f64);
}

// ---------------------------------------------------------------------
// hot_wire
// ---------------------------------------------------------------------

/// One hot root: its SDL, its validated drill targets, and the JSON
/// digests of the advice each must return.
struct HotRoot {
    sdl: String,
    digest: u64,
    targets: Vec<(u32, u32, u64)>,
}

/// Hot sessions kept open for the whole run.
const HOT_SESSIONS: usize = 8;

/// Plan of the pipelined hot-path workload.
pub struct WirePlan {
    size: Sizing,
    roots: Vec<HotRoot>,
    schedule: Vec<Vec<Frame>>,
    refs: Vec<Advice>,
}

impl Plan for WirePlan {
    fn build(_: WorkloadId, seed: u64, size: Sizing) -> Result<WirePlan, String> {
        let mut plan = WirePlan {
            size,
            roots: Vec::new(),
            schedule: Vec::new(),
            refs: Vec::new(),
        };
        let table = plan.table();
        let mut rng = Rng::new(seed, 5);
        let schema = Backend::schema(&table).clone();
        oracle::single_threaded(|| -> Result<(), String> {
            for sdl in gen::voc_contexts(&gen::HOT_SHAPES, HOT_SESSIONS, &mut rng) {
                let root = parse_query(&sdl, &schema).map_err(|e| e.to_string())?;
                let advice = oracle::reference_query(&table, root.canonicalized())?;
                let mut targets = Vec::new();
                for (rank, seg) in [(0, 0), (0, 1), (1, 0), (1, 1)] {
                    let Some(target) = advice.segment(rank, seg) else {
                        continue;
                    };
                    let drilled = oracle::reference_query(&table, target.canonicalized())?;
                    targets.push((rank as u32, seg as u32, advice_digest(&drilled)));
                    plan.refs.push(drilled);
                }
                if targets.is_empty() {
                    return Err(format!("hot root {sdl} has no drill target"));
                }
                plan.roots.push(HotRoot {
                    sdl,
                    digest: advice_digest(&advice),
                    targets,
                });
                plan.refs.push(advice);
            }
            Ok(())
        })?;
        let fanout: Vec<usize> = plan.roots.iter().map(|r| r.targets.len()).collect();
        plan.schedule =
            gen::wire_schedule(size.per_cycle, size.depth, &fanout, &mut Rng::new(seed, 4));
        Ok(plan)
    }

    fn table(&self) -> Table {
        voc_table(self.size.rows, TABLE_SEED)
    }

    fn contexts(&self) -> Vec<&str> {
        self.roots.iter().map(|r| r.sdl.as_str()).collect()
    }

    fn references(&self) -> &[Advice] {
        &self.refs
    }
}

/// A pipelined wire connection built from the protocol's public parts
/// (`WireRequest::encode`, `read_frame`, `summarize_response`). It is
/// `WireConn` with one difference the oracle needs: the raw payload of
/// each response stays readable, so every frame's advice bytes can be
/// digested without paying for a full decode.
struct PipeConn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    staged: Vec<u8>,
    payload: Vec<u8>,
}

impl PipeConn {
    fn connect(addr: std::net::SocketAddr) -> std::io::Result<PipeConn> {
        let config = ClientConfig::default();
        let stream = TcpStream::connect_timeout(&addr, config.connect_timeout)?;
        stream.set_read_timeout(Some(config.read_timeout))?;
        stream.set_write_timeout(Some(config.write_timeout))?;
        stream.set_nodelay(config.nodelay)?;
        Ok(PipeConn {
            reader: BufReader::new(stream.try_clone()?),
            writer: stream,
            staged: Vec::new(),
            payload: Vec::new(),
        })
    }

    fn stage(&mut self, request: &WireRequest<'_>) {
        request.encode(&mut self.staged);
    }

    fn flush(&mut self) -> std::io::Result<()> {
        let sent = self.writer.write_all(&self.staged);
        self.staged.clear();
        sent
    }

    /// Read the next frame: its opcode, with the payload left in
    /// `self.payload`.
    fn read(&mut self) -> Result<u8, String> {
        wire::read_frame(
            &mut self.reader,
            &mut self.payload,
            wire::MAX_RESPONSE_PAYLOAD,
        )
        .map_err(|e| e.to_string())
    }

    /// Envelope of the frame just read: status, session id, and the
    /// digest of the advice bytes that follow the id (0 if none).
    fn envelope(&self, opcode: u8) -> Result<(u16, String, u64), String> {
        let summary = wire::summarize_response(opcode, &self.payload).map_err(|e| e.to_string())?;
        if let Some(error) = summary.error {
            return Err(format!("status {}: {error}", summary.status));
        }
        let id = summary.session_id.unwrap_or_default();
        // Session replies are `string id` then the advice: a u32 length,
        // the id bytes, and everything after is advice.
        let raw = match id.is_empty() {
            true => 0,
            false => digest(&self.payload[4 + id.len()..]),
        };
        Ok((summary.status, id, raw))
    }

    /// One unpipelined exchange, fully decoded: the session id, the
    /// advice re-rendered as JSON and digested (the wire ⇔ JSON
    /// check), and the raw-bytes digest later frames are compared to.
    fn exchange(&mut self, request: &WireRequest<'_>) -> Result<(String, u64, u64), String> {
        self.stage(request);
        self.flush().map_err(|e| e.to_string())?;
        let opcode = self.read()?;
        let (_, id, raw) = self.envelope(opcode)?;
        match WireResponse::decode(opcode, &self.payload).map_err(|e| e.to_string())? {
            WireResponse::Started { advice, .. } | WireResponse::Advice { advice, .. } => {
                Ok((id, digest(advice.to_json().as_bytes()), raw))
            }
            other => Err(format!("unexpected reply {other:?}")),
        }
    }
}

/// One hot session as the server knows it.
struct HotSession {
    id: String,
    root_raw: u64,
    target_raw: Vec<u64>,
}

/// Cached advice over one pipelined wire connection.
pub struct Wire {
    plan: Arc<WirePlan>,
    /// Declared (so dropped) before the server: a set-up that is thrown
    /// away must not leave its server waiting on an open connection.
    conn: PipeConn,
    server: ServerHandle,
    hot: Vec<HotSession>,
    /// The session the previous batch started; the next batch deletes it.
    pending: String,
    rec: Option<Arc<Recorder>>,
    settled: AdviceCacheStats,
}

impl Wire {
    fn batch(&mut self, frames: &[Frame], out: &mut Samples) {
        let rec = self.rec.clone();
        let rec = rec.as_deref();
        let span = |name, f: &mut dyn FnMut()| match rec {
            Some(r) => r.span(name, f),
            None => f(),
        };
        // A batch is one step: its wall time runs from the flush to the
        // last reply, its CPU time covers the staging too.
        let (flush_to_last, cost) = trace::op(rec, || {
            span("serve.wire.stage", &mut || {
                for frame in frames {
                    let request = match *frame {
                        Frame::Start { root } => WireRequest::Start {
                            body: &self.plan.roots[root].sdl,
                        },
                        Frame::Drill { session, target } => {
                            let (rank, seg, _) = self.plan.roots[session].targets[target];
                            WireRequest::Drill {
                                id: &self.hot[session].id,
                                rank,
                                seg,
                            }
                        }
                        Frame::Back { session } => WireRequest::Back {
                            id: &self.hot[session].id,
                        },
                        Frame::Delete => WireRequest::Delete { id: &self.pending },
                    };
                    request.encode(&mut self.conn.staged);
                }
            });
            // A frame's latency runs from its batch's flush to its reply.
            let flushed = Instant::now();
            let mut sent = Ok(());
            span("serve.wire.flush", &mut || sent = self.conn.flush());
            if let Err(e) = sent {
                for frame in frames {
                    let advice = !matches!(frame, Frame::Delete);
                    out.op(Err(format!("flush: {e}")), advice.then_some(Duration::ZERO));
                }
                return None;
            }
            span("serve.wire.recv", &mut || {
                for frame in frames {
                    let reply = self.conn.read().and_then(|op| self.conn.envelope(op));
                    let latency = flushed.elapsed();
                    let verdict = reply.and_then(|(status, id, raw)| {
                        let (want_status, want_id, want_raw) = match *frame {
                            Frame::Start { root } => (201, None, self.hot[root].root_raw),
                            Frame::Drill { session, target } => {
                                let hot = &self.hot[session];
                                (200, Some(&hot.id), hot.target_raw[target])
                            }
                            Frame::Back { session } => {
                                let hot = &self.hot[session];
                                (200, Some(&hot.id), hot.root_raw)
                            }
                            Frame::Delete => (204, None, 0),
                        };
                        if status != want_status || want_id.is_some_and(|w| *w != id) {
                            return Err(format!("{frame:?} answered {status} for {id:?}"));
                        }
                        if raw != want_raw {
                            return Err(format!("{frame:?}: digest mismatch"));
                        }
                        if matches!(frame, Frame::Start { .. }) {
                            self.pending = id;
                        }
                        Ok(())
                    });
                    let advice = !matches!(frame, Frame::Delete);
                    out.op(verdict, advice.then_some(latency));
                }
            });
            Some(flushed.elapsed())
        });
        if let Some(wall) = flush_to_last {
            out.step(wall, cost.cpu_ns);
        }
    }

    fn run(&mut self, batches: usize, out: &mut Samples) {
        let plan = Arc::clone(&self.plan);
        for frames in plan.schedule.iter().cycle().take(batches) {
            self.batch(frames, out);
        }
    }
}

impl Workload for Wire {
    type Plan = WirePlan;

    fn setup(plan: Arc<WirePlan>, env: &Env, facts: &mut Facts) -> Result<Wire, String> {
        let (table, build_s) = timed(|| plan.table());
        facts.insert("datagen.build_s", build_s);
        let server = boot(&env.backend(table), true)?;
        let addr = server.wire_addr().ok_or("no wire listener")?;
        let mut conn = PipeConn::connect(addr).map_err(|e| format!("wire connect: {e}"))?;
        // Cache fill: start every hot session and visit each of its
        // drill targets once, fully decoded and checked against the
        // reference — after this every frame of the schedule is a hit.
        let mut hot = Vec::new();
        for root in &plan.roots {
            let mismatch = |what: &str| format!("cache fill: {what} mismatch on {}", root.sdl);
            let (id, json, root_raw) = conn.exchange(&WireRequest::Start { body: &root.sdl })?;
            if json != root.digest {
                return Err(mismatch("root"));
            }
            let mut target_raw = Vec::new();
            for &(rank, seg, want) in &root.targets {
                let (_, json, raw) = conn.exchange(&WireRequest::Drill { id: &id, rank, seg })?;
                if json != want {
                    return Err(mismatch("target"));
                }
                target_raw.push(raw);
                let (_, json, raw) = conn.exchange(&WireRequest::Back { id: &id })?;
                if json != root.digest || raw != root_raw {
                    return Err(mismatch("back"));
                }
            }
            hot.push(HotSession {
                id,
                root_raw,
                target_raw,
            });
        }
        let (pending, _, _) = conn.exchange(&WireRequest::Start {
            body: &plan.roots[0].sdl,
        })?;
        let mut wire = Wire {
            settled: server.cache().stats(),
            server,
            conn,
            hot,
            pending,
            rec: env.rec.clone(),
            plan,
        };
        let mut warm = Samples::default();
        wire.run(wire.plan.size.warmup, &mut warm);
        wire.settled = wire.server.cache().stats();
        match warm.first_failure {
            Some(why) => Err(format!("warm-up: {why}")),
            None => Ok(wire),
        }
    }

    fn cycle(&mut self, out: &mut Samples) {
        self.run(self.plan.schedule.len(), out);
    }

    fn probe(&mut self, facts: &mut Facts) {
        let hot = &self.hot[0];
        let (rank, seg, _) = self.plan.roots[0].targets[0];
        // Unpipelined hit round trips over each listener (informational).
        let mut rtts = Vec::new();
        let mut opcode = 0;
        for i in 0..400 {
            let request = match i % 2 {
                0 => WireRequest::Drill {
                    id: &hot.id,
                    rank,
                    seg,
                },
                _ => WireRequest::Back { id: &hot.id },
            };
            let t0 = Instant::now();
            self.conn.stage(&request);
            if self.conn.flush().is_err() {
                return;
            }
            let Ok(op) = self.conn.read() else {
                return;
            };
            opcode = op;
            rtts.push(t0.elapsed().as_secs_f64() * 1e6);
        }
        facts.insert("serve.wire.hit_rtt_us", crate::stats::median(&rtts));
        if let Ok(mut client) = Client::new(self.server.addr(), ClientConfig::default()) {
            let rtt = http_hit_rtt_us(&mut client, &self.plan.roots[0].sdl);
            facts.insert("serve.http.hit_rtt_us", rtt.unwrap_or(0.0));
        }
        // Encode and decode cost of a real advice frame: the last reply
        // above, the root advice of hot session 0.
        let Ok(reply) = WireResponse::decode(opcode, &self.conn.payload) else {
            return;
        };
        let mut buf = Vec::new();
        let encode_us = mean_us(2_000, || {
            buf.clear();
            black_box(&reply).encode(&mut buf);
        });
        let decode_us = mean_us(2_000, || {
            black_box(WireResponse::decode(opcode, black_box(&self.conn.payload))).ok();
        });
        facts.insert("serve.wire.encode_us", encode_us);
        facts.insert("serve.wire.decode_us", decode_us);
        facts.insert("serve.wire.bytes", buf.len() as f64);
    }

    fn finish(self, facts: &mut Facts) {
        // Cache counters *inside the window*: everything since warm-up.
        let now = self.server.cache().stats();
        cache_facts(
            AdviceCacheStats {
                hits: now.hits - self.settled.hits,
                misses: now.misses - self.settled.misses,
                runs: now.runs - self.settled.runs,
                evictions: now.evictions - self.settled.evictions,
            },
            facts,
        );
        served_facts(self.server.metrics().snapshot(), facts);
        drop(self.conn);
        self.server.shutdown();
    }
}
