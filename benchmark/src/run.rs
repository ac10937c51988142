//! The two runs: end to end (tracing off, whole cycles until the window
//! is full) and traced (a second of cycles per measurement, per-layer
//! numbers only).

use crate::layers;
use crate::metrics::{MetricDef, END_TO_END, PER_LAYER, STORE_KINDS};
use crate::stats::{median, percentile, samples_beyond};
use crate::sys::{cpu_ns, peak_rss_mb};
use crate::trace::{self, Recorder};
use crate::workloads::{
    reference_facts, Cold, Env, Facts, Plan, Samples, Session, Wire, Workload, WorkloadId,
};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

/// Set-ups per end-to-end run; `setup_s` is their median. The first is
/// cold (page cache, allocator, CPU clocks), the rest are not, so the
/// median is a warm set-up and repeats far better than any single one.
const SETUP_REPS: usize = 3;

/// What to run.
#[derive(Debug, Clone)]
pub struct Opts {
    /// Which workload.
    pub workload: WorkloadId,
    /// Workload seed: the table's rows and every generated literal.
    pub seed: u64,
    /// Length of the timed window in seconds.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of end to end.
    pub trace: bool,
    /// Smoke-test sizes.
    pub quick: bool,
    /// Directory for the `.charles` file and the span files.
    pub out_dir: PathBuf,
}

/// What a run measured.
#[derive(Debug)]
pub struct Outcome {
    /// The definitions `values` follows, in order.
    pub defs: &'static [MetricDef],
    /// One value per definition.
    pub values: Vec<f64>,
    /// Ops attempted in the measured cycles.
    pub attempted: u64,
    /// Ops that failed.
    pub failed: u64,
    /// The first failure, if any.
    pub first_failure: Option<String>,
    /// Context lines for the human-readable report.
    pub notes: Vec<String>,
}

impl Outcome {
    /// Every op passed and every value is a finite number.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0 && self.values.iter().all(|v| v.is_finite())
    }

    /// The contract's result line: one JSON object.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .defs
            .iter()
            .zip(&self.values)
            .map(|(d, v)| {
                let v = if v.is_finite() { *v } else { -1.0 };
                format!(
                    "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                    d.name, d.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Run one workload as `opts` says.
pub fn run(opts: &Opts) -> Result<Outcome, String> {
    match (opts.workload, opts.trace) {
        (WorkloadId::ColdTall | WorkloadId::ColdWide, false) => end_to_end::<Cold>(opts),
        (WorkloadId::ColdTall | WorkloadId::ColdWide, true) => traced::<Cold>(opts),
        (WorkloadId::SessionDrill, false) => end_to_end::<Session>(opts),
        (WorkloadId::SessionDrill, true) => traced::<Session>(opts),
        (WorkloadId::HotWire, false) => end_to_end::<Wire>(opts),
        (WorkloadId::HotWire, true) => traced::<Wire>(opts),
    }
}

/// Put `par_map` on the thread count the workload is measured at (see
/// [`Sizing::serial`](crate::workloads::Sizing)): one, or the default.
fn ship_threads(opts: &Opts) -> bool {
    let serial = opts.workload.sizing(opts.quick).serial;
    charles_parallel::set_num_threads(usize::from(serial));
    serial
}

fn plan<W: Workload>(opts: &Opts) -> Result<Arc<W::Plan>, String> {
    let size = opts.workload.sizing(opts.quick);
    W::Plan::build(opts.workload, opts.seed, size).map(Arc::new)
}

/// The fastest pass of every op and every step over the cycles folded
/// in so far.
///
/// The ops are deterministic: the same op does the same work on every
/// cycle, and what differs between its passes is what the machine added
/// — a neighbour on the core's other thread, a vCPU that was not
/// running when a worker should have woken. On the shared box that
/// addition is never negative, is there most of the time in a busy
/// hour (the tenth percentile over cycles moved with the hour almost as
/// much as the median did), and only the floor repeats: over ten seeds
/// the medians of `cold_wide` and `hot_wire` spread 22–32% where the
/// floors spread 4–11%. A change that makes an op cheaper lowers its
/// floor; one that only adds rare stalls does not show here.
#[derive(Debug, Default)]
struct Floors {
    lat_ns: Vec<u32>,
    step_ns: Vec<u32>,
    step_cpu_ns: Vec<u32>,
}

impl Floors {
    /// Fold one cycle in and clear its vectors for the next, so the
    /// benchmark holds one cycle of samples however long the window.
    fn fold(&mut self, cycle: &mut Samples) {
        fold_min(&mut self.lat_ns, &mut cycle.lat_ns);
        fold_min(&mut self.step_ns, &mut cycle.step_ns);
        fold_min(&mut self.step_cpu_ns, &mut cycle.step_cpu_ns);
    }
}

/// Entry-wise minimum of `best` and `cycle` into `best`; zeros mark
/// failed ops and never win. A cycle of another length lost ops to a
/// failure, which the counters have, and is left out.
fn fold_min(best: &mut Vec<u32>, cycle: &mut Vec<u32>) {
    if best.is_empty() {
        best.clone_from(cycle);
    } else if best.len() == cycle.len() {
        for (b, &c) in best.iter_mut().zip(cycle.iter()) {
            if c != 0 && (*b == 0 || c < *b) {
                *b = c;
            }
        }
    }
    cycle.clear();
}

fn sum_ms(ns: &[u32]) -> f64 {
    ns.iter().map(|&v| f64::from(v)).sum::<f64>() / 1e6
}

fn end_to_end<W: Workload>(opts: &Opts) -> Result<Outcome, String> {
    let plan = plan::<W>(opts)?;
    ship_threads(opts);
    let env = Env {
        out_dir: opts.out_dir.clone(),
        rec: None,
    };
    let mut setups = Vec::new();
    let mut live = None;
    for _ in 0..SETUP_REPS {
        drop(live.take());
        let t0 = Instant::now();
        live = Some(W::setup(Arc::clone(&plan), &env, &mut Facts::new())?);
        setups.push(t0.elapsed().as_secs_f64());
    }
    let mut live = live.expect("SETUP_REPS ≥ 1");

    // The window: whole cycles, closed loop, until `seconds` have passed.
    let mut samples = Samples::default();
    let mut floors = Floors::default();
    let mut cycles = 0;
    let cpu0 = cpu_ns();
    let t0 = Instant::now();
    while cycles == 0 || t0.elapsed().as_secs_f64() < opts.seconds {
        live.cycle(&mut samples);
        floors.fold(&mut samples);
        cycles += 1;
    }
    let wall_s = t0.elapsed().as_secs_f64();
    let cpu_ms = (cpu_ns() - cpu0) as f64 / 1e6;
    live.finish(&mut Facts::new());

    // The percentiles are over the ops of a cycle, each at its floor;
    // the rate and the CPU per op are those of a cycle in which every
    // step runs at its floor.
    let mut best_ms: Vec<f64> = floors
        .lat_ns
        .iter()
        .filter(|&&v| v > 0)
        .map(|&v| f64::from(v) / 1e6)
        .collect();
    best_ms.sort_by(f64::total_cmp);
    let cycle_s = sum_ms(&floors.step_ns) / 1e3;
    let ops_per_cycle = samples.attempted as f64 / cycles as f64;
    let values = vec![
        median(&setups),
        percentile(&best_ms, 50.0).unwrap_or(f64::NAN),
        percentile(&best_ms, 90.0).unwrap_or(f64::NAN),
        ops_per_cycle / cycle_s,
        sum_ms(&floors.step_cpu_ns) / ops_per_cycle,
        peak_rss_mb(),
    ];
    let notes = vec![
        format!(
            "window {wall_s:.2} s, {cycles} cycles of {ops_per_cycle} ops, {} par_map threads",
            charles_parallel::num_threads()
        ),
        format!(
            "{} advice ops per cycle, each at its fastest of {cycles} passes; {} of them beyond p90",
            best_ms.len(),
            samples_beyond(best_ms.len(), 90.0)
        ),
        format!(
            "fastest passes, ms: {}",
            match best_ms.len() {
                0..=32 => best_ms
                    .iter()
                    .map(|ms| format!("{ms:.1}"))
                    .collect::<Vec<_>>()
                    .join(" "),
                n => format!("{n} ops, not listed"),
            }
        ),
        format!(
            "whole window, the machine's additions included: {:.4} ops/s, {:.4} CPU ms per op",
            samples.attempted as f64 / wall_s,
            cpu_ms / samples.attempted as f64
        ),
        format!(
            "set-ups: {}",
            setups
                .iter()
                .map(|s| format!("{s:.3} s"))
                .collect::<Vec<_>>()
                .join(", ")
        ),
    ];
    Ok(Outcome {
        defs: &END_TO_END,
        values,
        attempted: samples.attempted,
        failed: samples.failed,
        first_failure: samples.first_failure,
        notes,
    })
}

/// Whole cycles for at least `seconds` (at least one): what they
/// observed, and the wall seconds and CPU milliseconds of the fastest
/// cycle (see [`Floors`]).
fn measured_cycles<W: Workload>(live: &mut W, seconds: f64) -> (Samples, f64, f64) {
    let mut samples = Samples::default();
    let (mut wall_s, mut cpu_ms) = (f64::INFINITY, f64::INFINITY);
    let t0 = Instant::now();
    while wall_s.is_infinite() || t0.elapsed().as_secs_f64() < seconds {
        let (cpu0, cycle_t0) = (cpu_ns(), Instant::now());
        live.cycle(&mut samples);
        wall_s = wall_s.min(cycle_t0.elapsed().as_secs_f64());
        cpu_ms = cpu_ms.min((cpu_ns() - cpu0) as f64 / 1e6);
    }
    (samples, wall_s, cpu_ms)
}

fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

fn traced<W: Workload>(opts: &Opts) -> Result<Outcome, String> {
    let mut facts = Facts::new();
    let plan = plan::<W>(opts)?;
    let rows = opts.workload.sizing(opts.quick).rows;
    reference_facts(plan.references(), rows, &mut facts);
    let rec = Recorder::new();
    let env = Env {
        out_dir: opts.out_dir.clone(),
        rec: Some(Arc::clone(&rec)),
    };
    let serial = ship_threads(opts);
    let mut live = W::setup(Arc::clone(&plan), &env, &mut facts)?;

    // The same cycles three ways: as shipped (before and after, so that
    // drift between the measurements cancels), on the other thread
    // count — one thread where the workload ships the default, the
    // default where it ships one — and traced. Only the traced ones run
    // with the recorder switched on.
    let each = if opts.quick { 0.0 } else { 1.0 };
    let (before, before_s, before_cpu) = measured_cycles(&mut live, each);
    charles_parallel::set_num_threads(usize::from(!serial));
    let (other, other_s, other_cpu) = measured_cycles(&mut live, each);
    ship_threads(opts);
    live.probe(&mut facts);
    rec.set_enabled(true);
    let (seen, traced_s, _) = measured_cycles(&mut live, each);
    rec.set_enabled(false);
    let (after, after_s, after_cpu) = measured_cycles(&mut live, each);
    let (plain_s, plain_cpu) = ((before_s + after_s) / 2.0, (before_cpu + after_cpu) / 2.0);
    let [(serial_s, serial_cpu), (default_s, default_cpu)] = match serial {
        true => [(plain_s, plain_cpu), (other_s, other_cpu)],
        false => [(other_s, other_cpu), (plain_s, plain_cpu)],
    };
    live.finish(&mut facts);
    // The replays time the program's defaults, `par_map` fan-out included.
    charles_parallel::set_num_threads(0);
    layers::probe(&*plan, &mut facts);

    let spans = trace::attribute(rec.drain());
    std::fs::create_dir_all(&opts.out_dir).map_err(|e| format!("out dir: {e}"))?;
    let file = opts
        .out_dir
        .join(format!("trace-{}.jsonl", opts.workload.name()));
    trace::write_jsonl(&file, &spans).map_err(|e| format!("write {}: {e}", file.display()))?;
    let b = trace::breakdown(&spans);

    // Per op: an op is whatever the workload counts as attempted (a
    // frame on hot_wire, where the traced unit is a 64-frame batch).
    let ops = seen.attempted.max(1) as f64;
    let per_op_ms = |ns: u64| ns as f64 / 1e6 / ops;
    let busy = |name: &str| b.by_name.get(name).copied().unwrap_or_default();
    for kind in STORE_KINDS {
        let store = busy(&format!("store.{kind}"));
        facts.insert(
            named(format!("store.{kind}.calls")),
            store.calls as f64 / ops,
        );
        facts.insert(
            named(format!("store.{kind}.busy_ms")),
            per_op_ms(store.busy_ns),
        );
    }
    for part in ["stage", "flush", "recv"] {
        let ns = busy(&format!("serve.wire.{part}")).busy_ns;
        facts.insert(named(format!("serve.wire.{part}_us")), per_op_ms(ns) * 1e3);
    }
    let op_ns = (b.op_ns as f64).max(1.0);
    facts.insert("core.advise_self_ms", per_op_ms(b.advise_self_ns));
    facts.insert(
        "core.advise_self_pct",
        100.0 * b.advise_self_ns as f64 / op_ns,
    );
    facts.insert(
        "store.backend_busy_pct",
        100.0 * b.store_busy_ns as f64 / op_ns,
    );
    // Misses: the ops with an advise run inside them.
    let misses: Vec<f64> = b
        .per_op
        .iter()
        .filter(|(_, advise)| *advise > 0)
        .map(|(op, advise)| (op - advise) as f64 / 1e6)
        .collect();
    if !misses.is_empty() {
        let overhead = misses.iter().sum::<f64>() / misses.len() as f64;
        facts.insert("serve.miss_overhead_ms", overhead);
    }
    facts.insert(
        "serve.miss_share_pct",
        100.0 * ratio(misses.len() as f64, seen.lat_ns.len() as f64),
    );
    facts.insert("parallel.threads", charles_parallel::num_threads() as f64);
    facts.insert("parallel.speedup_x", ratio(serial_s, default_s));
    facts.insert("parallel.cpu_inflation_x", ratio(default_cpu, serial_cpu));
    facts.insert("trace.ops", ops);
    facts.insert("trace.spans", spans.len() as f64);
    facts.insert("trace.orphan_spans", b.orphans as f64);
    facts.insert("trace.op_ms", per_op_ms(b.op_ns));
    facts.insert("trace.op_self_ms", per_op_ms(b.op_self_ns));
    facts.insert("trace.coverage_pct", b.coverage_pct());
    facts.insert(
        "trace.overhead_pct",
        100.0 * ratio(traced_s - plain_s, plain_s),
    );
    facts.insert("trace.cycle_s", plain_s);

    let runs = [before, other, seen, after];
    let attempted = runs.iter().map(|s| s.attempted).sum();
    let failed = runs.iter().map(|s| s.failed).sum();
    let first_failure = runs.into_iter().find_map(|s| s.first_failure);
    Ok(Outcome {
        defs: &PER_LAYER,
        values: PER_LAYER
            .iter()
            .map(|d| facts.get(d.name).copied().unwrap_or(0.0))
            .collect(),
        attempted,
        failed,
        first_failure,
        notes: vec![
            format!("{} spans written to {}", spans.len(), file.display()),
            format!(
                "fastest cycle, seconds: {before_s:.4} as shipped, {other_s:.4} on {}, \
                 {traced_s:.4} traced, {after_s:.4} as shipped again",
                if serial {
                    "the default threads"
                } else {
                    "one thread"
                }
            ),
        ],
    })
}

/// The `&'static str` of a per-layer metric name built at run time.
fn named(name: String) -> &'static str {
    PER_LAYER
        .iter()
        .find(|d| d.name == name)
        .unwrap_or_else(|| panic!("{name} is not a per-layer metric"))
        .name
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn floors_keep_the_fastest_pass_of_every_op() {
        let mut floors = Floors::default();
        let cycle = |lat: &[u32], step: &[u32]| Samples {
            lat_ns: lat.to_vec(),
            step_ns: step.to_vec(),
            step_cpu_ns: step.iter().map(|s| s * 2).collect(),
            ..Samples::default()
        };
        let mut first = cycle(&[30, 0, 50], &[31, 9, 51, 7]);
        floors.fold(&mut first);
        // Folding clears the cycle for the next pass.
        assert!(first.lat_ns.is_empty() && first.step_ns.is_empty());
        floors.fold(&mut cycle(&[40, 20, 0], &[41, 21, 5, 8]));
        // A failed op (0) never wins, and is replaced by a real sample.
        assert_eq!(floors.lat_ns, [30, 20, 50]);
        assert_eq!(floors.step_ns, [31, 9, 5, 7]);
        assert_eq!(floors.step_cpu_ns, [62, 18, 10, 14]);
        // A cycle that lost ops to a failure is left out.
        floors.fold(&mut cycle(&[1, 1], &[1, 1, 1]));
        assert_eq!(floors.lat_ns, [30, 20, 50]);
        assert_eq!(floors.step_ns, [31, 9, 5, 7]);
        assert_eq!(sum_ms(&[1_500_000, 500_000]), 2.0);
    }
}
