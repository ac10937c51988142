//! Every metric the benchmark reports, by name — the single source
//! `BENCHMARK.json`, the report printer and the noise check read from.
//! Every later performance claim in this repo is "metric X on workload
//! Y" using these names.

use crate::workloads::WorkloadId;
use charles_serve::json::json_string;

/// One metric's definition.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    /// Verbatim name.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
    /// Share of the parent's median by which the metric may get worse
    /// before a change is rejected (end-to-end metrics only).
    pub bound: f64,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    bound: f64,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> MetricDef {
    e2e(name, unit, better, 0.0)
}

/// How long one run measures (seconds); `BENCHMARK.json`'s `run_seconds`.
pub const RUN_SECONDS: u32 = 20;

/// The six end-to-end metrics, the same on every workload.
///
/// The bounds are what the shared 2-vCPU box supports: with every time
/// read at its floor over the window's cycles, ten runs on ten seeds
/// spread 0.5–14.5% (interquartile), and the driver asks for spreads under
/// a third of the bound and refuses a benchmark whose spread exceeds
/// it. See the noise section of `README.md`.
pub const END_TO_END: [MetricDef; 6] = [
    e2e("setup_s", "s", "lower", 0.25),
    e2e("advice_p50_ms", "ms", "lower", 0.25),
    e2e("advice_p90_ms", "ms", "lower", 0.25),
    e2e("ops_per_s", "1/s", "higher", 0.25),
    e2e("cpu_ms_per_op", "ms", "lower", 0.25),
    e2e("peak_rss_mb", "MB", "lower", 0.2),
];

/// The `Backend` op kinds that get their own `calls` / `busy_ms` pair.
pub const STORE_KINDS: [&str; 7] = [
    "eval",
    "count",
    "median",
    "min_max",
    "next_above",
    "frequencies",
    "not_null",
];

/// The per-layer metrics of the traced run, per op unless noted. Every
/// workload reports all of them; a layer a workload does not touch
/// reads 0.
pub const PER_LAYER: [MetricDef; 66] = [
    layer("sdl.parse_us", "us", "lower"),
    layer("sdl.analyze_us", "us", "lower"),
    layer("core.advise_self_ms", "ms", "lower"),
    layer("core.advise_self_pct", "%", "lower"),
    layer("core.seed_cuts", "count", "lower"),
    layer("core.compose_steps", "count", "lower"),
    layer("core.indep_probes", "count", "lower"),
    layer("core.indep_misses", "count", "lower"),
    layer("core.selection_hit_ratio", "ratio", "higher"),
    layer("core.cache_hit_us", "us", "lower"),
    layer("core.cache_hits", "count", "higher"),
    layer("core.cache_misses", "count", "lower"),
    layer("core.cache_runs", "count", "lower"),
    layer("core.cache_evictions", "count", "lower"),
    layer("store.eval.calls", "count", "lower"),
    layer("store.eval.busy_ms", "ms", "lower"),
    layer("store.count.calls", "count", "lower"),
    layer("store.count.busy_ms", "ms", "lower"),
    layer("store.median.calls", "count", "lower"),
    layer("store.median.busy_ms", "ms", "lower"),
    layer("store.min_max.calls", "count", "lower"),
    layer("store.min_max.busy_ms", "ms", "lower"),
    layer("store.next_above.calls", "count", "lower"),
    layer("store.next_above.busy_ms", "ms", "lower"),
    layer("store.frequencies.calls", "count", "lower"),
    layer("store.frequencies.busy_ms", "ms", "lower"),
    layer("store.not_null.calls", "count", "lower"),
    layer("store.not_null.busy_ms", "ms", "lower"),
    layer("store.backend_busy_pct", "%", "lower"),
    layer("store.rows_scanned", "count", "lower"),
    layer("store.bitmap.and_us", "us", "lower"),
    layer("store.bitmap.and_count_us", "us", "lower"),
    layer("store.bitmap.selection_density_pct", "%", "lower"),
    layer("store.disk.write_s", "s", "lower"),
    layer("store.disk.open_ms", "ms", "lower"),
    layer("store.disk.first_touch_ms", "ms", "lower"),
    layer("store.disk.file_mb", "MB", "lower"),
    layer("datagen.build_s", "s", "lower"),
    layer("parallel.threads", "count", "higher"),
    layer("parallel.speedup_x", "x", "higher"),
    layer("parallel.cpu_inflation_x", "x", "lower"),
    layer("parallel.par_map_spawn_us", "us", "lower"),
    layer("serve.json.encode_us", "us", "lower"),
    layer("serve.json.bytes", "B", "lower"),
    layer("serve.wire.encode_us", "us", "lower"),
    layer("serve.wire.decode_us", "us", "lower"),
    layer("serve.wire.bytes", "B", "lower"),
    layer("serve.wire.stage_us", "us", "lower"),
    layer("serve.wire.flush_us", "us", "lower"),
    layer("serve.wire.recv_us", "us", "lower"),
    layer("serve.http.parse_us", "us", "lower"),
    layer("serve.http.hit_rtt_us", "us", "lower"),
    layer("serve.wire.hit_rtt_us", "us", "lower"),
    layer("serve.miss_overhead_ms", "ms", "lower"),
    layer("serve.miss_share_pct", "%", "lower"),
    layer("serve.requests", "count", "higher"),
    layer("serve.responses_5xx", "count", "lower"),
    layer("serve.connections", "count", "lower"),
    layer("trace.ops", "count", "higher"),
    layer("trace.spans", "count", "lower"),
    layer("trace.orphan_spans", "count", "lower"),
    layer("trace.op_ms", "ms", "lower"),
    layer("trace.op_self_ms", "ms", "lower"),
    layer("trace.coverage_pct", "%", "higher"),
    layer("trace.overhead_pct", "%", "lower"),
    layer("trace.cycle_s", "s", "lower"),
];

/// The contents of `BENCHMARK.json`, generated so that the file and the
/// program cannot disagree (a test compares them).
pub fn manifest() -> String {
    let workloads: Vec<String> = WorkloadId::ALL
        .iter()
        .map(|w| {
            format!(
                "    {{\"name\": {}, \"why\": {}}}",
                json_string(w.name()),
                json_string(w.why())
            )
        })
        .collect();
    let end_to_end: Vec<String> = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": {}, \"bound\": {}}}",
                json_string(m.name),
                json_string(m.unit),
                json_string(m.better),
                m.bound
            )
        })
        .collect();
    let per_layer: Vec<String> = PER_LAYER
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": {}}}",
                json_string(m.name),
                json_string(m.unit),
                json_string(m.better)
            )
        })
        .collect();
    format!(
        "{{\n  \"command\": [\"bash\", \"benchmark/run.sh\"],\n  \"paths\": [\"benchmark\"],\n  \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \"per_layer\": [\n{}\n  ]\n}}\n",
        workloads.join(",\n"),
        end_to_end.join(",\n"),
        per_layer.join(",\n")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn well_formed(name: &str, max: usize, extra: &str) -> bool {
        !name.is_empty()
            && name.len() <= max
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || extra.contains(c))
    }

    #[test]
    fn names_and_units_meet_the_contract() {
        let mut seen = std::collections::BTreeSet::new();
        for m in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(well_formed(m.name, 64, "_.-"), "{}", m.name);
            assert!(m.name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(well_formed(m.unit, 16, "_/%.-"), "{}", m.unit);
            assert!(["lower", "higher"].contains(&m.better));
            assert!(seen.insert(m.name), "duplicate {}", m.name);
        }
        for m in END_TO_END {
            assert!(m.bound > 0.0 && m.bound <= 0.25);
        }
        assert!(PER_LAYER.len() <= 128);
        for w in WorkloadId::ALL {
            assert!(well_formed(w.name(), 64, "_.-"));
            assert!(
                w.why().len() <= 200 && !w.why().contains('\n'),
                "{}",
                w.name()
            );
        }
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s" && m.better == "lower"));
    }

    #[test]
    fn committed_manifest_is_the_generated_one() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(
            committed,
            manifest(),
            "regenerate with `benchmark/run.sh --manifest > BENCHMARK.json`"
        );
    }
}
