//! The `--quick` smoke run: every workload, end to end and traced, must
//! emit every metric of its kind — finite, with its unit — pass the
//! oracle on every op, and exit 0.

use charles_benchmark::metrics::{MetricDef, END_TO_END, PER_LAYER};
use charles_benchmark::noise::metric_value;
use std::path::PathBuf;
use std::process::Command;

fn quick(workload: &str, trace: &str) -> String {
    let out_dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("quick-{workload}"));
    let output = Command::new(env!("CARGO_BIN_EXE_charles-benchmark"))
        .args(["--workload", workload, "--seed", "3", "--seconds", "0.2"])
        .args(["--trace", trace, "--quick", "--out"])
        .arg(&out_dir)
        .output()
        .expect("spawn charles-benchmark");
    let stdout = String::from_utf8(output.stdout).expect("utf-8 report");
    assert!(
        output.status.success(),
        "{workload} --trace {trace} exited with {}:\n{stdout}\n{}",
        output.status,
        String::from_utf8_lossy(&output.stderr)
    );
    if trace == "1" {
        let spans = std::fs::read_to_string(out_dir.join(format!("trace-{workload}.jsonl")))
            .expect("span file written");
        assert!(spans.lines().count() > 1);
        assert!(spans.lines().all(|l| l.starts_with("{\"op_id\":")
            && l.contains("\"name\":\"")
            && l.contains("\"parent\":")
            && l.contains("\"start_ns\":")
            && l.ends_with('}')));
        assert!(spans.contains("\"name\":\"op\",\"parent\":null"));
    }
    stdout.lines().last().expect("a result line").to_string()
}

fn assert_reports(line: &str, defs: &[MetricDef], absent: &[MetricDef]) {
    assert!(
        line.starts_with("{\"correct\": true, \"attempted\": "),
        "{line}"
    );
    assert!(line.contains("\"failed\": 0, \"metrics\": {"), "{line}");
    for def in defs {
        let value = metric_value(line, def.name).unwrap_or_else(|| panic!("{} missing", def.name));
        // A difference of two noisy cycles (`trace.overhead_pct`) may
        // read below zero; everything else is a count, a time or a share.
        let signed = def.name == "trace.overhead_pct";
        assert!(
            value.is_finite() && (signed || value >= 0.0),
            "{} = {value}",
            def.name
        );
        let with_unit = format!("\"{}\": {{\"value\": ", def.name);
        let after = line.split(&with_unit).nth(1).unwrap();
        assert!(
            after
                .split('}')
                .next()
                .unwrap()
                .ends_with(&format!("\"unit\": \"{}\"", def.unit)),
            "{} lacks unit {}",
            def.name,
            def.unit
        );
    }
    for def in absent {
        assert_eq!(metric_value(line, def.name), None, "{} leaked", def.name);
    }
}

fn check(workload: &str) -> (String, String) {
    let end_to_end = quick(workload, "0");
    assert_reports(&end_to_end, &END_TO_END, &PER_LAYER);
    for def in END_TO_END {
        let value = metric_value(&end_to_end, def.name).unwrap();
        assert!(value > 0.0, "{workload}: {} must never read 0", def.name);
    }
    let traced = quick(workload, "1");
    assert_reports(&traced, &PER_LAYER, &END_TO_END);
    assert!(metric_value(&traced, "trace.coverage_pct").unwrap() > 50.0);
    assert_eq!(metric_value(&traced, "trace.orphan_spans"), Some(0.0));
    (end_to_end, traced)
}

#[test]
fn cold_tall_quick_run_reports_everything() {
    let (_, traced) = check("cold_tall");
    assert!(metric_value(&traced, "store.eval.calls").unwrap() > 0.0);
    assert!(metric_value(&traced, "store.backend_busy_pct").unwrap() > 0.0);
    assert_eq!(metric_value(&traced, "serve.requests"), Some(0.0));
}

#[test]
fn cold_wide_quick_run_reports_everything() {
    let (_, traced) = check("cold_wide");
    assert!(metric_value(&traced, "core.advise_self_ms").unwrap() > 0.0);
    assert!(metric_value(&traced, "core.compose_steps").unwrap() > 0.0);
}

#[test]
fn session_drill_quick_run_reports_everything() {
    let (_, traced) = check("session_drill");
    // Four of a session's six advice replies are misses, by construction.
    let share = metric_value(&traced, "serve.miss_share_pct").unwrap();
    assert!((share - 66.7).abs() < 2.0, "miss share {share}");
    assert!(metric_value(&traced, "store.disk.file_mb").unwrap() > 0.0);
    assert!(metric_value(&traced, "serve.requests").unwrap() > 0.0);
    assert_eq!(metric_value(&traced, "serve.responses_5xx"), Some(0.0));
}

#[test]
fn hot_wire_quick_run_reports_everything() {
    let (_, traced) = check("hot_wire");
    // The window is all hits: the store does nothing.
    assert_eq!(metric_value(&traced, "core.cache_misses"), Some(0.0));
    assert_eq!(metric_value(&traced, "store.backend_busy_pct"), Some(0.0));
    assert!(metric_value(&traced, "core.cache_hits").unwrap() > 0.0);
    assert!(metric_value(&traced, "serve.wire.recv_us").unwrap() > 0.0);
    assert!(metric_value(&traced, "serve.wire.bytes").unwrap() > 0.0);
}
