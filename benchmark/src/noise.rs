//! The noise self-check: run the whole suite N times in two interleaved
//! sets, every run in a fresh process and on its own seed, and compare
//! the sets the way the driver will — per metric × workload, the two
//! set medians against the metric's bound, and each set's
//! interquartile spread.

use crate::metrics::{END_TO_END, RUN_SECONDS};
use crate::run::Opts;
use crate::stats::{median, spread};
use crate::workloads::WorkloadId;
use std::path::Path;
use std::process::{Command, Stdio};

/// Run this executable as `opts` says in a fresh process and return its
/// standard output. The child's report is echoed unless `quiet`.
pub fn spawn_run(opts: &Opts, quiet: bool) -> Result<String, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", opts.workload.name()])
        .args(["--seed", &opts.seed.to_string()])
        .args(["--seconds", &opts.seconds.to_string()])
        .args(["--trace", if opts.trace { "1" } else { "0" }])
        .arg("--out")
        .arg(&opts.out_dir)
        .stdout(Stdio::piped());
    if opts.quick {
        cmd.arg("--quick");
    }
    let output = cmd.output().map_err(|e| format!("spawn: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout).into_owned();
    if !quiet {
        print!("{stdout}");
    }
    match output.status.success() {
        true => Ok(stdout),
        false => Err(format!(
            "{} seed {} exited with {}",
            opts.workload.name(),
            opts.seed,
            output.status
        )),
    }
}

/// The value of metric `name` in a result line.
pub fn metric_value(result_line: &str, name: &str) -> Option<f64> {
    let tail = result_line
        .split(&format!("\"{name}\": {{\"value\": "))
        .nth(1)?;
    tail.split([',', '}']).next()?.trim().parse().ok()
}

/// Run the check with `n` runs per set; `true` when every cell passes.
pub fn check(n: usize, quick: bool, out_dir: &Path) -> Result<bool, String> {
    let seconds = if quick { 0.2 } else { f64::from(RUN_SECONDS) };
    // values[workload][metric][set] = that set's runs.
    let mut values = vec![vec![[Vec::new(), Vec::new()]; END_TO_END.len()]; WorkloadId::ALL.len()];
    for round in 0..n {
        for set in 0..2 {
            let seed = (1 + 2 * round + set) as u64;
            for (w, workload) in WorkloadId::ALL.into_iter().enumerate() {
                let run = Opts {
                    workload,
                    seed,
                    seconds,
                    trace: false,
                    quick,
                    out_dir: out_dir.to_path_buf(),
                };
                let stdout = spawn_run(&run, true)?;
                let line = stdout.lines().last().unwrap_or_default();
                for (m, def) in END_TO_END.iter().enumerate() {
                    let v = metric_value(line, def.name)
                        .ok_or_else(|| format!("no {} in: {line}", def.name))?;
                    values[w][m][set].push(v);
                }
                eprintln!(
                    "round {round} set {} {} seed {seed} done",
                    ["A", "B"][set],
                    workload.name()
                );
            }
        }
    }
    println!(
        "{:<14} {:<14} {:>11} {:>11} {:>8} {:>9} {:>9} {:>6}  verdict",
        "workload", "metric", "median A", "median B", "B vs A", "spread A", "spread B", "bound"
    );
    let mut all_ok = true;
    for (w, workload) in WorkloadId::ALL.into_iter().enumerate() {
        for (m, def) in END_TO_END.iter().enumerate() {
            let [a, b] = &values[w][m];
            let (ma, mb) = (median(a), median(b));
            // Positive = the second set reads worse than the first.
            let worse = match def.better {
                "lower" => (mb - ma) / ma,
                _ => (ma - mb) / ma,
            };
            let (sa, sb) = (spread(a), spread(b));
            // The driver's two rules: the second median may not be worse
            // than the first by more than the bound (held here to half
            // of it, either way), and no spread but `setup_s`'s may
            // exceed its bound.
            let steady = worse.abs() <= def.bound / 2.0;
            let tight = def.name == "setup_s" || sa.max(sb) <= def.bound;
            all_ok &= steady && tight;
            println!(
                "{:<14} {:<14} {:>11.4} {:>11.4} {:>+7.2}% {:>8.2}% {:>8.2}% {:>5.0}%  {}",
                workload.name(),
                def.name,
                ma,
                mb,
                100.0 * worse,
                100.0 * sa,
                100.0 * sb,
                100.0 * def.bound,
                match (steady, tight) {
                    (true, true) if sa.max(sb) <= def.bound / 3.0 => "ok",
                    (true, true) => "ok (spread above a third of the bound)",
                    (false, _) => "FAIL: sets differ by more than half the bound",
                    (_, false) => "FAIL: spread exceeds the bound",
                }
            );
        }
    }
    Ok(all_ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_values_are_read_back_from_a_result_line() {
        let line = "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": {\"setup_s\": {\"value\": 0.8127, \"unit\": \"s\"}, \"ops_per_s\": {\"value\": 25000, \"unit\": \"1/s\"}}}";
        assert_eq!(metric_value(line, "setup_s"), Some(0.8127));
        assert_eq!(metric_value(line, "ops_per_s"), Some(25000.0));
        assert_eq!(metric_value(line, "advice_p50_ms"), None);
    }
}
