//! `charles-benchmark`: one workload per process.
//!
//! ```text
//! charles-benchmark [--workload W] [--seed N] [--seconds S] [--trace 0|1]
//!                   [--quick] [--out DIR]
//! charles-benchmark --noise-check N [--quick] [--out DIR]
//! charles-benchmark --manifest
//! ```
//!
//! Without `--workload` every workload runs in turn, each in a fresh
//! process so that `peak_rss_mb` does not bleed from one to the next.
//! The last line of standard output is the result as one JSON object;
//! the exit code is non-zero if any op failed.

use charles_benchmark::metrics::{manifest, RUN_SECONDS};
use charles_benchmark::noise;
use charles_benchmark::run::{run, Opts};
use charles_benchmark::workloads::WorkloadId;
use std::path::PathBuf;
use std::process::ExitCode;

struct Args {
    workload: Option<WorkloadId>,
    noise_check: Option<usize>,
    manifest: bool,
    opts: Opts,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        noise_check: None,
        manifest: false,
        opts: Opts {
            workload: WorkloadId::ColdTall,
            seed: 1,
            seconds: f64::from(RUN_SECONDS),
            trace: false,
            quick: false,
            out_dir: PathBuf::from("benchmark/out"),
        },
    };
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().ok_or_else(|| format!("{flag} needs a value"));
        let bad = |v: &str| format!("bad value {v:?} for {flag}");
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                args.workload = Some(WorkloadId::parse(&v).ok_or_else(|| bad(&v))?);
            }
            "--seed" => {
                let v = value()?;
                args.opts.seed = v.parse().map_err(|_| bad(&v))?;
            }
            "--seconds" => {
                let v = value()?;
                args.opts.seconds = v.parse().map_err(|_| bad(&v))?;
            }
            "--trace" => {
                let v = value()?;
                args.opts.trace = match v.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&v)),
                };
            }
            "--noise-check" => {
                let v = value()?;
                args.noise_check = Some(v.parse().map_err(|_| bad(&v))?);
            }
            "--out" => args.opts.out_dir = PathBuf::from(value()?),
            "--quick" => args.opts.quick = true,
            "--manifest" => args.manifest = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

fn run_one(opts: &Opts) -> Result<bool, String> {
    let outcome = run(opts)?;
    println!(
        "== {} (seed {}, {}) ==",
        opts.workload.name(),
        opts.seed,
        if opts.trace { "traced" } else { "end to end" }
    );
    for (def, value) in outcome.defs.iter().zip(&outcome.values) {
        println!("  {:<36} {:>16.4} {}", def.name, value, def.unit);
    }
    println!(
        "  {:<36} {:>16} count\n  {:<36} {:>16} count",
        "ops_attempted", outcome.attempted, "ops_failed", outcome.failed
    );
    for note in &outcome.notes {
        println!("  ({note})");
    }
    if let Some(why) = &outcome.first_failure {
        println!("  first failure: {why}");
    }
    let json = outcome.json();
    let file = opts.out_dir.join(format!(
        "result-{}{}.json",
        opts.workload.name(),
        if opts.trace { "-trace" } else { "" }
    ));
    std::fs::create_dir_all(&opts.out_dir)
        .and_then(|()| std::fs::write(&file, format!("{json}\n")))
        .map_err(|e| format!("write {}: {e}", file.display()))?;
    println!("{json}");
    Ok(outcome.correct())
}

fn real_main() -> Result<bool, String> {
    let args = parse_args()?;
    if args.manifest {
        print!("{}", manifest());
        return Ok(true);
    }
    if let Some(n) = args.noise_check {
        return noise::check(n, args.opts.quick, &args.opts.out_dir);
    }
    if let Some(workload) = args.workload {
        return run_one(&Opts {
            workload,
            ..args.opts
        });
    }
    let mut all_ok = true;
    for workload in WorkloadId::ALL {
        let ran = noise::spawn_run(
            &Opts {
                workload,
                ..args.opts.clone()
            },
            false,
        );
        if let Err(why) = ran {
            eprintln!("{why}");
            all_ok = false;
        }
    }
    Ok(all_ok)
}

fn main() -> ExitCode {
    match real_main() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(why) => {
            eprintln!("charles-benchmark: {why}");
            ExitCode::from(2)
        }
    }
}
