//! The experiment harness for Charles, and the code only it calls.
//!
//! The paper is a vision paper: its evaluation artefacts are Figures 1–4
//! plus the scalability analysis of §5.1 and the extensions of §5.2
//! (experiments E1–E12, indexed by the list in `bin/experiments.rs`).
//! This crate regenerates all of them with
//! `cargo run -p charles-bench --bin experiments [--release]`, the
//! one-shot harness that prints every experiment's table. It
//! reproduces the paper; it gates no
//! performance number — those come from `benchmark/` (`BENCHMARK.json`).
//!
//! Beside the harness live the parts of the reproduction no analyst can
//! reach through a session or the server — their callers are E5, E9, E10
//! and E12, the root integration tests and one example — written against
//! `charles-core`'s public API like any other outside caller
//! (`docs/adr/0011-core-is-the-advisor-it-serves.md`):
//!
//! * the §5.2 extensions: [`quantile`] (non-median cuts), [`adaptive`]
//!   (per-piece cuts via randomized search), [`mod@homogeneity`] and
//!   [`mod@surprise`] (the measures the paper left open);
//! * [`baselines`] — faceted search, CLIQUE-style grids, random and
//!   exhaustive segmentation, for the §6 comparison (E9).

#![forbid(unsafe_code)]

pub mod adaptive;
pub mod baselines;
pub mod homogeneity;
pub mod quantile;
pub mod surprise;

pub use adaptive::{adaptive_segmentations, AdaptiveOptions};
pub use homogeneity::{homogeneity, Homogeneity};
pub use quantile::{quantile_cut_query, quantile_cut_segmentation};
pub use surprise::{rank_by_surprise, surprise, Surprise};

use charles_core::{Config, Explorer};
use charles_sdl::Query;
use charles_store::Backend;
use std::time::{Duration, Instant};

/// Build a wildcard context over the first `k` columns of a backend.
pub fn context_over(backend: &dyn Backend, k: usize) -> Query {
    let names = backend.schema().names();
    let take: Vec<&str> = names.into_iter().take(k).collect();
    Query::wildcard(&take)
}

/// Build an explorer over the first `k` columns.
pub fn explorer_over<'a>(backend: &'a dyn Backend, config: Config, k: usize) -> Explorer<'a> {
    Explorer::new(backend, config, context_over(backend, k)).expect("non-empty context")
}

/// Time a closure once, returning (elapsed, result).
pub fn time_once<T>(f: impl FnOnce() -> T) -> (Duration, T) {
    let start = Instant::now();
    let out = f();
    (start.elapsed(), out)
}

/// Time a closure over `reps` repetitions and report the mean duration.
pub fn time_mean<T>(reps: usize, mut f: impl FnMut() -> T) -> Duration {
    assert!(reps > 0);
    let start = Instant::now();
    for _ in 0..reps {
        std::hint::black_box(f());
    }
    start.elapsed() / reps as u32
}

/// Format a duration in adaptive units for table rows.
pub fn fmt_duration(d: Duration) -> String {
    let us = d.as_micros();
    if us < 1_000 {
        format!("{us}µs")
    } else if us < 1_000_000 {
        format!("{:.2}ms", us as f64 / 1e3)
    } else {
        format!("{:.2}s", us as f64 / 1e6)
    }
}

/// Print a fixed-width table row.
pub fn row(cells: &[String]) {
    let line: Vec<String> = cells.iter().map(|c| format!("{c:>14}")).collect();
    println!("{}", line.join("  "));
}

/// Print a header row followed by a separator.
pub fn header(cells: &[&str]) {
    row(&cells.iter().map(|c| c.to_string()).collect::<Vec<_>>());
    println!("{}", "-".repeat(16 * cells.len()));
}

#[cfg(test)]
mod tests {
    use super::*;
    use charles_datagen::sweep_table;

    #[test]
    fn context_over_takes_prefix() {
        let t = sweep_table(100, 5, 1);
        let q = context_over(&t, 3);
        assert_eq!(q.attributes(), vec!["c0", "c1", "c2"]);
    }

    #[test]
    fn explorer_over_builds() {
        let t = sweep_table(100, 4, 2);
        let ex = explorer_over(&t, Config::default(), 2);
        assert_eq!(ex.context_size(), 100);
    }

    #[test]
    fn timing_helpers() {
        let (d, v) = time_once(|| 21 * 2);
        assert_eq!(v, 42);
        assert!(d < Duration::from_secs(1));
        let mean = time_mean(3, || 1 + 1);
        assert!(mean < Duration::from_secs(1));
    }

    #[test]
    fn duration_formatting() {
        assert_eq!(fmt_duration(Duration::from_micros(5)), "5µs");
        assert_eq!(fmt_duration(Duration::from_micros(1500)), "1.50ms");
        assert_eq!(fmt_duration(Duration::from_secs(2)), "2.00s");
    }
}
