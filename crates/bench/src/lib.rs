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
