//! The repo's benchmark: cold advice by rows (`cold_tall`) and by
//! attributes (`cold_wide`), a served drill session (`session_drill`)
//! and the pipelined hot path (`hot_wire`), each checked op by op
//! against a single-thread oracle, with a per-layer trace. See
//! `README.md` next to this crate for every definition.

#![warn(missing_docs)]

pub mod gen;
pub mod layers;
pub mod metrics;
pub mod noise;
pub mod oracle;
pub mod run;
pub mod stats;
pub mod sys;
pub mod trace;
pub mod workloads;
