//! `charles-datagen` — synthetic datasets for the Charles experiments.
//!
//! The paper demonstrates Charles on domain databases we cannot
//! redistribute: the Dutch-Asiatic Shipping (VOC) archive of Figure 1, an
//! astronomy catalogue (demo proposal), and the web logs of the
//! introduction. Each generator here synthesises a dataset with the same
//! schema *and the same dependency structure* — which is all the advisor
//! ever observes: it reads medians, frequencies and intersection counts,
//! never the values' meaning.
//!
//! All generators are deterministic for a fixed seed.
//!
//! * [`voc_table`] — nine-column VOC shipping relation with
//!   boat-type↔tonnage, route↔harbour and era↔yard dependencies;
//! * [`astro_table`] — sky-survey catalogue with class-conditional
//!   magnitude/redshift distributions;
//! * [`weblog_table`] — sessionised web log with Zipfian paths and
//!   heavy-tailed latencies;
//! * [`sweep_table`] and [`correlated_pair_table`] — parametric tables
//!   with *controlled* pairwise dependency for calibrating INDEP
//!   (experiment E8) and scalability sweeps (E5/E6);
//! * [`Zipf`] — a small Zipf sampler shared by the generators;
//! * [`generate_and_save`] — save any named dataset as a `.charles` file
//!   (and the `datagen` binary that does it from the shell), so a
//!   dataset is generated once and served from disk forever after. It
//!   writes one generator pass per column through the store's
//!   `StreamWriter`, keeping peak memory independent of the row count —
//!   what makes 10⁸-row files producible.

#![forbid(unsafe_code)]

mod astro;
mod persist;
mod synthetic;
mod voc;
mod weblog;
mod zipf;

pub use astro::astro_table;
pub use persist::{
    dataset_by_name, dataset_rows, dataset_schema, generate_and_save, DATASET_NAMES,
};
pub use synthetic::{correlated_pair_table, sweep_table, DependencyKind};
pub use voc::voc_table;
pub use weblog::weblog_table;
pub use zipf::Zipf;
