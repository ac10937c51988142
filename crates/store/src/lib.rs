//! `charles-store` — the storage substrate for the Charles query advisor.
//!
//! The original Charles prototype (Sellam & Kersten, CIDR 2013) was a C
//! front-end on top of MonetDB. Its workload against the DBMS consists of
//! exactly three kinds of operations (paper, §5.1):
//!
//! 1. **counts over predicates** — the cardinality of a conjunctive
//!    selection, needed for covers and entropies;
//! 2. **median calculations** — the split points for the CUT primitive;
//! 3. **frequency histograms** — the split points for nominal attributes.
//!
//! This crate provides those operations over an in-memory **columnar**
//! engine ([`Table`] + [`ColumnData`] + [`Bitmap`] selection vectors), a
//! **row-oriented** baseline engine ([`rowstore::RowTable`]) behind the same
//! [`Backend`] trait (so the paper's "column stores are well suited for
//! Charles' workloads" claim can be measured), a **persistent on-disk
//! columnar format** (`.charles`, spec in `docs/FORMAT.md`) that
//! [`Table::open`] reads lazily, a column on first touch, so datasets
//! outlive the process, plus CSV import/export, sampling, and order
//! statistics.
//!
//! Everything is deliberately index-free: the paper points out that the
//! advisor cannot know ahead of time which columns will be queried, so
//! a-priori index creation is impossible and scans are the natural cost
//! model.
//!
//! # Quick tour
//!
//! ```
//! use charles_store::{Backend, TableBuilder, DataType, Value, RangePred, StorePredicate};
//!
//! let mut b = TableBuilder::new("boats");
//! b.add_column("tonnage", DataType::Int);
//! b.add_column("kind", DataType::Str);
//! b.push_row(vec![Value::Int(1000), Value::str("fluit")]).unwrap();
//! b.push_row(vec![Value::Int(1200), Value::str("jacht")]).unwrap();
//! b.push_row(vec![Value::Int(900), Value::str("fluit")]).unwrap();
//! let table = b.finish();
//!
//! // Count over a predicate: tonnage in [950, 1250]
//! let pred = StorePredicate::range("tonnage", Value::Int(950), Value::Int(1250), true);
//! let sel = table.eval(&pred).unwrap();
//! assert_eq!(sel.count_ones(), 2);
//!
//! // Median of the selected tonnage values (1000 and 1200 → 1100)
//! let med = table.median("tonnage", &sel).unwrap().unwrap();
//! assert_eq!(med, Value::Int(1100));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod backend;
pub mod bitmap;
pub mod builder;
pub mod column;
pub mod csv;
pub mod datatype;
pub mod disk;
pub mod error;
pub mod predicate;
pub mod rowstore;
pub mod sample;
pub mod schema;
pub mod stats;
pub mod table;
pub mod value;

pub use backend::{Backend, BackendStats, CutStats};
pub use bitmap::Bitmap;
pub use builder::TableBuilder;
pub use column::{Column, ColumnData};
pub use csv::{read_csv_file, read_csv_str, write_csv_file, write_csv_string};
pub use datatype::DataType;
pub use disk::{write_table, StreamWriter};
pub use error::{StoreError, StoreResult};
pub use predicate::{RangePred, SetPred, StorePredicate};
pub use rowstore::{Row, RowTable};
pub use sample::reservoir_sample;
pub use schema::{ColumnMeta, Schema};
pub use stats::{exact_median, quantile_value, FrequencyTable};
pub use table::Table;
pub use value::Value;

/// The name a [`Table`] opened from a file had while it was a type of its
/// own. Kept only for `benchmark/src/workloads.rs`, which only a change
/// to the benchmark may edit; that change renames its two uses and
/// deletes this alias.
pub type DiskTable = Table;
