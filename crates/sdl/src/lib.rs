//! `charles-sdl` — the Segmentation Description Language.
//!
//! SDL is the query language introduced by the Charles paper (§2). It can
//! express exactly one thing: **conjunctions of per-attribute predicates**
//! over a single relation. Three constraint forms exist (Definition 1):
//!
//! * a range constraint — `Attr: [a0, a1]`
//! * a set constraint — `Attr: {a0, a1, …, aK}`
//! * no constraint — `Attr:`
//!
//! An SDL *query* (Definition 2) is a tuple of such constraints; a
//! *segmentation* (Definition 3) is a set of queries that partitions a
//! dataset. This crate provides the AST ([`Constraint`], [`Predicate`],
//! [`Query`], [`Segmentation`]), a parser for the paper's textual syntax,
//! paper-style pretty printing, canonicalization and the advice cache's
//! key ([`CacheKey`]), evaluation against a
//! [`charles_store::Backend`], and SQL `WHERE`-clause emission (Charles is
//! "a front-end for SQL systems").
//!
//! ```
//! use charles_store::{Schema, DataType};
//! use charles_sdl::parse_query;
//!
//! let schema = Schema::from_pairs(&[
//!     ("date", DataType::Int),
//!     ("tonnage", DataType::Int),
//!     ("type", DataType::Str),
//! ]).unwrap();
//! let q = parse_query("(date: [1550,1650], tonnage: , type: {jacht, fluit})", &schema).unwrap();
//! assert_eq!(q.to_string(), "(date: [1550,1650], tonnage: , type: {jacht, fluit})");
//! assert_eq!(q.constrained_attributes(), vec!["date", "type"]);
//! ```

#![forbid(unsafe_code)]

pub mod analyze;
pub mod display;
pub mod error;
pub mod eval;
pub mod parser;
pub mod predicate;
pub mod query;
pub mod segmentation;
pub mod sql;

pub use analyze::{admit, analyze, Diagnostic, DiagnosticCode, QueryReport, Satisfiability};
pub use error::{SdlError, SdlResult};
pub use eval::{cover, selection};
pub use parser::{parse_query, parse_segmentation};
pub use predicate::{Constraint, Predicate};
pub use query::{CacheKey, Query};
pub use segmentation::Segmentation;
pub use sql::{query_to_sql, segmentation_to_sql};
