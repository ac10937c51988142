//! Baseline segmentation strategies drawn from the paper's related work
//! (§6), used by the quality-comparison experiment (E9).
//!
//! * [`facets`] — faceted search: one facet per attribute, every facet on
//!   a single attribute ("as in most faceted search applications, all the
//!   facets are based on one attribute only" — the opposite of Charles'
//!   breadth maximisation);
//! * [`clique`] — a CLIQUE-style grid/density subspace search (Agrawal et
//!   al., SIGMOD 1998), the paper's closest algorithmic relative;
//! * [`random`] — random recursive splits, the sanity-check floor;
//! * [`exhaustive`] — full product enumeration over attribute subsets,
//!   the quality ceiling that HB-cuts approximates at a fraction of the
//!   cost (the §5.1 "search space explosion" made concrete).

pub mod clique;
pub mod exhaustive;
pub mod facets;
pub mod random;

pub use clique::{clique_clusters, CliqueOptions, DenseCell};
pub use exhaustive::{exhaustive_segmentations, ExhaustiveOptions};
pub use facets::facet_segmentations;
pub use random::{random_segmentations, RandomOptions};
