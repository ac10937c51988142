//! The three derivation primitives of §4.1: CUT, COMPOSE and PRODUCT.
//!
//! Everything HB-cuts produces is built from these. The module-level tests
//! of each primitive reproduce the worked example of Figure 2 (fluit/jacht
//! boats split by tonnage and departure year); the full figure is asserted
//! end-to-end in `tests/figure2_primitives.rs` at the workspace root.

mod compose;
mod cut;
mod product;

pub use compose::compose;
pub(crate) use compose::{compose_pieces, Composed};
pub(crate) use cut::cut_pieces;
pub use cut::{cut_query, cut_segmentation};
pub use product::product;
