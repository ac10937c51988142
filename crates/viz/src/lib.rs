//! `charles-viz` — terminal renderings of Charles' answers.
//!
//! The original GUI (paper Figure 1) is a Python application: a left panel
//! with the search context, a top panel with the ranked answer list (one
//! pie chart per segmentation), and a main panel detailing the selected
//! segmentation. This crate reproduces that layout for the terminal:
//!
//! * [`pie_chart`] — a raster pie chart built from Unicode block
//!   characters ("each SDL set is represented by a pie-chart where each
//!   slice is represented by an SDL query");
//! * [`stacked_bar`] — 100%-stacked bars + per-segment legends, the
//!   compact form used in the ranked list;
//! * [`treemap()`] — slice-and-dice tree-map and [`multi_level_pie`] —
//!   two-ring pies, the paper's own suggestions for hierarchical display
//!   (§5.2);
//! * [`segment_sparklines`] — per-segment attribute-distribution
//!   sparklines (§5.2 "the distribution of some attributes could be
//!   plotted");
//! * [`render_panel`] — the full Figure 1 composition.
//!
//! Everything renders to plain `String`s: no terminal-control crate, no
//! colors, so output is testable and pipes cleanly.

#![forbid(unsafe_code)]

mod bar;
mod format;
mod multipie;
mod panel;
mod pie;
mod spark;
mod treemap;

pub use bar::stacked_bar;
pub use format::{human_count, percent, truncate_label};
pub use multipie::{multi_level_pie, PieLevel};
pub use panel::{context_panel, render_panel, segment_rows, SegmentRow};
pub use pie::pie_chart;
pub use spark::{histogram, segment_sparklines, sparkline};
pub use treemap::treemap;
