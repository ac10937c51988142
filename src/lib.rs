//! **Charles** — a big-data query advisor.
//!
//! A from-scratch Rust reproduction of Thibault Sellam & Martin Kersten,
//! *"Meet Charles, big data query advisor"*, CIDR 2013.
//!
//! Charles answers a query with queries: you give it a *context* (an SDL
//! conjunctive query over one relation — possibly the whole table) and it
//! returns ranked *segmentations*: sets of SDL queries that partition your
//! context into meaningful, preferably balanced pieces. Each answer both
//! summarises the data and hands you the exact query to drill into next.
//!
//! This crate is the facade: it re-exports the workspace layers —
//!
//! * [`store`] — the columnar OLAP substrate (plus a row-store baseline);
//! * [`sdl`] — the Segmentation Description Language;
//! * [`advisor`] — metrics, primitives, HB-cuts, ranking, sessions;
//! * [`serve`] — the concurrent HTTP advisory server with its shared
//!   cross-session advice cache;
//! * [`datagen`] — synthetic VOC / astronomy / weblog datasets;
//! * [`viz`] — terminal pie charts, tree-maps and the Figure 1 panel —
//!
//! and the most common types at the top level.
//!
//! ```
//! use charles::{Advisor, voc_table};
//!
//! let ships = voc_table(2_000, 42);
//! let advisor = Advisor::new(&ships);
//! let advice = advisor
//!     .advise_str("(type_of_boat: , tonnage: , departure_harbour: )")
//!     .unwrap();
//! for answer in advice.ranked.iter().take(3) {
//!     println!("E={:.2}\n{}\n", answer.score.entropy, answer.segmentation);
//! }
//! ```

#![forbid(unsafe_code)]

pub use charles_core as advisor;
pub use charles_datagen as datagen;
pub use charles_sdl as sdl;
pub use charles_serve as serve;
pub use charles_store as store;
pub use charles_viz as viz;

pub use charles_core::{
    hb_cuts, Advice, AdviceCache, AdviceCacheStats, Advisor, Config, CoreError, CoreResult,
    Explorer, LazyGenerator, Ranked, Score, Session,
};
pub use charles_datagen::{astro_table, sweep_table, voc_table, weblog_table};
pub use charles_sdl::{
    parse_query, parse_segmentation, Constraint, Predicate, Query, Segmentation,
};
pub use charles_serve::{ServeConfig, Server};
pub use charles_store::{
    read_csv_file, read_csv_str, write_csv_file, write_csv_string, write_table, Backend, DataType,
    RowTable, Schema, Table, TableBuilder, Value,
};

#[cfg(test)]
mod tests {
    #[test]
    fn facade_reexports_compose() {
        // Just exercise a full stack call through the facade names.
        let t = crate::voc_table(200, 1);
        let advice = crate::Advisor::new(&t)
            .advise_str("(type_of_boat: , tonnage: )")
            .unwrap();
        assert!(!advice.ranked.is_empty());
    }
}
