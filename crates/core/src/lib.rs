//! `charles-core` — the query advisor itself.
//!
//! This crate implements the contribution of *"Meet Charles, big data
//! query advisor"* (Sellam & Kersten, CIDR 2013): given a *context* — an
//! SDL query delimiting the population a user cares about — it generates,
//! evaluates and ranks **segmentations**, sets of SDL queries that
//! partition the context into meaningful, preferably balanced pieces.
//!
//! The layers, bottom-up:
//!
//! * [`engine::Explorer`] — pins a context over a [`charles_store::Backend`]
//!   and memoizes selections (§5.1 optimization);
//! * [`metrics`] — simplicity, breadth, entropy (§3);
//! * [`primitives`] — CUT, COMPOSE, PRODUCT (§4.1);
//! * [`mod@indep`] — the dependence quotient and Proposition 1;
//! * [`hbcuts`] — the HB-cuts heuristic (§4.2, Figure 4) with tracing;
//!   its per-run pair state carries INDEP values across iterations (the
//!   other half of §5.1) and its one loop also drives [`lazy`];
//! * [`ranking`] — entropy-first and weighted 3-criteria orders;
//! * [`advisor`] / [`session`] — the user-facing facade and drill-down
//!   exploration loop;
//! * extensions from §5.2: [`lazy`] (generate answers on demand),
//!   [`quantile`] (non-median cuts), [`adaptive`] (per-piece cuts via
//!   randomized search), sampled medians ([`config::MedianStrategy`]);
//! * [`baselines`] — faceted search, CLIQUE-style grids, random and
//!   exhaustive segmentation, for the comparison experiments (§6).
//!
//! # Quickstart
//!
//! ```
//! use charles_store::{TableBuilder, DataType, Value};
//! use charles_core::Advisor;
//!
//! let mut b = TableBuilder::new("boats");
//! b.add_column("type", DataType::Str);
//! b.add_column("tonnage", DataType::Int);
//! for (ty, t) in [("fluit", 1000), ("fluit", 1100), ("jacht", 2500), ("jacht", 2600)] {
//!     b.push_row(vec![Value::str(ty), Value::Int(t)]).unwrap();
//! }
//! let table = b.finish();
//!
//! let advisor = Advisor::new(&table);
//! let advice = advisor.advise_str("(type: , tonnage: )").unwrap();
//! assert!(!advice.ranked.is_empty());
//! println!("{}", advice.ranked[0].segmentation);
//! ```

#![forbid(unsafe_code)]

pub mod adaptive;
pub mod advisor;
pub mod baselines;
pub mod cache;
pub mod config;
pub mod engine;
pub mod error;
pub mod hbcuts;
pub mod homogeneity;
pub mod indep;
pub mod lazy;
pub mod metrics;
pub(crate) mod par;
pub mod primitives;
pub mod quantile;
pub mod ranking;
pub mod session;
pub mod surprise;

pub use adaptive::{adaptive_segmentations, AdaptiveOptions};
pub use advisor::{Advice, Advisor, Encoded};
pub use cache::{AdviceCache, AdviceCacheStats};
pub use config::{Config, MedianStrategy};
pub use engine::{fingerprint, CacheStats, Explorer};
pub use error::{CoreError, CoreResult};
pub use hbcuts::{hb_cuts, ComposeStep, HbCutsOutput, SkippedPair, StopReason, Trace};
pub use homogeneity::{homogeneity, Homogeneity};
pub use indep::{indep, is_independent, product_entropy};
pub use lazy::LazyGenerator;
pub use metrics::{breadth, entropy, entropy_from_covers, score, simplicity, Score};
pub use primitives::{compose, cut_query, cut_segmentation, product, product_all_cells};
pub use quantile::{quantile_cut_query, quantile_cut_segmentation};
pub use ranking::{rank, rank_weighted, Ranked, Weights};
pub use session::{OwnedSession, Session};
pub use surprise::{rank_by_surprise, surprise, Surprise};
