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
//! * [`ranking`] — the paper's entropy-first order;
//! * [`advisor`] / [`cache`] / [`session`] — the user-facing facade, the
//!   cross-session advice cache and the drill-down exploration loop;
//! * the §5.2 extension the advisor itself runs: [`lazy`] (generate
//!   answers on demand, over the same stepper). §5.2's sampled medians
//!   are not one: an exact median costs less at every size measured
//!   (`docs/adr/0030-one-median.md`).
//!
//! This crate is what the server, the sessions and Figure 4 need. The
//! other §5.2 extensions (quantile and adaptive cuts, homogeneity,
//! surprise) and the §6 comparison baselines are called by the
//! experiments only, and live beside them in `charles-bench`.
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
// A suppression names its lint and says why: `#[expect(.., reason = "..")]`.
#![deny(clippy::allow_attributes, clippy::allow_attributes_without_reason)]

pub mod advisor;
pub mod cache;
pub mod config;
pub mod engine;
pub mod error;
pub mod hbcuts;
pub mod indep;
pub mod lazy;
pub mod metrics;
pub(crate) mod par;
pub mod primitives;
pub mod ranking;
pub mod session;

pub use advisor::{Advice, Advisor, Encoded};
pub use cache::{AdviceCache, AdviceCacheStats};
pub use config::Config;
pub use engine::{fingerprint, CacheStats, Explorer};
pub use error::{CoreError, CoreResult};
pub use hbcuts::{hb_cuts, ComposeStep, HbCutsOutput, SkippedPair, StopReason, Trace};
pub use indep::{indep, product_entropy};
pub use lazy::LazyGenerator;
pub use metrics::{breadth, entropy, entropy_from_covers, score, simplicity, Score};
pub use primitives::{compose, cut_query, cut_segmentation, product};
pub use ranking::{rank, Ranked};
pub use session::Session;
