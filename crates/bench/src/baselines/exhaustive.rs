//! Exhaustive enumeration baseline: the quality ceiling and the cost wall.
//!
//! §5.1: "the search space grows exponentially [with the number of
//! attributes]". This baseline makes that explosion concrete: it
//! enumerates **every non-empty attribute subset** (up to a dimensionality
//! cap), builds the product of binary cuts over each subset, and ranks all
//! of them. Its output contains everything HB-cuts could ever reach with
//! whole-set cuts, so its best entropy bounds HB-cuts' best entropy from
//! above — at 2^N cost instead of HB-cuts' quadratic-in-N iterations.

use charles_core::engine::Explorer;
use charles_core::error::{CoreError, CoreResult};
use charles_core::metrics::score;
use charles_core::primitives::cut_segmentation;
use charles_core::ranking::{rank, Ranked};
use charles_sdl::Segmentation;

/// Options for exhaustive enumeration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExhaustiveOptions {
    /// Maximum attribute-subset size (caps the 2^N blow-up).
    pub max_subset: usize,
    /// Skip subsets whose segmentation would exceed this many pieces.
    pub max_depth: usize,
}

impl Default for ExhaustiveOptions {
    fn default() -> ExhaustiveOptions {
        ExhaustiveOptions {
            max_subset: 4,
            max_depth: 16,
        }
    }
}

/// Enumerate segmentations for every attribute subset of size
/// `1..=max_subset`, ranked. Each subset's segmentation is built by
/// successive whole-set cuts (so pieces adapt per segment, like COMPOSE).
pub fn exhaustive_segmentations(
    ex: &Explorer<'_>,
    opts: ExhaustiveOptions,
) -> CoreResult<Vec<Ranked>> {
    let attrs: Vec<String> = ex.attributes().iter().map(|s| s.to_string()).collect();
    if attrs.is_empty() {
        return Err(CoreError::NoCuttableAttribute);
    }
    let n = attrs.len();
    let mut pool = Vec::new();
    // Every non-empty subset, encoded as a bitmask over attrs.
    for mask in 1u64..(1u64 << n.min(63)) {
        let size = mask.count_ones() as usize;
        if size > opts.max_subset {
            continue;
        }
        if 1usize << size > opts.max_depth {
            continue; // would exceed the piece budget even if all cuts work
        }
        let mut seg = Segmentation::singleton(ex.context().clone());
        let mut cut_any = false;
        for (i, attr) in attrs.iter().enumerate() {
            if mask >> i & 1 == 1 {
                if let Some(next) = cut_segmentation(ex, &seg, attr)? {
                    seg = next;
                    cut_any = true;
                }
            }
        }
        if !cut_any {
            continue;
        }
        let sc = score(ex, &seg)?;
        pool.push((seg, sc));
    }
    Ok(rank(pool))
}

#[cfg(test)]
mod tests {
    use super::*;
    use charles_core::config::Config;
    use charles_core::hbcuts::hb_cuts;
    use charles_sdl::Query;
    use charles_store::{DataType, TableBuilder, Value};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn table(cols: usize, rows: usize, seed: u64) -> charles_store::Table {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut b = TableBuilder::new("t");
        let names: Vec<String> = (0..cols).map(|i| format!("c{i}")).collect();
        for n in &names {
            b.add_column(n, DataType::Int);
        }
        for _ in 0..rows {
            let row: Vec<Value> = (0..cols)
                .map(|_| Value::Int(rng.gen_range(0..1000)))
                .collect();
            b.push_row(row).unwrap();
        }
        b.finish()
    }

    fn ctx(cols: usize) -> Query {
        let names: Vec<String> = (0..cols).map(|i| format!("c{i}")).collect();
        let refs: Vec<&str> = names.iter().map(|s| s.as_str()).collect();
        Query::wildcard(&refs)
    }

    #[test]
    fn enumerates_all_subsets_within_caps() {
        let t = table(3, 400, 1);
        let ex = Explorer::new(&t, Config::default(), ctx(3)).unwrap();
        let ranked = exhaustive_segmentations(&ex, ExhaustiveOptions::default()).unwrap();
        // 2^3 − 1 = 7 subsets, all within max_subset=4 and depth 16.
        assert_eq!(ranked.len(), 7);
        for r in &ranked {
            assert!(r
                .segmentation
                .check_partition(&t, ex.context_selection())
                .unwrap()
                .is_partition());
        }
    }

    #[test]
    fn subset_cap_prunes() {
        let t = table(4, 300, 2);
        let ex = Explorer::new(&t, Config::default(), ctx(4)).unwrap();
        let ranked = exhaustive_segmentations(
            &ex,
            ExhaustiveOptions {
                max_subset: 1,
                max_depth: 16,
            },
        )
        .unwrap();
        assert_eq!(ranked.len(), 4); // singletons only
    }

    #[test]
    fn exhaustive_best_entropy_bounds_hbcuts() {
        // On independent data HB-cuts stops early; exhaustive keeps going
        // and must reach at least the same best entropy.
        let t = table(3, 600, 3);
        let ex1 = Explorer::new(&t, Config::default(), ctx(3)).unwrap();
        let hb = hb_cuts(&ex1).unwrap();
        let ex2 = Explorer::new(&t, Config::default(), ctx(3)).unwrap();
        let full = exhaustive_segmentations(
            &ex2,
            ExhaustiveOptions {
                max_subset: 3,
                max_depth: 16,
            },
        )
        .unwrap();
        let hb_best = hb.ranked[0].score.entropy;
        let full_best = full[0].score.entropy;
        assert!(
            full_best >= hb_best - 1e-9,
            "exhaustive {full_best} < hb-cuts {hb_best}"
        );
    }

    #[test]
    fn depth_cap_skips_large_subsets() {
        let t = table(4, 300, 4);
        let ex = Explorer::new(&t, Config::default(), ctx(4)).unwrap();
        let ranked = exhaustive_segmentations(
            &ex,
            ExhaustiveOptions {
                max_subset: 4,
                max_depth: 4, // only subsets of ≤2 attributes fit
            },
        )
        .unwrap();
        for r in &ranked {
            assert!(r.segmentation.attributes().len() <= 2);
        }
    }
}
