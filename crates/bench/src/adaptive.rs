//! Per-piece adaptive cuts (§5.2).
//!
//! "Our heuristic relies on a heavy restriction: all queries in a
//! segmentation are based on the same attributes. It would be interesting
//! to consider other options. For instance, we could cut each piece of a
//! segmentation on a potentially different attribute. The main issue with
//! this approach is the explosion of the search space. This may be tackled
//! with randomized algorithms."
//!
//! [`adaptive_segmentations`] implements that idea as randomized greedy
//! search: starting from the context, repeatedly pick the segment with the
//! largest cover and cut it on an attribute chosen at random among the
//! best-balancing candidates for *that piece*. Several restarts produce a
//! pool of heterogeneous segmentations, ranked by the usual metrics.

use charles_core::engine::Explorer;
use charles_core::error::CoreResult;
use charles_core::metrics::score;
use charles_core::primitives::cut_query;
use charles_core::ranking::{rank, Ranked};
use charles_sdl::{Query, Segmentation};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Options for the randomized search.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdaptiveOptions {
    /// Number of random restarts (each yields one segmentation).
    pub restarts: usize,
    /// Target number of pieces per segmentation.
    pub target_depth: usize,
    /// Among attributes whose cut balance is within this factor of the
    /// best, one is picked uniformly at random (1.0 = always the best,
    /// i.e. deterministic greedy).
    pub exploration: f64,
    /// RNG seed (runs are reproducible).
    pub seed: u64,
}

impl Default for AdaptiveOptions {
    fn default() -> AdaptiveOptions {
        AdaptiveOptions {
            restarts: 8,
            target_depth: 8,
            exploration: 0.9,
            seed: 0x5eed,
        }
    }
}

/// Run the randomized per-piece search; returns ranked segmentations
/// (deduplicated across restarts).
pub fn adaptive_segmentations(ex: &Explorer<'_>, opts: AdaptiveOptions) -> CoreResult<Vec<Ranked>> {
    // Derive one sub-seed per restart from the master seed up front.
    // Restarts then consume independent RNG streams, which makes each
    // run a pure function of (data, opts, sub-seed) — that is what lets
    // them fan out across threads with output identical to running them
    // one after another.
    let mut master = StdRng::seed_from_u64(opts.seed);
    let seeds: Vec<u64> = (0..opts.restarts.max(1)).map(|_| master.gen()).collect();
    // Every restart runs; the first error in restart order is the one a
    // sequential loop would have returned.
    let runs: Vec<Segmentation> = charles_parallel::par_map(&seeds, |&seed| {
        let mut rng = StdRng::seed_from_u64(seed);
        one_run(ex, opts, &mut rng)
    })
    .into_iter()
    .collect::<CoreResult<_>>()?;

    // Dedupe and score in restart order (first occurrence wins).
    let mut pool: Vec<(Segmentation, charles_core::metrics::Score)> = Vec::new();
    let mut seen: Vec<String> = Vec::new();
    for seg in runs {
        let fp = charles_core::engine::fingerprint(&seg);
        if !seen.contains(&fp) {
            seen.push(fp);
            let s = score(ex, &seg)?;
            pool.push((seg, s));
        }
    }
    Ok(rank(pool))
}

/// One greedy run: grow a segmentation piece by piece.
fn one_run(ex: &Explorer<'_>, opts: AdaptiveOptions, rng: &mut StdRng) -> CoreResult<Segmentation> {
    let attrs: Vec<String> = ex.attributes().iter().map(|s| s.to_string()).collect();
    let mut pieces: Vec<Query> = vec![ex.context().clone()];
    while pieces.len() < opts.target_depth.max(2) {
        // Pick the fattest piece — the user is "primarily interested in the
        // most significant parts of the data".
        let mut order: Vec<usize> = (0..pieces.len()).collect();
        let covers: Vec<f64> = pieces
            .iter()
            .map(|p| ex.cover(p))
            .collect::<CoreResult<_>>()?;
        order.sort_by(|&a, &b| {
            covers[b]
                .partial_cmp(&covers[a])
                .unwrap_or(std::cmp::Ordering::Equal)
        });

        // Try pieces fattest-first until one can be cut.
        let mut cut_made: Option<(usize, Query, Query)> = None;
        'pieces: for &pi in &order {
            // Evaluate every attribute's cut balance on this piece.
            let mut options: Vec<(f64, Query, Query)> = Vec::new();
            for attr in &attrs {
                if let Some((l, r)) = cut_query(ex, &pieces[pi], attr)? {
                    let cl = ex.count(&l)? as f64;
                    let cr = ex.count(&r)? as f64;
                    let balance = cl.min(cr) / cl.max(cr).max(1.0);
                    options.push((balance, l, r));
                }
            }
            if options.is_empty() {
                continue 'pieces;
            }
            options.sort_by(|a, b| b.0.partial_cmp(&a.0).unwrap_or(std::cmp::Ordering::Equal));
            let best = options[0].0;
            // exploration = 1.0 degenerates to pure greedy: always take the
            // first-best option (deterministic even under balance ties).
            let pick = if opts.exploration >= 1.0 {
                0
            } else {
                let eligible: Vec<usize> = options
                    .iter()
                    .enumerate()
                    .filter(|(_, o)| o.0 >= best * opts.exploration)
                    .map(|(i, _)| i)
                    .collect();
                eligible[rng.gen_range(0..eligible.len())]
            };
            let (_, l, r) = options.swap_remove(pick);
            cut_made = Some((pi, l, r));
            break 'pieces;
        }
        match cut_made {
            Some((pi, l, r)) => {
                pieces.swap_remove(pi);
                pieces.push(l);
                pieces.push(r);
            }
            None => break, // nothing cuttable anywhere
        }
    }
    Ok(Segmentation::new(pieces))
}

#[cfg(test)]
mod tests {
    use super::*;
    use charles_core::config::Config;
    use charles_store::{DataType, TableBuilder, Value};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn table() -> charles_store::Table {
        let mut rng = StdRng::seed_from_u64(3);
        let mut b = TableBuilder::new("t");
        b.add_column("x", DataType::Int)
            .add_column("y", DataType::Int)
            .add_column("k", DataType::Str);
        for _ in 0..800 {
            let x: i64 = rng.gen_range(0..100);
            let y: i64 = rng.gen_range(0..100);
            let k = ["a", "b", "c"][rng.gen_range(0usize..3)];
            b.push_row(vec![Value::Int(x), Value::Int(y), Value::str(k)])
                .unwrap();
        }
        b.finish()
    }

    #[test]
    fn produces_partitions_of_target_depth() {
        let t = table();
        let ex = Explorer::new(
            &t,
            Config::default(),
            charles_sdl::Query::wildcard(&["x", "y", "k"]),
        )
        .unwrap();
        let opts = AdaptiveOptions {
            restarts: 4,
            target_depth: 6,
            ..AdaptiveOptions::default()
        };
        let ranked = adaptive_segmentations(&ex, opts).unwrap();
        assert!(!ranked.is_empty());
        for r in &ranked {
            assert_eq!(r.segmentation.depth(), 6);
            assert!(r
                .segmentation
                .check_partition(&t, ex.context_selection())
                .unwrap()
                .is_partition());
        }
    }

    #[test]
    fn pieces_may_differ_in_attributes() {
        // The whole point of the extension: heterogeneous queries. With
        // several restarts over three attributes at least one produced
        // segmentation should mix attributes across queries.
        let t = table();
        let ex = Explorer::new(
            &t,
            Config::default(),
            charles_sdl::Query::wildcard(&["x", "y", "k"]),
        )
        .unwrap();
        let ranked = adaptive_segmentations(&ex, AdaptiveOptions::default()).unwrap();
        let heterogeneous = ranked.iter().any(|r| {
            let sets: Vec<Vec<&str>> = r
                .segmentation
                .queries()
                .iter()
                .map(|q| q.constrained_attributes())
                .collect();
            sets.windows(2).any(|w| w[0] != w[1])
        });
        assert!(heterogeneous, "no heterogeneous segmentation found");
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let t = table();
        let ctx = charles_sdl::Query::wildcard(&["x", "y", "k"]);
        let run = || {
            let ex = Explorer::new(&t, Config::default(), ctx.clone()).unwrap();
            adaptive_segmentations(&ex, AdaptiveOptions::default())
                .unwrap()
                .iter()
                .map(|r| r.segmentation.to_string())
                .collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn greedy_mode_is_deterministic_single_result() {
        let t = table();
        let ex = Explorer::new(
            &t,
            Config::default(),
            charles_sdl::Query::wildcard(&["x", "y", "k"]),
        )
        .unwrap();
        let opts = AdaptiveOptions {
            restarts: 5,
            exploration: 1.0, // pure greedy → every restart identical
            ..AdaptiveOptions::default()
        };
        let ranked = adaptive_segmentations(&ex, opts).unwrap();
        assert_eq!(ranked.len(), 1, "greedy restarts must dedupe to one");
    }

    #[test]
    fn uncuttable_context_stops_early() {
        let mut b = TableBuilder::new("t");
        b.add_column("c", DataType::Int);
        for _ in 0..10 {
            b.push_row(vec![Value::Int(1)]).unwrap();
        }
        let t = b.finish();
        let ex =
            Explorer::new(&t, Config::default(), charles_sdl::Query::wildcard(&["c"])).unwrap();
        let ranked = adaptive_segmentations(&ex, AdaptiveOptions::default()).unwrap();
        // Only the trivial single-piece segmentation comes back.
        assert_eq!(ranked.len(), 1);
        assert_eq!(ranked[0].segmentation.depth(), 1);
    }
}
