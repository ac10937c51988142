//! CLIQUE-style subspace clustering baseline (§6.4).
//!
//! "The first algorithm of this field is CLIQUE. It splits each dimension
//! in bins and detects the densest. Then, it explores all the possible
//! combinations of bins. This creates cells of higher dimension, that can
//! also be combined."
//!
//! This is a faithful small-scale CLIQUE: ξ equal-width bins per
//! dimension, a density threshold τ (fraction of the context), bottom-up
//! apriori growth of dense cells (a k-dimensional cell can only be dense
//! if all its (k−1)-dimensional projections are). Dense cells are reported
//! as SDL queries. Unlike Charles' output these are *not* partitions —
//! they are high-density regions — which is exactly the contrast the
//! related-work section draws ("CLIQUE aims at discovering high density
//! sub-spaces. We generate instant and general hints about the content of
//! the data"). For experiment E9 the cells are wrapped into a partition by
//! adding a rest-bucket.

use charles_core::engine::Explorer;
use charles_core::error::CoreResult;
use charles_sdl::{Constraint, Query};
use charles_store::{Bitmap, Value};

/// CLIQUE parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CliqueOptions {
    /// Number of equal-width bins per dimension (ξ).
    pub xi: usize,
    /// Density threshold as a fraction of the context size (τ).
    pub tau: f64,
    /// Maximum subspace dimensionality to explore.
    pub max_dims: usize,
}

impl Default for CliqueOptions {
    fn default() -> CliqueOptions {
        CliqueOptions {
            xi: 8,
            tau: 0.05,
            max_dims: 3,
        }
    }
}

/// A dense cell: an axis-aligned hyper-rectangle with its support.
#[derive(Debug, Clone)]
pub struct DenseCell {
    /// The SDL query describing the cell.
    pub query: Query,
    /// Number of context rows inside.
    pub support: usize,
    /// Subspace dimensionality (number of constrained attributes).
    pub dims: usize,
}

/// Run the CLIQUE-style search over the explorer's numeric attributes.
/// Returns all dense cells, highest-dimensional first, then by support.
pub fn clique_clusters(ex: &Explorer<'_>, opts: CliqueOptions) -> CoreResult<Vec<DenseCell>> {
    let n = ex.context_size();
    let min_support = ((n as f64) * opts.tau).ceil().max(1.0) as usize;
    let ctx = ex.context().clone();

    // 1-dimensional pass: dense bins per numeric attribute.
    let mut frontier: Vec<(Query, Bitmap)> = Vec::new();
    let mut all: Vec<DenseCell> = Vec::new();
    for attr in ex.attributes() {
        let ty = ex.type_of(attr)?;
        if !ty.is_numeric() {
            continue; // original CLIQUE is numeric-only
        }
        let sel = ex.selection(&ctx)?;
        let Some((min, max)) = ex.min_max(attr, &sel)? else {
            continue;
        };
        let (lo, hi) = (min.as_f64().expect("num"), max.as_f64().expect("num"));
        if lo >= hi {
            continue;
        }
        let width = (hi - lo) / opts.xi as f64;
        for i in 0..opts.xi {
            let a = lo + width * i as f64;
            let b = if i == opts.xi - 1 {
                hi
            } else {
                lo + width * (i + 1) as f64
            };
            let Ok(c) = Constraint::range_with(Value::Float(a), Value::Float(b), i == opts.xi - 1)
            else {
                continue;
            };
            let Some(q) = ctx.refined(attr, c) else {
                continue;
            };
            let bm = ex.selection(&q)?;
            let support = bm.count_ones();
            if support >= min_support {
                frontier.push((q.clone(), (*bm).clone()));
                all.push(DenseCell {
                    query: q,
                    support,
                    dims: 1,
                });
            }
        }
    }

    // Bottom-up growth: join cells whose constrained attribute sets differ
    // in exactly one attribute (apriori candidate generation).
    let mut dims = 1usize;
    while dims < opts.max_dims && !frontier.is_empty() {
        let mut next: Vec<(Query, Bitmap)> = Vec::new();
        let mut seen: Vec<String> = Vec::new();
        for i in 0..frontier.len() {
            for j in (i + 1)..frontier.len() {
                let (qi, bi) = &frontier[i];
                let (qj, bj) = &frontier[j];
                // Quick support upper bound before building the query.
                if bi.and_count(bj) < min_support {
                    continue;
                }
                let Some(cell) = qi.conjoin(qj) else { continue };
                if cell.constrained_attributes().len() != dims + 1 {
                    continue; // same subspace or incompatible overlap
                }
                let key = cell.to_string();
                if seen.contains(&key) {
                    continue;
                }
                seen.push(key);
                let bm = bi.and(bj);
                let support = bm.count_ones();
                if support >= min_support {
                    next.push((cell.clone(), bm));
                    all.push(DenseCell {
                        query: cell,
                        support,
                        dims: dims + 1,
                    });
                }
            }
        }
        frontier = next;
        dims += 1;
    }

    all.sort_by(|a, b| b.dims.cmp(&a.dims).then(b.support.cmp(&a.support)));
    Ok(all)
}

#[cfg(test)]
mod tests {
    use super::*;
    use charles_core::config::Config;
    use charles_store::{DataType, TableBuilder};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Two well-separated 2-d blobs plus uniform background noise.
    fn blobs() -> charles_store::Table {
        let mut rng = StdRng::seed_from_u64(17);
        let mut b = TableBuilder::new("t");
        b.add_column("x", DataType::Float)
            .add_column("y", DataType::Float);
        let mut push = |cx: f64, cy: f64, spread: f64, n: usize, rng: &mut StdRng| {
            for _ in 0..n {
                let x = cx + (rng.gen::<f64>() - 0.5) * spread;
                let y = cy + (rng.gen::<f64>() - 0.5) * spread;
                b.push_row(vec![Value::Float(x), Value::Float(y)]).unwrap();
            }
        };
        push(10.0, 10.0, 4.0, 400, &mut rng);
        push(80.0, 80.0, 4.0, 400, &mut rng);
        for _ in 0..200 {
            let x = rng.gen::<f64>() * 100.0;
            let y = rng.gen::<f64>() * 100.0;
            b.push_row(vec![Value::Float(x), Value::Float(y)]).unwrap();
        }
        b.finish()
    }

    #[test]
    fn finds_two_dimensional_dense_cells_at_the_blobs() {
        let t = blobs();
        let ex = Explorer::new(&t, Config::default(), Query::wildcard(&["x", "y"])).unwrap();
        let cells = clique_clusters(
            &ex,
            CliqueOptions {
                xi: 10,
                tau: 0.08,
                max_dims: 2,
            },
        )
        .unwrap();
        let two_d: Vec<&DenseCell> = cells.iter().filter(|c| c.dims == 2).collect();
        assert!(!two_d.is_empty(), "no 2-d dense cell found");
        // The densest 2-d cell must sit on one of the blobs: check that its
        // query contains the blob centre (10,10) or (80,80).
        let best = two_d[0];
        let on_blob = [(10.0, 10.0), (80.0, 80.0)].iter().any(|&(cx, cy)| {
            best.query.matches_row(|attr| match attr {
                "x" => Some(Value::Float(cx)),
                "y" => Some(Value::Float(cy)),
                _ => None,
            })
        });
        assert!(on_blob, "densest cell {} misses both blobs", best.query);
    }

    #[test]
    fn apriori_monotonicity_holds() {
        // Every 2-d dense cell's 1-d projections must also be dense.
        let t = blobs();
        let ex = Explorer::new(&t, Config::default(), Query::wildcard(&["x", "y"])).unwrap();
        let opts = CliqueOptions {
            xi: 10,
            tau: 0.08,
            max_dims: 2,
        };
        let cells = clique_clusters(&ex, opts).unwrap();
        let one_d: Vec<&DenseCell> = cells.iter().filter(|c| c.dims == 1).collect();
        for cell in cells.iter().filter(|c| c.dims == 2) {
            for attr in cell.query.constrained_attributes() {
                let projected = one_d.iter().any(|c1| {
                    c1.query.constrained_attributes() == vec![attr]
                        && c1.query.constraint(attr).is_some()
                        && cell.support <= c1.support
                });
                assert!(projected, "2-d cell without dense 1-d parent on {attr}");
            }
        }
    }

    #[test]
    fn higher_tau_finds_fewer_cells() {
        let t = blobs();
        let ex = Explorer::new(&t, Config::default(), Query::wildcard(&["x", "y"])).unwrap();
        let loose = clique_clusters(
            &ex,
            CliqueOptions {
                xi: 10,
                tau: 0.02,
                max_dims: 2,
            },
        )
        .unwrap();
        let strict = clique_clusters(
            &ex,
            CliqueOptions {
                xi: 10,
                tau: 0.20,
                max_dims: 2,
            },
        )
        .unwrap();
        assert!(strict.len() <= loose.len());
    }

    #[test]
    fn nominal_only_context_yields_nothing() {
        let mut b = TableBuilder::new("t");
        b.add_column("k", DataType::Str);
        for s in ["a", "b", "a", "c"] {
            b.push_row(vec![Value::str(s)]).unwrap();
        }
        let t = b.finish();
        let ex = Explorer::new(&t, Config::default(), Query::wildcard(&["k"])).unwrap();
        let cells = clique_clusters(&ex, CliqueOptions::default()).unwrap();
        assert!(cells.is_empty());
    }
}
