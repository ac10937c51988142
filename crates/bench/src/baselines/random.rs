//! Random segmentation baseline: the floor any informed method must beat.
//!
//! Performs recursive binary splits like HB-cuts, but picks the piece, the
//! attribute *and the split point* uniformly at random — no medians, no
//! dependence detection, no ranking signal.

use charles_core::engine::Explorer;
use charles_core::error::CoreResult;
use charles_core::metrics::score;
use charles_core::ranking::{rank, Ranked};
use charles_sdl::{Constraint, Query, Segmentation};
use charles_store::Value;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Options for random segmentation generation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RandomOptions {
    /// Number of segmentations to generate.
    pub count: usize,
    /// Pieces per segmentation.
    pub target_depth: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for RandomOptions {
    fn default() -> RandomOptions {
        RandomOptions {
            count: 8,
            target_depth: 8,
            seed: 0xace,
        }
    }
}

/// Generate random segmentations (each still a true partition).
pub fn random_segmentations(ex: &Explorer<'_>, opts: RandomOptions) -> CoreResult<Vec<Ranked>> {
    let mut rng = StdRng::seed_from_u64(opts.seed);
    let mut pool = Vec::new();
    for _ in 0..opts.count.max(1) {
        let seg = one_random(ex, opts.target_depth.max(2), &mut rng)?;
        let sc = score(ex, &seg)?;
        pool.push((seg, sc));
    }
    Ok(rank(pool))
}

fn one_random(
    ex: &Explorer<'_>,
    target_depth: usize,
    rng: &mut StdRng,
) -> CoreResult<Segmentation> {
    let attrs: Vec<String> = ex.attributes().iter().map(|s| s.to_string()).collect();
    let mut pieces: Vec<Query> = vec![ex.context().clone()];
    let mut stall = 0usize;
    while pieces.len() < target_depth && stall < 16 {
        let pi = rng.gen_range(0..pieces.len());
        let attr = &attrs[rng.gen_range(0..attrs.len())];
        match random_split(ex, &pieces[pi], attr, rng)? {
            Some((l, r)) => {
                pieces.swap_remove(pi);
                pieces.push(l);
                pieces.push(r);
                stall = 0;
            }
            None => stall += 1,
        }
    }
    Ok(Segmentation::new(pieces))
}

/// Split a piece at a uniformly random point of the attribute's observed
/// range (numeric) or a random subset boundary (nominal).
fn random_split(
    ex: &Explorer<'_>,
    q: &Query,
    attr: &str,
    rng: &mut StdRng,
) -> CoreResult<Option<(Query, Query)>> {
    let sel = ex.selection(q)?;
    if sel.none() {
        return Ok(None);
    }
    let ty = ex.type_of(attr)?;
    if ty.is_numeric() {
        let Some((min, max)) = ex.min_max(attr, &sel)? else {
            return Ok(None);
        };
        let (lo, hi) = (min.as_f64().expect("num"), max.as_f64().expect("num"));
        if lo >= hi {
            return Ok(None);
        }
        let split = lo + rng.gen::<f64>() * (hi - lo);
        // Snap to the value domain: integer columns get integer pivots.
        let (left_c, right_c) = match (&min, &max) {
            (Value::Int(a), Value::Int(b)) => {
                let s = (split.floor() as i64).clamp(*a, *b - 1);
                (
                    Constraint::range(Value::Int(*a), Value::Int(s)),
                    Constraint::range(Value::Int(s + 1), Value::Int(*b)),
                )
            }
            (Value::Date(a), Value::Date(b)) => {
                let s = (split.floor() as i64).clamp(*a, *b - 1);
                (
                    Constraint::range(Value::Date(*a), Value::Date(s)),
                    Constraint::range(Value::Date(s + 1), Value::Date(*b)),
                )
            }
            _ => {
                let s = Value::Float(split);
                (
                    Constraint::range_with(min.clone(), s.clone(), false),
                    Constraint::range_with(s, max.clone(), true),
                )
            }
        };
        let (Ok(lc), Ok(rc)) = (left_c, right_c) else {
            return Ok(None);
        };
        match (q.refined(attr, lc), q.refined(attr, rc)) {
            (Some(l), Some(r)) => {
                // Random pivots can land outside the data: reject empties.
                if ex.count(&l)? == 0 || ex.count(&r)? == 0 {
                    Ok(None)
                } else {
                    Ok(Some((l, r)))
                }
            }
            _ => Ok(None),
        }
    } else {
        let (ft, dict) = ex.frequencies(attr, &sel)?;
        if ft.cardinality() < 2 {
            return Ok(None);
        }
        let mut values: Vec<Value> = ft
            .entries()
            .iter()
            .map(|&(code, _)| {
                let s = &dict[code as usize];
                match ty {
                    charles_store::DataType::Bool => Value::Bool(s == "true"),
                    _ => Value::str(s.clone()),
                }
            })
            .collect();
        // Random split position in a random shuffle.
        for i in (1..values.len()).rev() {
            values.swap(i, rng.gen_range(0..=i));
        }
        let cut = rng.gen_range(1..values.len());
        let right = values.split_off(cut);
        let (Ok(lc), Ok(rc)) = (Constraint::set(values), Constraint::set(right)) else {
            return Ok(None);
        };
        match (q.refined(attr, lc), q.refined(attr, rc)) {
            (Some(l), Some(r)) => Ok(Some((l, r))),
            _ => Ok(None),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use charles_core::config::Config;
    use charles_store::{DataType, TableBuilder};

    fn table() -> charles_store::Table {
        let mut b = TableBuilder::new("t");
        b.add_column("x", DataType::Int)
            .add_column("k", DataType::Str);
        for i in 0..200i64 {
            let k = ["a", "b", "c"][(i % 3) as usize];
            b.push_row(vec![Value::Int(i), Value::str(k)]).unwrap();
        }
        b.finish()
    }

    #[test]
    fn random_segmentations_are_partitions() {
        let t = table();
        let ex = Explorer::new(&t, Config::default(), Query::wildcard(&["x", "k"])).unwrap();
        let ranked = random_segmentations(&ex, RandomOptions::default()).unwrap();
        assert_eq!(ranked.len(), 8);
        for r in &ranked {
            assert!(r
                .segmentation
                .check_partition(&t, ex.context_selection())
                .unwrap()
                .is_partition());
        }
    }

    #[test]
    fn deterministic_for_seed() {
        let t = table();
        let ctx = Query::wildcard(&["x", "k"]);
        let run = |seed| {
            let ex = Explorer::new(&t, Config::default(), ctx.clone()).unwrap();
            random_segmentations(
                &ex,
                RandomOptions {
                    seed,
                    ..RandomOptions::default()
                },
            )
            .unwrap()
            .iter()
            .map(|r| r.segmentation.to_string())
            .collect::<Vec<_>>()
        };
        assert_eq!(run(1), run(1));
        assert_ne!(run(1), run(2));
    }

    #[test]
    fn random_balance_is_typically_below_median_cuts() {
        // Statistical sanity check: average random balance over several
        // segmentations must trail the perfectly balanced ln(depth).
        let t = table();
        let ex = Explorer::new(&t, Config::default(), Query::wildcard(&["x", "k"])).unwrap();
        let ranked = random_segmentations(
            &ex,
            RandomOptions {
                count: 16,
                target_depth: 8,
                seed: 99,
            },
        )
        .unwrap();
        let mean_balance: f64 =
            ranked.iter().map(|r| r.score.balance()).sum::<f64>() / ranked.len() as f64;
        assert!(mean_balance < 0.995, "random splits suspiciously balanced");
    }

    #[test]
    fn uncuttable_yields_trivial_segmentation() {
        let mut b = TableBuilder::new("t");
        b.add_column("c", DataType::Int);
        for _ in 0..5 {
            b.push_row(vec![Value::Int(1)]).unwrap();
        }
        let t = b.finish();
        let ex = Explorer::new(&t, Config::default(), Query::wildcard(&["c"])).unwrap();
        let ranked = random_segmentations(
            &ex,
            RandomOptions {
                count: 2,
                ..RandomOptions::default()
            },
        )
        .unwrap();
        for r in &ranked {
            assert_eq!(r.segmentation.depth(), 1);
        }
    }
}
