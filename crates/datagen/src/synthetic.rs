//! Parametric tables with controlled dependency structure.
//!
//! Two families:
//!
//! * [`correlated_pair_table`] — two integer columns whose dependence is a
//!   dial from functional (`noise = 0`) to independent (`noise = 1`).
//!   This calibrates INDEP for experiment E8 (Proposition 1).
//! * [`sweep_table`] — `n` rows × `k` columns with a chained dependency
//!   pattern (column *i+1* tracks column *i* with noise), used for the
//!   horizontal/vertical scalability sweeps (E5, E6) where the advisor
//!   must always find something to compose.

use charles_store::{DataType, Table, TableBuilder, Value};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The kind of pairwise relationship to synthesise.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DependencyKind {
    /// `b = a` exactly (INDEP = 0.5 on balanced cuts).
    Functional,
    /// `b = a` for a `1 − noise` fraction of rows, uniform otherwise.
    Noisy {
        /// Fraction of rows where `b` is drawn independently (0 → functional,
        /// 1 → independent).
        noise: f64,
    },
    /// `b` uniform, independent of `a` (INDEP ≈ 1).
    Independent,
}

/// Two-column table `(a, b)` with `domain`-valued integers and the given
/// dependency between the columns.
pub fn correlated_pair_table(n: usize, domain: i64, kind: DependencyKind, seed: u64) -> Table {
    assert!(domain >= 2, "domain must have at least two values");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut b = TableBuilder::new("pair");
    b.add_column("a", DataType::Int)
        .add_column("b", DataType::Int);
    for _ in 0..n {
        let a: i64 = rng.gen_range(0..domain);
        let bv = match kind {
            DependencyKind::Functional => a,
            DependencyKind::Independent => rng.gen_range(0..domain),
            DependencyKind::Noisy { noise } => {
                if rng.gen_bool(noise.clamp(0.0, 1.0)) {
                    rng.gen_range(0..domain)
                } else {
                    a
                }
            }
        };
        b.push_row(vec![Value::Int(a), Value::Int(bv)])
            .expect("schema");
    }
    b.finish()
}

/// `n` rows × `k` integer columns `c0..c{k-1}`: `c0` uniform, each later
/// column equals its predecessor plus bounded noise — a dependency chain
/// that keeps HB-cuts composing all the way up (worst-case work for the
/// horizontal sweep E5).
pub fn sweep_table(n: usize, k: usize, seed: u64) -> Table {
    assert!(k >= 1, "need at least one column");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut b = TableBuilder::new("sweep");
    let names: Vec<String> = (0..k).map(|i| format!("c{i}")).collect();
    for name in &names {
        b.add_column(name, DataType::Int);
    }
    for _ in 0..n {
        let mut row = Vec::with_capacity(k);
        let mut prev: i64 = rng.gen_range(0..1000);
        row.push(Value::Int(prev));
        for _ in 1..k {
            prev += rng.gen_range(-30i64..=30);
            row.push(Value::Int(prev));
        }
        b.push_row(row).expect("schema");
    }
    b.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use charles_store::Backend;

    #[test]
    fn functional_pair_is_equal() {
        let t = correlated_pair_table(100, 10, DependencyKind::Functional, 1);
        for i in 0..t.len() {
            assert_eq!(t.value(i, "a").unwrap(), t.value(i, "b").unwrap());
        }
    }

    #[test]
    fn noise_dial_monotone() {
        // Count rows where a == b: must decrease as noise grows.
        let agree = |noise: f64| {
            let t = correlated_pair_table(4000, 16, DependencyKind::Noisy { noise }, 2);
            (0..t.len())
                .filter(|&i| t.value(i, "a").unwrap() == t.value(i, "b").unwrap())
                .count()
        };
        let a0 = agree(0.0);
        let a_half = agree(0.5);
        let a1 = agree(1.0);
        assert_eq!(a0, 4000);
        assert!(a_half < a0 && a_half > a1);
        // Pure noise still agrees ~1/16 of the time by chance.
        assert!(a1 < 600);
    }

    #[test]
    fn independent_pair_spreads() {
        let t = correlated_pair_table(4000, 8, DependencyKind::Independent, 3);
        assert_eq!(t.distinct_count("b", &t.all_rows()).unwrap(), 8);
    }

    #[test]
    fn sweep_table_shape_and_chain() {
        let t = sweep_table(500, 6, 4);
        assert_eq!(t.len(), 500);
        assert_eq!(t.schema().arity(), 6);
        // Adjacent columns stay within the noise band of each other.
        for i in 0..t.len() {
            let c2 = t.value(i, "c2").unwrap().unwrap().as_f64().unwrap();
            let c3 = t.value(i, "c3").unwrap().unwrap().as_f64().unwrap();
            assert!((c2 - c3).abs() <= 30.0);
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let a = charles_store::write_csv_string(&sweep_table(50, 3, 9)).unwrap();
        let b = charles_store::write_csv_string(&sweep_table(50, 3, 9)).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "at least two values")]
    fn tiny_domain_panics() {
        correlated_pair_table(10, 1, DependencyKind::Functional, 1);
    }
}
