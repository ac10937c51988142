//! PRODUCT (Definition 8): `S1 × S2 = {(Q_i, Q_j)}` — every pairwise
//! conjunction of a query from each segmentation.
//!
//! The product never recomputes split points (contrast with COMPOSE); it
//! just intersects constraints. Its balance is what betrays dependencies:
//! "if the product of two balanced segmentations is also balanced, then
//! there is no dependency between their variables" — quantified by
//! [`crate::indep::indep`].

use crate::engine::Explorer;
use crate::error::CoreResult;
use charles_sdl::Segmentation;

/// The SDL product, pruned: cells whose constraints are provably
/// incompatible are dropped, and so are cells that select no row
/// (Definition 8 keeps them). Empty cells contribute `0·log 0 = 0` to
/// entropy, so pruning never changes any metric.
pub fn product(
    ex: &Explorer<'_>,
    s1: &Segmentation,
    s2: &Segmentation,
) -> CoreResult<Segmentation> {
    let mut cells = Vec::with_capacity(s1.depth() * s2.depth());
    for q1 in s1.queries() {
        for q2 in s2.queries() {
            if let Some(cell) = q1.conjoin(q2) {
                if ex.count(&cell)? == 0 {
                    continue;
                }
                cells.push(cell);
            }
        }
    }
    Ok(Segmentation::new(cells))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Config;
    use crate::primitives::cut::cut_segmentation;
    use charles_store::{DataType, TableBuilder, Value};

    /// Independent attributes: every (a, b) combination equally likely.
    fn independent() -> charles_store::Table {
        let mut b = TableBuilder::new("t");
        b.add_column("a", DataType::Int)
            .add_column("b", DataType::Int);
        for i in 0..4i64 {
            for j in 0..4i64 {
                b.push_row(vec![Value::Int(i), Value::Int(j)]).unwrap();
            }
        }
        b.finish()
    }

    /// Perfectly dependent attributes: b = a.
    fn dependent() -> charles_store::Table {
        let mut b = TableBuilder::new("t");
        b.add_column("a", DataType::Int)
            .add_column("b", DataType::Int);
        for i in 0..16i64 {
            b.push_row(vec![Value::Int(i % 4), Value::Int(i % 4)])
                .unwrap();
        }
        b.finish()
    }

    fn halves<'a>(ex: &Explorer<'a>, attr: &str) -> Segmentation {
        cut_segmentation(ex, &Segmentation::singleton(ex.context().clone()), attr)
            .unwrap()
            .unwrap()
    }

    #[test]
    fn product_of_independent_halves_has_four_even_cells() {
        let t = independent();
        let ex = Explorer::new(
            &t,
            Config::default(),
            charles_sdl::Query::wildcard(&["a", "b"]),
        )
        .unwrap();
        let sa = halves(&ex, "a");
        let sb = halves(&ex, "b");
        let p = product(&ex, &sa, &sb).unwrap();
        assert_eq!(p.depth(), 4);
        for q in p.queries() {
            assert_eq!(ex.count(q).unwrap(), 4, "{q}");
        }
        assert!(p
            .check_partition(&t, ex.context_selection())
            .unwrap()
            .is_partition());
    }

    #[test]
    fn product_of_dependent_halves_collapses_to_diagonal() {
        let t = dependent();
        let ex = Explorer::new(
            &t,
            Config::default(),
            charles_sdl::Query::wildcard(&["a", "b"]),
        )
        .unwrap();
        let sa = halves(&ex, "a");
        let sb = halves(&ex, "b");
        // With b = a, off-diagonal cells are empty and pruned: 2 cells left.
        let p = product(&ex, &sa, &sb).unwrap();
        assert_eq!(p.depth(), 2);
    }

    #[test]
    fn product_attributes_are_union() {
        let t = independent();
        let ex = Explorer::new(
            &t,
            Config::default(),
            charles_sdl::Query::wildcard(&["a", "b"]),
        )
        .unwrap();
        let p = product(&ex, &halves(&ex, "a"), &halves(&ex, "b")).unwrap();
        assert_eq!(p.attributes(), vec!["a", "b"]);
    }

    #[test]
    fn product_with_singleton_is_identity_on_counts() {
        let t = independent();
        let ex = Explorer::new(
            &t,
            Config::default(),
            charles_sdl::Query::wildcard(&["a", "b"]),
        )
        .unwrap();
        let sa = halves(&ex, "a");
        let id = Segmentation::singleton(ex.context().clone());
        let p = product(&ex, &sa, &id).unwrap();
        assert_eq!(p.depth(), sa.depth());
        for (q, orig) in p.queries().iter().zip(sa.queries()) {
            assert_eq!(ex.count(q).unwrap(), ex.count(orig).unwrap());
        }
    }
}
