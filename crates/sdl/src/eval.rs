//! Evaluation: SDL queries → store predicates → selection bitmaps.

use crate::predicate::{Constraint, Predicate};
use crate::query::Query;
use charles_store::{Backend, Bitmap, StorePredicate, StoreResult};
use std::sync::Arc;

/// Lower one conjunct: the range or set scan over its attribute, or
/// `True` for an unconstrained one. The scan shares the conjunct's
/// attribute name, so lowering copies no name.
pub fn lower_predicate(p: &Predicate) -> StorePredicate {
    match &p.constraint {
        Constraint::Any => StorePredicate::True,
        Constraint::Range {
            lo,
            hi,
            hi_inclusive,
        } => StorePredicate::range(Arc::clone(&p.attr), lo.clone(), hi.clone(), *hi_inclusive),
        Constraint::Set(values) => StorePredicate::set(Arc::clone(&p.attr), values.clone()),
    }
}

/// Lower an SDL query into the store's physical predicate form.
pub fn lower(query: &Query) -> StorePredicate {
    StorePredicate::and(query.predicates().iter().map(lower_predicate).collect())
}

/// Evaluate a query into a selection bitmap: `R(Q)` of the paper.
pub fn selection(query: &Query, backend: &dyn Backend) -> StoreResult<Bitmap> {
    backend.eval(&lower(query))
}

/// Cardinality `|R(Q)|`.
pub fn count(query: &Query, backend: &dyn Backend) -> StoreResult<usize> {
    backend.count(&lower(query))
}

/// Cover of a query **relative to a context** of `context_size` rows.
///
/// The paper defines `C(Q) = |R(Q)|/|T|`; we generalise the denominator to
/// the segmented context so entropies of sub-database explorations stay
/// normalised (a drill-down's covers sum to 1 over its own context, not
/// to the context's share of the table). Pass `backend.row_count()` to
/// get the paper's literal definition.
pub fn cover(query: &Query, backend: &dyn Backend, context_size: usize) -> StoreResult<f64> {
    if context_size == 0 {
        return Ok(0.0);
    }
    Ok(count(query, backend)? as f64 / context_size as f64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predicate::Constraint;
    use charles_store::{DataType, TableBuilder, Value};

    fn table() -> charles_store::Table {
        let mut b = TableBuilder::new("t");
        b.add_column("x", DataType::Int);
        b.add_column("k", DataType::Str);
        for (x, k) in [(1, "a"), (2, "b"), (3, "a"), (4, "b"), (5, "a")] {
            b.push_row(vec![Value::Int(x), Value::str(k)]).unwrap();
        }
        b.finish()
    }

    #[test]
    fn wildcard_lowers_to_true() {
        let q = Query::wildcard(&["x", "k"]);
        assert_eq!(lower(&q), StorePredicate::True);
        assert_eq!(count(&q, &table()).unwrap(), 5);
    }

    #[test]
    fn conjunction_lowering() {
        let q = Query::wildcard(&["x", "k"])
            .refined(
                "x",
                Constraint::range(Value::Int(2), Value::Int(5)).unwrap(),
            )
            .unwrap()
            .refined("k", Constraint::set(vec![Value::str("a")]).unwrap())
            .unwrap();
        let t = table();
        // x in [2,5] → {2,3,4,5}; k = a → {3, 5}
        assert_eq!(count(&q, &t).unwrap(), 2);
        let sel = selection(&q, &t).unwrap();
        assert_eq!(sel.iter_ones().collect::<Vec<_>>(), vec![2, 4]);
    }

    #[test]
    fn half_open_range_evaluation() {
        let q = Query::wildcard(&["x"])
            .refined(
                "x",
                Constraint::range_with(Value::Int(1), Value::Int(3), false).unwrap(),
            )
            .unwrap();
        assert_eq!(count(&q, &table()).unwrap(), 2);
    }

    #[test]
    fn cover_relative_to_context() {
        let t = table();
        let q = Query::wildcard(&["k"])
            .refined("k", Constraint::set(vec![Value::str("a")]).unwrap())
            .unwrap();
        assert_eq!(cover(&q, &t, t.len()).unwrap(), 3.0 / 5.0);
        assert_eq!(cover(&q, &t, 3).unwrap(), 1.0);
        assert_eq!(cover(&q, &t, 0).unwrap(), 0.0);
    }
}
