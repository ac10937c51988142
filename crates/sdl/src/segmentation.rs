//! Segmentations (paper Definition 3): sets of queries partitioning a
//! dataset.

use crate::eval::selection;
use crate::query::Query;
use charles_store::{Backend, Bitmap, StoreResult};

/// A segmentation `S = {Q_j}`: the unit Charles proposes to the user.
///
/// The struct itself does not enforce the partition property — queries are
/// symbolic and the property depends on the data — but
/// [`Segmentation::check_partition`] verifies it against a backend, and
/// the property tests in `charles-core` assert it for everything the
/// primitives and HB-cuts produce.
#[derive(Debug, Clone, PartialEq)]
pub struct Segmentation {
    queries: Vec<Query>,
}

impl Segmentation {
    /// Build from constituent queries ("segments").
    pub fn new(queries: Vec<Query>) -> Segmentation {
        Segmentation { queries }
    }

    /// The segmentation containing just the context query — the starting
    /// point of HB-cuts.
    pub fn singleton(query: Query) -> Segmentation {
        Segmentation {
            queries: vec![query],
        }
    }

    /// The constituent queries.
    pub fn queries(&self) -> &[Query] {
        &self.queries
    }

    /// Number of queries — the paper's `depth(S)` (bounded by "a pie chart
    /// with more than a dozen slices is hard to read").
    pub fn depth(&self) -> usize {
        self.queries.len()
    }

    /// Distinct constrained attributes across all queries, in first-
    /// occurrence order — the basis of the breadth metric (§3 BREADTH).
    pub fn attributes(&self) -> Vec<&str> {
        let mut out: Vec<&str> = Vec::new();
        for q in &self.queries {
            for a in q.constrained_attributes() {
                if !out.contains(&a) {
                    out.push(a);
                }
            }
        }
        out
    }

    /// Materialise the selection bitmap of every segment.
    pub(crate) fn selections(&self, backend: &dyn Backend) -> StoreResult<Vec<Bitmap>> {
        self.queries.iter().map(|q| selection(q, backend)).collect()
    }

    /// Verify Definition 3 against a dataset: segments must be pairwise
    /// disjoint and their union must equal `context`. Returns a
    /// [`PartitionReport`] instead of a bool so tests can print *why* a
    /// segmentation is broken.
    pub fn check_partition(
        &self,
        backend: &dyn Backend,
        context: &Bitmap,
    ) -> StoreResult<PartitionReport> {
        let sels = self.selections(backend)?;
        let mut union = Bitmap::new(context.len());
        let mut overlapping_pairs = Vec::new();
        for (i, a) in sels.iter().enumerate() {
            for (j, b) in sels.iter().enumerate().skip(i + 1) {
                if !a.is_disjoint(b) {
                    overlapping_pairs.push((i, j));
                }
            }
            union = union.or(a);
        }
        let missing = context.and_not(&union).count_ones();
        let extra = union.and_not(context).count_ones();
        Ok(PartitionReport {
            overlapping_pairs,
            missing,
            extra,
        })
    }
}

impl std::ops::Index<usize> for Segmentation {
    type Output = Query;
    fn index(&self, i: usize) -> &Query {
        &self.queries[i]
    }
}

/// Outcome of a partition check.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PartitionReport {
    /// Pairs of segment indices with a non-empty intersection.
    pub overlapping_pairs: Vec<(usize, usize)>,
    /// Context rows covered by no segment.
    pub missing: usize,
    /// Rows covered by some segment but outside the context.
    pub extra: usize,
}

impl PartitionReport {
    /// True when the segmentation is a partition of the context.
    pub fn is_partition(&self) -> bool {
        self.overlapping_pairs.is_empty() && self.missing == 0 && self.extra == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predicate::Constraint;
    use charles_store::{DataType, TableBuilder, Value};

    fn table() -> charles_store::Table {
        let mut b = TableBuilder::new("t");
        b.add_column("x", DataType::Int);
        for i in 0..10 {
            b.push_row(vec![Value::Int(i)]).unwrap();
        }
        b.finish()
    }

    fn range_query(lo: i64, hi: i64, hi_inclusive: bool) -> Query {
        Query::wildcard(&["x"])
            .refined(
                "x",
                Constraint::range_with(Value::Int(lo), Value::Int(hi), hi_inclusive).unwrap(),
            )
            .unwrap()
    }

    #[test]
    fn partition_check_accepts_partition() {
        let t = table();
        let s = Segmentation::new(vec![range_query(0, 5, false), range_query(5, 9, true)]);
        let report = s.check_partition(&t, &t.all_rows()).unwrap();
        assert!(report.is_partition(), "{report:?}");
    }

    #[test]
    fn partition_check_flags_overlap() {
        let t = table();
        let s = Segmentation::new(vec![range_query(0, 5, true), range_query(5, 9, true)]);
        let report = s.check_partition(&t, &t.all_rows()).unwrap();
        assert_eq!(report.overlapping_pairs, vec![(0, 1)]);
        assert!(!report.is_partition());
    }

    #[test]
    fn partition_check_flags_hole() {
        let t = table();
        let s = Segmentation::new(vec![range_query(0, 3, true), range_query(7, 9, true)]);
        let report = s.check_partition(&t, &t.all_rows()).unwrap();
        assert_eq!(report.missing, 3); // rows 4, 5, 6
        assert!(!report.is_partition());
    }

    #[test]
    fn partition_check_flags_spill() {
        let t = table();
        // Context = first half, but a segment reaches outside it.
        let ctx = selection(&range_query(0, 4, true), &t).unwrap();
        let s = Segmentation::new(vec![range_query(0, 9, true)]);
        let report = s.check_partition(&t, &ctx).unwrap();
        assert_eq!(report.extra, 5);
    }

    #[test]
    fn attributes_are_distinct_constrained() {
        let q1 = range_query(0, 4, true);
        let q2 = range_query(5, 9, true);
        let s = Segmentation::new(vec![q1, q2, Query::wildcard(&["x", "y"])]);
        assert_eq!(s.attributes(), vec!["x"]);
        assert_eq!(s.depth(), 3);
    }

    #[test]
    fn singleton_and_index() {
        let q = Query::wildcard(&["x"]);
        let s = Segmentation::singleton(q.clone());
        assert_eq!(s.depth(), 1);
        assert_eq!(s[0], q);
    }
}
