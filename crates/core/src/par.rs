//! Fallible fork-join adapter for the hot evaluation paths.
//!
//! `try_map` fans work out over `charles-parallel`'s order-preserving
//! thread map. The result vector is in input order and every element is
//! produced by the same pure computation, so **advisor output is bitwise
//! identical at any worker count** (one worker runs the plain sequential
//! loop on the calling thread) — the guarantee
//! `tests/parallel_equivalence.rs` pins down.
//!
//! Fallibility: the closures used by the advisor return `CoreResult`.
//! `try_map` evaluates every element (unlike a sequential `?` loop,
//! which short-circuits) and then surfaces the **first** error in input
//! order, so the observable `Err` is the same one the sequential loop
//! would have produced.
//!
//! The callers in the HB-cuts run are the seed fan-out (one CUT per
//! context attribute, each resolved for INDEP), the cuts of a COMPOSE
//! level and the resolution of a new composition — the last two one
//! *unit* per item (`Explorer::map_units`): a piece, or a pair of halves
//! that partition their parent. Few elements, each coarse, which is the
//! shape this order-preserving map is for; any two of them thread. The
//! INDEP frontier itself is a plain loop: over resolved candidates a
//! probe is a handful of bitmap AND-counts, far below what a thread
//! spawn costs.

use crate::error::CoreResult;

pub(crate) fn try_map<T, U, F>(items: &[T], f: F) -> CoreResult<Vec<U>>
where
    T: Sync,
    U: Send,
    F: Fn(&T) -> CoreResult<U> + Sync,
{
    charles_parallel::par_map(items, f).into_iter().collect()
}
