//! COMPOSE (Definition 7): cut the queries of one segmentation on the
//! attributes of another.
//!
//! `COMPOSE(S1, S2) = CUT_att1(CUT_att2(… CUT_attN(S1) …))` where
//! `att1 … attN` are the attributes S2's queries are based on. Note the
//! innermost cut is on `attN`: the attribute list is applied in reverse.
//! Because each CUT recomputes medians *per piece*, composition adapts the
//! split points to the conditional distributions — this is what makes
//! Figure 2's `COMPOSE(A, B)` differ from the plain product `A × B`.
//!
//! The cuts chain over pieces (`compose_pieces`): a level's halves carry
//! their parent's bitmap into the next level, which materialises each
//! (one scan per pair where the halves partition their parent, else one
//! per half) before cutting it again — the level's pieces fan out, a
//! partitioning pair as one unit — and the last level's halves leave
//! still derived.
//!
//! A caller that throws a composition of `reject_at` pieces or more away
//! — HB-cuts at its stop test, Figure 4's line 15 — can learn that from
//! the last level without cutting it. Where twice that level's input
//! pieces reach `reject_at`, COMPOSE materialises them, as the cut would,
//! and counts their cut instead (`count_cuts`): each piece that holds two
//! distinct values of the last attribute cuts in two, each other one
//! stays whole, so the count is the depth the cut would give. A
//! composition that reaches `reject_at` is that depth alone, with no
//! median and no frequency table taken on its last level; one that stays
//! below is cut from the selections the count holds, no piece scanned
//! twice. The public [`compose`] rejects nothing: it looks S1's pieces up
//! once, cuts every level and releases the result through the explorer's
//! selection memo.

use super::cut::{count_cuts, cut_pieces, lookup_pieces, release_pieces};
use crate::engine::{Explorer, Piece};
use crate::error::CoreResult;
use charles_sdl::Segmentation;

/// What [`compose_pieces`] made of its operands.
pub(crate) enum Composed {
    /// The composition's pieces, and whether every cut of every level
    /// split its piece into halves that partition it — then they
    /// partition whatever the operand's pieces did.
    Pieces(Vec<Piece>, bool),
    /// The depth of a composition that reached `reject_at`: its last
    /// level was counted, not cut.
    Rejected(usize),
}

/// Definition 7 over pieces: `pieces` cut on `attrs`, last attribute
/// innermost. A composition of `reject_at` pieces or more is only
/// counted, where the last level can tell (`Composed::Rejected`; 0
/// rejects whatever the depth, `usize::MAX` nothing). `None` when no
/// piece of any level cuts.
pub(crate) fn compose_pieces(
    ex: &Explorer<'_>,
    mut pieces: Vec<Piece>,
    attrs: &[&str],
    reject_at: usize,
) -> CoreResult<Option<Composed>> {
    // Definition 7 nests CUT_attN innermost, so apply attN first and
    // att1 last.
    let Some((last, inner)) = attrs.split_first() else {
        return Ok(None);
    };
    let (mut any, mut partition) = (false, true);
    for attr in inner.iter().rev() {
        let (next, cut, partitions) = cut_pieces(ex, pieces, attr)?;
        pieces = next;
        any |= cut;
        partition &= partitions;
    }
    let (pieces, cut, partitions) = if pieces.len() < reject_at.div_ceil(2) {
        // Even a cut of every piece stays below `reject_at`.
        cut_pieces(ex, pieces, last)?
    } else {
        let inputs = pieces.len();
        let counted = count_cuts(ex, pieces, last)?;
        let depth = counted.depth();
        if depth >= reject_at {
            return Ok((any || depth > inputs).then_some(Composed::Rejected(depth)));
        }
        counted.cut(ex)?
    };
    any |= cut;
    partition &= partitions;
    Ok(any.then_some(Composed::Pieces(pieces, partition)))
}

/// Compose two segmentations. Returns `None` when no cut succeeded at all
/// (S1 is constant on every attribute of S2).
pub fn compose(
    ex: &Explorer<'_>,
    s1: &Segmentation,
    s2: &Segmentation,
) -> CoreResult<Option<Segmentation>> {
    let composed = compose_pieces(ex, lookup_pieces(ex, s1)?, &s2.attributes(), usize::MAX)?;
    match composed {
        None => Ok(None),
        Some(Composed::Pieces(pieces, _)) => release_pieces(ex, pieces).map(Some),
        Some(Composed::Rejected(_)) => unreachable!("no composition reaches usize::MAX pieces"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Config;
    use crate::primitives::cut::cut_segmentation;
    use charles_sdl::Query;
    use charles_store::{DataType, TableBuilder, Value};

    /// Boats where the departure year depends on the type (as in Figure 2:
    /// fluits sail early, jachts late).
    fn boats() -> charles_store::Table {
        let mut b = TableBuilder::new("boats");
        b.add_column("type", DataType::Str)
            .add_column("year", DataType::Int);
        let rows = [
            ("fluit", 1700),
            ("fluit", 1720),
            ("fluit", 1735),
            ("fluit", 1744),
            ("jacht", 1750),
            ("jacht", 1760),
            ("jacht", 1770),
            ("jacht", 1780),
        ];
        for (ty, y) in rows {
            b.push_row(vec![Value::str(ty), Value::Int(y)]).unwrap();
        }
        b.finish()
    }

    #[test]
    fn compose_cuts_per_piece() {
        let t = boats();
        let ex = Explorer::new(&t, Config::default(), Query::wildcard(&["type", "year"])).unwrap();
        let base = Segmentation::singleton(ex.context().clone());
        let by_type = cut_segmentation(&ex, &base, "type").unwrap().unwrap();
        let by_year = cut_segmentation(&ex, &base, "year").unwrap().unwrap();

        let composed = compose(&ex, &by_type, &by_year).unwrap().unwrap();
        assert_eq!(composed.depth(), 4);
        // Every piece holds exactly 2 boats: each type-half was cut at its
        // *own* year median (1700–1744 median vs 1750–1780 median).
        for q in composed.queries() {
            assert_eq!(ex.count(q).unwrap(), 2, "{q}");
        }
        assert!(composed
            .check_partition(&t, ex.context_selection())
            .unwrap()
            .is_partition());
    }

    #[test]
    fn compose_applies_attributes_in_reverse() {
        // S2 constrained on two attributes: COMPOSE must cut on both,
        // producing up to depth·4 pieces.
        let mut b = TableBuilder::new("t");
        b.add_column("a", DataType::Int)
            .add_column("b", DataType::Int)
            .add_column("c", DataType::Int);
        for i in 0..16i64 {
            b.push_row(vec![Value::Int(i % 4), Value::Int(i / 4), Value::Int(i)])
                .unwrap();
        }
        let t = b.finish();
        let ex = Explorer::new(&t, Config::default(), Query::wildcard(&["a", "b", "c"])).unwrap();
        let base = Segmentation::singleton(ex.context().clone());
        let s_c = cut_segmentation(&ex, &base, "c").unwrap().unwrap();
        let s_ab = {
            let s_a = cut_segmentation(&ex, &base, "a").unwrap().unwrap();
            cut_segmentation(&ex, &s_a, "b").unwrap().unwrap()
        };
        assert_eq!(s_ab.attributes(), vec!["a", "b"]);
        let composed = compose(&ex, &s_c, &s_ab).unwrap().unwrap();
        // 2 pieces × cut on b × cut on a = 8.
        assert_eq!(composed.depth(), 8);
        assert!(composed
            .check_partition(&t, ex.context_selection())
            .unwrap()
            .is_partition());
        // Composed queries carry constraints on all three attributes.
        let attrs = composed.attributes();
        for a in ["a", "b", "c"] {
            assert!(attrs.contains(&a), "missing {a} in {attrs:?}");
        }
    }

    #[test]
    fn a_counted_level_below_the_bound_is_cut_from_the_selections_it_holds() {
        // S1 cuts `a` at 19 | 20. Composed with a segmentation on `g`
        // and `b`, its inner level cuts each half on `b`: four pieces,
        // the two below 20 holding one value of `g`, the two above three.
        // The last level cuts them on `g` into 4 + 2 = 6 pieces. Twice
        // its inputs, 8, reach a bound of 7 or 8 that the 6 stay below:
        // the level is counted — its derived inputs materialised — then
        // cut from the selections the count holds: the pieces, scans,
        // selections and medians of the public `compose`, which never
        // counts. At a bound of 6 the count is the answer: the inputs'
        // scans, and no median on the level.
        let mut b = TableBuilder::new("t");
        b.add_column("a", DataType::Int)
            .add_column("b", DataType::Int)
            .add_column("g", DataType::Int);
        for i in 0..80i64 {
            let a = i % 40;
            let g = if a < 20 { 0 } else { a % 3 };
            b.push_row(vec![Value::Int(a), Value::Int(i % 11), Value::Int(g)])
                .unwrap();
        }
        let t = b.finish();
        let run = |reject_at: usize| {
            let ctx = Query::wildcard(&["g", "a", "b"]);
            let ex = Explorer::new(&t, Config::default(), ctx).unwrap();
            let base = Segmentation::singleton(ex.context().clone());
            let s1 = cut_segmentation(&ex, &base, "a").unwrap().unwrap();
            let by_g = cut_segmentation(&ex, &base, "g").unwrap().unwrap();
            let s2 = cut_segmentation(&ex, &by_g, "b").unwrap().unwrap();
            assert_eq!(s2.attributes(), ["g", "b"]);
            let before = (ex.backend_ops(), ex.cache_stats().sel_misses);
            let composed = if reject_at == usize::MAX {
                compose(&ex, &s1, &s2).unwrap().map(|seg| seg.to_string())
            } else {
                let pieces = lookup_pieces(&ex, &s1).unwrap();
                match compose_pieces(&ex, pieces, &s2.attributes(), reject_at).unwrap() {
                    Some(Composed::Pieces(pieces, _)) => {
                        Some(release_pieces(&ex, pieces).unwrap().to_string())
                    }
                    Some(Composed::Rejected(depth)) => Some(format!("rejected at {depth}")),
                    None => None,
                }
            };
            let (ops, misses) = (ex.backend_ops(), ex.cache_stats().sel_misses);
            let spent = (
                ops.scans - before.0.scans,
                ops.medians - before.0.medians,
                misses - before.1,
            );
            (composed.unwrap(), spent)
        };
        let (public, spent) = run(usize::MAX);
        assert_eq!(public.lines().count(), 6, "{public}");
        // Four cuts: a median, a scan (the right half is what the left
        // leaves) and two selections each.
        assert_eq!(spent, (4, 4, 8));
        for reject_at in [7, 8] {
            assert_eq!(run(reject_at), (public.clone(), spent), "{reject_at}");
        }
        assert_eq!(run(6), ("rejected at 6".to_string(), (2, 2, 4)));
    }

    #[test]
    fn compose_with_unrelated_constant_attribute_is_none() {
        let mut b = TableBuilder::new("t");
        b.add_column("x", DataType::Int)
            .add_column("c", DataType::Int);
        for i in 0..4 {
            b.push_row(vec![Value::Int(i), Value::Int(1)]).unwrap();
        }
        let t = b.finish();
        let ex = Explorer::new(&t, Config::default(), Query::wildcard(&["x", "c"])).unwrap();
        let base = Segmentation::singleton(ex.context().clone());
        let s_x = cut_segmentation(&ex, &base, "x").unwrap().unwrap();
        // A segmentation "based on" the constant attribute c cannot be
        // built by cutting, so hand-craft one for the test via wildcard.
        let fake_c = Segmentation::new(vec![Query::wildcard(&["x", "c"])
            .refined(
                "c",
                charles_sdl::Constraint::set(vec![Value::Int(1)]).unwrap(),
            )
            .unwrap()]);
        assert!(compose(&ex, &s_x, &fake_c).unwrap().is_none());
    }
}
