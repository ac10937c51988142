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
//! partitioning pair as one unit — and the last level's halves
//! leave still derived — a composition that trips a stop criterion never
//! scans them. The public [`compose`] looks S1's pieces up once and
//! releases the result through the explorer's selection memo.

use super::cut::{cut_pieces, lookup_pieces, release_pieces};
use crate::engine::{Explorer, Piece};
use crate::error::CoreResult;
use charles_sdl::Segmentation;

/// Definition 7 over pieces: `pieces` cut on `attrs`, last attribute
/// innermost, and whether every cut of every level split its piece into
/// halves that partition it — then the result partitions whatever
/// `pieces` did. `None` when no cut succeeded at all.
pub(crate) fn compose_pieces(
    ex: &Explorer<'_>,
    mut pieces: Vec<Piece>,
    attrs: &[&str],
) -> CoreResult<Option<(Vec<Piece>, bool)>> {
    let (mut any, mut partition) = (false, true);
    // Definition 7 nests CUT_attN innermost, so apply attN first.
    for attr in attrs.iter().rev() {
        let (next, cut, partitions) = cut_pieces(ex, pieces, attr)?;
        pieces = next;
        any |= cut;
        partition &= partitions;
    }
    Ok(any.then_some((pieces, partition)))
}

/// Compose two segmentations. Returns `None` when no cut succeeded at all
/// (S1 is constant on every attribute of S2).
pub fn compose(
    ex: &Explorer<'_>,
    s1: &Segmentation,
    s2: &Segmentation,
) -> CoreResult<Option<Segmentation>> {
    compose_pieces(ex, lookup_pieces(ex, s1)?, &s2.attributes())?
        .map(|(pieces, _)| release_pieces(ex, pieces))
        .transpose()
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
            .check_partition(ex.backend(), ex.context_selection())
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
            .check_partition(ex.backend(), ex.context_selection())
            .unwrap()
            .is_partition());
        // Composed queries carry constraints on all three attributes.
        let attrs = composed.attributes();
        for a in ["a", "b", "c"] {
            assert!(attrs.contains(&a), "missing {a} in {attrs:?}");
        }
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
