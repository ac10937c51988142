//! Experiment E1 — reproduce Figure 2 of the paper: "Cut, composition and
//! product of segmentations".
//!
//! The figure works on a boats relation with a `type` attribute (fluit /
//! jacht) and numeric attributes `tonnage` and `year` (departure years
//! 1700–1780). It shows:
//!
//! * `CUT_tonnage(A)` — each type-piece of A splits at its own tonnage
//!   median (fluit 1000–2000 / 2000–5000, jacht 1000–3000 / 3000–5000);
//! * `COMPOSE(A, B)` — A's type pieces re-cut at their *conditional* year
//!   medians (fluit 1700–1744 / 1744–1780, jacht 1700–1760 / 1760–1780);
//! * `A × B` — the plain product uses B's *global* year boundary (1750)
//!   for both types.
//!
//! The distinguishing observable: COMPOSE adapts split points per piece,
//! the product does not. We assert exactly that, plus the partition
//! property for every derived segmentation.

use charles::advisor::{compose, cut_segmentation, product, Explorer};
use charles::{Config, Constraint, Query, Segmentation, TableBuilder, Value};
use charles_store::DataType;

/// Eight boats mirroring Figure 2's example: four fluits that sail early
/// (years 1700–1744), four jachts that sail late (1750–1780), tonnage
/// spread within type so every piece can be halved again.
fn figure2_table() -> charles::Table {
    let mut b = TableBuilder::new("boats");
    b.add_column("type", DataType::Str)
        .add_column("tonnage", DataType::Int)
        .add_column("year", DataType::Int);
    let rows = [
        ("fluit", 1200, 1700),
        ("fluit", 1800, 1720),
        ("fluit", 2500, 1736),
        ("fluit", 4000, 1744),
        ("jacht", 1500, 1750),
        ("jacht", 2800, 1760),
        ("jacht", 3500, 1770),
        ("jacht", 4800, 1780),
    ];
    for (ty, t, y) in rows {
        b.push_row(vec![Value::str(ty), Value::Int(t), Value::Int(y)])
            .unwrap();
    }
    b.finish()
}

fn explorer(t: &charles::Table) -> Explorer<'_> {
    Explorer::new(
        t,
        Config::default(),
        Query::wildcard(&["type", "tonnage", "year"]),
    )
    .unwrap()
}

/// Set A of the figure: {fluit} / {jacht}.
fn set_a(ex: &Explorer<'_>) -> Segmentation {
    cut_segmentation(ex, &Segmentation::singleton(ex.context().clone()), "type")
        .unwrap()
        .unwrap()
}

/// Set B of the figure: the year halves 1700–1750 / 1750–1780.
fn set_b(ex: &Explorer<'_>) -> Segmentation {
    cut_segmentation(ex, &Segmentation::singleton(ex.context().clone()), "year")
        .unwrap()
        .unwrap()
}

fn year_bounds(q: &Query) -> (i64, i64) {
    match q.constraint("year") {
        Some(Constraint::Range { lo, hi, .. }) => match (lo, hi) {
            (Value::Int(a), Value::Int(b)) => (*a, *b),
            other => panic!("unexpected year bounds {other:?}"),
        },
        other => panic!("expected year range, got {other:?}"),
    }
}

#[test]
fn set_a_splits_types_evenly() {
    let t = figure2_table();
    let ex = explorer(&t);
    let a = set_a(&ex);
    assert_eq!(a.depth(), 2);
    for q in a.queries() {
        assert_eq!(ex.count(q).unwrap(), 4, "{q}");
        assert!(matches!(
            q.constraint("type"),
            Some(Constraint::Set(v)) if v.len() == 1
        ));
    }
}

#[test]
fn cut_tonnage_of_a_adapts_medians_per_type() {
    // Figure 2 top: CUT_tonnage(A) gives fluit 1000–2000 / 2000–5000 and
    // jacht 1000–3000 / 3000–5000 — the tonnage boundary *differs* per
    // type because each piece is cut at its own median.
    let t = figure2_table();
    let ex = explorer(&t);
    let a = set_a(&ex);
    let cut = cut_segmentation(&ex, &a, "tonnage").unwrap().unwrap();
    assert_eq!(cut.depth(), 4);
    for q in cut.queries() {
        assert_eq!(ex.count(q).unwrap(), 2, "{q}");
    }
    // Collect the per-type split boundaries: they must differ.
    let mut uppers_of_lower_piece: Vec<i64> = Vec::new();
    for q in cut.queries() {
        if let Some(Constraint::Range {
            lo: Value::Int(lo),
            hi: Value::Int(hi),
            ..
        }) = q.constraint("tonnage")
        {
            // The lower piece of each type starts at that type's minimum.
            if *lo == 1200 || *lo == 1500 {
                uppers_of_lower_piece.push(*hi);
            }
        }
    }
    assert_eq!(uppers_of_lower_piece.len(), 2);
    assert_ne!(
        uppers_of_lower_piece[0], uppers_of_lower_piece[1],
        "per-type medians must differ"
    );
    assert!(cut
        .check_partition(&t, ex.context_selection())
        .unwrap()
        .is_partition());
}

#[test]
fn compose_a_b_recuts_years_per_type() {
    // Figure 2 middle: COMPOSE(A,B) = fluit 1700–1744 / 1744–1780 and
    // jacht 1700–1760 / 1760–1780 — conditional year medians.
    let t = figure2_table();
    let ex = explorer(&t);
    let a = set_a(&ex);
    let b = set_b(&ex);
    let composed = compose(&ex, &a, &b).unwrap().unwrap();
    assert_eq!(composed.depth(), 4);
    for q in composed.queries() {
        assert_eq!(ex.count(q).unwrap(), 2, "{q}");
    }
    // The fluit year boundary (~1720/1736) differs from the jacht one
    // (~1760/1770): collect the upper bound of each type's early piece.
    let mut early_uppers = std::collections::BTreeMap::new();
    for q in composed.queries() {
        let ty = match q.constraint("type") {
            Some(Constraint::Set(v)) => v[0].render(),
            _ => panic!("type constraint lost"),
        };
        let (lo, hi) = year_bounds(q);
        // Early piece = the one whose lower bound is the type minimum.
        if lo == 1700 || lo == 1750 {
            early_uppers.insert(ty, hi);
        }
    }
    assert_eq!(early_uppers.len(), 2);
    let fluit = early_uppers["fluit"];
    let jacht = early_uppers["jacht"];
    assert!(
        fluit < 1750,
        "fluit early piece must end before 1750, got {fluit}"
    );
    assert!(
        jacht >= 1750,
        "jacht early piece must end after 1750, got {jacht}"
    );
    assert!(composed
        .check_partition(&t, ex.context_selection())
        .unwrap()
        .is_partition());
}

#[test]
fn product_a_b_uses_global_year_boundary() {
    // Figure 2 bottom: A × B intersects A's type pieces with B's *global*
    // year halves — all cells share B's single year boundary.
    let t = figure2_table();
    let ex = explorer(&t);
    let a = set_a(&ex);
    let b = set_b(&ex);
    let prod = product(&ex, &a, &b).unwrap();
    // 2 × 2 cells; with this data the off-type-era cells are thin but
    // non-empty only where types overlap B's halves. fluits all sail
    // before 1750, jachts from 1750 → exactly 2 non-empty cells remain
    // after pruning (the diagonal), which is the dependence signal.
    assert_eq!(prod.depth(), 2, "{prod}");
    let mut boundaries = std::collections::BTreeSet::new();
    for q in prod.queries() {
        let (lo, hi) = year_bounds(q);
        boundaries.insert(lo);
        boundaries.insert(hi);
    }
    // Global halves only: every cell shares the single year boundary of B
    // (the global median falls between the last fluit, 1744, and the first
    // jacht, 1750 — the figure rounds it to 1750). Exactly one interior
    // boundary pair may appear.
    let interior: Vec<i64> = boundaries
        .iter()
        .copied()
        .filter(|&b| b != 1700 && b != 1780)
        .collect();
    assert_eq!(interior.len(), 2, "one shared split: {boundaries:?}");
    assert_eq!(interior[0] + 1, interior[1], "adjacent closed bounds");
    assert!(
        (1744..1750).contains(&interior[0]),
        "global boundary {interior:?} must separate fluits from jachts"
    );
    assert!(prod
        .check_partition(&t, ex.context_selection())
        .unwrap()
        .is_partition());
}

#[test]
fn product_vs_compose_balance_tells_dependence() {
    // The figure's point: with type ↔ year dependence, COMPOSE keeps four
    // balanced pieces while the raw product collapses. Entropy sees it.
    let t = figure2_table();
    let ex = explorer(&t);
    let a = set_a(&ex);
    let b = set_b(&ex);
    let composed = compose(&ex, &a, &b).unwrap().unwrap();
    let prod = product(&ex, &a, &b).unwrap();
    let e_compose = charles::advisor::entropy(&ex, &composed).unwrap();
    let e_product = charles::advisor::entropy(&ex, &prod).unwrap();
    assert!(
        e_compose > e_product + 0.5,
        "compose {e_compose} should clearly beat product {e_product}"
    );
    // And INDEP flags the dependence (well under the 0.99 threshold).
    let v = charles::advisor::indep(&ex, &a, &b).unwrap();
    assert!(v < 0.8, "INDEP {v} should reveal type↔year dependence");
}
