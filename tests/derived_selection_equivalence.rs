//! Derived ⇔ re-evaluated selections.
//!
//! CUT hands each half on as its parent's bitmap plus the one conjunct
//! that narrows it, and the half's selection is materialised as
//! `parent ∧ scan(conjunct)`: one scan of the parent's rows instead of
//! one per conjunct of the half's whole query. That is only the same
//! bitmap if refining a constraint never widens it (`R(c ∩ d) ⊆ R(c)`;
//! the unit half of that is `charles_sdl`'s `intersect_only_ever_narrows`)
//! and if the scan kernels agree with themselves across constraint forms,
//! over a whole column and within a selection — so this suite
//! checks it bit for bit, over random tables with nulls, NaN floats,
//! `Int` columns under `Float` bounds and integers beyond 2⁵³ (where two
//! neighbours are one `f64`), for contexts that already constrain the
//! attribute being cut, on every shipped backend.
//!
//! A cut's right half may be more derived still: when the cut's
//! statistics covered every row of the parent the halves partition it,
//! and the right one is `parent ∧ ¬left`, no scan of its own. Whether
//! they did is decided per cut, so the suite holds both outcomes to the
//! same conjunctions: a NaN in the parent (`f`, while the context leaves
//! it unconstrained) or a null (an attribute cut from outside the
//! context, which only screens the nulls of the attributes it mentions)
//! must send each half to its own scan — and so must a `Float` bound the
//! context holds on `z`, which compares as `f64` where the halves' own
//! integer bounds compare exactly.
//!
//! The public `cut_segmentation` / `compose` run the very code HB-cuts
//! runs (`cut_pieces`, `compose_pieces`, `Explorer::materialise`) and
//! release every bitmap they derive into the explorer's selection memo,
//! which is where this suite reads them back — a lookup that must hit.
//! The bitmaps `hb_cuts` itself carries never leave the crate; its
//! answers do, and their entropies must be the re-evaluated ones to the
//! last bit (`charles-core`'s `carried_pieces_equal_their_conjunctions`
//! compares the carried bitmaps themselves).

use charles::advisor::{
    compose, cut_segmentation, entropy_from_covers, hb_cuts, CoreError, Explorer,
};
use charles::sdl::eval;
use charles::store::disk::write_table;
use charles::store::{Bitmap, RowTable};
use charles::{
    Backend, Config, Constraint, DataType, Predicate, Query, Segmentation, Table, TableBuilder,
    Value,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::atomic::{AtomicUsize, Ordering};

mod common;

/// Attribute order matters twice: `f` is first so `poison_float_cell`
/// finds its cells, and all but the last context list all five.
const ATTRS: [&str; 5] = ["f", "x", "y", "k", "z"];

/// `z` starts where `f64` stops telling neighbouring integers apart.
const BEYOND_F64: i64 = 1 << 53;

/// One random dataset on all three backends. NaN cannot enter a `Table`
/// (`TableBuilder` rejects it), so the table carries a marker value in
/// the cells that are NaN in the row store (`RowTable::new` checks only
/// the type) and in the `.charles` file (patched after writing).
struct Dataset {
    table: Table,
    rows: RowTable,
    disk: Table,
}

fn arb_dataset() -> impl Strategy<Value = Dataset> {
    (
        40usize..260, // rows: from under one bitmap word to several
        4i64..60,     // numeric domain
        1usize..6,    // categories
        0.0f64..1.0,  // correlation dial
        0.0f64..0.3,  // null rate, every column
        any::<u64>(), // seed
    )
        .prop_map(|(n, domain, cats, corr, nulls, seed)| {
            let mut rng = StdRng::seed_from_u64(seed);
            let nans = rng.gen_range(0usize..4);
            let mut b = TableBuilder::new("t");
            b.add_column("f", DataType::Float)
                .add_column("x", DataType::Int)
                .add_column("y", DataType::Int)
                .add_column("k", DataType::Str)
                .add_column("z", DataType::Int);
            let marker = |i: usize| 1.0e12 + i as f64;
            let mut cells = Vec::with_capacity(n);
            for i in 0..n {
                let x = rng.gen_range(0..domain);
                let y = if rng.gen_bool(corr) {
                    x + rng.gen_range(-2i64..=2)
                } else {
                    rng.gen_range(0..domain)
                };
                let f = if i < nans {
                    marker(i)
                } else {
                    x as f64 * 0.5 + rng.gen_range(0.0..3.0)
                };
                let k = format!("c{}", rng.gen_range(0..cats));
                let z = BEYOND_F64 + rng.gen_range(0..domain);
                let row: Vec<Option<Value>> = vec![
                    Value::Float(f),
                    Value::Int(x),
                    Value::Int(y),
                    Value::Str(k),
                    Value::Int(z),
                ]
                .into_iter()
                // A NaN under a null would not be a NaN cell.
                .map(|v| (i < nans || !rng.gen_bool(nulls)).then_some(v))
                .collect();
                b.push_row_opt(row.clone()).unwrap();
                cells.push(row);
            }
            let table = b.finish();

            for row in cells.iter_mut().take(nans) {
                row[0] = Some(Value::Float(f64::NAN));
            }
            let rows = RowTable::new(Backend::schema(&table).clone(), cells).unwrap();

            static FILES: AtomicUsize = AtomicUsize::new(0);
            let path = std::env::temp_dir().join(format!(
                "charles-derived-{}-{}.charles",
                std::process::id(),
                FILES.fetch_add(1, Ordering::Relaxed)
            ));
            write_table(&table, &path).unwrap();
            for i in 0..nans {
                common::poison_float_cell(&path, marker(i), f64::NAN);
            }
            let disk = Table::open(&path).unwrap();
            disk.verify().unwrap();
            std::fs::remove_file(&path).unwrap();

            // The NaN cells are there: valid rows no range can hold.
            let valued = charles::store::StorePredicate::range(
                "f",
                Value::Float(f64::NEG_INFINITY),
                Value::Float(f64::INFINITY),
                true,
            );
            let in_table = table.count(&valued).unwrap();
            assert_eq!(rows.count(&valued).unwrap(), in_table - nans);
            assert_eq!(disk.count(&valued).unwrap(), in_table - nans);
            Dataset { table, rows, disk }
        })
}

/// Contexts that already constrain the attributes CUT will cut: each
/// piece's conjunct is then an *intersection*, not a fresh constraint.
fn contexts(domain_hi: i64) -> Vec<Query> {
    let hi = domain_hi.max(4);
    let with = |attr: &str, c: Constraint| {
        Query::conjunction(
            ATTRS
                .iter()
                .map(|a| {
                    if *a == attr {
                        Predicate::new(*a, c.clone())
                    } else {
                        Predicate::any(*a)
                    }
                })
                .collect(),
        )
    };
    let ints = |vals: &[i64]| Constraint::set(vals.iter().map(|v| Value::Int(*v)).collect());
    vec![
        Query::wildcard(&ATTRS),
        // Closed range, Int bounds.
        with(
            "x",
            Constraint::range(Value::Int(1), Value::Int(hi - 1)).unwrap(),
        ),
        // An Int column under Float bounds, closed and half-open.
        with(
            "x",
            Constraint::range(Value::Float(0.5), Value::Float(hi as f64 - 1.5)).unwrap(),
        ),
        with(
            "y",
            Constraint::range_with(Value::Float(1.0), Value::Float(hi as f64 - 1.0), false)
                .unwrap(),
        ),
        // Half-open range on the Float column (the NaN cells are in its
        // context only while it is unconstrained).
        with(
            "f",
            Constraint::range_with(Value::Float(0.75), Value::Float(hi as f64 * 0.4), false)
                .unwrap(),
        ),
        // Sets: on a numeric column (CUT's range pieces filter the
        // members), with an absent member, and on the nominal one.
        with(
            "x",
            ints(&[0, 1, 2, 3, 5, 8, 13, 21, 34, 55, 10_000]).unwrap(),
        ),
        with(
            "k",
            Constraint::set(vec![Value::str("c0"), Value::str("c2"), Value::str("c3")]).unwrap(),
        ),
        // Two constrained attributes: every candidate lists both, so
        // COMPOSE re-cuts both.
        with(
            "x",
            Constraint::range(Value::Int(1), Value::Int(hi - 1)).unwrap(),
        )
        .refined(
            "k",
            Constraint::set(vec![Value::str("c1"), Value::str("c0"), Value::str("c4")]).unwrap(),
        )
        .unwrap(),
        // Integer bounds no `f64` comparison gets right.
        with(
            "z",
            Constraint::range(Value::Int(BEYOND_F64 + 1), Value::Int(BEYOND_F64 + hi - 1)).unwrap(),
        ),
        // The same column under `Float` bounds, which compare as `f64`:
        // a bound can tie with a neighbour of the value it names, a
        // refined half keeps it, and the halves of a cut may overlap —
        // each must still be its own conjunction, not the other's rest.
        with(
            "z",
            Constraint::range(
                Value::Float((BEYOND_F64 + 2) as f64),
                Value::Float((BEYOND_F64 + hi) as f64),
            )
            .unwrap(),
        ),
        // `y` and `z` left out: the extent keeps their null rows, and a
        // cut on either from outside has them in its parent.
        Query::wildcard(&["f", "x", "k"]),
    ]
}

/// `R(q) ∧ context_selection()` with every conjunct scanned whole — one
/// plain `eval` of each, ANDed — the way every piece was materialised
/// before derivation, and before a conjunct could be evaluated within a
/// selection: the reference shares no code path with the one it checks.
fn evaluated(backend: &dyn Backend, ex: &Explorer<'_>, q: &Query) -> Bitmap {
    let mut sel = ex.context_selection().clone();
    for p in q.predicates() {
        sel.and_inplace(&backend.eval(&eval::lower_predicate(p)).unwrap());
    }
    sel
}

/// Every piece of `seg` must be in the memo already (released there by
/// the primitive that derived it) and equal its conjunction bit for bit.
fn check_released(
    backend: &dyn Backend,
    ex: &Explorer<'_>,
    seg: &Segmentation,
    what: &str,
) -> Result<(), TestCaseError> {
    for q in seg.queries() {
        let before = ex.cache_stats();
        let derived = ex.selection(q).unwrap();
        prop_assert_eq!(
            ex.cache_stats().sel_misses,
            before.sel_misses,
            "{}: {} was re-evaluated, not released",
            what,
            q
        );
        prop_assert_eq!(&*derived, &evaluated(backend, ex, q), "{}: {}", what, q);
    }
    Ok(())
}

fn check_backend(backend: &dyn Backend, ctx: &Query, label: &str) -> Result<usize, TestCaseError> {
    let ex = match Explorer::new(backend, Config::default(), ctx.clone()) {
        Ok(ex) => ex,
        Err(CoreError::EmptyContext) => return Ok(0),
        Err(e) => return Err(TestCaseError::fail(format!("{label}: {e}"))),
    };
    let what = |stage: &str| format!("{label}, {ctx}, {stage}");

    // Seeds, then every ordered pair composed, then a composition cut
    // once more by a third seed: three generations of derivation.
    let base = Segmentation::singleton(ctx.clone());
    let mut seeds = Vec::new();
    let mut seeds_in_context = 0;
    for attr in ATTRS {
        if let Some(seed) = cut_segmentation(&ex, &base, attr).unwrap() {
            check_released(backend, &ex, &seed, &what(&format!("CUT_{attr}")))?;
            seeds.push(seed);
            seeds_in_context += usize::from(ctx.mentions(attr));
        }
    }
    let mut checked = seeds.len();
    for (i, s1) in seeds.iter().enumerate() {
        for (j, s2) in seeds.iter().enumerate() {
            if i == j {
                continue;
            }
            let Some(composed) = compose(&ex, s1, s2).unwrap() else {
                continue;
            };
            check_released(backend, &ex, &composed, &what("COMPOSE"))?;
            checked += 1;
            let third = &seeds[(j + 1) % seeds.len()];
            if let Some(deeper) = compose(&ex, &composed, third).unwrap() {
                check_released(backend, &ex, &deeper, &what("COMPOSE∘COMPOSE"))?;
                checked += 1;
            }
        }
    }

    // HB-cuts proper, on a fresh explorer: the entropies it ranks by come
    // from the bitmaps it carried; recompute them from whole conjunctions.
    let ex = Explorer::new(backend, Config::default(), ctx.clone()).unwrap();
    match hb_cuts(&ex) {
        Ok(out) => {
            for r in &out.ranked {
                let n = ex.context_size() as f64;
                let covers: Vec<f64> = r
                    .segmentation
                    .queries()
                    .iter()
                    .map(|q| evaluated(backend, &ex, q).count_ones() as f64 / n)
                    .collect();
                prop_assert_eq!(
                    r.score.entropy.to_bits(),
                    entropy_from_covers(&covers).to_bits(),
                    "{}: {}",
                    what("hb_cuts"),
                    r.segmentation
                );
            }
            checked += out.ranked.len();
        }
        Err(CoreError::NoCuttableAttribute) => prop_assert_eq!(seeds_in_context, 0),
        Err(e) => return Err(TestCaseError::fail(format!("{label}: {e}"))),
    }
    Ok(checked)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn derived_pieces_equal_their_reevaluated_conjunctions(data in arb_dataset()) {
        let hi = match data.table.min_max("x", &data.table.all_rows()).unwrap() {
            Some((_, Value::Int(hi))) => hi,
            _ => 0,
        };
        let mut checked = 0;
        for ctx in contexts(hi) {
            checked += check_backend(&data.table, &ctx, "table")?;
            checked += check_backend(&data.rows, &ctx, "rowstore")?;
            checked += check_backend(&data.disk, &ctx, "disk")?;
        }
        prop_assert!(checked > 0, "every context of the case was empty or uncuttable");
    }
}
