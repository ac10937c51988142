//! Full-stack integration: the advisor over every dataset and backend.

use charles::advisor::Explorer;
use charles::viz::{render_panel, segment_rows};
use charles::{
    astro_table, read_csv_str, voc_table, weblog_table, write_csv_string, Advisor, Config, Query,
    RowTable, Session,
};
use charles_bench::baselines::{facet_segmentations, random_segmentations, RandomOptions};

#[test]
fn advisor_works_on_all_three_demo_datasets() {
    let contexts: [(&str, charles::Table); 3] = [
        (
            "(type_of_boat: , tonnage: , departure_harbour: )",
            voc_table(3_000, 1),
        ),
        ("(class: , magnitude: , redshift: )", astro_table(3_000, 2)),
        (
            "(section: , status: , latency_ms: )",
            weblog_table(3_000, 3),
        ),
    ];
    for (ctx, table) in &contexts {
        let advice = Advisor::new(table).advise_str(ctx).unwrap();
        assert!(
            !advice.ranked.is_empty(),
            "no advice for {ctx} on {}",
            table.name()
        );
        // The best answer should involve at least one composition or be a
        // clean binary cut with positive entropy.
        assert!(advice.ranked[0].score.entropy > 0.0);
        // All its queries render, parse back and emit SQL.
        for q in advice.ranked[0].segmentation.queries() {
            let reparsed = charles::parse_query(&q.to_string(), table.schema()).unwrap();
            assert_eq!(q, &reparsed);
            assert!(charles_sdl::query_to_sql(q, table.name()).contains("SELECT"));
        }
    }
}

#[test]
fn row_store_and_column_store_agree_on_advice() {
    let col = voc_table(2_000, 4);
    let row = RowTable::from_table(&col);
    let ctx = "(type_of_boat: , tonnage: , departure_harbour: )";
    let a_col = Advisor::new(&col).advise_str(ctx).unwrap();
    let a_row = Advisor::new(&row).advise_str(ctx).unwrap();
    assert_eq!(a_col.context_size, a_row.context_size);
    assert_eq!(a_col.ranked.len(), a_row.ranked.len());
    for (rc, rr) in a_col.ranked.iter().zip(&a_row.ranked) {
        assert!(
            (rc.score.entropy - rr.score.entropy).abs() < 1e-9,
            "entropy mismatch: {} vs {}",
            rc.score.entropy,
            rr.score.entropy
        );
        assert_eq!(rc.segmentation.depth(), rr.segmentation.depth());
    }
}

#[test]
fn csv_round_trip_preserves_advice() {
    let t = voc_table(1_000, 5);
    let csv = write_csv_string(&t);
    let t2 = read_csv_str("voc2", &csv).unwrap();
    let ctx = "(type_of_boat: , tonnage: )";
    let a1 = Advisor::new(&t).advise_str(ctx).unwrap();
    let a2 = Advisor::new(&t2).advise_str(ctx).unwrap();
    assert_eq!(a1.ranked.len(), a2.ranked.len());
    for (r1, r2) in a1.ranked.iter().zip(&a2.ranked) {
        assert_eq!(r1.segmentation.to_string(), r2.segmentation.to_string());
    }
}

#[test]
fn session_drills_to_exhaustion_or_depth_five() {
    let mut s = Session::new(std::sync::Arc::new(voc_table(5_000, 6)));
    s.start("(type_of_boat: , tonnage: , departure_harbour: , built: )")
        .unwrap();
    let mut sizes = vec![s.current().unwrap().context_size];
    for _ in 0..4 {
        match s.drill(0, 0) {
            Ok(advice) => sizes.push(advice.context_size),
            Err(_) => break, // segment too uniform to advise on: fine
        }
    }
    // Context sizes strictly shrink along the drill path.
    for w in sizes.windows(2) {
        assert!(w[1] < w[0], "drill did not narrow: {sizes:?}");
    }
    // And we can walk all the way back.
    while s.back().is_some() {}
    assert_eq!(s.depth(), 1);
}

#[test]
fn panel_renders_for_every_dataset() {
    for (ctx, table) in [
        ("(type_of_boat: , tonnage: )", voc_table(1_000, 7)),
        ("(class: , magnitude: )", astro_table(1_000, 8)),
        ("(section: , latency_ms: )", weblog_table(1_000, 9)),
    ] {
        let advice = Advisor::new(&table).advise_str(ctx).unwrap();
        let panel = render_panel(&table, &advice, 0, 100).unwrap();
        assert!(panel.contains("ranked answers"), "panel for {ctx}");
        let rows =
            segment_rows(&table, &advice.ranked[0].segmentation, advice.context_size).unwrap();
        let total: f64 = rows.iter().map(|r| r.cover).sum();
        assert!((total - 1.0).abs() < 1e-9);
    }
}

#[test]
fn hbcuts_beats_random_baseline_on_entropy() {
    let t = voc_table(3_000, 10);
    let ex = Explorer::new(
        &t,
        Config::default(),
        Query::wildcard(&["type_of_boat", "tonnage", "departure_harbour"]),
    )
    .unwrap();
    let hb = charles::hb_cuts(&ex).unwrap();
    let rand = random_segmentations(
        &ex,
        RandomOptions {
            count: 8,
            target_depth: hb.ranked[0].segmentation.depth().max(2),
            seed: 77,
        },
    )
    .unwrap();
    // Compare balance (entropy normalised by depth) — fair across depths.
    let hb_balance = hb.ranked[0].score.balance();
    let rand_best = rand
        .iter()
        .map(|r| r.score.balance())
        .fold(0.0f64, f64::max);
    assert!(
        hb_balance >= rand_best - 0.05,
        "HB-cuts balance {hb_balance} vs random best {rand_best}"
    );
}

#[test]
fn facets_are_narrower_than_hbcuts() {
    // The related-work contrast: facets have breadth 1, HB-cuts' best
    // answer on dependent VOC columns composes several attributes.
    let t = voc_table(3_000, 11);
    let ex = Explorer::new(
        &t,
        Config::default(),
        Query::wildcard(&[
            "type_of_boat",
            "tonnage",
            "departure_harbour",
            "cape_arrival",
        ]),
    )
    .unwrap();
    let hb = charles::hb_cuts(&ex).unwrap();
    let facets = facet_segmentations(&ex, 4).unwrap();
    let hb_breadth = hb.ranked[0].score.breadth;
    assert!(hb_breadth >= 2, "VOC has dependencies to compose");
    for f in &facets {
        assert_eq!(f.score.breadth, 1);
    }
}

#[test]
fn stats_expose_workload_shape() {
    // §5.1: the workload is counts + medians. Verify both get exercised
    // and scale with context width.
    let t = voc_table(2_000, 12);
    let narrow = Advisor::new(&t).advise_str("(tonnage: , built: )").unwrap();
    let wide = Advisor::new(&t)
        .advise_str("(type_of_boat: , tonnage: , departure_harbour: , cape_arrival: , built: )")
        .unwrap();
    assert!(wide.backend_ops.scans > narrow.backend_ops.scans);
    assert!(wide.backend_ops.medians >= narrow.backend_ops.medians);
    // No selection is looked up twice: each piece's bitmap is derived
    // from its parent's exactly once — a miss by the counter's
    // definition — so there is no hit to count. Inside a context no cut
    // attribute is null, so a cut's two halves partition their parent and
    // the pair costs one scan: the left half's; the right half is what
    // that leaves. Over numeric attributes those are all the scans there
    // are; nominal cuts add one per frequency table.
    assert_eq!((narrow.cache.sel_hits, wide.cache.sel_hits), (0, 0));
    assert!(wide.cache.sel_misses > narrow.cache.sel_misses);
    assert_eq!(2 * narrow.backend_ops.scans, narrow.cache.sel_misses);
    assert!(2 * wide.backend_ops.scans > wide.cache.sel_misses);
    assert!(wide.backend_ops.scans < wide.cache.sel_misses);
}
