//! Cross-crate coverage of the §5.2 extensions and the open-question
//! modules (homogeneity, surprise, sparklines, multi-level pies, adaptive
//! cuts, lazy generation) working together on realistic data.

use charles::advisor::{Explorer, LazyGenerator};
use charles::viz::{multi_level_pie, segment_sparklines, PieLevel};
use charles::{astro_table, voc_table, Config, Query, Segmentation};
use charles_bench::baselines::{random_segmentations, RandomOptions};
use charles_bench::{
    adaptive_segmentations, homogeneity, quantile_cut_segmentation, rank_by_surprise, surprise,
    AdaptiveOptions,
};

#[test]
fn homogeneity_of_hbcuts_beats_random_on_voc() {
    let t = voc_table(5_000, 31);
    let ex = Explorer::new(
        &t,
        Config::default(),
        Query::wildcard(&["type_of_boat", "tonnage", "built", "departure_harbour"]),
    )
    .unwrap();
    let hb = charles::hb_cuts(&ex).unwrap();
    let h_hb = homogeneity(&ex, &hb.ranked[0].segmentation).unwrap();
    let rand = random_segmentations(
        &ex,
        RandomOptions {
            count: 5,
            target_depth: hb.ranked[0].segmentation.depth().max(2),
            seed: 7,
        },
    )
    .unwrap();
    let h_rand: f64 = rand
        .iter()
        .map(|r| homogeneity(&ex, &r.segmentation).unwrap().mean_gain)
        .sum::<f64>()
        / rand.len() as f64;
    assert!(
        h_hb.mean_gain > h_rand,
        "hb {} vs random {h_rand}",
        h_hb.mean_gain
    );
    // Per-attribute entries only mention context attributes.
    for (attr, gain) in &h_hb.per_attribute {
        assert!(ex.attributes().contains(&attr.as_str()));
        assert!((0.0..=1.0).contains(gain));
    }
}

#[test]
fn surprise_reranking_is_a_permutation() {
    let t = voc_table(5_000, 32);
    let ex = Explorer::new(
        &t,
        Config::default(),
        Query::wildcard(&["type_of_boat", "tonnage", "built"]),
    )
    .unwrap();
    let hb = charles::hb_cuts(&ex).unwrap();
    let n = hb.ranked.len();
    let reranked = rank_by_surprise(&ex, hb.ranked.clone()).unwrap();
    assert_eq!(reranked.len(), n);
    // Scores are sorted descending and all finite.
    for w in reranked.windows(2) {
        assert!(w[0].0 >= w[1].0 - 1e-12);
    }
    // The same segmentations, possibly reordered.
    let mut before: Vec<String> = hb
        .ranked
        .iter()
        .map(|r| charles::advisor::fingerprint(&r.segmentation))
        .collect();
    let mut after: Vec<String> = reranked
        .iter()
        .map(|(_, r)| charles::advisor::fingerprint(&r.segmentation))
        .collect();
    before.sort();
    after.sort();
    assert_eq!(before, after);
}

#[test]
fn surprise_weighted_score_is_nonnegative() {
    let t = astro_table(4_000, 33);
    let ex = Explorer::new(
        &t,
        Config::default(),
        Query::wildcard(&["class", "magnitude", "redshift"]),
    )
    .unwrap();
    let hb = charles::hb_cuts(&ex).unwrap();
    for r in &hb.ranked {
        let s = surprise(&ex, &r.segmentation).unwrap();
        assert!(s.weighted >= 0.0);
        assert_eq!(s.per_segment.len(), r.segmentation.depth());
    }
}

#[test]
fn quantile_segmentation_composes_with_median_cuts() {
    // Mix the extension with the core primitive: tercile-cut the context
    // on one attribute, then median-cut the result on another.
    let t = voc_table(5_000, 34);
    let ex = Explorer::new(
        &t,
        Config::default(),
        Query::wildcard(&["tonnage", "built"]),
    )
    .unwrap();
    let base = Segmentation::singleton(ex.context().clone());
    let terciles = quantile_cut_segmentation(&ex, &base, "tonnage", 3)
        .unwrap()
        .unwrap();
    assert_eq!(terciles.depth(), 3);
    let mixed = charles::advisor::cut_segmentation(&ex, &terciles, "built")
        .unwrap()
        .unwrap();
    assert_eq!(mixed.depth(), 6);
    assert!(mixed
        .check_partition(&t, ex.context_selection())
        .unwrap()
        .is_partition());
}

#[test]
fn lazy_generator_streams_while_eager_blocks() {
    let t = voc_table(10_000, 36);
    let ex = Explorer::new(
        &t,
        Config::default(),
        Query::wildcard(&["type_of_boat", "tonnage", "built", "departure_harbour"]),
    )
    .unwrap();
    let mut gen = LazyGenerator::new(&ex);
    let mut seen = 0;
    while let Some((seg, score)) = gen.next_segmentation().unwrap() {
        seen += 1;
        assert!(seg.depth() >= 2);
        assert!(score.entropy >= 0.0);
        if seen > 64 {
            panic!("generator does not terminate");
        }
    }
    assert!(seen >= 4, "only {seen} answers");
    assert!(gen.stop_reason().is_some());
}

#[test]
fn adaptive_cuts_produce_valid_heterogeneous_partitions_on_voc() {
    let t = voc_table(5_000, 37);
    let ex = Explorer::new(
        &t,
        Config::default(),
        Query::wildcard(&["type_of_boat", "tonnage", "built"]),
    )
    .unwrap();
    let ranked = adaptive_segmentations(
        &ex,
        AdaptiveOptions {
            restarts: 6,
            target_depth: 8,
            exploration: 0.85,
            seed: 99,
        },
    )
    .unwrap();
    assert!(!ranked.is_empty());
    for r in &ranked {
        assert!(r
            .segmentation
            .check_partition(&t, ex.context_selection())
            .unwrap()
            .is_partition());
    }
}

#[test]
fn sparklines_and_multipie_render_for_advice() {
    let t = astro_table(5_000, 38);
    let advice = charles::Advisor::new(&t)
        .advise_str("(class: , magnitude: , redshift: )")
        .unwrap();
    let best = &advice.ranked[0].segmentation;
    let ex = Explorer::new(&t, Config::default(), advice.context.clone()).unwrap();
    let sparks =
        segment_sparklines(&t, best.queries(), "magnitude", ex.context_selection(), 16).unwrap();
    assert_eq!(sparks.len(), best.depth());
    for s in &sparks {
        assert_eq!(s.chars().count(), 16);
    }
    // Build a two-level pie: group segments by their first constrained
    // attribute value rendering.
    let covers: Vec<f64> = best
        .queries()
        .iter()
        .map(|q| ex.cover(q).unwrap())
        .collect();
    let level = PieLevel {
        groups: vec![covers.clone()], // single group: degenerate but valid
    };
    let pie = multi_level_pie(&level, 6);
    assert!(pie.lines().count() > 0);
}
