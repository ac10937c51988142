//! Experiment E3 — Figure 4 conformance: the HB-cuts pseudo-code's
//! observable contract, exercised on realistic (VOC) data.
//!
//! * line 4: one candidate per cuttable attribute;
//! * line 11: the most dependent pair is composed first;
//! * lines 15–16: both stopping criteria (maxIndep, maxDepth) fire and
//!   the triggering composition is discarded;
//! * line 23: candidates still alive at the stop are returned;
//! * line 25: output sorted by entropy.

use charles::advisor::{hb_cuts, indep, Explorer, StopReason};
use charles::{voc_table, Config, Query};

const VOC_CONTEXT: [&str; 5] = [
    "type_of_boat",
    "tonnage",
    "departure_harbour",
    "cape_arrival",
    "built",
];

#[test]
fn seeds_equal_cuttable_attributes() {
    let t = voc_table(5_000, 11);
    let ex = Explorer::new(&t, Config::default(), Query::wildcard(&VOC_CONTEXT)).unwrap();
    let out = hb_cuts(&ex).unwrap();
    // Every VOC context column varies, so every one must seed.
    assert_eq!(out.trace.seeds.len(), VOC_CONTEXT.len());
    assert!(out.trace.skipped.is_empty());
}

#[test]
fn first_composition_is_the_most_dependent_pair() {
    let t = voc_table(5_000, 11);
    let ex = Explorer::new(&t, Config::default(), Query::wildcard(&VOC_CONTEXT)).unwrap();
    let out = hb_cuts(&ex).unwrap();
    let first = out.trace.steps.first().expect("at least one step");
    // Recompute all pairwise INDEPs of the seeds and check minimality.
    let base = charles::Segmentation::singleton(ex.context().clone());
    let seeds: Vec<charles::Segmentation> = out
        .trace
        .seeds
        .iter()
        .map(|a| {
            charles::advisor::cut_segmentation(&ex, &base, a)
                .unwrap()
                .unwrap()
        })
        .collect();
    let mut min = f64::INFINITY;
    for i in 0..seeds.len() {
        for j in (i + 1)..seeds.len() {
            min = min.min(indep(&ex, &seeds[i], &seeds[j]).unwrap());
        }
    }
    assert!(
        (first.indep - min).abs() < 1e-9,
        "first step INDEP {} vs true minimum {min}",
        first.indep
    );
}

#[test]
fn max_indep_one_composes_until_depth() {
    // With maxIndep = 1.0 the independence stop can never fire; the loop
    // must end on the depth bound (or run out of candidates).
    let t = voc_table(3_000, 12);
    let cfg = Config::default().with_max_indep(1.0);
    let ex = Explorer::new(&t, cfg, Query::wildcard(&VOC_CONTEXT)).unwrap();
    let out = hb_cuts(&ex).unwrap();
    assert!(matches!(
        out.trace.stop,
        Some(StopReason::DepthLimit) | Some(StopReason::ExhaustedCandidates)
    ));
}

#[test]
fn max_indep_zero_stops_immediately() {
    // With maxIndep = 0 every pair trips the threshold: only seeds return.
    let t = voc_table(3_000, 12);
    let cfg = Config::default().with_max_indep(0.0);
    let ex = Explorer::new(&t, cfg, Query::wildcard(&VOC_CONTEXT)).unwrap();
    let out = hb_cuts(&ex).unwrap();
    assert_eq!(out.trace.stop, Some(StopReason::IndependenceThreshold));
    assert_eq!(out.ranked.len(), out.trace.seeds.len());
    assert!(out.trace.steps.iter().all(|s| !s.accepted));
}

#[test]
fn depth_bound_never_exceeded_in_output() {
    let t = voc_table(5_000, 13);
    for max_depth in [4, 8, 12] {
        let cfg = Config::default()
            .with_max_depth(max_depth)
            .with_max_indep(1.0);
        let ex = Explorer::new(&t, cfg, Query::wildcard(&VOC_CONTEXT)).unwrap();
        let out = hb_cuts(&ex).unwrap();
        for r in &out.ranked {
            assert!(
                r.segmentation.depth() < max_depth * 4,
                "depth {} returned under bound {max_depth}",
                r.segmentation.depth()
            );
        }
        // The rejected composition (if any) was at least max_depth deep.
        if out.trace.stop == Some(StopReason::DepthLimit) {
            let last = out.trace.steps.last().unwrap();
            assert!(last.depth >= max_depth);
        }
    }
}

#[test]
fn discarded_composition_not_in_output() {
    // When the loop stops, `newSeg` is dropped: no returned segmentation
    // may match the rejected step's depth AND attribute union.
    let t = voc_table(3_000, 14);
    let ex = Explorer::new(&t, Config::default(), Query::wildcard(&VOC_CONTEXT)).unwrap();
    let out = hb_cuts(&ex).unwrap();
    if let Some(last) = out.trace.steps.last().filter(|s| !s.accepted) {
        let mut union: Vec<String> = last
            .left_attrs
            .iter()
            .chain(&last.right_attrs)
            .cloned()
            .collect();
        union.sort();
        union.dedup();
        for r in &out.ranked {
            let mut attrs: Vec<String> = r
                .segmentation
                .attributes()
                .iter()
                .map(|s| s.to_string())
                .collect();
            attrs.sort();
            assert!(
                attrs != union,
                "rejected composition {union:?} leaked into output"
            );
        }
    }
}

#[test]
fn output_is_entropy_sorted_and_capped() {
    let t = voc_table(5_000, 15);
    let cfg = Config::default().with_max_results(4);
    let ex = Explorer::new(&t, cfg, Query::wildcard(&VOC_CONTEXT)).unwrap();
    let out = hb_cuts(&ex).unwrap();
    assert!(out.ranked.len() <= 4);
    for w in out.ranked.windows(2) {
        assert!(w[0].score.entropy >= w[1].score.entropy - 1e-12);
    }
}

#[test]
fn all_outputs_partition_the_context_on_real_data() {
    let t = voc_table(5_000, 16);
    let ex = Explorer::new(&t, Config::default(), Query::wildcard(&VOC_CONTEXT)).unwrap();
    let out = hb_cuts(&ex).unwrap();
    for r in &out.ranked {
        let report = r
            .segmentation
            .check_partition(&t, ex.context_selection())
            .unwrap();
        assert!(report.is_partition(), "{}: {report:?}", r.segmentation);
    }
}

#[test]
fn memoization_does_not_change_results() {
    // The §5.1 reuse optimization must be purely a performance feature.
    let t = voc_table(3_000, 17);
    let run = |memoize: bool| {
        let cfg = Config::default().with_memoize(memoize);
        let ex = Explorer::new(&t, cfg, Query::wildcard(&VOC_CONTEXT)).unwrap();
        hb_cuts(&ex)
            .unwrap()
            .ranked
            .iter()
            .map(|r| r.segmentation.to_string())
            .collect::<Vec<_>>()
    };
    assert_eq!(run(true), run(false));
}
