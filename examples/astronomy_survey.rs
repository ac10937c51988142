//! Astronomy walk-through: from "total ignorance to topic familiarity".
//!
//! ```sh
//! cargo run --example astronomy_survey
//! ```
//!
//! The demo proposal promises to "strip down [a database's] content in a
//! few minutes, and bring the audience from a state of total ignorance to
//! topic familiarity". This example scripts that demonstration on the
//! synthetic sky catalogue: it narrates what Charles finds at each step,
//! compares the paper's default median cuts with the §5.2 quantile
//! extension on the skewed redshift column, and prints the HB-cuts trace.

use charles::advisor::{Explorer, StopReason};
use charles::viz::{segment_rows, segment_sparklines, stacked_bar, treemap};
use charles::{astro_table, Advisor, Config, Query, Segmentation};
use charles_bench::{homogeneity, quantile_cut_query, surprise};

fn main() {
    let sky = astro_table(50_000, 7);
    println!(
        "sky catalogue: {} objects, schema {}\n",
        sky.len(),
        sky.schema()
    );

    // Step 1: blank-slate exploration over the physics columns.
    let advisor = Advisor::new(&sky);
    let advice = advisor
        .advise_str("(class: , magnitude: , redshift: , survey: , dec: )")
        .expect("context parses");
    println!("=== step 1: what is in this database? ===");
    println!(
        "HB-cuts seeded {} attributes ({:?}), skipped {:?}, stopped on {:?}",
        advice.trace.seeds.len(),
        advice.trace.seeds,
        advice.trace.skipped,
        advice.trace.stop
    );
    for step in &advice.trace.steps {
        println!(
            "  compose {:?} × {:?}  (INDEP = {:.3}, {} pieces, {})",
            step.left_attrs,
            step.right_attrs,
            step.indep,
            step.depth,
            if step.accepted {
                "accepted"
            } else {
                "rejected → stop"
            }
        );
    }
    println!();
    for (i, r) in advice.ranked.iter().take(4).enumerate() {
        let rows = segment_rows(&sky, &r.segmentation, advice.context_size).expect("rows");
        let weights: Vec<f64> = rows.iter().map(|s| s.cover).collect();
        println!(
            "#{i} [{}] E={:.2} attrs={:?}",
            stacked_bar(&weights, 28),
            r.score.entropy,
            r.segmentation.attributes()
        );
        for row in &rows {
            println!("    {:>6} rows  {}", row.count, row.label);
        }
    }

    // Step 2: the best answer as a tree-map (§5.2 hierarchical display).
    let best = &advice.ranked[0];
    let rows = segment_rows(&sky, &best.segmentation, advice.context_size).expect("rows");
    let labels: Vec<String> = rows.iter().map(|r| r.label.clone()).collect();
    let weights: Vec<f64> = rows.iter().map(|r| r.cover).collect();
    println!("\n=== step 2: best segmentation as a tree-map ===");
    println!("{}", treemap(&labels, &weights, 100, 14));

    // Step 3: median vs quantile cuts on the skewed redshift column.
    println!("=== step 3: §5.2 quantile cuts on the skewed redshift column ===");
    let ex = Explorer::new(&sky, Config::default(), Query::wildcard(&["redshift"]))
        .expect("context non-empty");
    let ctx = ex.context().clone();
    let terciles = quantile_cut_query(&ex, &ctx, "redshift", 3)
        .expect("no store error")
        .expect("cuttable");
    println!("terciles of redshift (dense middle third made visible):");
    for q in &terciles {
        let n = ex.count(q).expect("countable");
        println!("    {:>6} objects  {}", n, q);
    }
    let seg = Segmentation::new(terciles);
    let report = seg
        .check_partition(&sky, ex.context_selection())
        .expect("checkable");
    println!("    partition check: {}", report.is_partition());

    // Step 4: drill into the quasars and look at the trace stopping.
    println!("\n=== step 4: drill into the quasar class ===");
    let quasars = advisor
        .advise_str("(class: {quasar}, magnitude: , redshift: )")
        .expect("context parses");
    println!("{} quasars; top suggestion:", quasars.context_size);
    if let Some(r) = quasars.ranked.first() {
        for q in r.segmentation.queries() {
            println!("    {q}");
        }
    }
    if quasars.trace.stop == Some(StopReason::IndependenceThreshold) {
        println!("    (magnitude and redshift are independent within the class — Charles stops composing)");
    }

    // Step 5: the diagnostics the paper left open — homogeneity (§3) and
    // surprise (§5.2) of the best answer, plus per-segment magnitude
    // distributions (sparklines over the context's value range).
    println!("\n=== step 5: homogeneity, surprise, and distributions ===");
    let ex_full = Explorer::new(
        &sky,
        Config::default(),
        Query::wildcard(&["class", "magnitude", "redshift", "survey", "dec"]),
    )
    .expect("context non-empty");
    let best_seg = &advice.ranked[0].segmentation;
    let h = homogeneity(&ex_full, best_seg).expect("scorable");
    let s = surprise(&ex_full, best_seg).expect("scorable");
    println!(
        "homogeneity gain = {:.3} (per attribute: {})",
        h.mean_gain,
        h.per_attribute
            .iter()
            .map(|(a, g)| format!("{a}={g:.2}"))
            .collect::<Vec<_>>()
            .join(", ")
    );
    println!("surprise (cover-weighted) = {:.3}", s.weighted);
    let sparks = segment_sparklines(
        &sky,
        best_seg.queries(),
        "magnitude",
        ex_full.context_selection(),
        24,
    )
    .expect("numeric attribute");
    println!("magnitude distribution per segment:");
    for (q, line) in best_seg.queries().iter().zip(&sparks) {
        let label = q.to_string();
        let short: String = label.chars().take(56).collect();
        println!("  {line}  {short}…");
    }
}
