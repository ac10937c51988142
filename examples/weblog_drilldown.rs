//! Web-log triage: Charles as an ops analyst's first responder.
//!
//! ```sh
//! cargo run --example weblog_drilldown
//! ```
//!
//! The paper's intro motivates Charles with analysts grinding web logs.
//! This example plays out an incident-triage session: segment the whole
//! log, notice the error-dominated slice, drill into the 500s, and let
//! Charles reveal which section and country the slowness concentrates in.
//! It also compares the exact-median configuration against the §5.2
//! sampled-median configuration on the same context and reports the
//! agreement plus the operation counts.

use charles::{weblog_table, Advisor, Config, MedianStrategy, Session};
use std::sync::Arc;

fn main() {
    let log = Arc::new(weblog_table(100_000, 404));
    println!("web log: {} requests\n", log.len());

    // Triage step 1: the whole log.
    let mut session = Session::new(log.clone());
    let advice = session
        .start("(section: , status: , latency_ms: , country: , hour: )")
        .expect("context parses");
    println!("=== whole-log summary ===");
    for (i, r) in advice.ranked.iter().take(3).enumerate() {
        println!(
            "#{i} E={:.2} attrs={:?}",
            r.score.entropy,
            r.segmentation.attributes()
        );
        for q in r.segmentation.queries().iter().take(6) {
            println!("    {q}");
        }
        if r.segmentation.depth() > 6 {
            println!("    … {} more pieces", r.segmentation.depth() - 6);
        }
    }

    // Triage step 2: drill into the server errors.
    let errors = Advisor::new(log.as_ref())
        .advise_str("(status: {500}, section: , latency_ms: , country: )")
        .expect("context parses");
    println!("\n=== the 500s ({} requests) ===", errors.context_size);
    for (i, r) in errors.ranked.iter().take(3).enumerate() {
        println!(
            "#{i} E={:.2} attrs={:?}",
            r.score.entropy,
            r.segmentation.attributes()
        );
        for q in r.segmentation.queries().iter().take(4) {
            println!("    {q}");
        }
    }

    // Step 3: exact vs sampled medians (§5.2) on the same context.
    println!("\n=== exact vs sampled medians ===");
    let context = "(latency_ms: , bytes: , hour: )";
    let exact_advisor = Advisor::new(log.as_ref());
    let exact = exact_advisor.advise_str(context).expect("parses");
    let sampled_advisor = Advisor::with_config(
        log.as_ref(),
        Config::default().with_median(MedianStrategy::Sampled {
            size: 1024,
            seed: 7,
        }),
    );
    let sampled = sampled_advisor.advise_str(context).expect("parses");
    println!(
        "exact:   best E={:.3}, {} scans, {} medians",
        exact.ranked[0].score.entropy, exact.backend_ops.scans, exact.backend_ops.medians
    );
    println!(
        "sampled: best E={:.3}, {} scans, {} medians (reservoir of 1024)",
        sampled.ranked[0].score.entropy, sampled.backend_ops.scans, sampled.backend_ops.medians
    );
    let delta = (exact.ranked[0].score.entropy - sampled.ranked[0].score.entropy).abs();
    println!(
        "entropy difference of best answers: {delta:.4} — sampling {}",
        if delta < 0.1 {
            "preserves the answer quality"
        } else {
            "visibly changes the answers on this data"
        }
    );
}
