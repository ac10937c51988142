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
//! It ends with what one advice on a numeric context asked of the store:
//! the run's own count of column scans and medians, §5.1's "counts over
//! predicates and median calculations".

use charles::{weblog_table, Advisor, Session};
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

    // Step 3: the store work of one advice on a numeric context.
    println!("\n=== store work of one advice ===");
    let context = "(latency_ms: , bytes: , hour: )";
    let advice = Advisor::new(log.as_ref())
        .advise_str(context)
        .expect("parses");
    println!(
        "{context}: best E={:.3}, {} scans, {} medians over {} rows",
        advice.ranked[0].score.entropy,
        advice.backend_ops.scans,
        advice.backend_ops.medians,
        advice.context_size
    );
}
