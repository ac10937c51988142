//! Equivalence oracle for the admission-time static analyzer: on every
//! *satisfiable* context, the advisor's output with analysis enabled is
//! bitwise-identical to its output with analysis disabled — across the
//! `Table` built in memory and the same `Table` opened from a `.charles` file.
//!
//! This is the acceptance bar for the analysis stage: it may reject or
//! prune, but it must never *change* an answer. Duplicate-free contexts
//! flow through admission untouched (not even re-canonicalized), and
//! repeated-attribute conjunctions — which only the analyzer makes
//! advisable at all — must produce exactly the answer of their merged
//! spelling.

use charles::{voc_table, Advisor, Config, Table};
use charles_store::disk::write_table;
use charles_store::Backend;

const ROWS: usize = 1_203;

fn fixture() -> Table {
    voc_table(ROWS, 2026)
}

fn disk_fixture(t: &Table) -> Table {
    use std::sync::atomic::{AtomicUsize, Ordering};
    static COUNTER: AtomicUsize = AtomicUsize::new(0);
    let path = std::env::temp_dir().join(format!(
        "charles-analysis-eq-{}-{}.charles",
        std::process::id(),
        COUNTER.fetch_add(1, Ordering::Relaxed)
    ));
    write_table(t, &path).expect("write .charles fixture");
    let disk = Table::open(&path).expect("open .charles fixture");
    #[cfg(unix)]
    let _ = std::fs::remove_file(&path);
    disk
}

fn backends(t: &Table) -> Vec<(String, Box<dyn Backend>)> {
    vec![
        ("table".into(), Box::new(t.clone())),
        ("disk".into(), Box::new(disk_fixture(t))),
    ]
}

/// Satisfiable contexts spanning the admission behaviours: wildcards,
/// constrained conjuncts, and (for the merged-duplicates comparison
/// below) no repeated attributes.
const CONTEXTS: [&str; 5] = [
    "(type_of_boat: , tonnage: )",
    "(type_of_boat: , tonnage: [200,900])",
    "(yard: {Amsterdam, Zeeland}, tonnage: , departure_harbour: )",
    "(tonnage: [0,5000], trip: , type_of_boat: {fluit})",
    "(departure_date: , tonnage: [100,1100], type_of_boat: )",
];

/// The deterministic portion of an advice, as comparable bytes
/// (`backend_ops`/`cache` are run diagnostics and excluded by design —
/// the analyzer's whole point is changing *those*).
fn advice_fingerprint(a: &charles_core::Advice) -> String {
    format!(
        "{:?}|{}|{:?}|{:?}",
        a.context, a.context_size, a.ranked, a.trace
    )
}

#[test]
fn analysis_on_equals_analysis_off_on_every_backend() {
    let t = fixture();
    for (name, backend) in backends(&t) {
        let with = Advisor::with_config(backend.as_ref(), Config::default().with_analysis(true));
        let without =
            Advisor::with_config(backend.as_ref(), Config::default().with_analysis(false));
        for ctx in CONTEXTS {
            let a = with.advise_str(ctx).expect(ctx);
            let b = without.advise_str(ctx).expect(ctx);
            assert_eq!(
                advice_fingerprint(&a),
                advice_fingerprint(&b),
                "analysis changed the answer for {ctx} on {name}"
            );
        }
    }
}

#[test]
fn merged_duplicates_equal_their_plain_spelling_on_every_backend() {
    let t = fixture();
    // (redundant spelling, equivalent plain spelling) pairs; the plain
    // side is advised pre-canonicalized, since merging canonicalizes.
    let pairs = [
        (
            "(tonnage: [0,900], tonnage: [200,5000], type_of_boat: )",
            "(tonnage: [200,900], type_of_boat: )",
        ),
        (
            "(type_of_boat: {fluit, jacht}, type_of_boat: {jacht, pinas}, tonnage: )",
            "(tonnage: , type_of_boat: {jacht})",
        ),
        (
            "(trip: , trip: [1,3], tonnage: )",
            "(tonnage: , trip: [1,3])",
        ),
    ];
    for (name, backend) in backends(&t) {
        let advisor = Advisor::new(backend.as_ref());
        for (redundant, plain) in pairs {
            let merged = advisor.advise_str(redundant).expect(redundant);
            let direct = advisor.advise_str(plain).expect(plain);
            assert_eq!(
                advice_fingerprint(&merged),
                advice_fingerprint(&direct),
                "{redundant} did not collapse to {plain} on {name}"
            );
        }
    }
}

#[test]
fn pruning_is_consistent_across_backends() {
    let t = fixture();
    for (name, backend) in backends(&t) {
        let advisor = Advisor::new(backend.as_ref());
        let err = advisor
            .advise_str("(tonnage: [0,100], tonnage: [200,300], type_of_boat: )")
            .expect_err("provably empty");
        assert_eq!(
            err,
            charles_core::CoreError::UnsatisfiableContext,
            "on {name}"
        );
    }
}
