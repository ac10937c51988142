//! The lint engine against its fixture corpus: every diagnostic code
//! has one known-bad case that must fire at the right file/line, plus
//! the false-positive regression fixture that must stay silent — and a
//! self-run proving the real workspace is clean.
//!
//! Fixtures live in `tests/fixtures/` (the workspace scanner skips
//! `tests/` directories, so they never lint the real tree). Each test
//! stages them into a throwaway workspace under the OS temp dir at the
//! path that puts them in the relevant pass's scope.

use charles_xtask::diag::{codes, Diagnostic};
use charles_xtask::run_lint;
use std::fs;

/// Stage `files` into a fresh temp workspace, lint it, clean up.
fn lint_workspace(name: &str, files: &[(&str, &str)]) -> Vec<Diagnostic> {
    let root = std::env::temp_dir().join(format!(
        "charles-lint-fixture-{}-{name}",
        std::process::id()
    ));
    let _ = fs::remove_dir_all(&root);
    for (rel, content) in files {
        let path = root.join(rel);
        fs::create_dir_all(path.parent().expect("fixture paths have parents"))
            .expect("create fixture dir");
        fs::write(&path, content).expect("write fixture");
    }
    let out = run_lint(&root);
    let _ = fs::remove_dir_all(&root);
    out
}

fn has(diags: &[Diagnostic], code: &str, file: &str, line: u32) -> bool {
    diags
        .iter()
        .any(|d| d.code == code && d.file == file && d.line == line)
}

#[test]
fn lock_io_fixture_fires_on_the_live_guard_only() {
    let diags = lint_workspace(
        "lock-io",
        &[(
            "crates/serve/src/conn.rs",
            include_str!("fixtures/lock_io.rs"),
        )],
    );
    assert!(
        has(&diags, codes::LOCK_IO, "crates/serve/src/conn.rs", 8),
        "expected lock_io at conn.rs:8, got: {diags:?}"
    );
    // After the guard's block ends (and after drop()), I/O is fine.
    assert_eq!(diags.iter().filter(|d| d.code == codes::LOCK_IO).count(), 1);
}

#[test]
fn api_snapshot_fixture_fires_without_a_committed_snapshot() {
    let diags = lint_workspace("api", &[("crates/core/src/lib.rs", "pub fn advise() {}\n")]);
    assert!(
        has(&diags, codes::API_SNAPSHOT, "docs/api/charles-core.txt", 0),
        "expected api_snapshot for charles-core, got: {diags:?}"
    );
}

#[test]
fn api_snapshot_reports_the_exact_drifted_lines() {
    let diags = lint_workspace(
        "api-drift",
        &[
            ("crates/core/src/lib.rs", "pub fn advise() {}\n"),
            ("docs/api/charles-core.txt", "pub fn retired\n"),
        ],
    );
    let details: Vec<&str> = diags
        .iter()
        .filter(|d| d.code == codes::API_SNAPSHOT)
        .map(|d| d.detail.as_str())
        .collect();
    assert!(details
        .iter()
        .any(|d| d.contains("`pub fn advise`") && d.contains("absent")));
    assert!(details
        .iter()
        .any(|d| d.contains("`pub fn retired`") && d.contains("gone")));
}

#[test]
fn allow_unreasoned_fixture_fires_and_does_not_suppress() {
    let diags = lint_workspace(
        "unreasoned",
        &[(
            "crates/serve/src/conn.rs",
            include_str!("fixtures/allow_unreasoned.rs"),
        )],
    );
    assert!(has(
        &diags,
        codes::ALLOW_UNREASONED,
        "crates/serve/src/conn.rs",
        6
    ));
    assert!(
        has(&diags, codes::LOCK_IO, "crates/serve/src/conn.rs", 6),
        "a reasonless allow must not suppress: {diags:?}"
    );
}

#[test]
fn allow_unknown_fixture_fires() {
    let diags = lint_workspace(
        "unknown",
        &[(
            "crates/core/src/x.rs",
            include_str!("fixtures/allow_unknown.rs"),
        )],
    );
    assert!(has(&diags, codes::ALLOW_UNKNOWN, "crates/core/src/x.rs", 4));
}

#[test]
fn allow_unused_fixture_fires_on_a_marker_that_silences_nothing() {
    let diags = lint_workspace(
        "unused",
        &[(
            "crates/serve/src/conn.rs",
            include_str!("fixtures/allow_unused.rs"),
        )],
    );
    assert!(
        has(&diags, codes::ALLOW_UNUSED, "crates/serve/src/conn.rs", 9),
        "expected allow_unused at conn.rs:9, got: {diags:?}"
    );
    assert!(!has(&diags, codes::LOCK_IO, "crates/serve/src/conn.rs", 9));
}

#[test]
fn reasoned_allow_suppresses_the_diagnostic() {
    let diags = lint_workspace(
        "reasoned",
        &[(
            "crates/serve/src/conn.rs",
            "use std::io::Write;\npub fn f(s: &mut std::net::TcpStream, m: &std::sync::Mutex<u8>) {\n    let g = m.lock().unwrap_or_else(|p| p.into_inner());\n    s.write_all(&[*g]).ok(); // lint:allow(lock_io) fixture proves reasoned allows work\n}\n",
        )],
    );
    assert!(!diags
        .iter()
        .any(|d| d.code == codes::LOCK_IO && d.line == 4));
    assert!(!diags.iter().any(|d| d.code == codes::ALLOW_UNREASONED));
    // The marker suppressed a real finding, so it is not stale either.
    assert!(!diags.iter().any(|d| d.code == codes::ALLOW_UNUSED));
}

#[test]
fn an_allow_naming_a_retired_code_is_unknown() {
    // `panic` left the engine for clippy (ADR 0022): a marker left over
    // from before names a code nothing emits.
    let diags = lint_workspace(
        "retired",
        &[(
            "crates/serve/src/server.rs",
            "pub fn f(v: Option<u32>) -> u32 {\n    v.unwrap() // lint:allow(panic) startup only\n}\n",
        )],
    );
    assert!(
        has(
            &diags,
            codes::ALLOW_UNKNOWN,
            "crates/serve/src/server.rs",
            2
        ),
        "expected allow_unknown at server.rs:2, got: {diags:?}"
    );
}

#[test]
fn clean_fixture_produces_zero_diagnostics_for_its_file() {
    let diags = lint_workspace(
        "clean",
        &[(
            "crates/serve/src/conn.rs",
            include_str!("fixtures/clean.rs"),
        )],
    );
    let offending: Vec<&Diagnostic> = diags
        .iter()
        .filter(|d| d.file == "crates/serve/src/conn.rs")
        .collect();
    assert!(
        offending.is_empty(),
        "false positives on the clean fixture: {offending:?}"
    );
}

#[test]
fn the_real_workspace_is_clean() {
    let diags = run_lint(&charles_xtask::workspace_root());
    assert!(
        diags.is_empty(),
        "the real tree must lint clean; run `cargo run -p charles-xtask -- lint`:\n{}",
        diags
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join("\n")
    );
}
