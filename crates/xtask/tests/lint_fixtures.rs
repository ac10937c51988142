//! The lint engine against its fixture corpus: every diagnostic code
//! has one known-bad fixture that must fire at the right file/line,
//! plus the false-positive regression fixture that must stay silent —
//! and a self-run proving the real workspace is clean.
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
fn panic_fixture_fires_in_a_protected_file() {
    let diags = lint_workspace(
        "panic",
        &[(
            "crates/serve/src/server.rs",
            include_str!("fixtures/panic.rs"),
        )],
    );
    assert!(
        has(&diags, codes::PANIC, "crates/serve/src/server.rs", 5),
        "expected panic at server.rs:5, got: {diags:?}"
    );
}

#[test]
fn panic_reachable_fixture_fires_through_the_call_graph() {
    let diags = lint_workspace(
        "reachable",
        &[(
            "crates/serve/src/router.rs",
            include_str!("fixtures/panic_reachable.rs"),
        )],
    );
    let hit = diags
        .iter()
        .find(|d| d.code == codes::PANIC_REACHABLE)
        .expect("panic_reachable fires");
    assert_eq!(
        (hit.file.as_str(), hit.line),
        ("crates/serve/src/router.rs", 14)
    );
    assert!(
        hit.detail
            .contains("handle_connection -> dispatch -> decode"),
        "call chain rendered: {}",
        hit.detail
    );
}

#[test]
fn clock_fixture_fires_in_the_core() {
    let diags = lint_workspace(
        "clock",
        &[(
            "crates/core/src/decide.rs",
            include_str!("fixtures/clock.rs"),
        )],
    );
    assert!(
        has(&diags, codes::CLOCK, "crates/core/src/decide.rs", 5),
        "expected clock at decide.rs:5, got: {diags:?}"
    );
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
fn spec_drift_fixture_fires_on_a_registry_mismatch() {
    let diags = lint_workspace(
        "spec",
        &[
            (
                "crates/serve/src/wire.rs",
                include_str!("fixtures/spec_drift.rs"),
            ),
            (
                "docs/lint/registry.txt",
                "[wire.constants]\nMAGIC = CHRW\nVERSION = 2\nHEADER_LEN = 10\n",
            ),
        ],
    );
    let hit = diags
        .iter()
        .find(|d| d.code == codes::SPEC_DRIFT && d.line == 5)
        .expect("spec_drift fires on the VERSION line");
    assert_eq!(hit.file, "crates/serve/src/wire.rs");
    assert!(hit
        .detail
        .contains("`VERSION` is 1 in source but 2 in the registry"));
}

#[test]
fn readme_drift_fixture_fires_on_an_undocumented_code() {
    let diags = lint_workspace(
        "readme",
        &[
            (
                "docs/lint/registry.txt",
                "[serve.error_codes]\nghost_code = 404\n",
            ),
            (
                "README.md",
                "# fixture readme\nNo error codes documented here.\n",
            ),
        ],
    );
    let hit = diags
        .iter()
        .find(|d| d.code == codes::README_DRIFT)
        .expect("readme_drift fires");
    assert_eq!(hit.file, "README.md");
    assert!(hit.detail.contains("ghost_code"));
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
            "crates/serve/src/server.rs",
            include_str!("fixtures/allow_unreasoned.rs"),
        )],
    );
    assert!(has(
        &diags,
        codes::ALLOW_UNREASONED,
        "crates/serve/src/server.rs",
        4
    ));
    assert!(
        has(&diags, codes::PANIC, "crates/serve/src/server.rs", 4),
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
            "crates/serve/src/server.rs",
            include_str!("fixtures/allow_unused.rs"),
        )],
    );
    assert!(
        has(&diags, codes::ALLOW_UNUSED, "crates/serve/src/server.rs", 5),
        "expected allow_unused at server.rs:5, got: {diags:?}"
    );
    assert!(!has(&diags, codes::PANIC, "crates/serve/src/server.rs", 5));
}

#[test]
fn reasoned_allow_suppresses_the_diagnostic() {
    let diags = lint_workspace(
        "reasoned",
        &[(
            "crates/serve/src/server.rs",
            "pub fn f(v: Option<u32>) -> u32 {\n    v.unwrap() // lint:allow(panic) fixture proves reasoned allows work\n}\n",
        )],
    );
    assert!(!diags.iter().any(|d| d.code == codes::PANIC && d.line == 2));
    assert!(!diags.iter().any(|d| d.code == codes::ALLOW_UNREASONED));
}

#[test]
fn clean_fixture_produces_zero_diagnostics_for_its_files() {
    // The same battery of lookalikes, staged into BOTH ban scopes.
    let diags = lint_workspace(
        "clean",
        &[
            (
                "crates/serve/src/server.rs",
                include_str!("fixtures/clean.rs"),
            ),
            (
                "crates/core/src/clean.rs",
                include_str!("fixtures/clean.rs"),
            ),
        ],
    );
    let offending: Vec<&Diagnostic> = diags
        .iter()
        .filter(|d| d.file == "crates/serve/src/server.rs" || d.file == "crates/core/src/clean.rs")
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
