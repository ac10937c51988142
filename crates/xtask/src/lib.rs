//! charles-lint: the workspace's own static analysis engine.
//!
//! `cargo xtask lint` runs a multi-pass, token-level analysis over
//! every crate in the tree. It is dependency-free by design (this
//! workspace vendors its few deps; the lint must never be a reason to
//! add one) and deliberately *not* a Rust parser: a hand-rolled lexer
//! ([`lexer`]) plus a lightweight item model ([`model`]) answer every
//! question the passes ask, with well-documented over-approximations
//! instead of grammar chasing (see `docs/adr/0002-token-level-lint.md`).
//!
//! The passes ([`passes`]):
//!
//! | code | guarantee |
//! |------|-----------|
//! | `lock_io` | no mutex guard held across blocking I/O in serve |
//! | `api_snapshot` | `pub` surface matches `docs/api/<crate>.txt` |
//!
//! The panic bans, the core's clock ban and the serve surface's
//! registry are enforced by clippy and by `charles-serve`'s unit tests,
//! not here (`docs/adr/0022-the-compiler-and-a-test-take-over-five-lint-codes.md`).
//!
//! Suppression is per-line and must be justified:
//! `// lint:allow(<code>) <reason>`. An empty reason is itself a
//! diagnostic (`allow_unreasoned`), as is a code the engine does not
//! know (`allow_unknown`) and a suppression whose line raised nothing
//! under its code (`allow_unused`). Suppressions are applied centrally
//! here, not in the passes, so every pass stays a pure
//! `workspace -> findings` function.

#![forbid(unsafe_code)]

pub mod diag;
pub mod lexer;
pub mod model;
pub mod passes;

use diag::{codes, Diagnostic};
use model::WorkspaceFiles;
use std::collections::HashSet;
use std::path::{Path, PathBuf};

/// The workspace root, from this crate's own manifest location.
pub fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("xtask lives two levels under the workspace root")
        .to_path_buf()
}

/// Load the workspace under `root` and run every pass, returning the
/// post-suppression diagnostics sorted by (file, line, code).
pub fn run_lint(root: &Path) -> Vec<Diagnostic> {
    let ws = WorkspaceFiles::load(root);
    run_lint_on(&ws)
}

/// Run every pass over an already-loaded workspace model.
pub fn run_lint_on(ws: &WorkspaceFiles) -> Vec<Diagnostic> {
    let mut raw = Vec::new();
    passes::locks::check(ws, &mut raw);
    passes::api::check(ws, &mut raw);
    apply_suppressions(ws, raw)
}

/// Central suppression filter + suppression audit.
///
/// A diagnostic is dropped when its line carries a
/// `// lint:allow(<its code>) <reason>` comment with non-empty reason.
/// Every suppression comment in the tree is audited: an unknown code, a
/// missing reason, or — failing those — a line that raised nothing
/// under its code (a stale or misplaced marker) is one finding.
fn apply_suppressions(ws: &WorkspaceFiles, raw: Vec<Diagnostic>) -> Vec<Diagnostic> {
    let raised: HashSet<(&str, u32, &str)> = raw
        .iter()
        .map(|d| (d.file.as_str(), d.line, d.code))
        .collect();
    let mut audit = Vec::new();
    for file in &ws.files {
        for s in &file.suppressions {
            let (code, why) = if !codes::ALL.contains(&s.code.as_str()) {
                (
                    codes::ALLOW_UNKNOWN,
                    format!(
                        "`lint:allow({})` names a code this lint does not emit — see \
                         docs/LINTS.md for the list",
                        s.code
                    ),
                )
            } else if s.reason.is_empty() {
                (
                    codes::ALLOW_UNREASONED,
                    format!(
                        "`lint:allow({})` without a reason — suppressions must say *why* \
                         the finding is acceptable: `// lint:allow({}) <reason>`",
                        s.code, s.code
                    ),
                )
            } else if !raised.contains(&(file.path.as_str(), s.line, s.code.as_str())) {
                (
                    codes::ALLOW_UNUSED,
                    format!(
                        "`lint:allow({})` on a line that raises no `{}` finding — delete \
                         the marker (keep its reason as a plain comment if it helps)",
                        s.code, s.code
                    ),
                )
            } else {
                continue;
            };
            audit.push(Diagnostic::new(code, file.path.clone(), s.line, why));
        }
    }
    let mut out: Vec<Diagnostic> = raw
        .into_iter()
        .filter(|d| {
            let suppressed = ws
                .file(&d.file)
                .and_then(|f| f.suppression_for(d.line, d.code))
                .is_some_and(|s| !s.reason.is_empty());
            !suppressed
        })
        .collect();
    out.extend(audit);
    out.sort_by(|a, b| {
        (a.file.as_str(), a.line, a.code, a.detail.as_str()).cmp(&(
            b.file.as_str(),
            b.line,
            b.code,
            b.detail.as_str(),
        ))
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_workspace_root_is_a_workspace() {
        assert!(workspace_root().join("Cargo.toml").is_file());
    }

    #[test]
    fn reasoned_suppressions_drop_the_diagnostic_and_nothing_else() {
        let ws = WorkspaceFiles {
            root: PathBuf::new(),
            files: vec![model::SourceFile::parse(
                "a.rs",
                "fn f() {\n    x(); // lint:allow(lock_io) guard is request-local\n}\n",
            )],
        };
        let raw = vec![
            Diagnostic::new(codes::LOCK_IO, "a.rs", 2, "blocking"),
            Diagnostic::new(codes::LOCK_IO, "a.rs", 3, "other line"),
        ];
        let out = apply_suppressions(&ws, raw);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].line, 3);
    }

    #[test]
    fn unreasoned_and_unknown_allows_are_findings() {
        let ws = WorkspaceFiles {
            root: PathBuf::new(),
            files: vec![model::SourceFile::parse(
                "a.rs",
                "fn f() {\n    x(); // lint:allow(lock_io)\n    y(); // lint:allow(bogus_code) because\n}\n",
            )],
        };
        let out = apply_suppressions(&ws, Vec::new());
        let codes_seen: Vec<&str> = out.iter().map(|d| d.code).collect();
        assert_eq!(codes_seen, [codes::ALLOW_UNREASONED, codes::ALLOW_UNKNOWN]);
    }

    #[test]
    fn an_allow_whose_line_raised_nothing_under_its_code_is_unused() {
        let ws = WorkspaceFiles {
            root: PathBuf::new(),
            files: vec![model::SourceFile::parse(
                "a.rs",
                "fn f() {\n    x(); // lint:allow(lock_io) no guard is live here\n    y(); // lint:allow(lock_io) this one is\n}\n",
            )],
        };
        // Line 2 raised a finding under another code only; line 3 under
        // the marker's own.
        let raw = vec![
            Diagnostic::new(codes::API_SNAPSHOT, "a.rs", 2, "surface drift"),
            Diagnostic::new(codes::LOCK_IO, "a.rs", 3, "blocking"),
        ];
        let out = apply_suppressions(&ws, raw);
        let seen: Vec<(&str, u32)> = out.iter().map(|d| (d.code, d.line)).collect();
        assert_eq!(seen, [(codes::ALLOW_UNUSED, 2), (codes::API_SNAPSHOT, 2)]);
    }

    #[test]
    fn unreasoned_allow_does_not_suppress() {
        let ws = WorkspaceFiles {
            root: PathBuf::new(),
            files: vec![model::SourceFile::parse(
                "a.rs",
                "fn f() {\n    stream.write_all(b); // lint:allow(lock_io)\n}\n",
            )],
        };
        let raw = vec![Diagnostic::new(codes::LOCK_IO, "a.rs", 2, "blocking")];
        let out = apply_suppressions(&ws, raw);
        assert!(out.iter().any(|d| d.code == codes::LOCK_IO));
        assert!(out.iter().any(|d| d.code == codes::ALLOW_UNREASONED));
    }
}
