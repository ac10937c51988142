//! Unsafe audit (`unsafe_module`, `unsafe_undocumented`).
//!
//! Two guarantees, machine-checked:
//!
//! 1. `unsafe` may only appear in modules on the committed allowlist
//!    ([`ALLOWED_FILES`]) — today empty: the workspace has no unsafe
//!    code, and every library root says `#![forbid(unsafe_code)]`. New
//!    unsafe anywhere is a review decision, not a drive-by.
//! 2. Every `unsafe` block / fn / impl / trait needs its own adjacent
//!    `// SAFETY:` comment: either trailing on the same line, or a
//!    comment ending directly above the statement (attribute lines and
//!    one blank line may intervene, other code may not). Two unsafe
//!    impls cannot share one comment — each states its own argument.

use crate::diag::{codes, Diagnostic};
use crate::lexer::TokKind;
use crate::model::{SourceFile, WorkspaceFiles};

/// Files permitted to contain `unsafe` at all.
pub const ALLOWED_FILES: &[&str] = &[];

/// Run the pass over the whole workspace.
pub fn check(ws: &WorkspaceFiles, out: &mut Vec<Diagnostic>) {
    for file in &ws.files {
        check_file(file, out);
    }
}

pub(crate) fn check_file(file: &SourceFile, out: &mut Vec<Diagnostic>) {
    for (i, t) in file.toks.iter().enumerate() {
        if !t.is_ident("unsafe") || file.is_test_tok(i) {
            continue;
        }
        let what = file.toks[i + 1..]
            .iter()
            .find(|t| t.kind != TokKind::Comment)
            .map_or("unsafe", |n| match n.text.as_str() {
                "{" => "unsafe block",
                "fn" => "unsafe fn",
                "impl" => "unsafe impl",
                "trait" => "unsafe trait",
                _ => "unsafe",
            });
        if !ALLOWED_FILES.contains(&file.path.as_str()) {
            out.push(Diagnostic::new(
                codes::UNSAFE_MODULE,
                file.path.clone(),
                t.line,
                format!(
                    "{what} outside the unsafe allowlist — if this module genuinely needs \
                     unsafe, add it to `passes::unsafe_audit::ALLOWED_FILES` in a reviewed \
                     change"
                ),
            ));
        }
        if !has_adjacent_safety_comment(file, i, t.line) {
            out.push(Diagnostic::new(
                codes::UNSAFE_UNDOCUMENTED,
                file.path.clone(),
                t.line,
                format!(
                    "{what} without its own adjacent `// SAFETY:` comment — state the \
                     invariant that makes this sound directly above the statement (shared \
                     comments don't count: each unsafe site documents itself)"
                ),
            ));
        }
    }
}

/// Is there a `SAFETY:` comment trailing on `line`, or ending directly
/// above the first code line of the statement containing token `i`?
fn has_adjacent_safety_comment(file: &SourceFile, i: usize, line: u32) -> bool {
    // Trailing on the same line.
    if file
        .toks
        .iter()
        .any(|t| t.kind == TokKind::Comment && t.line == line && t.text.contains("SAFETY:"))
    {
        return true;
    }
    // Directly above: the nearest preceding SAFETY comment — extended
    // through the contiguous comment run it opens (a `// SAFETY: …`
    // explanation usually wraps over several `//` lines) — must end
    // within 2 lines of the unsafe token's line, and every line strictly
    // between must hold no code (comments/attributes/blank only).
    let Some(at) = file.toks[..i]
        .iter()
        .rposition(|t| t.kind == TokKind::Comment && t.text.contains("SAFETY:"))
    else {
        return false;
    };
    let mut comment_end = file.toks[at].line + file.toks[at].text.matches('\n').count() as u32;
    for t in &file.toks[at + 1..i] {
        if t.kind == TokKind::Comment && t.line <= comment_end + 1 {
            comment_end = comment_end.max(t.line + t.text.matches('\n').count() as u32);
        }
    }
    if comment_end >= line || line - comment_end > 2 {
        return false;
    }
    ((comment_end + 1)..line).all(|l| !file.line_has_code(l))
}
