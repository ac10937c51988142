//! The lint passes. Each pass is a function from the modeled workspace
//! to diagnostics; `crate::run_lint` runs them all and applies
//! suppressions centrally.

pub mod api;
pub mod locks;

use crate::lexer::{Tok, TokKind};
use crate::model::SourceFile;

/// Indices of the non-comment tokens inside a body token span
/// (exclusive of the braces themselves) — the pattern matchers work on
/// this view so comments can never split a match.
pub(crate) fn code_indices_in(file: &SourceFile, span: (usize, usize)) -> Vec<usize> {
    (span.0 + 1..span.1)
        .filter(|&i| file.toks[i].kind != TokKind::Comment)
        .collect()
}

/// `toks[c[i]]` helper: the token at position `i` of a code-index view.
pub(crate) fn at<'a>(file: &'a SourceFile, c: &[usize], i: usize) -> Option<&'a Tok> {
    c.get(i).map(|&idx| &file.toks[idx])
}
