//! Lock-across-blocking-I/O (`lock_io`).
//!
//! In the serve crate, a `Mutex` guard bound with `let` must not still
//! be live when the same block performs a blocking socket/file call
//! (`read`/`write`/`write_all`/`flush`/`accept`/…): a worker parked in
//! a syscall while holding a shared lock stalls every other connection
//! that needs it for the full read deadline. The sessions registry,
//! dataset registry and connection table are all behind one mutex each —
//! exactly the locks this would serialize the server on.
//!
//! Scope and mechanics (see `docs/adr/0002-token-level-lint.md`): the
//! analysis is per-fn and block-scoped. A guard is a `let` binding
//! whose initializer contains `.lock()` and whose call chain ends in
//! one of `lock`/`unwrap`/`expect`/`unwrap_or_else`/`into_inner` (the
//! two idioms in this tree: `x.lock().unwrap_or_else(|p| p.into_inner())`
//! and plain `.lock()`). A binding like `….lock()….get(id).cloned()`
//! drops its guard at the end of the statement and is not tracked.
//! Guards die at the end of their block or at `drop(name)`. Blocking
//! calls reached *through another fn* are not seen — code review
//! carries that residue.

use super::{at, code_indices_in};
use crate::diag::{codes, Diagnostic};
use crate::lexer::TokKind;
use crate::model::{ItemKind, SourceFile, WorkspaceFiles};

/// The crate under the lock discipline.
const SERVE_SRC: &str = "crates/serve/src";

/// Method names treated as blocking I/O on a stream/listener.
const BLOCKING: &[&str] = &[
    "read",
    "write",
    "write_all",
    "write_vectored",
    "flush",
    "read_exact",
    "read_to_end",
    "read_to_string",
    "read_line",
    "fill_buf",
    "accept",
];

/// The call-chain tails that mean "this binding *is* the guard".
const GUARD_TAILS: &[&str] = &["lock", "unwrap", "expect", "unwrap_or_else", "into_inner"];

/// Run the pass over every non-test fn body in the serve crate.
pub fn check(ws: &WorkspaceFiles, out: &mut Vec<Diagnostic>) {
    for file in ws.crate_src(SERVE_SRC) {
        check_file(file, out);
    }
}

pub(crate) fn check_file(file: &SourceFile, out: &mut Vec<Diagnostic>) {
    for item in &file.items {
        if item.kind != ItemKind::Fn || item.is_test {
            continue;
        }
        let Some(body) = item.body else { continue };
        scan_body(file, &item.name, body, out);
    }
}

struct Guard {
    name: String,
    depth: i64,
    line: u32,
}

fn scan_body(file: &SourceFile, fn_name: &str, body: (usize, usize), out: &mut Vec<Diagnostic>) {
    let c = code_indices_in(file, body);
    let mut depth = 0i64;
    let mut guards: Vec<Guard> = Vec::new();
    // Guards whose `let` statement has not reached its `;` yet: the
    // initializer runs before the binding exists, so blocking calls
    // inside it are checked against the *previous* guard set only.
    let mut pending: Vec<(usize, Guard)> = Vec::new();
    let mut i = 0;
    while i < c.len() {
        pending.retain(|(activate_at, g)| {
            if i >= *activate_at {
                guards.push(Guard {
                    name: g.name.clone(),
                    depth: g.depth,
                    line: g.line,
                });
                false
            } else {
                true
            }
        });
        let t = &file.toks[c[i]];
        if t.is_punct('{') {
            depth += 1;
        } else if t.is_punct('}') {
            depth -= 1;
            guards.retain(|g| g.depth <= depth);
            pending.retain(|(_, g)| g.depth <= depth);
        } else if t.is_ident("let") {
            if let Some((guard, end)) = guard_binding(file, &c, i, depth) {
                pending.push((end, guard));
            }
        } else if t.is_ident("drop") && at(file, &c, i + 1).is_some_and(|t| t.is_punct('(')) {
            if let Some(name) = at(file, &c, i + 2) {
                guards.retain(|g| g.name != name.text);
            }
        } else if t.is_punct('.') {
            let (Some(m), Some(p)) = (at(file, &c, i + 1), at(file, &c, i + 2)) else {
                i += 1;
                continue;
            };
            if m.kind == TokKind::Ident && BLOCKING.contains(&m.text.as_str()) && p.is_punct('(') {
                for g in &guards {
                    out.push(Diagnostic::new(
                        codes::LOCK_IO,
                        file.path.clone(),
                        m.line,
                        format!(
                            "blocking call `.{}(..)` in `{}` while mutex guard `{}` \
                             (bound at line {}) is still live — drop the guard (or scope \
                             it) before doing I/O, or suppress with \
                             `// lint:allow(lock_io) <reason>`",
                            m.text, fn_name, g.name, g.line
                        ),
                    ));
                }
            }
        }
        i += 1;
    }
}

/// If the `let` at code index `i` binds a mutex guard, return the
/// guard plus the code index just past the statement's `;` (where the
/// binding comes alive). The main scan still walks the statement's own
/// tokens, so depth stays synced and blocking calls in the initializer
/// are checked against previously-live guards.
fn guard_binding(file: &SourceFile, c: &[usize], i: usize, depth: i64) -> Option<(Guard, usize)> {
    // let [mut] NAME = …;   (only simple ident patterns are tracked)
    let mut j = i + 1;
    if at(file, c, j).is_some_and(|t| t.is_ident("mut")) {
        j += 1;
    }
    let name = at(file, c, j).filter(|t| t.kind == TokKind::Ident)?.clone();
    if !at(file, c, j + 1).is_some_and(|t| t.is_punct('=')) {
        return None;
    }
    // Scan the initializer to the statement-level `;`.
    let mut k = j + 2;
    let mut paren = 0i64;
    let mut brace = 0i64;
    let mut bracket = 0i64;
    let mut has_lock = false;
    let mut last_method: Option<String> = None;
    while k < c.len() {
        let t = &file.toks[c[k]];
        match t.text.as_str() {
            "(" if t.kind == TokKind::Punct => paren += 1,
            ")" if t.kind == TokKind::Punct => paren -= 1,
            "{" if t.kind == TokKind::Punct => brace += 1,
            "}" if t.kind == TokKind::Punct => brace -= 1,
            "[" if t.kind == TokKind::Punct => bracket += 1,
            "]" if t.kind == TokKind::Punct => bracket -= 1,
            ";" if t.kind == TokKind::Punct && paren == 0 && brace == 0 && bracket == 0 => {
                break;
            }
            "." if t.kind == TokKind::Punct => {
                if let (Some(m), Some(p)) = (at(file, c, k + 1), at(file, c, k + 2)) {
                    if m.kind == TokKind::Ident && p.is_punct('(') {
                        if m.is_ident("lock") {
                            has_lock = true;
                        }
                        last_method = Some(m.text.clone());
                    }
                }
            }
            _ => {}
        }
        k += 1;
    }
    if has_lock
        && last_method
            .as_deref()
            .is_some_and(|m| GUARD_TAILS.contains(&m))
    {
        let line = name.line;
        return Some((
            Guard {
                name: name.text,
                depth,
                line,
            },
            k + 1,
        ));
    }
    None
}
