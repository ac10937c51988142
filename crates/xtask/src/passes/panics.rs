//! Panic bans: direct (protected files) and transitive
//! (request-path reachability through a conservative call graph).
//!
//! **Direct** (`panic`): the files every request or selection flows
//! through must not contain a panicking call outside tests — a panic
//! there drops a client's connection unanswered, and every request it
//! had pipelined with it (serve), or takes the whole advise down (store
//! hot paths, and the row store, whose `RowTable::new` takes rows the
//! caller built). The lexer makes this exact: a
//! `.unwrap()` inside a string literal, doc comment or `#[cfg(test)]`
//! module is not a call.
//!
//! **Transitive** (`panic_reachable`): a panic does not need to live in
//! `server.rs` to drop a connection — it only needs to be *called* from
//! its loop.
//! This pass builds a conservative intra-crate call graph of
//! `charles-serve` (call sites resolved by name: every fn with a
//! matching name is a possible callee; indirect calls through fn
//! pointers/closures are the documented blind spot — see
//! `docs/adr/0002-token-level-lint.md`) and walks it from the one
//! connection loop both listeners run, `handle_connection`. Any panicking call in a reached fn
//! is flagged with its call chain.

use super::{at, code_indices, code_indices_in};
use crate::diag::{codes, Diagnostic};
use crate::lexer::TokKind;
use crate::model::{ItemKind, SourceFile, WorkspaceFiles};
use std::collections::{HashMap, HashSet, VecDeque};

/// Files under the direct panic ban.
pub const PROTECTED_FILES: &[&str] = &[
    "crates/serve/src/server.rs",
    "crates/serve/src/http.rs",
    "crates/serve/src/wire.rs",
    "crates/serve/src/json.rs",
    "crates/store/src/bitmap.rs",
    "crates/store/src/index.rs",
    "crates/store/src/predicate.rs",
    "crates/store/src/rowstore.rs",
];

/// The request-path entry fn of the serve crate: the one connection
/// loop both listeners run.
pub const ENTRY_FNS: &[&str] = &["handle_connection"];

/// The crate whose call graph is walked.
const GRAPH_CRATE: &str = "crates/serve/src";

/// One direct panicking call.
#[derive(Debug)]
pub(crate) struct PanicSite {
    pub line: u32,
    pub what: &'static str,
}

/// Find the unsuppressed direct panic sites in the code-token view `c`
/// of `file` (test tokens excluded).
pub(crate) fn panic_sites(file: &SourceFile, c: &[usize]) -> Vec<PanicSite> {
    let mut out = Vec::new();
    for i in 0..c.len() {
        if file.is_test_tok(c[i]) {
            continue;
        }
        let t = &file.toks[c[i]];
        // `.unwrap()` exactly — `unwrap_or_else`/`unwrap_or_default`
        // are distinct ident tokens and never match.
        if t.is_punct('.') {
            if let (Some(m), Some(p)) = (at(file, c, i + 1), at(file, c, i + 2)) {
                if m.is_ident("unwrap")
                    && p.is_punct('(')
                    && at(file, c, i + 3).is_some_and(|t| t.is_punct(')'))
                {
                    out.push(PanicSite {
                        line: m.line,
                        what: ".unwrap()",
                    });
                } else if m.is_ident("expect") && p.is_punct('(') {
                    out.push(PanicSite {
                        line: m.line,
                        what: ".expect(..)",
                    });
                }
            }
        } else if t.kind == TokKind::Ident
            && matches!(
                t.text.as_str(),
                "panic" | "unreachable" | "todo" | "unimplemented"
            )
            && at(file, c, i + 1).is_some_and(|n| n.is_punct('!'))
        {
            let what = match t.text.as_str() {
                "panic" => "panic!",
                "unreachable" => "unreachable!",
                "todo" => "todo!",
                _ => "unimplemented!",
            };
            out.push(PanicSite { line: t.line, what });
        }
    }
    out
}

/// The direct ban over [`PROTECTED_FILES`].
pub fn check_direct(ws: &WorkspaceFiles, out: &mut Vec<Diagnostic>) {
    for rel in PROTECTED_FILES {
        let Some(file) = ws.file(rel) else {
            out.push(Diagnostic::new(
                codes::PANIC,
                *rel,
                0,
                "protected file is missing from the tree (update PROTECTED_FILES if it moved)",
            ));
            continue;
        };
        let c = code_indices(file);
        for site in panic_sites(file, &c) {
            out.push(Diagnostic::new(
                codes::PANIC,
                rel.to_string(),
                site.line,
                format!(
                    "panicking call {} in a request/selection path — answer an error instead, \
                     or suppress with `// lint:allow(panic) <reason>`",
                    site.what
                ),
            ));
        }
    }
}

/// One fn node of the call graph.
struct FnNode {
    file: usize,
    name: String,
    body: (usize, usize),
    line: u32,
}

/// The transitive reachability pass over the serve crate.
pub fn check_reachable(ws: &WorkspaceFiles, out: &mut Vec<Diagnostic>) {
    let files: Vec<&SourceFile> = ws.crate_src(GRAPH_CRATE).collect();
    // Collect every non-test fn with a body; key them by bare name.
    let mut nodes: Vec<FnNode> = Vec::new();
    let mut by_name: HashMap<&str, Vec<usize>> = HashMap::new();
    for (fi, file) in files.iter().enumerate() {
        for item in &file.items {
            if item.kind == ItemKind::Fn && !item.is_test {
                if let Some(body) = item.body {
                    nodes.push(FnNode {
                        file: fi,
                        name: item.name.clone(),
                        body,
                        line: item.line,
                    });
                }
            }
        }
    }
    for (ni, n) in nodes.iter().enumerate() {
        by_name.entry(n.name.as_str()).or_default().push(ni);
    }
    // BFS from the entry fns, recording one concrete call chain per fn.
    let mut parent: HashMap<usize, usize> = HashMap::new();
    let mut seen: HashSet<usize> = HashSet::new();
    let mut queue: VecDeque<usize> = VecDeque::new();
    for entry in ENTRY_FNS {
        for &ni in by_name.get(entry).map_or(&[][..], |v| v) {
            if seen.insert(ni) {
                queue.push_back(ni);
            }
        }
    }
    while let Some(ni) = queue.pop_front() {
        let node = &nodes[ni];
        let file = files[node.file];
        for callee in call_sites(file, node.body) {
            for &ci in by_name.get(callee.as_str()).map_or(&[][..], |v| v) {
                if seen.insert(ci) {
                    parent.insert(ci, ni);
                    queue.push_back(ci);
                }
            }
        }
    }
    // Flag panic sites in every reached fn. Sites in PROTECTED_FILES are
    // already covered by the direct ban — don't report them twice.
    let protected: HashSet<&str> = PROTECTED_FILES.iter().copied().collect();
    for &ni in &seen {
        let node = &nodes[ni];
        let file = files[node.file];
        if protected.contains(file.path.as_str()) {
            continue;
        }
        let c = code_indices_in(file, node.body);
        for site in panic_sites(file, &c) {
            out.push(Diagnostic::new(
                codes::PANIC_REACHABLE,
                file.path.clone(),
                site.line,
                format!(
                    "panicking call {} in `{}` (defined at line {}) is reachable from a \
                     request path: {} — return an error instead, or suppress with \
                     `// lint:allow(panic_reachable) <reason>`",
                    site.what,
                    node.name,
                    node.line,
                    chain(&nodes, &parent, ni)
                ),
            ));
        }
    }
}

/// Render the entry→…→fn call chain recorded by the BFS.
fn chain(nodes: &[FnNode], parent: &HashMap<usize, usize>, mut ni: usize) -> String {
    let mut names = vec![nodes[ni].name.clone()];
    while let Some(&p) = parent.get(&ni) {
        names.push(nodes[p].name.clone());
        ni = p;
        if names.len() > 32 {
            break; // cycles cannot happen (parents form a tree), but cap anyway
        }
    }
    names.reverse();
    names.join(" -> ")
}

/// The names this body might call: `name(…)` free/path calls and
/// `.name(…)` method calls. Macros (`name!`) and definitions
/// (`fn name`) are excluded; keywords that look like calls are not.
fn call_sites(file: &SourceFile, body: (usize, usize)) -> HashSet<String> {
    const NOT_CALLS: &[&str] = &[
        "if", "else", "while", "for", "match", "return", "loop", "fn", "let", "in", "as", "move",
        "unsafe", "box", "await", "Some", "None", "Ok", "Err",
    ];
    let c = code_indices_in(file, body);
    let mut out = HashSet::new();
    for i in 0..c.len() {
        let t = &file.toks[c[i]];
        if t.kind != TokKind::Ident || NOT_CALLS.contains(&t.text.as_str()) {
            continue;
        }
        let Some(next) = at(file, &c, i + 1) else {
            continue;
        };
        if !next.is_punct('(') {
            continue;
        }
        // `fn name(` is a nested definition, not a call.
        if i > 0 && file.toks[c[i - 1]].is_ident("fn") {
            continue;
        }
        out.insert(t.text.clone());
    }
    out
}
