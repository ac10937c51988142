//! A lightweight item model on top of the lexer.
//!
//! The model answers the structural questions the passes ask — *which
//! fn does this token belong to*, *is this item `#[cfg(test)]`-scoped*,
//! *what `pub` items does this file declare*, *which lines carry a
//! `lint:allow` suppression* — without being a Rust parser. It
//! recognizes item heads (`fn`/`struct`/`enum`/`trait`/`impl`/`mod`/
//! `use`/`const`/`static`/`type`/`macro_rules!`/`extern`), matches the
//! brace span of every body, recurses into `mod`/`impl`/`trait`/extern
//! blocks, and treats fn bodies as opaque token ranges for the passes
//! to scan. Anything it does not recognize is skipped one token at a
//! time, so hostile fixtures cannot wedge it.

use crate::lexer::{lex, Tok, TokKind};
use std::path::{Path, PathBuf};

/// Item visibility, as written.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Vis {
    /// Plain `pub`.
    Pub,
    /// `pub(crate)` / `pub(super)` / `pub(in …)`.
    Restricted,
    /// No visibility keyword.
    Private,
}

/// The kinds of items the model distinguishes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ItemKind {
    /// `fn`, free or associated.
    Fn,
    /// `struct` / `union`.
    Struct,
    /// `enum`.
    Enum,
    /// `trait`.
    Trait,
    /// `type` alias.
    TypeAlias,
    /// `const` item.
    Const,
    /// `static` item.
    Static,
    /// `mod` (inline or file).
    Mod,
    /// `use` declaration (re-export when `pub`).
    Use,
    /// `impl` block.
    Impl,
    /// `macro_rules!` definition.
    MacroRules,
}

/// One item: enough identity to build call graphs and API snapshots.
#[derive(Debug, Clone)]
pub struct Item {
    /// What it is.
    pub kind: ItemKind,
    /// Its name (`use` items: the path text, spaces dropped but around
    /// `as`; `impl` blocks: the self-type name).
    pub name: String,
    /// Enclosing inline-module path within the file.
    pub mod_path: Vec<String>,
    /// For associated fns: the `impl` self-type (or trait name for
    /// items inside `trait` blocks).
    pub owner: Option<String>,
    /// Written visibility.
    pub vis: Vis,
    /// 1-based line of the item head.
    pub line: u32,
    /// True when the item (or an ancestor) is `#[cfg(test)]`-gated or
    /// `#[test]`-attributed.
    pub is_test: bool,
    /// Token-index span `[open, close]` of the body braces, for items
    /// that have one.
    pub body: Option<(usize, usize)>,
}

/// A `// lint:allow(<code>) <reason>` suppression comment.
#[derive(Debug, Clone)]
pub struct Suppression {
    /// 1-based line the comment starts on (same line as the code it
    /// excuses — suppressions are trailing comments).
    pub line: u32,
    /// The diagnostic code in parentheses.
    pub code: String,
    /// The mandatory free-text justification after the closing paren.
    pub reason: String,
}

/// One lexed + modeled source file.
#[derive(Debug)]
pub struct SourceFile {
    /// Repo-relative path, `/`-separated.
    pub path: String,
    /// All tokens, comments included.
    pub toks: Vec<Tok>,
    /// Flat item list (nested items included, each carrying its path).
    pub items: Vec<Item>,
    /// All `lint:allow` comments found.
    pub suppressions: Vec<Suppression>,
}

impl SourceFile {
    /// Lex + model `src` under repo-relative `path`.
    pub fn parse(path: &str, src: &str) -> SourceFile {
        let toks = lex(src);
        let mut p = Parser {
            toks: &toks,
            items: Vec::new(),
        };
        p.items(0, toks.len(), &[], false, None);
        let items = p.items;
        // A suppression is a plain `//` line comment whose body *starts*
        // with the marker — doc comments or prose that merely mention
        // `lint:allow(...)` mid-sentence are not suppressions.
        let suppressions = toks
            .iter()
            .filter(|t| {
                t.kind == TokKind::Comment
                    && t.text.starts_with("//")
                    && !t.text.starts_with("///")
                    && !t.text.starts_with("//!")
            })
            .filter_map(|t| {
                let body = t.text.trim_start_matches('/').trim_start();
                let rest = body.strip_prefix("lint:allow(")?;
                let (code, reason) = rest.split_once(')')?;
                Some(Suppression {
                    line: t.line,
                    code: code.trim().to_string(),
                    reason: reason.trim().to_string(),
                })
            })
            .collect();
        SourceFile {
            path: path.to_string(),
            toks,
            items,
            suppressions,
        }
    }

    /// The suppression on `line` for `code`, if any.
    pub fn suppression_for(&self, line: u32, code: &str) -> Option<&Suppression> {
        self.suppressions
            .iter()
            .find(|s| s.line == line && s.code == code)
    }
}

struct Parser<'a> {
    toks: &'a [Tok],
    items: Vec<Item>,
}

impl<'a> Parser<'a> {
    /// Parse the items in token range `[i, end)`.
    fn items(
        &mut self,
        mut i: usize,
        end: usize,
        mod_path: &[String],
        in_test: bool,
        owner: Option<&str>,
    ) {
        while i < end {
            i = self.item(i, end, mod_path, in_test, owner);
        }
    }

    fn tok(&self, i: usize) -> Option<&Tok> {
        self.toks.get(i)
    }

    /// Next non-comment token index at or after `i` (capped at `end`).
    fn code_at(&self, mut i: usize, end: usize) -> usize {
        while i < end && self.toks[i].kind == TokKind::Comment {
            i += 1;
        }
        i
    }

    /// Skip a bracketed span starting at the opener at `i`; returns the
    /// index just past the matching closer.
    fn skip_matched(&self, i: usize, end: usize, open: char, close: char) -> usize {
        let mut depth = 0i64;
        let mut j = i;
        while j < end {
            let t = &self.toks[j];
            if t.is_punct(open) {
                depth += 1;
            } else if t.is_punct(close) {
                depth -= 1;
                if depth == 0 {
                    return j + 1;
                }
            }
            j += 1;
        }
        end
    }

    /// Skip to the `;` that ends a declaration, tracking every bracket
    /// kind so `const X: () = { … };` works. Returns index past `;`.
    fn skip_to_semi(&self, mut i: usize, end: usize) -> usize {
        let mut paren = 0i64;
        let mut brace = 0i64;
        let mut bracket = 0i64;
        while i < end {
            let t = &self.toks[i];
            match t.text.as_str() {
                "(" if t.kind == TokKind::Punct => paren += 1,
                ")" if t.kind == TokKind::Punct => paren -= 1,
                "{" if t.kind == TokKind::Punct => brace += 1,
                "}" if t.kind == TokKind::Punct => brace -= 1,
                "[" if t.kind == TokKind::Punct => bracket += 1,
                "]" if t.kind == TokKind::Punct => bracket -= 1,
                ";" if t.kind == TokKind::Punct && paren == 0 && brace == 0 && bracket == 0 => {
                    return i + 1;
                }
                _ => {}
            }
            i += 1;
        }
        end
    }

    /// Parse one item starting at `i`; returns the index past it.
    #[allow(clippy::too_many_lines)]
    fn item(
        &mut self,
        start: usize,
        end: usize,
        mod_path: &[String],
        in_test: bool,
        owner: Option<&str>,
    ) -> usize {
        let mut i = self.code_at(start, end);
        if i >= end {
            return end;
        }
        // Attributes: `#[…]` (outer) and `#![…]` (inner).
        let mut attr_test = false;
        while i < end && self.toks[i].is_punct('#') {
            let after = self.code_at(i + 1, end);
            let inner = self.tok(after).is_some_and(|t| t.is_punct('!'));
            let bracket_at = if inner {
                self.code_at(after + 1, end)
            } else {
                after
            };
            if !self.tok(bracket_at).is_some_and(|t| t.is_punct('[')) {
                // Stray `#` — not an attribute; treat as skippable.
                return i + 1;
            }
            let past = self.skip_matched(bracket_at, end, '[', ']');
            // `#[test]`, `#[cfg(test)]`, `#[cfg(all(test, …))]` — any
            // `test` ident inside an outer attribute marks the item. An
            // inner one (`#![cfg_attr(not(test), …)]`) is about the
            // enclosing module, not the item after it.
            attr_test |= !inner
                && self.toks[i..past]
                    .iter()
                    .any(|t| t.kind == TokKind::Ident && t.text == "test");
            i = self.code_at(past, end);
        }
        if i >= end {
            return end;
        }
        // Visibility.
        let mut vis = Vis::Private;
        if self.toks[i].is_ident("pub") {
            vis = Vis::Pub;
            i = self.code_at(i + 1, end);
            if i < end && self.toks[i].is_punct('(') {
                vis = Vis::Restricted;
                i = self.code_at(self.skip_matched(i, end, '(', ')'), end);
            }
        }
        // Leading modifiers: `default`, `async`, `unsafe`, `extern "C"`,
        // and `const` only when it modifies `fn`.
        loop {
            if i >= end {
                return end;
            }
            let t = &self.toks[i];
            if t.is_ident("async") || t.is_ident("unsafe") || t.is_ident("default") {
                i = self.code_at(i + 1, end);
            } else if t.is_ident("const") {
                let next = self.code_at(i + 1, end);
                if self.tok(next).is_some_and(|t| t.is_ident("fn")) {
                    i = next;
                } else {
                    break;
                }
            } else if t.is_ident("extern") {
                let next = self.code_at(i + 1, end);
                if self.tok(next).is_some_and(|t| t.kind == TokKind::Str) {
                    let after = self.code_at(next + 1, end);
                    if self.tok(after).is_some_and(|t| t.is_punct('{')) {
                        // `extern "C" { … }` foreign block: recurse.
                        let close = self.skip_matched(after, end, '{', '}');
                        self.items(after + 1, close - 1, mod_path, in_test || attr_test, owner);
                        return close;
                    }
                    i = after; // `extern "C" fn`
                } else {
                    // `extern crate name;`
                    self.items.push(Item {
                        kind: ItemKind::Use,
                        name: String::new(),
                        mod_path: mod_path.to_vec(),
                        owner: None,
                        vis,
                        line: self.toks[i].line,
                        is_test: in_test || attr_test,
                        body: None,
                    });
                    return self.skip_to_semi(i, end);
                }
            } else {
                break;
            }
        }
        let t = self.toks[i].clone();
        let is_test = in_test || attr_test;
        let line = t.line;
        let mk = |kind, name: String, body| Item {
            kind,
            name,
            mod_path: mod_path.to_vec(),
            owner: owner.map(str::to_string),
            vis,
            line,
            is_test,
            body,
        };
        match t.text.as_str() {
            "use" => {
                let past = self.skip_to_semi(i, end);
                let name = self.toks[i + 1..past.saturating_sub(1)]
                    .iter()
                    .filter(|t| t.kind != TokKind::Comment)
                    .map(|t| {
                        if t.is_ident("as") {
                            " as "
                        } else {
                            t.text.as_str()
                        }
                    })
                    .collect::<Vec<_>>()
                    .join("");
                self.items.push(mk(ItemKind::Use, name, None));
                past
            }
            "mod" => {
                let name_at = self.code_at(i + 1, end);
                let name = self.ident_text(name_at);
                let after = self.code_at(name_at + 1, end);
                if self.tok(after).is_some_and(|t| t.is_punct('{')) {
                    let close = self.skip_matched(after, end, '{', '}');
                    self.items
                        .push(mk(ItemKind::Mod, name.clone(), Some((after, close - 1))));
                    let mut child_path = mod_path.to_vec();
                    child_path.push(name);
                    self.items(after + 1, close - 1, &child_path, is_test, None);
                    close
                } else {
                    let past = self.skip_to_semi(i, end);
                    self.items.push(mk(ItemKind::Mod, name, None));
                    past
                }
            }
            "fn" => {
                let name_at = self.code_at(i + 1, end);
                let name = self.ident_text(name_at);
                // Scan the signature for the body `{` (or `;` for a
                // declaration), tracking parens/brackets and ignoring
                // `->`'s `>`.
                let mut j = name_at + 1;
                let mut paren = 0i64;
                let mut bracket = 0i64;
                let mut body = None;
                while j < end {
                    let tk = &self.toks[j];
                    match tk.text.as_str() {
                        "(" if tk.kind == TokKind::Punct => paren += 1,
                        ")" if tk.kind == TokKind::Punct => paren -= 1,
                        "[" if tk.kind == TokKind::Punct => bracket += 1,
                        "]" if tk.kind == TokKind::Punct => bracket -= 1,
                        "{" if tk.kind == TokKind::Punct && paren == 0 && bracket == 0 => {
                            let close = self.skip_matched(j, end, '{', '}');
                            body = Some((j, close - 1));
                            j = close;
                            break;
                        }
                        ";" if tk.kind == TokKind::Punct && paren == 0 && bracket == 0 => {
                            j += 1;
                            break;
                        }
                        _ => {}
                    }
                    j += 1;
                }
                self.items.push(mk(ItemKind::Fn, name, body));
                j
            }
            "struct" | "union" => {
                let name_at = self.code_at(i + 1, end);
                let name = self.ident_text(name_at);
                // Unit/tuple structs end in `;`; field structs in `{…}`.
                let mut j = name_at + 1;
                let mut past = end;
                while j < end {
                    let tk = &self.toks[j];
                    if tk.is_punct('{') {
                        past = self.skip_matched(j, end, '{', '}');
                        break;
                    }
                    if tk.is_punct(';') {
                        past = j + 1;
                        break;
                    }
                    if tk.is_punct('(') {
                        j = self.skip_matched(j, end, '(', ')');
                        continue;
                    }
                    j += 1;
                }
                self.items.push(mk(ItemKind::Struct, name, None));
                past
            }
            "enum" => {
                let name_at = self.code_at(i + 1, end);
                let name = self.ident_text(name_at);
                let past = self.body_from(name_at + 1, end);
                self.items.push(mk(ItemKind::Enum, name, None));
                past
            }
            "trait" => {
                let name_at = self.code_at(i + 1, end);
                let name = self.ident_text(name_at);
                let (open, past) = self.brace_span_from(name_at + 1, end);
                self.items.push(mk(ItemKind::Trait, name.clone(), None));
                if let Some(open) = open {
                    self.items(open + 1, past - 1, mod_path, is_test, Some(&name));
                }
                past
            }
            "impl" => {
                let (open, past) = self.brace_span_from(i + 1, end);
                let target = self.impl_target(i + 1, open.unwrap_or(past));
                self.items.push(mk(
                    ItemKind::Impl,
                    target.clone(),
                    open.map(|o| (o, past - 1)),
                ));
                if let Some(open) = open {
                    self.items(open + 1, past - 1, mod_path, is_test, Some(&target));
                }
                past
            }
            "const" | "static" => {
                let kind = if t.text == "const" {
                    ItemKind::Const
                } else {
                    ItemKind::Static
                };
                let mut name_at = self.code_at(i + 1, end);
                if self.tok(name_at).is_some_and(|t| t.is_ident("mut")) {
                    name_at = self.code_at(name_at + 1, end);
                }
                let name = self.ident_text(name_at);
                let past = self.skip_to_semi(name_at, end);
                self.items.push(mk(kind, name, None));
                past
            }
            "type" => {
                let name_at = self.code_at(i + 1, end);
                let name = self.ident_text(name_at);
                let past = self.skip_to_semi(name_at, end);
                self.items.push(mk(ItemKind::TypeAlias, name, None));
                past
            }
            "macro_rules" => {
                // macro_rules ! name { … }
                let bang = self.code_at(i + 1, end);
                let name_at = self.code_at(bang + 1, end);
                let name = self.ident_text(name_at);
                let past = self.body_from(name_at + 1, end);
                self.items.push(mk(ItemKind::MacroRules, name, None));
                past
            }
            _ => i + 1, // not an item head we model: skip one token
        }
    }

    /// `{…}` span search: returns index past the matching close brace,
    /// or past `end` when none found.
    fn body_from(&self, mut i: usize, end: usize) -> usize {
        while i < end {
            if self.toks[i].is_punct('{') {
                return self.skip_matched(i, end, '{', '}');
            }
            i += 1;
        }
        end
    }

    /// Like [`Self::body_from`] but also reports the opening brace
    /// index, skipping parenthesized/bracketed stretches (so fn-pointer
    /// types in impl headers cannot fake a body).
    fn brace_span_from(&self, mut i: usize, end: usize) -> (Option<usize>, usize) {
        let mut paren = 0i64;
        let mut bracket = 0i64;
        while i < end {
            let t = &self.toks[i];
            match t.text.as_str() {
                "(" if t.kind == TokKind::Punct => paren += 1,
                ")" if t.kind == TokKind::Punct => paren -= 1,
                "[" if t.kind == TokKind::Punct => bracket += 1,
                "]" if t.kind == TokKind::Punct => bracket -= 1,
                "{" if t.kind == TokKind::Punct && paren == 0 && bracket == 0 => {
                    return (Some(i), self.skip_matched(i, end, '{', '}'));
                }
                ";" if t.kind == TokKind::Punct && paren == 0 && bracket == 0 => {
                    return (None, i + 1);
                }
                _ => {}
            }
            i += 1;
        }
        (None, end)
    }

    /// The self-type name of an `impl` header in `[i, open)`: the last
    /// path segment of the type after the trailing `for` (trait impls)
    /// or of the first type (inherent impls), generics stripped.
    fn impl_target(&self, i: usize, open: usize) -> String {
        let toks = &self.toks[i.min(open)..open];
        // Split on a top-level `for` (ignore `for<'a>` HRTBs: a `for`
        // directly followed by `<`).
        let mut split = None;
        let mut angle = 0i64;
        for (j, t) in toks.iter().enumerate() {
            match t.text.as_str() {
                "<" if t.kind == TokKind::Punct => angle += 1,
                ">" if t.kind == TokKind::Punct => angle = (angle - 1).max(0),
                "for" if t.kind == TokKind::Ident && angle == 0 => {
                    let next_is_angle = toks.get(j + 1).is_some_and(|t| t.is_punct('<'));
                    if !next_is_angle {
                        split = Some(j + 1);
                    }
                }
                _ => {}
            }
        }
        let tail = &toks[split.unwrap_or(0)..];
        // Walk the leading path (`a :: b :: C`), return its last segment.
        let mut last = String::new();
        let mut j = 0;
        // Skip a leading generic parameter list `<…>` on inherent impls.
        if tail.first().is_some_and(|t| t.is_punct('<')) {
            let mut depth = 0i64;
            while j < tail.len() {
                if tail[j].is_punct('<') {
                    depth += 1;
                }
                if tail[j].is_punct('>') {
                    depth -= 1;
                    if depth == 0 {
                        j += 1;
                        break;
                    }
                }
                j += 1;
            }
        }
        while j < tail.len() {
            let t = &tail[j];
            if t.kind == TokKind::Ident {
                last = t.text.clone();
                j += 1;
            } else if t.is_punct(':')
                || t.is_punct('&')
                || t.kind == TokKind::Lifetime
                || t.is_ident("mut")
            {
                j += 1;
            } else {
                break;
            }
        }
        last
    }

    fn ident_text(&self, i: usize) -> String {
        self.tok(i)
            .filter(|t| t.kind == TokKind::Ident)
            .map(|t| t.text.clone())
            .unwrap_or_default()
    }
}

/// The whole workspace's modeled sources.
#[derive(Debug)]
pub struct WorkspaceFiles {
    /// Workspace root directory.
    pub root: PathBuf,
    /// Every `.rs` file under `crates/` and `src/`, sorted by path.
    pub files: Vec<SourceFile>,
}

impl WorkspaceFiles {
    /// Read and model every `.rs` file under `<root>/crates` and
    /// `<root>/src` (the facade). `vendor/`, `target/`, `examples/` and
    /// the repo-root `tests/` are out of scope: they are not shipped
    /// library/server surface.
    pub fn load(root: &Path) -> WorkspaceFiles {
        let mut files = Vec::new();
        for top in ["crates", "src"] {
            collect(&root.join(top), top, &mut files);
        }
        files.sort_by(|a, b| a.path.cmp(&b.path));
        WorkspaceFiles {
            root: root.to_path_buf(),
            files,
        }
    }

    /// The files directly under one crate's `src/` tree.
    pub fn crate_src<'a>(&'a self, prefix: &str) -> impl Iterator<Item = &'a SourceFile> {
        let prefix = format!("{prefix}/");
        self.files
            .iter()
            .filter(move |f| f.path.starts_with(&prefix))
    }

    /// Look a file up by exact repo-relative path.
    pub fn file(&self, path: &str) -> Option<&SourceFile> {
        self.files.iter().find(|f| f.path == path)
    }
}

fn collect(dir: &Path, rel: &str, out: &mut Vec<SourceFile>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    let mut entries: Vec<_> = entries.flatten().collect();
    entries.sort_by_key(|e| e.file_name());
    for entry in entries {
        let path = entry.path();
        let name = entry.file_name().to_string_lossy().into_owned();
        let rel_child = format!("{rel}/{name}");
        if path.is_dir() {
            // Test/bench/example trees are not shipped surface — and the
            // lint's own fixture corpus lives under `tests/fixtures/`.
            if matches!(
                name.as_str(),
                "target" | "vendor" | "tests" | "examples" | "benches"
            ) {
                continue;
            }
            collect(&path, &rel_child, out);
        } else if name.ends_with(".rs") {
            if let Ok(src) = std::fs::read_to_string(&path) {
                out.push(SourceFile::parse(&rel_child, &src));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fn_bodies_and_names_are_modeled() {
        let f = SourceFile::parse(
            "x.rs",
            "pub fn alpha(a: u32) -> u32 { a + 1 }\nfn beta() { alpha(2); }\n",
        );
        let fns: Vec<_> = f.items.iter().filter(|i| i.kind == ItemKind::Fn).collect();
        assert_eq!(fns.len(), 2);
        assert_eq!(fns[0].name, "alpha");
        assert_eq!(fns[0].vis, Vis::Pub);
        assert!(fns[0].body.is_some());
        assert_eq!(fns[1].name, "beta");
        assert_eq!(fns[1].vis, Vis::Private);
    }

    fn is_test(f: &SourceFile, name: &str) -> bool {
        f.items
            .iter()
            .find(|i| i.name == name)
            .expect("item present")
            .is_test
    }

    #[test]
    fn cfg_test_mod_scopes_every_item_inside() {
        let f = SourceFile::parse(
            "x.rs",
            "fn live() {}\n#[cfg(test)]\nmod tests {\n    fn t() { x.unwrap(); }\n}\n",
        );
        assert!(is_test(&f, "tests"));
        assert!(is_test(&f, "t"));
        assert!(!is_test(&f, "live"));
    }

    #[test]
    fn an_inner_attribute_does_not_mark_the_next_item() {
        let f = SourceFile::parse(
            "lib.rs",
            "#![cfg_attr(not(test), deny(clippy::unwrap_used))]\npub mod client;\n",
        );
        assert!(!is_test(&f, "client"));
    }

    #[test]
    fn test_attr_marks_single_fn() {
        let f = SourceFile::parse("x.rs", "#[test]\nfn t() { a.unwrap(); }\nfn live() {}\n");
        assert!(is_test(&f, "t"));
        assert!(!is_test(&f, "live"));
    }

    #[test]
    fn impl_methods_carry_their_owner() {
        let f = SourceFile::parse(
            "x.rs",
            "struct S;\nimpl S { pub fn m(&self) {} }\nimpl std::fmt::Debug for S { fn fmt(&self) {} }\n",
        );
        let m = f.items.iter().find(|i| i.name == "m").expect("present");
        assert_eq!(m.owner.as_deref(), Some("S"));
        assert_eq!(m.vis, Vis::Pub);
        let fmt = f.items.iter().find(|i| i.name == "fmt").expect("present");
        assert_eq!(fmt.owner.as_deref(), Some("S"));
    }

    #[test]
    fn generic_trait_impls_resolve_their_self_type() {
        let f = SourceFile::parse(
            "x.rs",
            "impl<T: Clone> Backend for ShardedTable<T> where T: Send { fn run(&self) {} }\n",
        );
        let imp = f
            .items
            .iter()
            .find(|i| i.kind == ItemKind::Impl)
            .expect("present");
        assert_eq!(imp.name, "ShardedTable");
    }

    #[test]
    fn inline_mods_extend_the_path() {
        let f = SourceFile::parse("x.rs", "mod outer { pub mod inner { pub fn f() {} } }\n");
        let func = f
            .items
            .iter()
            .find(|i| i.kind == ItemKind::Fn)
            .expect("present");
        assert_eq!(func.mod_path, ["outer", "inner"]);
    }

    #[test]
    fn suppressions_parse_code_and_reason() {
        let f = SourceFile::parse(
            "x.rs",
            "fn f() {\n    x.write_all(b); // lint:allow(lock_io) startup only, before serving\n    y.flush(); // lint:allow(lock_io)\n}\n",
        );
        assert_eq!(f.suppressions.len(), 2);
        assert_eq!(f.suppressions[0].line, 2);
        assert_eq!(f.suppressions[0].code, "lock_io");
        assert_eq!(f.suppressions[0].reason, "startup only, before serving");
        assert_eq!(f.suppressions[1].reason, "");
    }

    #[test]
    fn extern_blocks_expose_their_fn_declarations() {
        let f = SourceFile::parse(
            "x.rs",
            "mod sys { extern \"C\" { pub fn mmap(a: usize) -> i32; } }\n",
        );
        let m = f.items.iter().find(|i| i.name == "mmap").expect("present");
        assert_eq!(m.kind, ItemKind::Fn);
        assert!(m.body.is_none());
        assert_eq!(m.mod_path, ["sys"]);
    }

    #[test]
    fn const_with_brace_initializer_terminates() {
        let f = SourceFile::parse(
            "x.rs",
            "const X: [u8; 2] = [1, 2];\nstatic Y: u8 = { 3 };\nfn after() {}\n",
        );
        assert!(f.items.iter().any(|i| i.name == "after"));
        assert!(f
            .items
            .iter()
            .any(|i| i.kind == ItemKind::Const && i.name == "X"));
        assert!(f
            .items
            .iter()
            .any(|i| i.kind == ItemKind::Static && i.name == "Y"));
    }
}
