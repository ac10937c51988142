//! Public-API snapshot (`api_snapshot`).
//!
//! Every crate's `pub` surface — fns, types, consts, re-exports, fully
//! qualified by module path and `impl` owner — is rendered to a
//! normalized, sorted listing and diffed against the committed snapshot
//! in `docs/api/<crate>.txt`. Adding, removing or renaming a `pub` item
//! without touching the snapshot fails the lint, which turns every API
//! change into an explicit, reviewable diff line. Regenerate with
//! `cargo xtask lint --write-api-snapshots`.
//!
//! Scope rules: `pub(crate)`/`pub(super)` items are not API; items in
//! test scopes are not API; `main.rs`/`bin/` files have no API. An item
//! of a module that is not `pub` all the way down from the crate root
//! is listed under the path a `pub use` in a public module gives it,
//! and not at all if nothing re-exports it.

use crate::diag::{codes, Diagnostic};
use crate::model::{Item, ItemKind, Vis, WorkspaceFiles};
use std::collections::BTreeMap;

/// Repo-relative directory the snapshots live in.
pub const SNAPSHOT_DIR: &str = "docs/api";

/// The crates whose API is snapshotted: (snapshot name, src prefix).
pub const CRATES: &[(&str, &str)] = &[
    ("charles", "src"),
    ("charles-bench", "crates/bench/src"),
    ("charles-core", "crates/core/src"),
    ("charles-datagen", "crates/datagen/src"),
    ("charles-parallel", "crates/parallel/src"),
    ("charles-sdl", "crates/sdl/src"),
    ("charles-serve", "crates/serve/src"),
    ("charles-store", "crates/store/src"),
    ("charles-viz", "crates/viz/src"),
    ("charles-xtask", "crates/xtask/src"),
];

/// A crate-root-relative module path.
type Path = Vec<String>;

/// Render one crate's public surface as sorted snapshot lines.
pub fn snapshot(ws: &WorkspaceFiles, src_prefix: &str) -> String {
    // Every non-test item with the module it is declared in.
    let mut items: Vec<(&Item, Path)> = Vec::new();
    for file in ws.crate_src(src_prefix) {
        let rel = &file.path[src_prefix.len() + 1..];
        if rel == "main.rs" || rel.starts_with("bin/") {
            continue;
        }
        // File path → leading module path (lib.rs/mod.rs add nothing).
        let mut base: Path = rel
            .trim_end_matches(".rs")
            .split('/')
            .map(str::to_string)
            .collect();
        if matches!(base.last().map(String::as_str), Some("lib") | Some("mod")) {
            base.pop();
        }
        for item in file.items.iter().filter(|item| !item.is_test) {
            let mut module = base.clone();
            module.extend(item.mod_path.iter().cloned());
            items.push((item, module));
        }
    }
    let hidden: Vec<Path> = items
        .iter()
        .filter(|(item, _)| item.kind == ItemKind::Mod && item.vis != Vis::Pub)
        .map(|(item, module)| [module.as_slice(), std::slice::from_ref(&item.name)].concat())
        .collect();
    let public = |module: &[String]| !hidden.iter().any(|h| module.starts_with(h));
    // What each `pub use` of a public module names: (item path, the
    // module it is re-exported into, the name it is re-exported as).
    let mut exports: Vec<(Path, &[String], String)> = Vec::new();
    for (item, module) in &items {
        if item.kind == ItemKind::Use && item.vis == Vis::Pub && public(module) {
            let mut names = Vec::new();
            use_names(&[], &item.name, &mut names);
            for (path, name) in names {
                exports.push((resolve(module, path), module, name));
            }
        }
    }

    let mut lines: Vec<String> = Vec::new();
    for (item, module) in &items {
        if item.vis != Vis::Pub {
            continue;
        }
        if public(module) {
            lines.extend(render(item, module, item.owner.as_deref(), &item.name));
            continue;
        }
        // A method goes where its type is re-exported, anything else
        // where it is.
        let key = item.owner.as_deref().unwrap_or(&item.name);
        for (path, at, name) in &exports {
            let Some((last, named)) = path.split_last() else {
                continue;
            };
            if named != module.as_slice() || (last != key && last != "*") {
                continue;
            }
            let name = if name == "*" { key } else { name };
            lines.extend(match item.owner {
                Some(_) => render(item, at, Some(name), &item.name),
                None => render(item, at, None, name),
            });
        }
    }
    lines.sort();
    lines.dedup();
    let mut out = lines.join("\n");
    if !out.is_empty() {
        out.push('\n');
    }
    out
}

/// Push the (path, bound name) of every name the `use` tree `tree`
/// brings in below `prefix`: `a::{b, c::D as E, self}` names `a::b` as
/// `b`, `a::c::D` as `E` and `a` as `a`; a glob `a::*` is bound as `*`.
fn use_names(prefix: &[String], tree: &str, out: &mut Vec<(Path, String)>) {
    let tree = tree.trim();
    let segments = |path: &str| -> Path {
        let path = path.split("::").filter(|s| !s.is_empty());
        [prefix, &path.map(str::to_string).collect::<Path>()].concat()
    };
    if let (Some(open), Some(inner)) = (tree.find('{'), tree.strip_suffix('}')) {
        let head = segments(&tree[..open]);
        let body = &inner[open + 1..];
        let (mut depth, mut from) = (0usize, 0);
        for (at, c) in body.char_indices() {
            match c {
                '{' => depth += 1,
                '}' => depth = depth.saturating_sub(1),
                ',' if depth == 0 => {
                    use_names(&head, &body[from..at], out);
                    from = at + 1;
                }
                _ => {}
            }
        }
        use_names(&head, &body[from..], out);
        return;
    }
    if tree.is_empty() {
        return;
    }
    let (path, alias) = match tree.split_once(" as ") {
        Some((path, alias)) => (path, Some(alias.trim())),
        None => (tree, None),
    };
    let mut path = segments(path);
    if path.last().is_some_and(|s| s == "self") {
        path.pop();
    }
    if let Some(name) = alias.or(path.last().map(String::as_str)) {
        let name = name.to_string();
        out.push((path, name));
    }
}

/// A `use` path written in `module`, from the crate root: `crate::`
/// starts there, `self::` and a bare path at `module`, and each leading
/// `super::` one module up.
fn resolve(module: &[String], path: Path) -> Path {
    let mut path = path.into_iter().peekable();
    let mut from: Path = match path.peek().map(String::as_str) {
        Some("crate") => {
            path.next();
            Vec::new()
        }
        Some("self") => {
            path.next();
            module.to_vec()
        }
        _ => module.to_vec(),
    };
    while path.next_if(|s| s == "super").is_some() {
        from.pop();
    }
    from.extend(path);
    from
}

/// One snapshot line: `item` of `module`, listed as `owner::name`.
fn render(item: &Item, module: &[String], owner: Option<&str>, name: &str) -> Option<String> {
    let kind = match item.kind {
        ItemKind::Fn => "fn",
        ItemKind::Struct => "struct",
        ItemKind::Enum => "enum",
        ItemKind::Trait => "trait",
        ItemKind::TypeAlias => "type",
        ItemKind::Const => "const",
        ItemKind::Static => "static",
        ItemKind::Mod => "mod",
        ItemKind::Use => "use",
        // Impl blocks are not named API; their pub methods are listed
        // individually with the owner. Exported macros are rare enough
        // here to list like items.
        ItemKind::Impl => return None,
        ItemKind::MacroRules => "macro",
    };
    if name.is_empty() {
        return None;
    }
    // `use` names already carry their own path text.
    let path: Vec<&str> = module
        .iter()
        .map(String::as_str)
        .chain(owner)
        .chain([name])
        .collect();
    Some(format!("pub {kind} {}", path.join("::")))
}

/// Run the pass: compare each crate's live surface to its snapshot.
pub fn check(ws: &WorkspaceFiles, out: &mut Vec<Diagnostic>) {
    for (name, src_prefix) in CRATES {
        let live = snapshot(ws, src_prefix);
        let snap_rel = format!("{SNAPSHOT_DIR}/{name}.txt");
        let committed = std::fs::read_to_string(ws.root.join(&snap_rel)).unwrap_or_default();
        if committed.is_empty() && !live.is_empty() {
            out.push(Diagnostic::new(
                codes::API_SNAPSHOT,
                snap_rel,
                0,
                format!(
                    "no committed API snapshot for crate `{name}` — run \
                     `cargo xtask lint --write-api-snapshots` and commit the result"
                ),
            ));
            continue;
        }
        if committed == live {
            continue;
        }
        for line in diff_lines(&committed, &live) {
            out.push(Diagnostic::new(
                codes::API_SNAPSHOT,
                snap_rel.clone(),
                0,
                line,
            ));
        }
    }
}

/// Set-diff of snapshot lines (both sides are sorted and deduped, so a
/// line-set diff is the whole story).
fn diff_lines(committed: &str, live: &str) -> Vec<String> {
    let mut counts: BTreeMap<&str, (bool, bool)> = BTreeMap::new();
    for l in committed.lines().filter(|l| !l.is_empty()) {
        counts.entry(l).or_default().0 = true;
    }
    for l in live.lines().filter(|l| !l.is_empty()) {
        counts.entry(l).or_default().1 = true;
    }
    counts
        .into_iter()
        .filter_map(|(line, (in_snap, in_live))| match (in_snap, in_live) {
            (true, false) => Some(format!(
                "`{line}` is in the committed snapshot but gone from the source — removing \
                 public API needs a snapshot update (and a changelog line)"
            )),
            (false, true) => Some(format!(
                "`{line}` is public in the source but absent from the committed snapshot — \
                 run `cargo xtask lint --write-api-snapshots` and commit the diff"
            )),
            _ => None,
        })
        .collect()
}

/// Regenerate every snapshot on disk. Returns the repo-relative paths
/// written.
pub fn write_snapshots(ws: &WorkspaceFiles) -> std::io::Result<Vec<String>> {
    let dir = ws.root.join(SNAPSHOT_DIR);
    std::fs::create_dir_all(&dir)?;
    let mut written = Vec::new();
    for (name, src_prefix) in CRATES {
        let rel = format!("{SNAPSHOT_DIR}/{name}.txt");
        std::fs::write(dir.join(format!("{name}.txt")), snapshot(ws, src_prefix))?;
        written.push(rel);
    }
    Ok(written)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::SourceFile;
    use std::path::PathBuf;

    fn workspace(files: &[(&str, &str)]) -> WorkspaceFiles {
        WorkspaceFiles {
            root: PathBuf::new(),
            files: files
                .iter()
                .map(|(path, src)| SourceFile::parse(path, src))
                .collect(),
        }
    }

    #[test]
    fn an_item_of_a_private_module_is_listed_where_it_is_re_exported() {
        let ws = workspace(&[
            (
                "k/src/lib.rs",
                "mod server;\nmod hidden;\npub mod wire;\n\
                 pub use server::{Server, bind as start};\n",
            ),
            (
                "k/src/server.rs",
                "pub struct Server;\nimpl Server { pub fn run(&self) {} }\n\
                 pub fn bind() {}\npub fn unexported() {}\n",
            ),
            ("k/src/hidden.rs", "pub fn nowhere() {}\n"),
            ("k/src/wire.rs", "pub fn send() {}\n"),
        ]);
        assert_eq!(
            snapshot(&ws, "k/src"),
            "pub fn Server::run\npub fn start\npub fn wire::send\npub mod wire\n\
             pub struct Server\npub use server::{Server,bind as start}\n"
        );
    }

    #[test]
    fn use_trees_expand_to_the_names_they_bind() {
        let mut names = Vec::new();
        use_names(&[], "a::{b,c::{D as E,self},*}", &mut names);
        let names: Vec<String> = names
            .iter()
            .map(|(path, name)| format!("{} as {name}", path.join("::")))
            .collect();
        assert_eq!(
            names,
            ["a::b as b", "a::c::D as E", "a::c as c", "a::* as *"]
        );
        let up = resolve(&["m".into(), "n".into()], vec!["super".into(), "x".into()]);
        assert_eq!(up, ["m", "x"]);
    }
}
