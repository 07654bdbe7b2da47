//! The cross-file `unreferenced-pub` rule: public API that nothing uses.
//!
//! The per-file rules in [`crate::rules`] see one file at a time; this pass
//! sees the whole tree. A *candidate* is a `pub` `fn`, `struct`, `enum`,
//! `trait`, `type`, `const` or `static` (inherent methods included) in a
//! file under the rule's `include` scope, outside `#[cfg(test)]` and
//! outside binaries (`bin/` directories and `main.rs`, which rustc's
//! `dead_code` lint already covers). It is a *finding* when its name occurs
//! as a code identifier in no other file under `references`, and in its
//! own file only in test code.
//!
//! Matching is by name, so any same-named identifier counts as a use: the
//! rule never flags a live item, but can miss a dead one whose name is
//! shared. Three kinds of occurrence are not uses: the defining token, the
//! self type of an `impl … X` header, and a `pub use` re-export. A plain
//! `use` is a use — a trait imported only for its methods is named nowhere
//! else.

use std::collections::BTreeSet;
use std::path::Path;

use crate::config::{relative_slash, Config};
use crate::lexer::{lex, LexedFile};
use crate::rules::{annotation_allows, Diagnostic, UNREFERENCED_PUB};

/// Item keywords whose `pub` items are candidates.
const KINDS: [&str; 7] = ["fn", "struct", "enum", "trait", "type", "const", "static"];

/// Keywords whose next identifier is a definition, not a use.
const DEFINERS: [&str; 8] = [
    "fn", "struct", "enum", "trait", "type", "const", "static", "mod",
];

/// Directory names the rule's walks skip: build output and lint fixtures.
/// Unlike `[scan] skip-dirs`, `tests`, `benches` and `examples` are walked:
/// a use there keeps an item alive.
const SKIP_DIRS: [&str; 2] = ["target", "fixtures"];

/// A lexed file and which of the rule's two scopes it falls in.
struct Scanned {
    rel: String,
    lexed: LexedFile,
    in_include: bool,
    in_references: bool,
}

/// A `pub` item that may be unreferenced.
struct Candidate {
    file: usize,
    line: usize,
    kind: &'static str,
    name: String,
}

/// Runs the rule over the tree rooted at `root`.
pub(crate) fn check_tree(root: &Path, cfg: &Config) -> std::io::Result<Vec<Diagnostic>> {
    if cfg.unreferenced_include.is_empty() {
        return Ok(Vec::new());
    }
    let skip: Vec<String> = SKIP_DIRS.iter().map(|s| s.to_string()).collect();
    let include = crate::collect_files(root, &cfg.unreferenced_include, &skip)?;
    let references = crate::collect_files(root, &cfg.unreferenced_references, &skip)?;
    let mut paths: Vec<_> = include.iter().chain(&references).cloned().collect();
    paths.sort();
    paths.dedup();

    let mut files = Vec::with_capacity(paths.len());
    for path in &paths {
        files.push(Scanned {
            rel: relative_slash(root, path),
            lexed: lex(&std::fs::read_to_string(path)?),
            in_include: include.binary_search(path).is_ok(),
            in_references: references.binary_search(path).is_ok(),
        });
    }

    // Per file: every name used anywhere, and every name used outside tests.
    let mut used = Vec::with_capacity(files.len());
    let mut candidates = Vec::new();
    for (f, file) in files.iter().enumerate() {
        let toks = tokens(&file.lexed);
        let not_use = non_uses(&toks);
        let in_test = |k: usize| file.lexed.lines[toks[k].0].in_test;
        let (mut any, mut live) = (BTreeSet::new(), BTreeSet::new());
        for (k, &(_, t)) in toks.iter().enumerate() {
            if is_ident(t) && !not_use[k] {
                any.insert(t);
                if !in_test(k) {
                    live.insert(t);
                }
            }
        }
        used.push((any, live));
        if !file.in_include || is_binary(&file.rel) {
            continue;
        }
        for k in 0..toks.len() {
            if toks[k].1 != "pub" || in_test(k) {
                continue;
            }
            if let Some((kind, n)) = pub_item(&toks, k + 1) {
                candidates.push(Candidate {
                    file: f,
                    line: toks[n].0,
                    kind,
                    name: toks[n].1.to_string(),
                });
            }
        }
    }

    let mut diags = Vec::new();
    for c in candidates {
        let name = c.name.as_str();
        let referenced = used[c.file].1.contains(name)
            || files
                .iter()
                .zip(&used)
                .enumerate()
                .any(|(g, (file, (any, _)))| {
                    g != c.file && file.in_references && any.contains(name)
                });
        let file = &files[c.file];
        if referenced || annotation_allows(&file.rel, &file.lexed, c.line, UNREFERENCED_PUB) {
            continue;
        }
        diags.push(Diagnostic {
            file: file.rel.clone(),
            line: c.line + 1,
            rule: UNREFERENCED_PUB,
            message: format!(
                "`pub {} {name}` is used by no other file and only by tests in its own — \
                 delete it, or annotate: // tia-lint: allow(unreferenced-pub, <why>)",
                c.kind
            ),
        });
    }
    Ok(diags)
}

/// Whether `rel` belongs to a binary target, which rustc's `dead_code`
/// lint already covers.
fn is_binary(rel: &str) -> bool {
    rel.split('/').any(|c| c == "bin") || rel.rsplit('/').next() == Some("main.rs")
}

fn is_ident(t: &str) -> bool {
    t.starts_with(|c: char| c == '_' || c.is_alphabetic())
}

/// Splits the code channel into identifiers and single punctuation
/// characters, each tagged with its line index. Numbers are dropped.
fn tokens(lexed: &LexedFile) -> Vec<(usize, &str)> {
    let mut out = Vec::new();
    for (line, l) in lexed.lines.iter().enumerate() {
        let code = l.code.as_str();
        let mut chars = code.char_indices().peekable();
        while let Some((start, c)) = chars.next() {
            if c.is_whitespace() {
                continue;
            }
            if c == '_' || c.is_alphanumeric() {
                let mut end = start + c.len_utf8();
                while let Some(&(i, d)) = chars.peek() {
                    if d != '_' && !d.is_alphanumeric() {
                        break;
                    }
                    end = i + d.len_utf8();
                    chars.next();
                }
                if !c.is_ascii_digit() {
                    out.push((line, &code[start..end]));
                }
            } else {
                out.push((line, &code[start..start + c.len_utf8()]));
            }
        }
    }
    out
}

/// Marks the tokens that name an item without using it: definitions, the
/// self type of `impl` headers, and everything inside `pub use`.
fn non_uses(toks: &[(usize, &str)]) -> Vec<bool> {
    let tok = |k: usize| toks.get(k).map_or("", |t| t.1);
    let mut out = vec![false; toks.len()];
    let mut k = 0;
    while k < toks.len() {
        let prev = k.checked_sub(1).map(tok);
        match tok(k) {
            "pub" => {
                let mut j = k + 1;
                if tok(j) == "(" {
                    while j < toks.len() && tok(j) != ")" {
                        j += 1;
                    }
                    j += 1;
                }
                if tok(j) == "use" {
                    j = k;
                    while j < toks.len() && tok(j) != ";" {
                        out[j] = true;
                        j += 1;
                    }
                    k = j;
                }
            }
            "impl" if matches!(prev, None | Some("}" | ";" | "{" | "]" | "unsafe")) => {
                if let Some(s) = impl_self_type(toks, k) {
                    out[s] = true;
                }
            }
            // `*const T` and `&'static T` are types, not definitions.
            d if DEFINERS.contains(&d) && !matches!(prev, Some("*" | "'")) => {
                let j = if tok(k + 1) == "mut" { k + 2 } else { k + 1 };
                if is_ident(tok(j)) {
                    out[j] = true;
                }
            }
            _ => {}
        }
        k += 1;
    }
    out
}

/// Index of the self type's name in the `impl` header starting at `k`:
/// the type after a top-level `for`, else the one after the generics.
fn impl_self_type(toks: &[(usize, &str)], k: usize) -> Option<usize> {
    let tok = |k: usize| toks.get(k).map_or("", |t| t.1);
    let mut depth = 0usize;
    let mut j = k + 1;
    let mut self_start = None;
    while j < toks.len() {
        match tok(j) {
            "<" => depth += 1,
            ">" if tok(j - 1) != "-" => depth = depth.saturating_sub(1),
            "{" | ";" | "where" if depth == 0 => break,
            "for" if depth == 0 => self_start = Some(j + 1),
            _ if depth == 0 && self_start.is_none() && is_ident(tok(j)) => self_start = Some(j),
            _ => {}
        }
        j += 1;
    }
    // Walk the leading path (`&'a mut dyn a::b::C<…>`) to its last segment.
    let mut j = self_start?;
    let mut last = None;
    loop {
        match tok(j) {
            "&" | "mut" | "dyn" | ":" => j += 1,
            "'" => j += 2,
            t if is_ident(t) => {
                last = Some(j);
                j += 1;
                if tok(j) != ":" {
                    break;
                }
            }
            _ => break,
        }
    }
    last
}

/// If the tokens from `k` (just past `pub`) declare a candidate item,
/// returns its kind and the index of its name.
fn pub_item(toks: &[(usize, &str)], mut k: usize) -> Option<(&'static str, usize)> {
    let tok = |k: usize| toks.get(k).map_or("", |t| t.1);
    loop {
        match tok(k) {
            "unsafe" | "async" | "extern" => k += 1,
            "const" if matches!(tok(k + 1), "fn" | "unsafe" | "async" | "extern") => k += 1,
            _ => break,
        }
    }
    let kind = *KINDS.iter().find(|&&kind| kind == tok(k))?;
    let n = if kind == "static" && tok(k + 1) == "mut" {
        k + 2
    } else {
        k + 1
    };
    is_ident(tok(n)).then_some((kind, n))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The identifiers of `src` that count as uses.
    fn uses(src: &str) -> Vec<String> {
        let lexed = lex(src);
        let toks = tokens(&lexed);
        let not_use = non_uses(&toks);
        toks.iter()
            .zip(not_use)
            .filter(|((_, t), skip)| is_ident(t) && !skip)
            .map(|((_, t), _)| t.to_string())
            .collect()
    }

    #[test]
    fn impl_headers_hide_only_the_self_type() {
        let u = uses("impl<T: Fn() -> Out> Show<Arg> for a::Target<T> where T: Bound {}\n");
        for name in ["Fn", "Out", "Show", "Arg", "a", "Bound"] {
            assert!(u.contains(&name.to_string()), "{name} missing from {u:?}");
        }
        assert!(!u.contains(&"Target".to_string()), "{u:?}");
        assert!(!uses("impl Solo {}\n").contains(&"Solo".to_string()));
        // Return-position `impl Trait` is not a header.
        let u = uses("fn f() -> impl Iterator<Item = Elem> { todo() }\n");
        assert!(u.contains(&"Iterator".to_string()) && u.contains(&"Elem".to_string()));
    }

    #[test]
    fn pointer_and_lifetime_types_are_uses_not_definitions() {
        let u = uses("fn f(p: *const Raw, s: &'static Named, m: *mut Other) {}\n");
        for name in ["Raw", "Named", "Other"] {
            assert!(u.contains(&name.to_string()), "{name} missing from {u:?}");
        }
        assert!(!u.contains(&"f".to_string()));
    }

    #[test]
    fn re_exports_are_not_uses_but_plain_imports_are() {
        let u = uses("pub use a::{B, C};\npub(crate) use d::E;\nuse f::G;\n");
        assert_eq!(u, vec!["use", "f", "G"]);
    }

    #[test]
    fn pub_items_are_parsed_through_qualifiers() {
        let lexed = lex(
            "pub const fn a() {}\npub static mut B: u8 = 0;\npub(crate) fn c() {}\npub mod d;\n",
        );
        let toks = tokens(&lexed);
        let found: Vec<(&str, &str)> = (0..toks.len())
            .filter(|&k| toks[k].1 == "pub")
            .filter_map(|k| pub_item(&toks, k + 1))
            .map(|(kind, n)| (kind, toks[n].1))
            .collect();
        assert_eq!(found, vec![("fn", "a"), ("static", "B")]);
    }
}
