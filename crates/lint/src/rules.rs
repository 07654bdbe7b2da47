//! The per-file rule engine: six invariant-contract rules plus the
//! suppression and hot-path-region annotation machinery. The seventh rule,
//! `unreferenced-pub`, needs the whole tree and runs from
//! [`crate::lint_root`]; it shares this module's suppressions.
//!
//! | rule | contract it guards |
//! |------|--------------------|
//! | `panic-freedom`   | the serving stack never panics on untrusted input |
//! | `determinism`     | same seed ⇒ same logits/schedule: no ambient clock reads outside the `serve::clock` seam, no `HashMap`/`HashSet` iteration in engine/scheduler code |
//! | `hot-path-alloc`  | the zero-allocation steady state: no allocating calls inside `tia-lint: hot-path(begin)`/`hot-path(end)` regions |
//! | `atomic-ordering` | every `Ordering::` site carries an `// ordering:` justification; `Relaxed` must not be used for cross-thread handoff |
//! | `error-hygiene`   | no `let _ =` silently discarding results in serve |
//! | `unsafe-safety`   | every `unsafe` site (block, fn, impl) carries a `// safety:` justification — the SIMD kernel layer's audit trail |
//! | `unreferenced-pub` | no `pub` item that no other file uses (cross-file, run by [`crate::lint_root`]) |
//!
//! Rules run on the lexer's masked code channel, skip `cfg(test)` regions,
//! and honor `// tia-lint: allow(<rule>, <reason>)` on the same line or on
//! a comment line directly above the offending code.

use crate::config::{in_scope, Config};
use crate::lexer::{lex, LexedFile, Line};

/// Rule identifier: panics banned in the serving stack.
pub const PANIC_FREEDOM: &str = "panic-freedom";
/// Rule identifier: ambient time and unordered-map iteration banned.
pub const DETERMINISM: &str = "determinism";
/// Rule identifier: allocation banned inside marked hot regions.
pub const HOT_PATH_ALLOC: &str = "hot-path-alloc";
/// Rule identifier: atomic orderings must be justified.
pub const ATOMIC_ORDERING: &str = "atomic-ordering";
/// Rule identifier: results must not be silently discarded.
pub const ERROR_HYGIENE: &str = "error-hygiene";
/// Rule identifier: `unsafe` sites must be justified.
pub const UNSAFE_SAFETY: &str = "unsafe-safety";
/// Rule identifier: public items must have a user outside their own tests.
pub const UNREFERENCED_PUB: &str = "unreferenced-pub";
/// Pseudo-rule for malformed `tia-lint:` annotations themselves.
pub const ANNOTATION: &str = "annotation";

/// Every real (suppressible) rule.
pub const RULES: [&str; 7] = [
    PANIC_FREEDOM,
    DETERMINISM,
    HOT_PATH_ALLOC,
    ATOMIC_ORDERING,
    ERROR_HYGIENE,
    UNSAFE_SAFETY,
    UNREFERENCED_PUB,
];

/// One finding: `file:line: [rule] message`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Workspace-relative path with forward slashes.
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// The rule that fired (or [`ANNOTATION`] for malformed markers).
    pub rule: &'static str,
    /// Human-readable explanation.
    pub message: String,
}

impl std::fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.rule, self.message
        )
    }
}

/// Per-file annotation state extracted from the comment channel.
struct Annotations {
    /// `allows[i]` = rules suppressed on line index `i`.
    allows: Vec<Vec<String>>,
    /// Hot-path regions as inclusive (start, end) line-index pairs.
    hot_regions: Vec<(usize, usize)>,
    /// Malformed-annotation findings.
    diags: Vec<Diagnostic>,
}

/// Lints one file's source text under the given config.
pub fn check_file(rel: &str, src: &str, cfg: &Config) -> Vec<Diagnostic> {
    let lexed = lex(src);
    let ann = parse_annotations(rel, &lexed);
    let mut diags = ann.diags.clone();

    if in_scope(rel, &cfg.panic_freedom) {
        panic_freedom(rel, &lexed, &ann, &mut diags);
    }
    if in_scope(rel, &cfg.time_include) && !in_scope(rel, &cfg.time_seam) {
        determinism_time(rel, &lexed, &ann, &mut diags);
    }
    if in_scope(rel, &cfg.map_iter_include) {
        determinism_map_iter(rel, &lexed, &ann, &mut diags);
    }
    if in_scope(rel, &cfg.hot_path) {
        hot_path_alloc(rel, &lexed, &ann, &mut diags);
    }
    if in_scope(rel, &cfg.atomic_ordering) {
        atomic_ordering(rel, &lexed, &ann, &mut diags);
    }
    if in_scope(rel, &cfg.error_hygiene) {
        error_hygiene(rel, &lexed, &ann, &mut diags);
    }
    if in_scope(rel, &cfg.unsafe_safety) {
        unsafe_safety(rel, &lexed, &ann, &mut diags);
    }

    diags.sort_by(|a, b| (a.line, a.rule).cmp(&(b.line, b.rule)));
    diags
}

/// Extracts `tia-lint:` annotations (suppressions and hot-path markers).
fn parse_annotations(rel: &str, lexed: &LexedFile) -> Annotations {
    let n = lexed.lines.len();
    let mut raw: Vec<Vec<String>> = vec![Vec::new(); n];
    let mut hot_regions = Vec::new();
    let mut diags = Vec::new();
    let mut open: Option<usize> = None;

    for (i, line) in lexed.lines.iter().enumerate() {
        // Annotations must *lead* the comment (`// tia-lint: ...`) so that
        // prose documenting the syntax mid-sentence is never parsed.
        let lead = line.comment.trim_start_matches(['/', '!', '*', ' ']);
        let Some(body) = lead.strip_prefix("tia-lint:") else {
            continue;
        };
        let body = body.trim_start();
        let mut bad = |msg: String| {
            diags.push(Diagnostic {
                file: rel.to_string(),
                line: i + 1,
                rule: ANNOTATION,
                message: msg,
            });
        };
        if let Some(args) = body.strip_prefix("allow(") {
            let Some(close) = args.rfind(')') else {
                bad("unterminated `allow(` annotation".to_string());
                continue;
            };
            let inner = &args[..close];
            let Some((rule, reason)) = inner.split_once(',') else {
                bad(format!(
                    "`allow({inner})` is missing a reason: use allow(<rule>, <reason>)"
                ));
                continue;
            };
            let rule = rule.trim();
            let reason = reason.trim().trim_matches('"').trim();
            if !RULES.contains(&rule) {
                bad(format!("unknown rule `{rule}` in allow annotation"));
                continue;
            }
            if reason.is_empty() {
                bad(format!("allow({rule}) has an empty reason"));
                continue;
            }
            raw[i].push(rule.to_string());
        } else if body.starts_with("hot-path(begin") {
            if open.is_some() {
                bad("nested hot-path(begin) — close the previous region first".to_string());
            } else {
                open = Some(i);
            }
        } else if body.starts_with("hot-path(end") {
            match open.take() {
                Some(start) => hot_regions.push((start, i)),
                None => bad("hot-path(end) without a matching begin".to_string()),
            }
        } else {
            bad(format!(
                "unrecognized tia-lint annotation `{}`",
                body.chars().take(40).collect::<String>()
            ));
        }
    }
    if let Some(start) = open {
        diags.push(Diagnostic {
            file: rel.to_string(),
            line: start + 1,
            rule: ANNOTATION,
            message: "hot-path(begin) region is never closed".to_string(),
        });
    }

    // A suppression on a comment-only line applies to the next code line.
    let mut allows: Vec<Vec<String>> = vec![Vec::new(); n];
    for (i, rules) in raw.into_iter().enumerate() {
        if rules.is_empty() {
            continue;
        }
        let target = if lexed.lines[i].code.trim().is_empty() {
            (i + 1..n).find(|&j| !lexed.lines[j].code.trim().is_empty())
        } else {
            Some(i)
        };
        if let Some(t) = target {
            allows[t].extend(rules);
        }
    }

    Annotations {
        allows,
        hot_regions,
        diags,
    }
}

/// Whether line index `idx` of a lexed file carries a valid suppression
/// for `rule` (for the cross-file pass, which has no [`Annotations`]).
pub(crate) fn annotation_allows(rel: &str, lexed: &LexedFile, idx: usize, rule: &str) -> bool {
    parse_annotations(rel, lexed).allowed(idx, rule)
}

impl Annotations {
    fn allowed(&self, idx: usize, rule: &str) -> bool {
        self.allows[idx].iter().any(|r| r == rule)
    }

    fn in_hot_region(&self, idx: usize) -> bool {
        self.hot_regions.iter().any(|&(s, e)| idx > s && idx < e)
    }
}

/// Whether `code[pos..]` starts `token` at an identifier boundary.
fn token_at(code: &str, pos: usize) -> bool {
    pos == 0
        || !code[..pos]
            .chars()
            .next_back()
            .is_some_and(|c| c == '_' || c.is_alphanumeric())
}

/// Finds boundary-checked occurrences of `token` in `code`. Tokens that
/// start with a punctuation character (`.unwrap(`) are their own boundary.
fn has_token(code: &str, token: &str) -> bool {
    let needs_boundary = token
        .chars()
        .next()
        .is_some_and(|c| c == '_' || c.is_alphanumeric());
    let mut start = 0;
    while let Some(pos) = code[start..].find(token) {
        let abs = start + pos;
        if !needs_boundary || token_at(code, abs) {
            return true;
        }
        start = abs + 1;
    }
    false
}

fn push(diags: &mut Vec<Diagnostic>, rel: &str, idx: usize, rule: &'static str, message: String) {
    diags.push(Diagnostic {
        file: rel.to_string(),
        line: idx + 1,
        rule,
        message,
    });
}

// ---------------------------------------------------------------- rules --

const PANIC_TOKENS: [&str; 6] = [
    ".unwrap(",
    ".expect(",
    "panic!(",
    "unreachable!(",
    "todo!(",
    "unimplemented!(",
];

fn panic_freedom(rel: &str, lexed: &LexedFile, ann: &Annotations, diags: &mut Vec<Diagnostic>) {
    for (i, line) in lexed.lines.iter().enumerate() {
        if line.in_test || ann.allowed(i, PANIC_FREEDOM) {
            continue;
        }
        for tok in PANIC_TOKENS {
            if has_token(&line.code, tok) {
                push(
                    diags,
                    rel,
                    i,
                    PANIC_FREEDOM,
                    format!(
                        "`{}` in panic-free serving code — return a typed error, \
                         or annotate the invariant: // tia-lint: allow(panic-freedom, <why>)",
                        tok.trim_end_matches('(')
                    ),
                );
                break;
            }
        }
    }
}

const TIME_TOKENS: [&str; 3] = ["Instant::now", "SystemTime", ".elapsed("];

fn determinism_time(rel: &str, lexed: &LexedFile, ann: &Annotations, diags: &mut Vec<Diagnostic>) {
    for (i, line) in lexed.lines.iter().enumerate() {
        if line.in_test || ann.allowed(i, DETERMINISM) {
            continue;
        }
        for tok in TIME_TOKENS {
            if has_token(&line.code, tok) {
                push(
                    diags,
                    rel,
                    i,
                    DETERMINISM,
                    format!(
                        "ambient wall-clock read `{}` outside the serve::clock seam — \
                         route time through serve::clock so tests can inject it",
                        tok.trim_end_matches('(')
                    ),
                );
                break;
            }
        }
    }
}

const MAP_ITER_METHODS: [&str; 8] = [
    "iter(",
    "iter_mut(",
    "keys(",
    "values(",
    "values_mut(",
    "drain(",
    "retain(",
    "into_iter(",
];

fn determinism_map_iter(
    rel: &str,
    lexed: &LexedFile,
    ann: &Annotations,
    diags: &mut Vec<Diagnostic>,
) {
    let names = collect_map_bindings(lexed);
    if names.is_empty() {
        return;
    }
    for (i, line) in lexed.lines.iter().enumerate() {
        if line.in_test || ann.allowed(i, DETERMINISM) {
            continue;
        }
        for name in &names {
            if iterates_map(&line.code, name) {
                push(
                    diags,
                    rel,
                    i,
                    DETERMINISM,
                    format!(
                        "iteration over HashMap/HashSet `{name}` in deterministic scope — \
                         iteration order is seed-dependent; use a BTreeMap/Vec or sort first"
                    ),
                );
                break;
            }
        }
    }
}

/// Collects identifiers bound to a `HashMap`/`HashSet` anywhere in the file
/// (lets, params, struct fields), conservatively file-global.
fn collect_map_bindings(lexed: &LexedFile) -> Vec<String> {
    let mut names: Vec<String> = Vec::new();
    for line in &lexed.lines {
        let code = &line.code;
        let mut start = 0;
        while let Some(pos) = code[start..].find("Hash") {
            let abs = start + pos;
            start = abs + 4;
            let rest = &code[abs..];
            if !(rest.starts_with("HashMap") || rest.starts_with("HashSet")) {
                continue;
            }
            if !token_at(code, abs) {
                continue;
            }
            if let Some(name) = binding_before(&code[..abs]) {
                if !names.contains(&name) {
                    names.push(name);
                }
            }
        }
    }
    names
}

/// Given the code preceding a `HashMap`/`HashSet` token, extracts the bound
/// identifier from `name: HashMap<..>` / `name = HashMap::new()` forms.
fn binding_before(prefix: &str) -> Option<String> {
    let mut p = prefix.trim_end();
    for path in ["std::collections::", "collections::"] {
        if let Some(s) = p.strip_suffix(path) {
            p = s.trim_end();
        }
    }
    // Skip reference/mutability noise in type position: `&`, `&mut`.
    loop {
        let q = p.trim_end();
        if let Some(s) = q.strip_suffix("mut") {
            if s.ends_with([' ', '&']) || s.is_empty() {
                p = s;
                continue;
            }
        }
        if let Some(s) = q.strip_suffix('&') {
            p = s;
            continue;
        }
        p = q;
        break;
    }
    let binder = if let Some(s) = p.strip_suffix(':') {
        if s.ends_with(':') {
            return None; // `::HashMap` path remnant — not a binding
        }
        s
    } else if let Some(s) = p.strip_suffix('=') {
        s.trim_end()
    } else {
        return None;
    };
    let name: String = binder
        .chars()
        .rev()
        .take_while(|c| *c == '_' || c.is_alphanumeric())
        .collect::<String>()
        .chars()
        .rev()
        .collect();
    if name.is_empty() || name.chars().next().is_some_and(|c| c.is_ascii_digit()) {
        None
    } else {
        Some(name)
    }
}

/// Whether `code` iterates the map named `name` (method call or `for .. in`).
fn iterates_map(code: &str, name: &str) -> bool {
    let mut start = 0;
    while let Some(pos) = code[start..].find(name) {
        let abs = start + pos;
        start = abs + name.len();
        if !token_at(code, abs) {
            continue;
        }
        let after = &code[abs + name.len()..];
        if after
            .chars()
            .next()
            .is_some_and(|c| c == '_' || c.is_alphanumeric())
        {
            continue; // longer identifier
        }
        if let Some(call) = after.strip_prefix('.') {
            if MAP_ITER_METHODS.iter().any(|m| call.starts_with(m)) {
                return true;
            }
        }
        // `for x in name` / `in &name` / `in &mut name`
        let mut before = code[..abs].trim_end();
        while let Some(s) = before.strip_suffix('&').or_else(|| {
            before
                .strip_suffix("mut")
                .filter(|s| s.ends_with([' ', '&']))
        }) {
            before = s.trim_end();
        }
        if before.ends_with("in") && token_at(before, before.len() - 2) {
            return true;
        }
    }
    false
}

const ALLOC_TOKENS: [&str; 12] = [
    "Vec::new",
    "vec![",
    "vec!(",
    ".to_vec(",
    "Box::new",
    "format!(",
    ".clone()",
    "String::new",
    ".to_string(",
    "with_capacity(",
    ".collect(",
    ".to_owned(",
];

fn hot_path_alloc(rel: &str, lexed: &LexedFile, ann: &Annotations, diags: &mut Vec<Diagnostic>) {
    for (i, line) in lexed.lines.iter().enumerate() {
        if !ann.in_hot_region(i) || line.in_test || ann.allowed(i, HOT_PATH_ALLOC) {
            continue;
        }
        for tok in ALLOC_TOKENS {
            if has_token(&line.code, tok) {
                push(
                    diags,
                    rel,
                    i,
                    HOT_PATH_ALLOC,
                    format!(
                        "allocating call `{}` inside a hot-path region — reuse a \
                         workspace buffer (see the zero-allocation contract)",
                        tok.trim_end_matches(['(', '['])
                    ),
                );
                break;
            }
        }
    }
}

fn atomic_ordering(rel: &str, lexed: &LexedFile, ann: &Annotations, diags: &mut Vec<Diagnostic>) {
    for (i, line) in lexed.lines.iter().enumerate() {
        if line.in_test || ann.allowed(i, ATOMIC_ORDERING) {
            continue;
        }
        if !has_atomic_ordering(&line.code) {
            continue;
        }
        match statement_justification(&lexed.lines, i, "ordering:") {
            None => push(
                diags,
                rel,
                i,
                ATOMIC_ORDERING,
                "`Ordering::` site without an `// ordering:` justification comment".to_string(),
            ),
            Some(just) => {
                if line.code.contains("Ordering::Relaxed")
                    && just.to_ascii_lowercase().contains("handoff")
                {
                    push(
                        diags,
                        rel,
                        i,
                        ATOMIC_ORDERING,
                        "Relaxed ordering justified as a cross-thread handoff — \
                         handoffs need Acquire/Release pairing"
                            .to_string(),
                    );
                }
            }
        }
    }
}

/// Whether the line uses `std::sync::atomic::Ordering::` (and not
/// `std::cmp::Ordering::`).
fn has_atomic_ordering(code: &str) -> bool {
    let mut start = 0;
    while let Some(pos) = code[start..].find("Ordering::") {
        let abs = start + pos;
        start = abs + "Ordering::".len();
        if !token_at(code, abs) {
            continue;
        }
        if code[..abs].ends_with("cmp::") {
            continue;
        }
        return true;
    }
    false
}

/// Finds the comment carrying `marker` that justifies the site at line `i`:
/// on the line itself, on comment-only lines directly above, or on an
/// earlier line of the same (unterminated) statement. Shared by the
/// `atomic-ordering` (`ordering:`) and `unsafe-safety` (`safety:`) rules.
fn statement_justification(lines: &[Line], i: usize, marker: &str) -> Option<String> {
    let has = |l: &Line| l.comment.to_ascii_lowercase().contains(marker);
    if has(&lines[i]) {
        return Some(lines[i].comment.clone());
    }
    let mut j = i;
    while j > 0 {
        j -= 1;
        let l = &lines[j];
        if l.is_comment_only() {
            if has(l) {
                return Some(l.comment.clone());
            }
            continue;
        }
        if l.is_blank() {
            return None;
        }
        let t = l.code.trim_end();
        if t.ends_with(';') || t.ends_with('{') || t.ends_with('}') {
            return None;
        }
        if has(l) {
            return Some(l.comment.clone());
        }
    }
    None
}

fn unsafe_safety(rel: &str, lexed: &LexedFile, ann: &Annotations, diags: &mut Vec<Diagnostic>) {
    for (i, line) in lexed.lines.iter().enumerate() {
        if line.in_test || ann.allowed(i, UNSAFE_SAFETY) {
            continue;
        }
        if !has_unsafe_keyword(&line.code) {
            continue;
        }
        if statement_justification(&lexed.lines, i, "safety:").is_none() {
            push(
                diags,
                rel,
                i,
                UNSAFE_SAFETY,
                "`unsafe` without a `// safety:` justification comment — state \
                 the invariant that makes this sound"
                    .to_string(),
            );
        }
    }
}

/// Whether the line uses the `unsafe` *keyword* — bounded on both sides, so
/// identifiers like `unsafe_count` never match ([`has_token`] only checks
/// the left boundary, which suffices for tokens ending in punctuation).
fn has_unsafe_keyword(code: &str) -> bool {
    let mut start = 0;
    while let Some(pos) = code[start..].find("unsafe") {
        let abs = start + pos;
        start = abs + "unsafe".len();
        if !token_at(code, abs) {
            continue;
        }
        let right_bounded = !code[abs + "unsafe".len()..]
            .chars()
            .next()
            .is_some_and(|c| c == '_' || c.is_alphanumeric());
        if right_bounded {
            return true;
        }
    }
    false
}

fn error_hygiene(rel: &str, lexed: &LexedFile, ann: &Annotations, diags: &mut Vec<Diagnostic>) {
    for (i, line) in lexed.lines.iter().enumerate() {
        if line.in_test || ann.allowed(i, ERROR_HYGIENE) {
            continue;
        }
        if discards_result(&line.code) {
            push(
                diags,
                rel,
                i,
                ERROR_HYGIENE,
                "`let _ =` silently discards a result — handle it, log it, or \
                 annotate why dropping is correct"
                    .to_string(),
            );
        }
    }
}

/// Detects `let _ =` / `let _:` discards (but not `let _name =`).
fn discards_result(code: &str) -> bool {
    let mut start = 0;
    while let Some(pos) = code[start..].find("let _") {
        let abs = start + pos;
        start = abs + 5;
        if !token_at(code, abs) {
            continue;
        }
        let after = &code[abs + 5..];
        if after
            .chars()
            .next()
            .is_some_and(|c| c == '_' || c.is_alphanumeric())
        {
            continue; // `let _something`
        }
        if matches!(after.trim_start().chars().next(), Some('=') | Some(':')) {
            return true;
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check(src: &str) -> Vec<Diagnostic> {
        check_file("x.rs", src, &Config::all_rules_at("x.rs"))
    }

    fn rules_fired(diags: &[Diagnostic]) -> Vec<&'static str> {
        diags.iter().map(|d| d.rule).collect()
    }

    #[test]
    fn panic_freedom_fires_and_suppresses() {
        let d = check("fn f() { x.unwrap(); }\n");
        assert_eq!(rules_fired(&d), vec![PANIC_FREEDOM]);
        let d = check("fn f() { x.unwrap(); } // tia-lint: allow(panic-freedom, checked above)\n");
        assert!(d.is_empty(), "{d:?}");
        let d = check("// tia-lint: allow(panic-freedom, invariant)\nfn f() { x.unwrap(); }\n");
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn suppression_needs_reason_and_known_rule() {
        let d = check("x.unwrap(); // tia-lint: allow(panic-freedom)\n");
        assert!(d.iter().any(|d| d.rule == ANNOTATION));
        let d = check("x(); // tia-lint: allow(made-up-rule, because)\n");
        assert_eq!(rules_fired(&d), vec![ANNOTATION]);
    }

    #[test]
    fn test_code_is_exempt() {
        let d = check("#[cfg(test)]\nmod tests {\n  fn t() { x.unwrap(); let _ = y(); }\n}\n");
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn tokens_in_strings_and_comments_do_not_fire() {
        let d = check("// calling unwrap() here would panic\nlet s = \"x.unwrap()\";\n");
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn determinism_time_fires() {
        let d = check("let t = Instant::now();\n");
        assert_eq!(rules_fired(&d), vec![DETERMINISM]);
        let d = check("let d = started.elapsed();\n");
        assert_eq!(rules_fired(&d), vec![DETERMINISM]);
    }

    #[test]
    fn map_iteration_is_flagged() {
        let src =
            "struct S { routes: HashMap<u64, R> }\nfn f(s: &S) { for k in s.routes.keys() { } }\n";
        let d = check(src);
        assert_eq!(rules_fired(&d), vec![DETERMINISM]);
        // Keyed access is fine.
        let d = check(
            "struct S { routes: HashMap<u64, R> }\nfn f(s: &mut S) { s.routes.remove(&1); }\n",
        );
        assert!(d.is_empty(), "{d:?}");
        // `for .. in &map` without an explicit method call.
        let d = check("let mut seen = HashSet::new();\nfor v in &seen { use_it(v); }\n");
        assert_eq!(rules_fired(&d), vec![DETERMINISM]);
    }

    #[test]
    fn hot_region_alloc_fires_only_inside_markers() {
        let src = "fn cold() { let v = Vec::new(); }\n// tia-lint: hot-path(begin)\nfn hot(w: &mut W) { let v = x.to_vec(); }\n// tia-lint: hot-path(end)\n";
        let d = check(src);
        assert_eq!(rules_fired(&d), vec![HOT_PATH_ALLOC]);
        assert_eq!(d[0].line, 3);
    }

    #[test]
    fn unclosed_hot_region_is_reported() {
        let d = check("// tia-lint: hot-path(begin)\nfn f() {}\n");
        assert_eq!(rules_fired(&d), vec![ANNOTATION]);
    }

    #[test]
    fn atomic_ordering_justifications() {
        let d = check("x.load(Ordering::Acquire);\n");
        assert_eq!(rules_fired(&d), vec![ATOMIC_ORDERING]);
        let d = check("x.load(Ordering::Acquire); // ordering: pairs with release store\n");
        assert!(d.is_empty(), "{d:?}");
        let d = check("// ordering: counter, no sync needed\nx.fetch_add(1, Ordering::Relaxed);\n");
        assert!(d.is_empty(), "{d:?}");
        // cmp::Ordering is not atomic.
        let d = check("let o = a.cmp(&b); if o == std::cmp::Ordering::Less { }\n");
        assert!(d.is_empty(), "{d:?}");
        // Relaxed justified as a handoff is itself a finding.
        let d = check("flag.store(true, Ordering::Relaxed); // ordering: handoff to reader\n");
        assert_eq!(rules_fired(&d), vec![ATOMIC_ORDERING]);
    }

    #[test]
    fn multiline_statement_shares_one_justification() {
        let src =
            "let v = cell\n    .swap(1, Ordering::AcqRel); // ordering: read-modify-write sync\n";
        let d = check(src);
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn unsafe_requires_safety_comment() {
        let d = check("let v = unsafe { load(p) };\n");
        assert_eq!(rules_fired(&d), vec![UNSAFE_SAFETY]);
        let d = check("let v = unsafe { load(p) }; // safety: p is in-bounds (asserted above)\n");
        assert!(d.is_empty(), "{d:?}");
        let d = check("// safety: caller proved the AVX2 probe passed\nunsafe fn kernel() {}\n");
        assert!(d.is_empty(), "{d:?}");
        // A justification earlier in the same multi-line statement counts.
        let d =
            check("let v = // safety: slice len checked by the packer\n    unsafe { sum(p) };\n");
        assert!(d.is_empty(), "{d:?}");
        // `unsafe` inside an identifier or a string must not fire.
        let d = check("let unsafe_count = 0;\nlet s = \"unsafe\";\n");
        assert!(d.is_empty(), "{d:?}");
        // Suppression works like every other rule.
        let d = check("unsafe { x() } // tia-lint: allow(unsafe-safety, audited in review)\n");
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn error_hygiene_fires_but_not_on_named_underscores() {
        let d = check("let _ = send(msg);\n");
        assert_eq!(rules_fired(&d), vec![ERROR_HYGIENE]);
        let d = check("let _guard = lock();\n");
        assert!(d.is_empty(), "{d:?}");
    }
}
