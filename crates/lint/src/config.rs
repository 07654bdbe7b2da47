//! Self-parsed `lint.toml` configuration.
//!
//! The workspace is dependency-free, so the lint reads its own minimal TOML
//! subset: `[section]` / `[section.sub]` headers, `key = "string"`,
//! `key = ["a", "b"]` string arrays, booleans and integers, with `#`
//! comments. That covers everything `lint.toml` needs — rule scopes, the
//! determinism clock seam, and scan roots — without a TOML crate.
//!
//! Scopes are path prefixes relative to the workspace root with forward
//! slashes (`crates/serve/src`); a file is in scope when its relative path
//! starts with any listed prefix.

use std::collections::BTreeMap;
use std::path::Path;

/// A parsed configuration value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// A quoted string.
    Str(String),
    /// An array of quoted strings.
    List(Vec<String>),
    /// `true` / `false`.
    Bool(bool),
    /// A decimal integer.
    Int(i64),
}

/// The raw parsed file: section name → key → value.
///
/// Sections are stored by their full dotted header (`rules.panic-freedom`).
#[derive(Debug, Default)]
pub struct Toml {
    /// Parsed sections in deterministic (sorted) order.
    pub sections: BTreeMap<String, BTreeMap<String, Value>>,
}

impl Toml {
    /// Parses the TOML subset, reporting the first malformed line.
    pub fn parse(src: &str) -> Result<Toml, String> {
        let mut out = Toml::default();
        let mut section = String::new();
        for (idx, raw) in src.lines().enumerate() {
            let lineno = idx + 1;
            let line = strip_comment(raw).trim().to_string();
            if line.is_empty() {
                continue;
            }
            if let Some(rest) = line.strip_prefix('[') {
                let name = rest
                    .strip_suffix(']')
                    .ok_or_else(|| format!("line {lineno}: unterminated section header"))?;
                section = name.trim().to_string();
                out.sections.entry(section.clone()).or_default();
                continue;
            }
            let (key, val) = line
                .split_once('=')
                .ok_or_else(|| format!("line {lineno}: expected `key = value`"))?;
            let value = parse_value(val.trim()).map_err(|e| format!("line {lineno}: {e}"))?;
            out.sections
                .entry(section.clone())
                .or_default()
                .insert(key.trim().to_string(), value);
        }
        Ok(out)
    }

    /// Looks up a string-list value; a single string is promoted to a
    /// one-element list. Missing keys yield an empty list.
    pub fn list(&self, section: &str, key: &str) -> Vec<String> {
        match self.sections.get(section).and_then(|s| s.get(key)) {
            Some(Value::List(v)) => v.clone(),
            Some(Value::Str(s)) => vec![s.clone()],
            _ => Vec::new(),
        }
    }
}

/// Strips a `#` comment, respecting quoted strings.
fn strip_comment(line: &str) -> &str {
    let mut in_str = false;
    let mut escape = false;
    for (i, c) in line.char_indices() {
        if escape {
            escape = false;
            continue;
        }
        match c {
            '\\' if in_str => escape = true,
            '"' => in_str = !in_str,
            '#' if !in_str => return &line[..i],
            _ => {}
        }
    }
    line
}

fn parse_value(v: &str) -> Result<Value, String> {
    if v == "true" {
        return Ok(Value::Bool(true));
    }
    if v == "false" {
        return Ok(Value::Bool(false));
    }
    if let Some(s) = unquote(v) {
        return Ok(Value::Str(s));
    }
    if let Some(body) = v.strip_prefix('[') {
        let body = body
            .strip_suffix(']')
            .ok_or("unterminated array (arrays must be single-line)")?;
        let mut items = Vec::new();
        for part in split_array(body) {
            let part = part.trim();
            if part.is_empty() {
                continue;
            }
            items.push(unquote(part).ok_or("array items must be quoted strings")?);
        }
        return Ok(Value::List(items));
    }
    v.parse::<i64>()
        .map(Value::Int)
        .map_err(|_| format!("unsupported value `{v}`"))
}

/// Splits an array body on commas outside quotes.
fn split_array(body: &str) -> Vec<String> {
    let mut parts = Vec::new();
    let mut cur = String::new();
    let mut in_str = false;
    let mut escape = false;
    for c in body.chars() {
        if escape {
            cur.push(c);
            escape = false;
            continue;
        }
        match c {
            '\\' if in_str => {
                cur.push(c);
                escape = true;
            }
            '"' => {
                in_str = !in_str;
                cur.push(c);
            }
            ',' if !in_str => parts.push(std::mem::take(&mut cur)),
            _ => cur.push(c),
        }
    }
    if !cur.trim().is_empty() {
        parts.push(cur);
    }
    parts
}

fn unquote(v: &str) -> Option<String> {
    let body = v.strip_prefix('"')?.strip_suffix('"')?;
    // Minimal escape handling: \" and \\ (enough for paths and reasons).
    let mut out = String::with_capacity(body.len());
    let mut escape = false;
    for c in body.chars() {
        if escape {
            out.push(c);
            escape = false;
        } else if c == '\\' {
            escape = true;
        } else {
            out.push(c);
        }
    }
    Some(out)
}

/// The lint's resolved configuration: scan roots and per-rule scopes.
#[derive(Debug, Clone)]
pub struct Config {
    /// Directories (relative to the root) to scan for `.rs` files.
    pub roots: Vec<String>,
    /// Directory *names* skipped anywhere in the tree (`target`, `tests`...).
    pub skip_dirs: Vec<String>,
    /// Scope of the panic-freedom rule.
    pub panic_freedom: Vec<String>,
    /// Scope of the determinism rule's wall-clock ban.
    pub time_include: Vec<String>,
    /// Files exempt from the wall-clock ban (the clock seam itself).
    pub time_seam: Vec<String>,
    /// Scope of the determinism rule's map-iteration ban.
    pub map_iter_include: Vec<String>,
    /// Scope of the hot-path allocation rule (regions still need markers).
    pub hot_path: Vec<String>,
    /// Scope of the atomic-ordering justification rule.
    pub atomic_ordering: Vec<String>,
    /// Scope of the error-hygiene rule.
    pub error_hygiene: Vec<String>,
    /// Scope of the unsafe-safety justification rule.
    pub unsafe_safety: Vec<String>,
    /// Files whose `pub` items the unreferenced-pub rule checks.
    pub unreferenced_include: Vec<String>,
    /// Files whose uses keep a `pub` item alive.
    pub unreferenced_references: Vec<String>,
}

/// Every section `lint.toml` may hold, with the keys it may set. Anything
/// else is a typo that would silently leave a rule's scope empty.
const SCHEMA: [(&str, &[&str]); 8] = [
    ("scan", &["roots", "skip-dirs"]),
    ("rules.panic-freedom", &["include"]),
    (
        "rules.determinism",
        &["time-include", "time-seam", "map-iter-include"],
    ),
    ("rules.hot-path-alloc", &["include"]),
    ("rules.atomic-ordering", &["include"]),
    ("rules.error-hygiene", &["include"]),
    ("rules.unsafe-safety", &["include"]),
    ("rules.unreferenced-pub", &["include", "references"]),
];

impl Config {
    /// Builds a [`Config`] from parsed TOML, applying defaults for the
    /// scan section.
    pub fn from_toml(t: &Toml) -> Config {
        let mut roots = t.list("scan", "roots");
        if roots.is_empty() {
            roots = vec!["crates".to_string(), "src".to_string()];
        }
        let mut skip = t.list("scan", "skip-dirs");
        if skip.is_empty() {
            skip = ["target", "tests", "benches", "examples", "fixtures"]
                .iter()
                .map(|s| s.to_string())
                .collect();
        }
        Config {
            roots,
            skip_dirs: skip,
            panic_freedom: t.list("rules.panic-freedom", "include"),
            time_include: t.list("rules.determinism", "time-include"),
            time_seam: t.list("rules.determinism", "time-seam"),
            map_iter_include: t.list("rules.determinism", "map-iter-include"),
            hot_path: t.list("rules.hot-path-alloc", "include"),
            atomic_ordering: t.list("rules.atomic-ordering", "include"),
            error_hygiene: t.list("rules.error-hygiene", "include"),
            unsafe_safety: t.list("rules.unsafe-safety", "include"),
            unreferenced_include: t.list("rules.unreferenced-pub", "include"),
            unreferenced_references: t.list("rules.unreferenced-pub", "references"),
        }
    }

    /// Parses a `lint.toml` source string into a resolved configuration,
    /// rejecting any section or key the lint does not know.
    pub fn parse(src: &str) -> Result<Config, String> {
        let t = Toml::parse(src)?;
        for (section, keys) in &t.sections {
            let Some((_, known)) = SCHEMA.iter().find(|(s, _)| s == section) else {
                return Err(format!("unknown section `[{section}]`"));
            };
            if let Some(key) = keys.keys().find(|k| !known.contains(&k.as_str())) {
                return Err(format!("unknown key `{key}` in `[{section}]`"));
            }
        }
        Ok(Config::from_toml(&t))
    }

    /// Fails naming every configured path that does not exist under
    /// `root`: a scope that matches nothing checks nothing.
    pub fn check_paths(&self, root: &Path) -> Result<(), String> {
        let missing: Vec<&str> = [
            &self.roots,
            &self.panic_freedom,
            &self.time_include,
            &self.time_seam,
            &self.map_iter_include,
            &self.hot_path,
            &self.atomic_ordering,
            &self.error_hygiene,
            &self.unsafe_safety,
            &self.unreferenced_include,
            &self.unreferenced_references,
        ]
        .into_iter()
        .flatten()
        .filter(|p| !root.join(p).exists())
        .map(String::as_str)
        .collect();
        if missing.is_empty() {
            Ok(())
        } else {
            Err(format!(
                "configured path(s) do not exist: {}",
                missing.join(", ")
            ))
        }
    }

    /// A configuration that scopes every per-file rule to the given path
    /// prefix — used by the fixture tests.
    pub fn all_rules_at(prefix: &str) -> Config {
        let p = vec![prefix.to_string()];
        Config {
            roots: p.clone(),
            skip_dirs: vec!["target".to_string()],
            panic_freedom: p.clone(),
            time_include: p.clone(),
            time_seam: Vec::new(),
            map_iter_include: p.clone(),
            hot_path: p.clone(),
            atomic_ordering: p.clone(),
            error_hygiene: p.clone(),
            unsafe_safety: p,
            unreferenced_include: Vec::new(),
            unreferenced_references: Vec::new(),
        }
    }
}

/// Whether `rel` (forward-slash relative path) falls under any prefix.
pub fn in_scope(rel: &str, prefixes: &[String]) -> bool {
    prefixes.iter().any(|p| {
        rel == p.as_str()
            || rel
                .strip_prefix(p.as_str())
                .is_some_and(|rest| rest.starts_with('/'))
    })
}

/// Normalizes a path to forward slashes relative to `root`.
pub fn relative_slash(root: &Path, path: &Path) -> String {
    let rel = path.strip_prefix(root).unwrap_or(path);
    rel.components()
        .map(|c| c.as_os_str().to_string_lossy())
        .collect::<Vec<_>>()
        .join("/")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_sections_strings_and_arrays() {
        let t = Toml::parse(
            "# top comment\n[scan]\nroots = [\"crates\", \"src\"] # trailing\n\n[rules.panic-freedom]\ninclude = \"crates/serve/src\"\nstrict = true\nmax = 3\n",
        )
        .unwrap();
        assert_eq!(t.list("scan", "roots"), vec!["crates", "src"]);
        assert_eq!(
            t.list("rules.panic-freedom", "include"),
            vec!["crates/serve/src"]
        );
        assert_eq!(
            t.sections["rules.panic-freedom"]["strict"],
            Value::Bool(true)
        );
        assert_eq!(t.sections["rules.panic-freedom"]["max"], Value::Int(3));
    }

    #[test]
    fn hash_inside_quotes_is_not_a_comment() {
        let t = Toml::parse("[s]\nk = \"a#b\"\n").unwrap();
        assert_eq!(t.list("s", "k"), vec!["a#b"]);
    }

    #[test]
    fn malformed_lines_are_reported_with_numbers() {
        let err = Toml::parse("[s]\nnonsense\n").unwrap_err();
        assert!(err.contains("line 2"), "{err}");
        let err = Toml::parse("[unterminated\n").unwrap_err();
        assert!(err.contains("line 1"), "{err}");
    }

    #[test]
    fn unknown_sections_and_keys_are_rejected() {
        let err = Config::parse("[rules.panic-fredom]\ninclude = [\"crates\"]\n").unwrap_err();
        assert!(err.contains("[rules.panic-fredom]"), "{err}");
        let err = Config::parse("[rules.panic-freedom]\ninclde = [\"crates\"]\n").unwrap_err();
        assert!(err.contains("`inclde`"), "{err}");
        assert!(Config::parse("[rules.unreferenced-pub]\ninclude = [\"src\"]\n").is_ok());
    }

    #[test]
    fn missing_configured_paths_are_named() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR"));
        let cfg = Config::parse("[scan]\nroots = [\"src\", \"no-such-dir\"]\n").unwrap();
        let err = cfg.check_paths(root).unwrap_err();
        assert!(err.contains("no-such-dir") && !err.contains("src"), "{err}");
        let cfg = Config::parse(
            "[scan]\nroots = [\"src\"]\n[rules.unreferenced-pub]\nreferences = [\"tests\"]\n",
        )
        .unwrap();
        assert!(cfg.check_paths(root).is_ok());
    }

    #[test]
    fn scope_matching_is_prefix_by_component() {
        let scopes = vec!["crates/serve/src".to_string()];
        assert!(in_scope("crates/serve/src/server.rs", &scopes));
        assert!(in_scope("crates/serve/src", &scopes));
        assert!(!in_scope("crates/serve/src2/server.rs", &scopes));
        assert!(!in_scope("crates/engine/src/engine.rs", &scopes));
    }
}
