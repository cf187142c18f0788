//! The AST analysis engine behind `cargo xtask lint`.
//!
//! The engine parses every library source with the vendored `syn`
//! stand-in and hands each rule a [`FileCtx`]: the parsed [`syn::File`],
//! a flattened token view ([`tokens::FlatTok`]), per-line
//! `#[cfg(test)]` classification derived from AST item extents, and the
//! comment/code split the allowlist machinery matches directives
//! against. Both rules are per-file passes (`rules::run`).

pub(crate) mod allow;
pub(crate) mod rules;
pub(crate) mod tokens;

use std::cell::RefCell;
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

use crate::{Report, Violation, Warning};
use syn::visit::{self, Visit};
use tokens::FlatTok;

/// Whether a crate is linted at all; every rule applies to every linted
/// crate. `bench` measures the wall clock and reports floats on purpose;
/// `xtask` is a developer tool, not simulator code.
pub(crate) fn is_linted(crate_name: &str) -> bool {
    !matches!(crate_name, "bench" | "xtask")
}

/// Splits a source file into two same-length views: `code` (comments,
/// string and char literals blanked to spaces) and `comments` (everything
/// *except* comment text blanked). Newlines are preserved in both so line
/// numbers stay aligned. The AST carries spans for every token the rules
/// inspect, but allow directives live in comments — which the lexer
/// drops — so the directive scanner keeps this masked-text view.
pub(crate) fn split_source(src: &str) -> (String, String) {
    let b = src.as_bytes();
    let mut code = vec![b' '; b.len()];
    let mut comments = vec![b' '; b.len()];
    let mut i = 0;
    while i < b.len() {
        let c = b[i];
        if c == b'\n' {
            code[i] = b'\n';
            comments[i] = b'\n';
            i += 1;
            continue;
        }
        // Line comment (covers `///` and `//!` doc comments).
        if c == b'/' && b.get(i + 1) == Some(&b'/') {
            while i < b.len() && b[i] != b'\n' {
                comments[i] = b[i];
                i += 1;
            }
            continue;
        }
        // Block comment, possibly nested.
        if c == b'/' && b.get(i + 1) == Some(&b'*') {
            let mut depth = 0usize;
            while i < b.len() {
                if b[i] == b'\n' {
                    code[i] = b'\n';
                    comments[i] = b'\n';
                    i += 1;
                } else if b[i] == b'/' && b.get(i + 1) == Some(&b'*') {
                    depth += 1;
                    comments[i] = b[i];
                    comments[i + 1] = b[i + 1];
                    i += 2;
                } else if b[i] == b'*' && b.get(i + 1) == Some(&b'/') {
                    depth -= 1;
                    comments[i] = b[i];
                    comments[i + 1] = b[i + 1];
                    i += 2;
                    if depth == 0 {
                        break;
                    }
                } else {
                    comments[i] = b[i];
                    i += 1;
                }
            }
            continue;
        }
        // Raw string literal `r"…"` / `r#"…"#…`.
        if c == b'r' && matches!(b.get(i + 1), Some(b'"') | Some(b'#')) {
            let mut j = i + 1;
            let mut hashes = 0usize;
            while b.get(j) == Some(&b'#') {
                hashes += 1;
                j += 1;
            }
            if b.get(j) == Some(&b'"') {
                code[i] = b'r';
                i = j + 1;
                while i < b.len() {
                    if b[i] == b'\n' {
                        code[i] = b'\n';
                        comments[i] = b'\n';
                        i += 1;
                    } else if b[i] == b'"' {
                        let close = (1..=hashes).all(|h| b.get(i + h) == Some(&b'#'));
                        if close {
                            i += 1 + hashes;
                            break;
                        }
                        i += 1;
                    } else {
                        i += 1;
                    }
                }
                continue;
            }
            // `r` not starting a raw string: plain identifier character.
        }
        // String literal.
        if c == b'"' {
            code[i] = b'"';
            i += 1;
            while i < b.len() {
                if b[i] == b'\\' {
                    i += 2;
                } else if b[i] == b'\n' {
                    code[i] = b'\n';
                    comments[i] = b'\n';
                    i += 1;
                } else if b[i] == b'"' {
                    code[i] = b'"';
                    i += 1;
                    break;
                } else {
                    i += 1;
                }
            }
            continue;
        }
        // Char literal vs lifetime: `'x'` / `'\n'` are literals, `'a` in
        // `&'a str` is a lifetime and stays code.
        if c == b'\'' {
            let is_char = matches!(
                (b.get(i + 1), b.get(i + 2)),
                (Some(b'\\'), _) | (Some(_), Some(b'\''))
            );
            if is_char {
                code[i] = b'\'';
                i += 1;
                while i < b.len() {
                    if b[i] == b'\\' {
                        i += 2;
                    } else if b[i] == b'\'' {
                        code[i] = b'\'';
                        i += 1;
                        break;
                    } else if b[i] == b'\n' {
                        break;
                    } else {
                        i += 1;
                    }
                }
                continue;
            }
        }
        code[i] = c;
        i += 1;
    }
    (
        String::from_utf8_lossy(&code).into_owned(),
        String::from_utf8_lossy(&comments).into_owned(),
    )
}

/// The byte extent of one AST item: where a leading allow directive
/// would anchor (`first_line`), and the range a line must start in to
/// count as inside the item.
#[derive(Debug, Clone, Copy)]
struct ItemScope {
    /// 0-based line of the item's first token (its first attribute when
    /// it has any).
    first_line: usize,
    lo: usize,
    hi: usize,
    /// Byte offset of the `#[cfg(test)]` attribute, when present.
    cfg_test_lo: Option<usize>,
    /// What the parser made of the item, for the parse-coverage figure.
    /// Verbatim items carry their leading keyword; `unknown` is the
    /// parser's fallback for a form it does not model.
    kind: &'static str,
}

/// Collects every item's scope, recursing into modules, impls, traits
/// and items nested inside function bodies.
struct ScopeCollector {
    scopes: Vec<ItemScope>,
}

impl<'ast> Visit<'ast> for ScopeCollector {
    fn visit_item(&mut self, item: &'ast syn::Item) {
        let attrs = item.attrs();
        let anchor = item.span();
        let lo = attrs
            .first()
            .map_or(anchor.lo, |a| a.span.lo.min(anchor.lo));
        let first_line = attrs
            .first()
            .map_or(anchor.line, |a| a.span.line.min(anchor.line))
            .saturating_sub(1);
        self.scopes.push(ItemScope {
            first_line,
            lo,
            hi: item.end_byte(),
            cfg_test_lo: attrs.iter().find(|a| a.is_cfg_test()).map(|a| a.span.lo),
            kind: match item {
                syn::Item::Fn(_) => "fn",
                syn::Item::Mod(_) => "mod",
                syn::Item::Struct(_) => "struct",
                syn::Item::Enum(_) => "enum",
                syn::Item::Impl(_) => "impl",
                syn::Item::Trait(_) => "trait",
                syn::Item::Static(_) => "static",
                syn::Item::Const(_) => "const",
                syn::Item::Macro(_) => "macro",
                syn::Item::MacroRules(_) => "macro_rules",
                syn::Item::Verbatim(v) => v.kind,
            },
        });
        visit::walk_item(self, item);
    }
}

/// State shared by the per-file rules of one file.
pub(crate) struct FileCtx<'a> {
    pub rel: &'a Path,
    pub ast: syn::File,
    /// The file's tokens, flattened depth-first in source order.
    pub flat: Vec<FlatTok>,
    /// Masked code view, split into lines (strings/comments blanked).
    pub code_lines: Vec<String>,
    /// Masked comment view, split into lines (everything else blanked).
    pub comment_lines: Vec<String>,
    /// Per line: whether it starts inside a `#[cfg(test)]` item.
    pub in_test: Vec<bool>,
    /// Byte offset of each line's first character.
    line_starts: Vec<usize>,
    /// Extents of every item, for item-anchored allow directives.
    scopes: Vec<ItemScope>,
    /// `(directive line, rule)` pairs that suppressed a finding, for
    /// the unused-allow warnings.
    used_allows: RefCell<BTreeSet<(usize, String)>>,
}

impl<'a> FileCtx<'a> {
    /// Parses `src` and derives every per-file view the rules consume.
    pub(crate) fn build(rel: &'a Path, src: &str) -> Result<FileCtx<'a>, String> {
        let ast = syn::parse_file(src)
            .map_err(|e| format!("{}: {}:{}: {}", rel.display(), e.line, e.column, e.message))?;
        let flat = tokens::flatten(&ast.tokens);
        let mut collector = ScopeCollector { scopes: Vec::new() };
        collector.visit_file(&ast);

        let (code, comments) = split_source(src);
        let code_lines: Vec<String> = code.split('\n').map(str::to_string).collect();
        let comment_lines: Vec<String> = comments.split('\n').map(str::to_string).collect();
        let mut line_starts = Vec::with_capacity(code_lines.len());
        let mut offset = 0usize;
        for line in &code_lines {
            line_starts.push(offset);
            offset += line.len() + 1;
        }
        let in_test = line_starts
            .iter()
            .map(|&off| {
                collector
                    .scopes
                    .iter()
                    .any(|s| s.cfg_test_lo.is_some_and(|lo| off >= lo && off < s.hi))
            })
            .collect();

        Ok(FileCtx {
            rel,
            ast,
            flat,
            code_lines,
            comment_lines,
            in_test,
            line_starts,
            scopes: collector.scopes,
            used_allows: RefCell::new(BTreeSet::new()),
        })
    }

    /// Whether line `idx` (0-based) starts inside `#[cfg(test)]` code.
    pub(crate) fn in_test(&self, idx: usize) -> bool {
        self.in_test.get(idx).copied().unwrap_or(false)
    }

    /// Whether a valid allow directive for `rule` covers line `idx`:
    /// on the line itself, in the contiguous comment-only block
    /// immediately above it, or anchored to an enclosing item. Anchors
    /// are consulted most-specific first — line scope, then enclosing
    /// items innermost-outward — and the first directive naming the
    /// rule wins, so exactly one directive is marked used per
    /// suppression no matter how the anchors nest. Returns `Err` with
    /// a diagnostic when a directive names the rule but its reason is
    /// missing.
    fn allowed(&self, idx: usize, rule: &str) -> Result<bool, String> {
        let mut missing: Option<String> = None;
        match self.allowed_at(idx, rule) {
            Ok(true) => return Ok(true),
            Ok(false) => {}
            Err(why) => missing = Some(why),
        }
        let off = self.line_starts.get(idx).copied().unwrap_or(usize::MAX);
        let mut enclosing: Vec<&ItemScope> = self
            .scopes
            .iter()
            .filter(|s| s.first_line != idx && off >= s.lo && off < s.hi)
            .collect();
        // Innermost first: latest start, then earliest end as the
        // tie-break, so the resolution order is total and deterministic.
        enclosing.sort_by_key(|s| (std::cmp::Reverse(s.lo), s.hi));
        for s in enclosing {
            match self.allowed_at(s.first_line, rule) {
                Ok(true) => return Ok(true),
                Ok(false) => {}
                Err(why) => {
                    missing.get_or_insert(why);
                }
            }
        }
        match missing {
            Some(why) => Err(why),
            None => Ok(false),
        }
    }

    /// The anchor lines a directive for line `at` may live on: the line
    /// itself, then the contiguous comment-only block above it.
    fn anchor_candidates(&self, at: usize) -> Vec<usize> {
        let mut candidates = vec![at];
        let mut l = at;
        while l > 0 {
            l -= 1;
            let comment_only = self.code_lines.get(l).is_some_and(|c| c.trim().is_empty())
                && self
                    .comment_lines
                    .get(l)
                    .is_some_and(|c| !c.trim().is_empty());
            if comment_only {
                candidates.push(l);
            } else {
                break;
            }
        }
        candidates
    }

    /// The line-scope directive check over [`Self::anchor_candidates`].
    /// A successful suppression records the directive as used.
    fn allowed_at(&self, at: usize, rule: &str) -> Result<bool, String> {
        for l in self.anchor_candidates(at) {
            for d in allow::directives(&self.comment_lines[l]) {
                if d.rules.iter().any(|r| r == rule) {
                    if d.has_reason {
                        self.used_allows.borrow_mut().insert((l, rule.to_string()));
                        return Ok(true);
                    }
                    return Err(allow::missing_reason(rule));
                }
            }
        }
        Ok(false)
    }

    /// Appends a warning for every reasoned allow directive that never
    /// suppressed anything, plus directives naming unknown rules. Test
    /// lines are skipped (every rule already exempts them, so
    /// directives there are decoration).
    pub(crate) fn unused_allow_warnings(&self, out: &mut Vec<Warning>) {
        let used = self.used_allows.borrow();
        for (idx, line) in self.comment_lines.iter().enumerate() {
            if self.in_test(idx) {
                continue;
            }
            for d in allow::directives(line) {
                for r in &d.rules {
                    let message = if !crate::RULES.contains(&r.as_str()) {
                        format!("allow({r}) names an unknown rule")
                    } else if !used.contains(&(idx, r.clone())) {
                        format!("unused allow({r}): nothing on this anchor trips the rule")
                    } else {
                        continue;
                    };
                    out.push(Warning {
                        file: self.rel.to_path_buf(),
                        line: idx + 1,
                        message,
                    });
                }
            }
        }
    }

    /// Routes a finding through the allowlist and into `out`.
    pub(crate) fn push(
        &self,
        out: &mut Vec<Violation>,
        idx: usize,
        rule: &'static str,
        message: String,
    ) {
        let (line, message) = match self.allowed(idx, rule) {
            Ok(true) => return,
            Ok(false) => (idx + 1, message),
            Err(why) => (idx + 1, format!("{message} ({why})")),
        };
        out.push(Violation {
            file: self.rel.to_path_buf(),
            line,
            rule,
            message,
        });
    }
}

/// Scans one library source file with the per-file rules (rule unit
/// tests; production runs go through [`lint_workspace_report`]).
#[cfg(test)]
pub(crate) fn lint_file(rel: &str, src: &str) -> Vec<Violation> {
    let ctx = FileCtx::build(Path::new(rel), src).expect("parses");
    let mut out = Vec::new();
    rules::run(&ctx, &mut out);
    out
}

/// Collects the library `.rs` files to lint under `root`, with their crate
/// names. Test trees (`tests/`, `benches/`, `tests.rs`, `proptests.rs`),
/// `examples/`, `vendor/`, `target/`, hidden directories and symlinks are
/// excluded — the walker never follows a link out of the tree it was
/// pointed at.
pub(crate) fn collect_sources(root: &Path) -> std::io::Result<Vec<(PathBuf, String)>> {
    let mut out = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        let mut entries: Vec<_> = std::fs::read_dir(&dir)?
            .collect::<std::io::Result<Vec<_>>>()?
            .into_iter()
            .map(|e| e.path())
            .collect();
        entries.sort();
        for path in entries {
            let name = path
                .file_name()
                .and_then(|n| n.to_str())
                .unwrap_or_default()
                .to_string();
            let Ok(meta) = std::fs::symlink_metadata(&path) else {
                continue;
            };
            if meta.file_type().is_symlink() {
                continue;
            }
            if meta.is_dir() {
                if name.starts_with('.')
                    || matches!(
                        name.as_str(),
                        "target" | "vendor" | "tests" | "benches" | "examples"
                    )
                {
                    continue;
                }
                stack.push(path);
            } else if name.ends_with(".rs") && !matches!(name.as_str(), "tests.rs" | "proptests.rs")
            {
                let rel = path.strip_prefix(root).unwrap_or(&path);
                let crate_name = match rel.components().nth(1) {
                    Some(c) if rel.starts_with("crates") => {
                        c.as_os_str().to_string_lossy().into_owned()
                    }
                    _ => "conzone".to_string(), // the root package's src/
                };
                out.push((path.clone(), crate_name));
            }
        }
    }
    Ok(out)
}

/// Parses every linted file once, runs the per-file rules over it and
/// collects the allow-hygiene warnings and the parse-coverage figures.
pub(crate) fn lint_workspace_report(root: &Path) -> std::io::Result<Report> {
    let mut report = Report::default();
    for (path, crate_name) in collect_sources(root)? {
        if !is_linted(&crate_name) {
            continue;
        }
        let src = std::fs::read_to_string(&path)?;
        let rel = path.strip_prefix(root).unwrap_or(&path);
        let ctx = FileCtx::build(rel, &src)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))?;
        rules::run(&ctx, &mut report.violations);
        ctx.unused_allow_warnings(&mut report.warnings);
        report.files_parsed += 1;
        for scope in &ctx.scopes {
            *report.items_parsed.entry(scope.kind).or_default() += 1;
        }
    }
    report.violations.sort();
    report.warnings.sort();
    report.fallback_items = report.items_parsed.get("unknown").copied().unwrap_or(0);
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn masking_strips_strings_and_comments() {
        let src = "let x = \"HashMap\"; // HashMap here\nlet y = 1; /* HashMap */\n";
        let (code, comments) = split_source(src);
        assert!(!code.contains("HashMap"));
        assert_eq!(comments.matches("HashMap").count(), 2);
        assert_eq!(code.matches('\n').count(), src.matches('\n').count());
    }

    #[test]
    fn masking_handles_raw_strings_and_chars() {
        let src = "let r = r#\"HashMap \"quoted\" \"#; let c = '\\''; let l: &'static str = s;\n";
        let (code, _) = split_source(src);
        assert!(!code.contains("HashMap"));
        assert!(code.contains("'static"));
    }

    #[test]
    fn cfg_test_lines_are_classified_from_the_ast() {
        let src =
            "fn live() {}\n#[cfg(test)]\nmod tests {\n  fn x() { a.unwrap(); }\n}\nfn tail() {}\n";
        let ctx = FileCtx::build(Path::new("crates/core/src/x.rs"), src).expect("parses");
        assert!(!ctx.in_test(0), "fn live");
        assert!(ctx.in_test(2), "mod tests body opens");
        assert!(ctx.in_test(3), "nested fn");
        assert!(ctx.in_test(4), "closing brace line");
        assert!(!ctx.in_test(5), "fn tail");
    }

    fn lint(src: &str) -> Vec<Violation> {
        lint_file("crates/core/src/x.rs", src)
    }

    #[test]
    fn allow_directive_requires_reason() {
        let with_reason =
            "// xtask-lint: allow(truncating-cast) — masked to 8 bits above\nfn f(x: u64) -> u8 { x as u8 }\n";
        let out = lint(with_reason);
        assert!(out.is_empty(), "{out:?}");

        let bare = "// xtask-lint: allow(truncating-cast)\nfn f(x: u64) -> u8 { x as u8 }\n";
        let out = lint(bare);
        assert_eq!(out.len(), 1);
        assert!(out[0].message.contains("missing its reason"), "{out:?}");
    }

    #[test]
    fn multi_rule_directive_suppresses_each_listed_rule() {
        let src =
            "// xtask-lint: allow(truncating-cast, float-determinism) — export-side scaling\n\
                   fn f(x: u64, scale: f64) -> u32 { x as u32 }\n";
        let out = lint(src);
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn item_anchored_directive_covers_the_whole_body() {
        // The directive sits above the fn, the violation is three lines
        // into its body: line-scope would miss it, item-scope finds it.
        let src = "// xtask-lint: allow(truncating-cast) — lane index, < 256 by construction\n\
                   fn lane(x: u64) -> u8 {\n\
                       let a = 1;\n\
                       let b = 2;\n\
                       x as u8\n\
                   }\n\
                   fn other(x: u64) -> u8 { x as u8 }\n";
        let out = lint(src);
        assert_eq!(out.len(), 1, "{out:?}");
        assert_eq!(out[0].line, 7, "only the undirected fn is flagged");
    }

    #[test]
    fn directive_above_same_line_and_block_above_all_work() {
        for src in [
            "fn f(x: u64) -> u8 { x as u8 } // xtask-lint: allow(truncating-cast) — masked above\n",
            "// a longer explanation\n// xtask-lint: allow(truncating-cast) — masked above\nfn f(x: u64) -> u8 { x as u8 }\n",
        ] {
            let out = lint(src);
            assert!(out.is_empty(), "{src:?} -> {out:?}");
        }
    }
}
