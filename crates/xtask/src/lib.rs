//! The determinism-hygiene lint pass behind `cargo xtask lint`.
//!
//! ConZone's value as an emulator rests on bit-identical seeded reruns,
//! so this pass makes the two parts of that property nothing cheaper can
//! enforce *statically* checked instead of test-observed. The compiler,
//! a clippy lint, a `Send` assertion or the counting allocator of
//! `tests/zero_alloc.rs` own everything else (the ledger is
//! `docs/internals.md` §8). Two rules:
//!
//! * [`float-determinism`] — no `f32`/`f64` in sim-visible type positions
//!   (struct/enum fields, const/static types, fn parameters, `type`
//!   aliases); float rounding varies with platform and optimization
//!   level. The stats/export/json boundary files in `crates/sim` are
//!   exempt.
//! * [`truncating-cast`] — no narrowing `as` casts (`u8`/`u16`/`u32`/
//!   `i8`/`i16`/`i32` targets) on runtime values: sim times, counters and
//!   addresses are `u64` and silent wraps skew results without failing.
//!
//! # Engine
//!
//! The pass parses every file with the vendored `syn` stand-in (the
//! build is fully offline; `vendor/` is the only dependency source) and
//! runs the rules as AST/token passes over a per-file context: parsed
//! items, a flattened token view with exact spans, and `#[cfg(test)]`
//! extents derived from item attributes. A `"f64"` inside a string or
//! doc comment can never trip a rule — the lexer never produces a token
//! for it. The report carries a parse-coverage figure (files, items by
//! kind, items the parser fell back on) so a construct the hand-rolled
//! parser does not model cannot silently hide a violation.
//!
//! # Allowlist syntax
//!
//! A violation on line *N* is suppressed by a comment on line *N*, in
//! the contiguous comment block immediately above it, or above any
//! enclosing item (fn, mod, impl, …), of the form:
//!
//! ```text
//! // xtask-lint: allow(truncating-cast) — lane index, masked to 8 bits above
//! // xtask-lint: allow(float-determinism, truncating-cast) — export-side scaling
//! ```
//!
//! The reason after the dash is mandatory; a bare `allow(...)` does not
//! suppress anything (the diagnostic says so).

mod engine;

use std::collections::BTreeMap;
use std::fmt;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

/// Rule identifiers, as used in diagnostics and allow directives.
pub const RULES: [&str; 2] = ["float-determinism", "truncating-cast"];

/// One lint finding.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Violation {
    /// Path relative to the linted root.
    pub file: PathBuf,
    /// 1-based line number.
    pub line: usize,
    /// Rule identifier (one of [`RULES`]).
    pub rule: &'static str,
    /// Human-readable description of the finding.
    pub message: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file.display(),
            self.line,
            self.rule,
            self.message
        )
    }
}

/// A non-fatal finding: the lint still passes, but something deserves
/// attention — today, allow directives that no longer suppress anything.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Warning {
    /// Path relative to the linted root.
    pub file: PathBuf,
    /// 1-based line number of the directive.
    pub line: usize,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for Warning {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: warning: {}",
            self.file.display(),
            self.line,
            self.message
        )
    }
}

/// The full result of one lint run.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// Rule violations (failures), sorted.
    pub violations: Vec<Violation>,
    /// Non-fatal warnings, sorted.
    pub warnings: Vec<Warning>,
    /// Parse coverage: how many files the rules saw.
    pub files_parsed: usize,
    /// Parse coverage: every item the parser produced (nested ones
    /// included), counted by kind. Items kept as raw tokens count under
    /// their leading keyword (`use`, `type`, `extern`) or, for a form
    /// the parser does not model, under `unknown`.
    pub items_parsed: BTreeMap<&'static str, usize>,
    /// Parse coverage: the `unknown` count — items where a rule that
    /// reads item structure would see nothing.
    pub fallback_items: usize,
}

/// Runs every rule over the workspace at `root`, returning the sorted
/// violations.
pub fn lint_workspace(root: &Path) -> std::io::Result<Vec<Violation>> {
    Ok(engine::lint_workspace_report(root)?.violations)
}

/// Runs the lint and returns the full report.
pub fn lint_workspace_report(root: &Path) -> std::io::Result<Report> {
    engine::lint_workspace_report(root)
}

/// Renders violations as a JSON report with a stable field order
/// (`rules`, `violation_count`, then `violations`, each with `file`,
/// `line`, `rule`, `message`), so snapshots and CI consumers can diff
/// the output textually.
pub fn violations_to_json(violations: &[Violation]) -> String {
    let mut out = String::from("{\n  \"rules\": [");
    for (i, r) in RULES.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(out, "{sep}{}", json_string(r));
    }
    let _ = write!(
        out,
        "],\n  \"violation_count\": {},\n  \"violations\": [",
        violations.len()
    );
    for (i, v) in violations.iter().enumerate() {
        let sep = if i == 0 { "" } else { "," };
        let _ = write!(
            out,
            "{sep}\n    {{\"file\": {}, \"line\": {}, \"rule\": {}, \"message\": {}}}",
            json_string(&v.file.display().to_string()),
            v.line,
            json_string(v.rule),
            json_string(&v.message)
        );
    }
    if violations.is_empty() {
        out.push_str("]\n}\n");
    } else {
        out.push_str("\n  ]\n}\n");
    }
    out
}

/// Renders the full report as JSON with a stable field order (`rules`,
/// `violation_count`, `violations`, `warning_count`, `warnings`, then
/// the `parse` coverage block), so snapshots and CI consumers can diff
/// the output textually.
pub fn report_to_json(report: &Report) -> String {
    let mut out = String::from("{\n  \"rules\": [");
    for (i, r) in RULES.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(out, "{sep}{}", json_string(r));
    }
    let _ = write!(
        out,
        "],\n  \"violation_count\": {},\n  \"violations\": [",
        report.violations.len()
    );
    for (i, v) in report.violations.iter().enumerate() {
        let sep = if i == 0 { "" } else { "," };
        let _ = write!(
            out,
            "{sep}\n    {{\"file\": {}, \"line\": {}, \"rule\": {}, \"message\": {}}}",
            json_string(&v.file.display().to_string()),
            v.line,
            json_string(v.rule),
            json_string(&v.message)
        );
    }
    if !report.violations.is_empty() {
        out.push_str("\n  ");
    }
    let _ = write!(
        out,
        "],\n  \"warning_count\": {},\n  \"warnings\": [",
        report.warnings.len()
    );
    for (i, w) in report.warnings.iter().enumerate() {
        let sep = if i == 0 { "" } else { "," };
        let _ = write!(
            out,
            "{sep}\n    {{\"file\": {}, \"line\": {}, \"message\": {}}}",
            json_string(&w.file.display().to_string()),
            w.line,
            json_string(&w.message)
        );
    }
    if !report.warnings.is_empty() {
        out.push_str("\n  ");
    }
    let _ = write!(
        out,
        "],\n  \"parse\": {{\"files\": {}, \"items\": {}, \"fallback\": {}, \"by_kind\": {{",
        report.files_parsed,
        report.items_parsed.values().sum::<usize>(),
        report.fallback_items,
    );
    for (i, (kind, n)) in report.items_parsed.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(out, "{sep}{}: {n}", json_string(kind));
    }
    out.push_str("}}\n}\n");
    out
}

/// Escapes a string for JSON output.
fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_report_has_stable_field_order() {
        let v = vec![Violation {
            file: PathBuf::from("crates/sim/src/x.rs"),
            line: 3,
            rule: "truncating-cast",
            message: "a \"quoted\" message".to_string(),
        }];
        let json = violations_to_json(&v);
        let file_at = json.find("\"file\"").expect("file key");
        let line_at = json.find("\"line\"").expect("line key");
        let rule_at = json.find("\"rule\"").expect("rule key");
        let msg_at = json.find("\"message\"").expect("message key");
        assert!(file_at < line_at && line_at < rule_at && rule_at < msg_at);
        assert!(json.contains("\\\"quoted\\\""));
        assert!(json.contains("\"violation_count\": 1"));
    }

    #[test]
    fn empty_report_is_well_formed() {
        let json = violations_to_json(&[]);
        assert!(json.contains("\"violation_count\": 0"));
        assert!(json.trim_end().ends_with('}'));
    }

    #[test]
    fn full_report_json_includes_warnings_and_parse_coverage() {
        let report = Report {
            violations: vec![],
            warnings: vec![Warning {
                file: PathBuf::from("crates/sim/src/x.rs"),
                line: 7,
                message: "unused allow".to_string(),
            }],
            files_parsed: 2,
            items_parsed: BTreeMap::from([("fn", 5), ("use", 3)]),
            fallback_items: 0,
        };
        let json = report_to_json(&report);
        let warn_at = json.find("\"warnings\"").expect("warnings key");
        let parse_at = json.find("\"parse\"").expect("parse key");
        assert!(warn_at < parse_at);
        assert!(json.contains("\"warning_count\": 1"));
        assert!(json.contains(
            "\"parse\": {\"files\": 2, \"items\": 8, \"fallback\": 0, \
             \"by_kind\": {\"fn\": 5, \"use\": 3}}"
        ));
    }
}
