//! Parsing of `// xtask-lint: allow(rule) — reason` directives.
//!
//! A directive names one or more rules (comma-separated inside the
//! parentheses) and must carry a human-readable reason after the
//! closing parenthesis; a directive without a reason is rejected and
//! the violation it would have suppressed is annotated instead of
//! silenced. Directives are recognised on the violating line itself or
//! in the contiguous comment-only block immediately above it, and on
//! the first line of any enclosing item, so one
//! directive above a function or module can vouch for its whole body.

/// One parsed directive occurrence on a comment line.
#[derive(Debug, PartialEq, Eq)]
pub(crate) struct Directive {
    /// Rule names listed inside `allow(...)`, trimmed.
    pub rules: Vec<String>,
    /// Whether an alphanumeric reason follows the closing parenthesis.
    pub has_reason: bool,
}

/// Extracts every directive on a single (comment-view) line.
pub(crate) fn directives(comment_line: &str) -> Vec<Directive> {
    const NEEDLE: &str = "xtask-lint: allow(";
    let mut out = Vec::new();
    let mut rest = comment_line;
    while let Some(pos) = rest.find(NEEDLE) {
        let after = &rest[pos + NEEDLE.len()..];
        let Some(close) = after.find(')') else {
            // Malformed (unclosed) directive: ignore it, like the
            // previous engine, which only matched fully spelled needles.
            break;
        };
        let rules: Vec<String> = after[..close]
            .split(',')
            .map(|r| r.trim().to_string())
            .filter(|r| !r.is_empty())
            .collect();
        let reason = after[close + 1..].trim_start_matches([' ', '\t', '—', '–', '-', ':']);
        let has_reason = reason.chars().any(|c| c.is_alphanumeric());
        if !rules.is_empty() {
            out.push(Directive { rules, has_reason });
        }
        rest = &after[close + 1..];
    }
    out
}

/// The annotation appended to a violation whose directive lacks a reason.
pub(crate) fn missing_reason(rule: &str) -> String {
    format!(
        "allow({rule}) directive is missing its reason \
         (write `// xtask-lint: allow({rule}) — <reason>`)"
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_rule_with_reason_parses() {
        let d = directives("// xtask-lint: allow(truncating-cast) — lane index, masked above");
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].rules, ["truncating-cast"]);
        assert!(d[0].has_reason);
    }

    #[test]
    fn multiple_rules_share_one_directive() {
        let d = directives(
            "// xtask-lint: allow(float-determinism, truncating-cast) — export-side scaling",
        );
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].rules, ["float-determinism", "truncating-cast"]);
        assert!(d[0].has_reason);
    }

    #[test]
    fn missing_reason_is_detected() {
        let d = directives("// xtask-lint: allow(truncating-cast)");
        assert_eq!(d.len(), 1);
        assert!(!d[0].has_reason);
        // Dash-only "reasons" do not count either.
        let d = directives("// xtask-lint: allow(truncating-cast) — ");
        assert!(!d[0].has_reason);
    }

    #[test]
    fn two_directives_on_one_line_are_both_seen() {
        let d = directives(
            "// xtask-lint: allow(truncating-cast) — masked above; xtask-lint: allow(float-determinism) — ditto",
        );
        assert_eq!(d.len(), 2);
        assert_eq!(d[0].rules, ["truncating-cast"]);
        assert_eq!(d[1].rules, ["float-determinism"]);
    }

    #[test]
    fn unclosed_directive_is_ignored() {
        assert!(directives("// xtask-lint: allow(truncating-cast").is_empty());
        assert!(directives("// no directive here").is_empty());
    }
}
