//! A flattened view of a file's token trees.
//!
//! Token-pattern rules (`as` casts, the builtin effect table, call
//! sites) want to look at small windows of *adjacent* tokens without
//! caring about tree structure, while still being able to tell where
//! groups open and close (the `(` after `.lock` is part of the pattern).
//! Flattening the tree once per file gives every rule an O(n) scan.

use proc_macro2::{Delimiter, Span, TokenStream, TokenTree};

/// One element of the flattened stream.
#[derive(Debug, Clone)]
pub(crate) enum FlatTok {
    /// A group's opening delimiter.
    Open { delim: Delimiter, span: Span },
    /// A group's closing delimiter (span covers the whole group).
    Close { span: Span },
    /// A leaf token: identifier, punct or literal.
    Tok(TokenTree),
}

impl FlatTok {
    /// The identifier text, if this is an ident leaf.
    pub(crate) fn ident(&self) -> Option<&str> {
        match self {
            FlatTok::Tok(t) => t.as_ident(),
            _ => None,
        }
    }

    /// The punct character, if this is a punct leaf.
    pub(crate) fn punct(&self) -> Option<char> {
        match self {
            FlatTok::Tok(t) => t.as_punct(),
            _ => None,
        }
    }

    /// The span of the element.
    pub(crate) fn span(&self) -> Span {
        match self {
            FlatTok::Open { span, .. } | FlatTok::Close { span, .. } => *span,
            FlatTok::Tok(t) => t.span(),
        }
    }

    /// 0-based line index of the element's start.
    pub(crate) fn line_idx(&self) -> usize {
        self.span().line.saturating_sub(1)
    }
}

/// Flattens a token stream depth-first, in source order.
pub(crate) fn flatten(stream: &TokenStream) -> Vec<FlatTok> {
    let mut out = Vec::new();
    fn walk(tokens: &[TokenTree], out: &mut Vec<FlatTok>) {
        for t in tokens {
            match t {
                TokenTree::Group(g) => {
                    out.push(FlatTok::Open {
                        delim: g.delimiter(),
                        span: g.span(),
                    });
                    walk(g.stream().tokens(), out);
                    out.push(FlatTok::Close { span: g.span() });
                }
                other => out.push(FlatTok::Tok(other.clone())),
            }
        }
    }
    walk(stream.tokens(), &mut out);
    out
}

/// Whether `flat[i..]` starts with the given ident/punct pattern on a
/// single source line. Pattern entries are either an identifier text or
/// a one-character punct string.
pub(crate) fn matches_pattern(flat: &[FlatTok], i: usize, pattern: &[&str]) -> bool {
    let Some(first) = flat.get(i) else {
        return false;
    };
    let line = first.span().line;
    for (k, want) in pattern.iter().enumerate() {
        let Some(tok) = flat.get(i + k) else {
            return false;
        };
        if tok.span().line != line {
            return false;
        }
        let mut chars = want.chars();
        let (c, rest) = (chars.next(), chars.next());
        let is_punct_pat = rest.is_none() && c.is_some_and(|c| !c.is_alphanumeric() && c != '_');
        let ok = if is_punct_pat {
            tok.punct() == c
        } else {
            tok.ident() == Some(want)
        };
        if !ok {
            return false;
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flat(src: &str) -> Vec<FlatTok> {
        let ts: TokenStream = src.parse().expect("lexes");
        flatten(&ts)
    }

    #[test]
    fn flattening_preserves_order_and_group_edges() {
        let f = flat("a.unwrap()");
        assert_eq!(f[0].ident(), Some("a"));
        assert_eq!(f[1].punct(), Some('.'));
        assert_eq!(f[2].ident(), Some("unwrap"));
        assert!(matches!(
            f[3],
            FlatTok::Open {
                delim: Delimiter::Parenthesis,
                ..
            }
        ));
        assert!(matches!(f[4], FlatTok::Close { .. }));
    }

    #[test]
    fn pattern_matching_requires_one_line() {
        let f = flat("Vec::new()");
        assert!(matches_pattern(&f, 0, &["Vec", ":", ":", "new"]));
        let f = flat("Vec::\nnew()");
        assert!(!matches_pattern(&f, 0, &["Vec", ":", ":", "new"]));
    }

    #[test]
    fn pattern_matching_is_exact_on_idents() {
        let f = flat("Vec::new_in()");
        assert!(!matches_pattern(&f, 0, &["Vec", ":", ":", "new"]));
    }
}
