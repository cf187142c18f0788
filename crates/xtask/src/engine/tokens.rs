//! A flattened view of a file's token trees.
//!
//! The `as`-cast rule looks at small windows of *adjacent* tokens
//! without caring about tree structure, while still needing to tell
//! where groups open and close (`(0xff) as u8` does not have a literal
//! directly before the `as`). Flattening the tree once per file gives
//! it an O(n) scan.

use proc_macro2::{TokenStream, TokenTree};

/// One element of the flattened stream.
#[derive(Debug, Clone)]
pub(crate) enum FlatTok {
    /// A group's opening or closing delimiter.
    Edge,
    /// A leaf token: identifier, punct or literal.
    Tok(TokenTree),
}

impl FlatTok {
    /// The identifier text, if this is an ident leaf.
    pub(crate) fn ident(&self) -> Option<&str> {
        match self {
            FlatTok::Tok(t) => t.as_ident(),
            FlatTok::Edge => None,
        }
    }
}

/// Flattens a token stream depth-first, in source order.
pub(crate) fn flatten(stream: &TokenStream) -> Vec<FlatTok> {
    let mut out = Vec::new();
    fn walk(tokens: &[TokenTree], out: &mut Vec<FlatTok>) {
        for t in tokens {
            match t {
                TokenTree::Group(g) => {
                    out.push(FlatTok::Edge);
                    walk(g.stream().tokens(), out);
                    out.push(FlatTok::Edge);
                }
                other => out.push(FlatTok::Tok(other.clone())),
            }
        }
    }
    walk(stream.tokens(), &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flattening_preserves_order_and_group_edges() {
        let ts: TokenStream = "a.unwrap()".parse().expect("lexes");
        let f = flatten(&ts);
        assert_eq!(f[0].ident(), Some("a"));
        assert!(matches!(&f[1], FlatTok::Tok(t) if t.as_punct() == Some('.')));
        assert_eq!(f[2].ident(), Some("unwrap"));
        assert!(matches!(f[3], FlatTok::Edge));
        assert!(matches!(f[4], FlatTok::Edge));
        assert_eq!(f.len(), 5);
    }
}
