//! The effect lattice and the builtin (intrinsic) effect table.
//!
//! Every function in the sim-visible crates gets an [`EffectSet`]: a
//! small powerset lattice joined over the call graph until fixpoint
//! (`graph` module). The *intrinsic* effects of a function are the ones
//! its own tokens exhibit — constructing an owned container, calling
//! `.unwrap()`, taking a lock — recognised by the token patterns in
//! this module. Everything else a function does to earn an effect is
//! *transitive*: it calls something that has one.
//!
//! The hot-path contract (`hot-path-effects` rule) forbids every effect
//! in the lattice — `allocates`, `panics`, `locks` — on functions
//! marked `// xtask-effect: hot_path`. Wall-clock reads are banned
//! crate-wide by `clippy::disallowed_methods`, so they need no bit here.

use crate::engine::tokens::FlatTok;
use proc_macro2::Delimiter;

/// A set of effects — a tiny bitflag powerset lattice (`union` is join,
/// `EMPTY` is bottom).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default)]
pub(crate) struct EffectSet(u8);

impl EffectSet {
    pub(crate) const EMPTY: EffectSet = EffectSet(0);
    /// Constructs an owned container/string/box (fresh heap memory).
    pub(crate) const ALLOC: EffectSet = EffectSet(1);
    /// Explicit panic family: `unwrap`, `expect`, `panic!`, `assert!*`,
    /// `unreachable!`, `todo!`, `unimplemented!`.
    pub(crate) const PANIC: EffectSet = EffectSet(1 << 1);
    /// Takes a lock (`Mutex`, `RwLock`, `.lock()`).
    pub(crate) const LOCK: EffectSet = EffectSet(1 << 2);

    /// All single-effect bits with their report names, in display order.
    /// The hot-path contract forbids every one of them.
    pub(crate) const BITS: [(EffectSet, &'static str); 3] = [
        (Self::ALLOC, "allocates"),
        (Self::PANIC, "panics"),
        (Self::LOCK, "locks"),
    ];

    pub(crate) fn union(self, other: EffectSet) -> EffectSet {
        EffectSet(self.0 | other.0)
    }

    pub(crate) fn contains(self, other: EffectSet) -> bool {
        self.0 & other.0 == other.0
    }

    pub(crate) fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// Report names of every effect present, in stable order.
    pub(crate) fn names(self) -> Vec<&'static str> {
        Self::BITS
            .iter()
            .filter(|(bit, _)| self.contains(*bit))
            .map(|&(_, name)| name)
            .collect()
    }

    /// Display name of a single-effect set.
    #[cfg(test)]
    pub(crate) fn name(self) -> &'static str {
        Self::BITS
            .iter()
            .find(|(bit, _)| *bit == self)
            .map_or("?", |&(_, name)| name)
    }
}

/// One intrinsic effect occurrence inside a function body.
#[derive(Debug, Clone)]
pub(crate) struct EffectSite {
    /// The single effect bit this site exhibits.
    pub effect: EffectSet,
    /// 0-based line of the offending token.
    pub line: usize,
    /// What the token pattern was (`Vec::new`, `unwrap`, `panic`, …).
    pub what: &'static str,
}

/// Identifier-path patterns (`A::b` or bare idents) and the effect they
/// exhibit. The seeded builtin table: how raw std calls earn effects.
const PATH_EFFECTS: [(&str, &[&str], EffectSet); 12] = [
    ("Vec::new", &["Vec", ":", ":", "new"], EffectSet::ALLOC),
    (
        "Vec::with_capacity",
        &["Vec", ":", ":", "with_capacity"],
        EffectSet::ALLOC,
    ),
    ("Box::new", &["Box", ":", ":", "new"], EffectSet::ALLOC),
    (
        "String::new",
        &["String", ":", ":", "new"],
        EffectSet::ALLOC,
    ),
    (
        "String::from",
        &["String", ":", ":", "from"],
        EffectSet::ALLOC,
    ),
    (
        "String::with_capacity",
        &["String", ":", ":", "with_capacity"],
        EffectSet::ALLOC,
    ),
    (
        "VecDeque::new",
        &["VecDeque", ":", ":", "new"],
        EffectSet::ALLOC,
    ),
    (
        "VecDeque::with_capacity",
        &["VecDeque", ":", ":", "with_capacity"],
        EffectSet::ALLOC,
    ),
    ("Rc::new", &["Rc", ":", ":", "new"], EffectSet::ALLOC),
    ("Arc::new", &["Arc", ":", ":", "new"], EffectSet::ALLOC),
    ("Mutex::new", &["Mutex", ":", ":", "new"], EffectSet::LOCK),
    ("RwLock::new", &["RwLock", ":", ":", "new"], EffectSet::LOCK),
];

/// Method-call patterns (`.name(` on any receiver) and their effect.
/// `.clone()` is deliberately absent: the token view cannot tell a
/// `Copy` clone from an owned duplication, and the owned-duplication
/// idioms (`to_vec`, `to_owned`, `to_string`) are all listed.
const METHOD_EFFECTS: [(&str, EffectSet); 7] = [
    ("collect", EffectSet::ALLOC),
    ("to_vec", EffectSet::ALLOC),
    ("to_owned", EffectSet::ALLOC),
    ("to_string", EffectSet::ALLOC),
    ("unwrap", EffectSet::PANIC),
    ("expect", EffectSet::PANIC),
    ("lock", EffectSet::LOCK),
];

/// Macro invocations (`name!`) and their effect. `debug_assert!*` is
/// absent on purpose: it compiles out of release builds, and the hot
/// contract is about release steady state.
const MACRO_EFFECTS: [(&str, EffectSet); 10] = [
    ("vec", EffectSet::ALLOC),
    ("format", EffectSet::ALLOC),
    ("panic", EffectSet::PANIC),
    ("assert", EffectSet::PANIC),
    ("assert_eq", EffectSet::PANIC),
    ("assert_ne", EffectSet::PANIC),
    ("unreachable", EffectSet::PANIC),
    ("todo", EffectSet::PANIC),
    ("unimplemented", EffectSet::PANIC),
    ("matches", EffectSet::EMPTY), // common, listed to document the decision
];

/// Keyword identifiers that look like call receivers but are not.
pub(crate) fn is_keyword(ident: &str) -> bool {
    matches!(
        ident,
        "if" | "else"
            | "while"
            | "for"
            | "loop"
            | "match"
            | "return"
            | "break"
            | "continue"
            | "let"
            | "mut"
            | "ref"
            | "move"
            | "in"
            | "as"
            | "fn"
            | "unsafe"
            | "where"
            | "impl"
            | "dyn"
            | "pub"
            | "use"
            | "const"
            | "static"
            | "struct"
            | "enum"
            | "trait"
            | "type"
            | "mod"
            | "self"
            | "Self"
            | "super"
            | "crate"
            | "await"
            | "async"
    )
}

/// Scans a flattened token window (`flat[lo..hi]`, token indices) for
/// intrinsic effect sites, honouring `skip` *byte* ranges (the extents
/// of nested named functions, which are symbols of their own).
pub(crate) fn scan_intrinsics(
    flat: &[FlatTok],
    lo: usize,
    hi: usize,
    skip: &[(usize, usize)],
    out: &mut Vec<EffectSite>,
) {
    let skipped = |t: &FlatTok| {
        skip.iter()
            .any(|&(s, e)| t.span().lo >= s && t.span().lo < e)
    };
    let mut i = lo;
    while i < hi {
        if skipped(&flat[i]) {
            i += 1;
            continue;
        }
        // Path patterns (`Vec::new`, `Mutex::new`, …).
        for (what, pattern, effect) in PATH_EFFECTS {
            if crate::engine::tokens::matches_pattern(flat, i, pattern) {
                // A path pattern must not be the tail of a longer path
                // (`my::Vec::new` still counts; `MyVec::new` must not,
                // which ident matching already guarantees).
                out.push(EffectSite {
                    effect,
                    line: flat[i].line_idx(),
                    what,
                });
            }
        }
        // Method patterns: `. name (`.
        if flat[i].punct() == Some('.') {
            if let (Some(name), Some(FlatTok::Open { delim, .. })) =
                (flat.get(i + 1).and_then(FlatTok::ident), flat.get(i + 2))
            {
                if *delim == Delimiter::Parenthesis {
                    for (what, effect) in METHOD_EFFECTS {
                        if name == what && !effect.is_empty() {
                            out.push(EffectSite {
                                effect,
                                line: flat[i + 1].line_idx(),
                                what,
                            });
                        }
                    }
                }
            }
        }
        // Macro patterns: `name !`.
        if let (Some(name), Some('!')) = (flat[i].ident(), flat.get(i + 1).and_then(FlatTok::punct))
        {
            for (what, effect) in MACRO_EFFECTS {
                if name == what && !effect.is_empty() {
                    out.push(EffectSite {
                        effect,
                        line: flat[i].line_idx(),
                        what,
                    });
                }
            }
        }
        i += 1;
    }
}

/// One parsed `// xtask-effect: <kind> — reason` marker occurrence.
#[derive(Debug, PartialEq, Eq)]
pub(crate) struct EffectMarker {
    /// The marker kind text (`hot_path`, `cold`, or something unknown).
    pub kind: String,
    /// Whether an alphanumeric reason follows the kind.
    pub has_reason: bool,
}

/// Extracts every effect marker on a single (comment-view) line.
pub(crate) fn effect_markers(comment_line: &str) -> Vec<EffectMarker> {
    const NEEDLE: &str = "xtask-effect:";
    let mut out = Vec::new();
    let mut rest = comment_line;
    while let Some(pos) = rest.find(NEEDLE) {
        let after = rest[pos + NEEDLE.len()..].trim_start();
        let kind: String = after
            .chars()
            .take_while(|c| c.is_alphanumeric() || *c == '_')
            .collect();
        let tail = &after[kind.len()..];
        let reason = tail.trim_start_matches([' ', '\t', '—', '–', '-', ':']);
        let has_reason = reason.chars().any(|c| c.is_alphanumeric());
        if !kind.is_empty() {
            out.push(EffectMarker { kind, has_reason });
        }
        rest = &rest[pos + NEEDLE.len()..];
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::tokens::flatten;
    use proc_macro2::TokenStream;

    fn sites(src: &str) -> Vec<(&'static str, &'static str)> {
        let ts: TokenStream = src.parse().expect("lexes");
        let flat = flatten(&ts);
        let mut out = Vec::new();
        scan_intrinsics(&flat, 0, flat.len(), &[], &mut out);
        out.iter().map(|s| (s.effect.name(), s.what)).collect()
    }

    #[test]
    fn lattice_join_and_names() {
        let e = EffectSet::ALLOC.union(EffectSet::LOCK);
        assert!(e.contains(EffectSet::ALLOC));
        assert!(!e.contains(EffectSet::PANIC));
        assert_eq!(e.names(), ["allocates", "locks"]);
    }

    #[test]
    fn builtin_paths_and_methods_are_recognised() {
        assert_eq!(
            sites("let v = Vec::with_capacity(4);"),
            [("allocates", "Vec::with_capacity")]
        );
        assert_eq!(sites("xs.iter().collect()"), [("allocates", "collect")]);
        assert_eq!(sites("m.lock()"), [("locks", "lock")]);
        assert_eq!(sites("x.unwrap()"), [("panics", "unwrap")]);
        assert_eq!(sites("panic!(\"boom\")"), [("panics", "panic")]);
    }

    #[test]
    fn method_names_without_call_parens_do_not_match() {
        // A field named `lock` or a path segment is not a lock call.
        assert!(sites("let l = self.lock;").is_empty());
        assert!(sites("use std::sync::atomic;").is_empty());
    }

    #[test]
    fn effect_marker_parsing() {
        let m = effect_markers("// xtask-effect: hot_path");
        assert_eq!(m.len(), 1);
        assert_eq!(m[0].kind, "hot_path");
        assert!(!m[0].has_reason);
        let m = effect_markers("// xtask-effect: cold — GC refill slow path");
        assert_eq!(m[0].kind, "cold");
        assert!(m[0].has_reason);
        assert!(effect_markers("// nothing here").is_empty());
    }
}
