//! `truncating-cast`: no narrowing `as` casts in sim-visible code.
//!
//! Times, counters and addresses in the simulator are `u64`; an
//! `x as u32` silently wraps after 4 Gi events / 4 GiB of address
//! space and skews results without a crash. Literal-suffix narrowing
//! (`0xff as u8`) is exempt — the value is known at the cast site.
//! Use `try_from` with a typed error, or an explicit mask when the
//! truncation is intentional (and say so in an allow reason).

use std::collections::BTreeSet;

use crate::engine::tokens::FlatTok;
use crate::engine::FileCtx;
use crate::Violation;

const NARROW: [&str; 6] = ["u8", "u16", "u32", "i8", "i16", "i32"];

pub(crate) fn check(ctx: &FileCtx<'_>, out: &mut Vec<Violation>) {
    let flat = &ctx.flat;
    let mut seen: BTreeSet<(usize, &str)> = BTreeSet::new();
    for (i, tok) in flat.iter().enumerate() {
        let FlatTok::Tok(kw) = tok else { continue };
        if kw.as_ident() != Some("as") {
            continue;
        }
        let Some(target) = flat
            .get(i + 1)
            .and_then(FlatTok::ident)
            .and_then(|t| NARROW.iter().copied().find(|n| *n == t))
        else {
            continue;
        };
        // A literal source (`0xff as u8`) narrows a compile-time-known
        // value, not a runtime sim quantity.
        if i > 0 && matches!(&flat[i - 1], FlatTok::Tok(t) if t.as_literal().is_some()) {
            continue;
        }
        let idx = kw.span().line.saturating_sub(1);
        if ctx.in_test(idx) || !seen.insert((idx, target)) {
            continue;
        }
        ctx.push(
            out,
            idx,
            "truncating-cast",
            format!(
                "`as {target}` narrows a runtime value: sim times, \
                 counters and addresses are u64, and a silent wrap skews \
                 results without failing; use try_from with a typed error \
                 or an explicit documented mask"
            ),
        );
    }
}

#[cfg(test)]
mod tests {
    use crate::engine::lint_file;

    #[test]
    fn narrowing_casts_are_flagged_and_widening_is_not() {
        let src = "fn f(x: u64) { let a = x as u32; let b = x as u128; let c = x as u64; }\n";
        let out = lint_file("crates/sim/src/x.rs", src);
        assert_eq!(out.len(), 1, "{out:?}");
        assert!(out[0].message.contains("`as u32`"));
    }

    #[test]
    fn literal_casts_and_imports_are_exempt() {
        let src = "use std::io::Read as u8reader;\nfn f() { let m = 0xff as u8; }\n";
        let out = lint_file("crates/sim/src/x.rs", src);
        assert!(out.is_empty(), "{out:?}");
    }
}
