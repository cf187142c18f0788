//! `float-determinism`: no `f32`/`f64` in sim-visible state or
//! signatures. Float rounding depends on evaluation order, platform and
//! optimization level, so a float that feeds simulator state breaks
//! bit-identical seeded reruns. The rule looks at *type positions* —
//! struct/enum fields, const/static types, function parameters and the
//! right-hand side of `type` aliases (which would otherwise carry a
//! float into any of the others under another name) — because that is
//! where floats become part of the model's state or contract;
//! stats/export/json boundaries in `crates/sim` are exempt (floats are
//! fine once results leave the deterministic core).

use std::collections::BTreeSet;
use std::path::Path;

use crate::engine::FileCtx;
use crate::Violation;
use syn::visit::{self, Visit};
use syn::TypeTokens;

/// Boundary files where floats are part of the export format, not the
/// simulated state.
const EXEMPT: [&str; 3] = [
    "crates/sim/src/stats.rs",
    "crates/sim/src/export.rs",
    "crates/sim/src/json.rs",
];

/// (0-based line, float type, position description) per float found.
struct FloatTypes {
    found: Vec<(usize, &'static str, &'static str)>,
}

impl FloatTypes {
    fn scan(&mut self, ty: &TypeTokens, what: &'static str) {
        for (ident, span) in ty.idents() {
            let fty = match ident.as_str() {
                "f32" => "f32",
                "f64" => "f64",
                _ => continue,
            };
            self.found.push((span.line.saturating_sub(1), fty, what));
        }
    }
}

impl<'ast> Visit<'ast> for FloatTypes {
    fn visit_item(&mut self, item: &'ast syn::Item) {
        // `type` items are kept as raw tokens: the aliased type is
        // whatever follows the `=`.
        match item {
            syn::Item::Verbatim(v) if v.kind == "type" => {
                let rhs = v.tokens.iter().skip_while(|t| t.as_punct() != Some('='));
                let tokens = rhs.skip(1).cloned().collect();
                self.scan(&TypeTokens { tokens }, "type alias");
            }
            _ => {}
        }
        visit::walk_item(self, item);
    }

    fn visit_field(&mut self, field: &'ast syn::Field) {
        self.scan(&field.ty, "field");
    }

    fn visit_item_const(&mut self, item: &'ast syn::ItemConst) {
        self.scan(&item.ty, "const");
        visit::walk_item_const(self, item);
    }

    fn visit_item_static(&mut self, item: &'ast syn::ItemStatic) {
        self.scan(&item.ty, "static");
        visit::walk_item_static(self, item);
    }

    fn visit_item_fn(&mut self, item: &'ast syn::ItemFn) {
        for ty in &item.param_types {
            self.scan(ty, "fn parameter");
        }
        visit::walk_item_fn(self, item);
    }
}

pub(crate) fn check(ctx: &FileCtx<'_>, out: &mut Vec<Violation>) {
    if EXEMPT.iter().any(|e| ctx.rel == Path::new(e)) {
        return;
    }
    let mut floats = FloatTypes { found: Vec::new() };
    floats.visit_file(&ctx.ast);
    let mut seen: BTreeSet<usize> = BTreeSet::new();
    for (idx, fty, what) in floats.found {
        if ctx.in_test(idx) || !seen.insert(idx) {
            continue;
        }
        ctx.push(
            out,
            idx,
            "float-determinism",
            format!(
                "{fty} {what} feeds sim-visible state: float rounding \
                 varies with platform and optimization level and breaks \
                 bit-identical seeded reruns; store fixed-point integers \
                 (ppm, nanoseconds) and convert at the export boundary"
            ),
        );
    }
}

#[cfg(test)]
mod tests {
    use crate::engine::lint_file;

    #[test]
    fn float_fields_consts_and_params_are_flagged() {
        let src = "struct Wear { factor: f64 }\n\
                   const RATE: f32 = 0.5;\n\
                   fn apply(scale: f64) {}\n";
        let out = lint_file("crates/flash/src/x.rs", src);
        assert_eq!(out.len(), 3, "{out:?}");
        assert!(out[0].message.starts_with("f64 field"));
        assert!(out[1].message.starts_with("f32 const"));
        assert!(out[2].message.starts_with("f64 fn parameter"));
    }

    #[test]
    fn float_aliases_are_flagged_where_they_are_defined() {
        // The field using the alias shows no float token; the alias does.
        let src = "type Ratio = f64;\n\
                   struct S { r: Ratio, t: Ticks }\n\
                   type Ticks = u64;\n";
        let out = lint_file("crates/flash/src/x.rs", src);
        assert_eq!(out.len(), 1, "{out:?}");
        assert!(out[0].message.starts_with("f64 type alias"));
        assert_eq!(out[0].line, 1);
    }

    #[test]
    fn float_locals_return_types_and_exempt_files_pass() {
        // Locals and return types are conversions, not stored state.
        let src = "fn ratio(n: u64, d: u64) -> f64 { n as f64 / d as f64 }\n";
        let out = lint_file("crates/sim/src/x.rs", src);
        assert!(out.is_empty(), "{out:?}");

        let src = "struct Summary { mean: f64 }\n";
        let out = lint_file("crates/sim/src/stats.rs", src);
        assert!(out.is_empty(), "exempt boundary file: {out:?}");
    }
}
