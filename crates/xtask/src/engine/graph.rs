//! The workspace call graph and the interprocedural effect fixpoint.
//!
//! Call sites resolve to function symbols with name-and-shape
//! heuristics (the reduced AST has no type inference):
//!
//! * `name(…)` → every free function called `name`.
//! * `Qual::name(…)` → methods of type/trait `Qual` (with `Self`
//!   resolved to the enclosing impl type); when `Qual` names no type,
//!   it is a module path and the call resolves like a free function.
//! * `self.name(…)` → methods of the enclosing impl type, falling back
//!   to name-union when the type declares none (trait default bodies).
//! * `recv.name(…)` → the union of every workspace method called
//!   `name` — deliberately conservative: a trait-object or generic
//!   receiver could be any of them.
//!
//! Unresolved calls (std and vendored functions) contribute nothing;
//! the builtin effect table in `effects` is how raw std calls earn
//! effects. Effects then propagate caller-ward to fixpoint: a function
//! has the union of its intrinsic effects and the effects of every
//! resolved callee, except that calls into `cold`-marked functions are
//! charged nothing — the reasoned escape hatch for slow paths.
//!
//! The `hot-path-effects` rule queries the fixpoint: every function
//! marked `hot_path` must be transitively free of every effect in the
//! lattice (`allocates`, `panics`, `locks`). A violation names the
//! shortest call chain from the hot function to the *leaf* — the
//! function whose own tokens exhibit the effect — and anchors the
//! diagnostic at the leaf site, where a reasoned allow can discharge it.

use crate::engine::effects::EffectSet;
use crate::engine::symbols::{CallKind, FnSym};
use crate::Violation;
use std::collections::{BTreeMap, BTreeSet, VecDeque};

pub(crate) struct Graph {
    pub fns: Vec<FnSym>,
    /// Resolved callee ids per function, deduped, cold callees removed.
    edges: Vec<Vec<usize>>,
}

/// Builds the graph, resolves every call site and runs the effect
/// fixpoint (results land in `fns[i].effects`).
pub(crate) fn build(mut fns: Vec<FnSym>) -> Graph {
    let mut free: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
    let mut typed: BTreeMap<(&str, &str), Vec<usize>> = BTreeMap::new();
    let mut by_name: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
    for (i, f) in fns.iter().enumerate() {
        match &f.self_ty {
            None => free.entry(&f.name).or_default().push(i),
            Some(ty) => {
                typed.entry((ty, &f.name)).or_default().push(i);
                by_name.entry(&f.name).or_default().push(i);
                // A trait-impl method is also reachable through the
                // trait: `T::m(&x)` and trait-object dispatch.
                if let Some(tr) = &f.trait_of {
                    typed.entry((tr, &f.name)).or_default().push(i);
                }
            }
        }
    }

    let mut edges: Vec<Vec<usize>> = Vec::with_capacity(fns.len());
    for f in &fns {
        let mut out = BTreeSet::new();
        for call in &f.calls {
            let name = call.name.as_str();
            let targets: Vec<usize> = match &call.kind {
                CallKind::Bare => free.get(name).cloned().unwrap_or_default(),
                CallKind::Qualified(q) => {
                    let q: &str = match (q.as_str(), &f.self_ty) {
                        ("Self", Some(ty)) => ty,
                        (q, _) => q,
                    };
                    match typed.get(&(q, name)) {
                        Some(ids) => ids.clone(),
                        // No type called `q`: a module-qualified free
                        // function (`json::parse(…)`).
                        None => free.get(name).cloned().unwrap_or_default(),
                    }
                }
                CallKind::SelfMethod => {
                    match f.self_ty.as_deref().and_then(|ty| typed.get(&(ty, name))) {
                        Some(ids) => ids.clone(),
                        None => by_name.get(name).cloned().unwrap_or_default(),
                    }
                }
                CallKind::Method => by_name.get(name).cloned().unwrap_or_default(),
            };
            for t in targets {
                // Cold cuts propagation: the callee keeps its effects,
                // the caller is not charged for them.
                if !fns[t].cold {
                    out.insert(t);
                }
            }
        }
        edges.push(out.into_iter().collect());
    }

    // Effect fixpoint: monotone join over a finite lattice, so a naive
    // iterate-until-stable loop terminates (≤ bits × fns rounds).
    let mut effects: Vec<EffectSet> = fns
        .iter()
        .map(|f| {
            f.intrinsics
                .iter()
                .fold(EffectSet::EMPTY, |acc, s| acc.union(s.effect))
        })
        .collect();
    loop {
        let mut changed = false;
        for i in 0..fns.len() {
            let mut e = effects[i];
            for &j in &edges[i] {
                e = e.union(effects[j]);
            }
            if e != effects[i] {
                effects[i] = e;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
    for (f, e) in fns.iter_mut().zip(&effects) {
        f.effects = *e;
    }

    Graph { fns, edges }
}

impl Graph {
    /// Enforces the hot-path contract, appending one violation per
    /// (hot function, forbidden effect), anchored at the leaf site.
    pub(crate) fn check_hot_paths(&self, out: &mut Vec<Violation>) {
        for (i, f) in self.fns.iter().enumerate() {
            if !f.hot {
                continue;
            }
            for (bit, name) in EffectSet::BITS {
                if !f.effects.contains(bit) {
                    continue;
                }
                let Some((path, site_idx)) = self.shortest_chain(i, bit) else {
                    continue; // unreachable if the fixpoint is consistent
                };
                let leaf = &self.fns[*path.last().unwrap_or(&i)];
                let site = &leaf.intrinsics[site_idx];
                let chain = path
                    .iter()
                    .map(|&k| self.fns[k].qualified())
                    .collect::<Vec<_>>()
                    .join(" → ");
                out.push(Violation {
                    file: leaf.file.clone(),
                    line: site.line + 1,
                    rule: "hot-path-effects",
                    message: format!(
                        "hot path `{}` ({}:{}) {name}: {chain} → {} — \
                         remove it, allow(hot-path-effects) at this leaf \
                         site, or mark an intermediate function \
                         `xtask-effect: cold`",
                        f.qualified(),
                        f.file.display(),
                        f.line,
                        site.what,
                    ),
                });
            }
        }
    }

    /// BFS for the shortest call chain from `from` to a function whose
    /// *intrinsic* effects contain `bit`. Returns the node path and the
    /// index of the first matching intrinsic site in the leaf.
    /// Deterministic: neighbours expand in sorted-id order.
    fn shortest_chain(&self, from: usize, bit: EffectSet) -> Option<(Vec<usize>, usize)> {
        let mut parent: BTreeMap<usize, usize> = BTreeMap::new();
        let mut queue = VecDeque::from([from]);
        let mut seen = BTreeSet::from([from]);
        while let Some(n) = queue.pop_front() {
            if let Some(site_idx) = self.fns[n].intrinsics.iter().position(|s| s.effect == bit) {
                let mut path = vec![n];
                let mut cur = n;
                while let Some(&p) = parent.get(&cur) {
                    path.push(p);
                    cur = p;
                }
                path.reverse();
                return Some((path, site_idx));
            }
            for &j in &self.edges[n] {
                if seen.insert(j) {
                    parent.insert(j, n);
                    queue.push_back(j);
                }
            }
        }
        None
    }

    /// Inferred effects of every annotated (`hot_path` or `cold`)
    /// function, for the JSON report.
    pub(crate) fn annotated_effects(&self) -> Vec<&FnSym> {
        self.fns.iter().filter(|f| f.hot || f.cold).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{symbols, FileCtx};
    use std::path::Path;

    fn graph(src: &str) -> Graph {
        let ctx = FileCtx::build(Path::new("crates/core/src/x.rs"), src).expect("parses");
        let mut syms = Vec::new();
        let mut issues = Vec::new();
        symbols::collect(&ctx, "core", &mut syms, &mut issues);
        assert!(issues.is_empty(), "{}", issues[0].message);
        build(syms)
    }

    fn effects_of(g: &Graph, name: &str) -> Vec<&'static str> {
        g.fns
            .iter()
            .find(|f| f.name == name)
            .expect(name)
            .effects
            .names()
    }

    #[test]
    fn effects_propagate_through_free_calls_to_fixpoint() {
        let g = graph(
            "fn a() { b() }\n\
             fn b() { c() }\n\
             fn c() { let v = Vec::with_capacity(8); }\n",
        );
        assert_eq!(effects_of(&g, "a"), ["allocates"]);
        assert_eq!(effects_of(&g, "b"), ["allocates"]);
    }

    #[test]
    fn recursion_converges() {
        let g = graph(
            "fn ping(n: u64) { if n > 0 { pong(n) } }\n\
             fn pong(n: u64) { ping(n - 1); x.unwrap(); }\n",
        );
        assert_eq!(effects_of(&g, "ping"), ["panics"]);
    }

    #[test]
    fn cold_cuts_propagation_but_keeps_its_own_effects() {
        let g = graph(
            "fn hot() { refill() }\n\
             // xtask-effect: cold — refill slow path\n\
             fn refill() { let v = Vec::with_capacity(8); }\n",
        );
        assert!(effects_of(&g, "hot").is_empty());
        assert_eq!(effects_of(&g, "refill"), ["allocates"]);
    }

    #[test]
    fn self_and_qualified_methods_resolve_to_the_impl_type() {
        let g = graph(
            "struct A; struct B;\n\
             impl A { fn go(&self) { self.step() } fn step(&self) {} }\n\
             impl B { fn step(&self) { panic!(\"b\") } }\n",
        );
        // A::go resolves self.step() to A::step, not B::step.
        assert!(effects_of(&g, "go").is_empty());
    }

    #[test]
    fn unknown_receiver_unions_all_methods_of_that_name() {
        let g = graph(
            "struct A; struct B;\n\
             impl A { fn step(&self) {} }\n\
             impl B { fn step(&self) { panic!(\"b\") } }\n\
             fn drive(x: &dyn Stepper) { x.step() }\n",
        );
        assert_eq!(effects_of(&g, "drive"), ["panics"]);
    }

    #[test]
    fn trait_qualified_calls_reach_every_impl() {
        let g = graph(
            "trait T { fn m(&self); }\n\
             struct S;\n\
             impl T for S { fn m(&self) { assert!(false) } }\n\
             fn f(x: &S) { T::m(x) }\n",
        );
        assert_eq!(effects_of(&g, "f"), ["panics"]);
    }

    #[test]
    fn hot_path_violation_reports_the_chain_and_leaf() {
        let src = "\
// xtask-effect: hot_path
fn hot() { mid() }
fn mid() { leaf() }
fn leaf() { m.lock(); }
";
        let g = graph(src);
        let mut out = Vec::new();
        g.check_hot_paths(&mut out);
        assert_eq!(out.len(), 1, "{out:?}");
        let v = &out[0];
        assert_eq!(v.rule, "hot-path-effects");
        assert_eq!(v.line, 4, "anchored at the leaf lock() site");
        assert!(v.message.contains("core::hot → core::mid → core::leaf"));
        assert!(v.message.contains("locks"));
    }

    #[test]
    fn hot_fn_calling_hot_fn_is_fine_when_both_clean() {
        let g = graph(
            "// xtask-effect: hot_path\n\
             fn a() { b() }\n\
             // xtask-effect: hot_path\n\
             fn b() {}\n",
        );
        let mut out = Vec::new();
        g.check_hot_paths(&mut out);
        assert!(out.is_empty(), "{out:?}");
    }
}
