//! Fixture for allow-directive hygiene: a nested anchor where the inner
//! directive wins (the outer one is reported unused), plus stale allows
//! naming an unknown rule, a retired rule, and a rule nothing trips.

// xtask-lint: allow(truncating-cast) — outer anchor: the inner one wins
pub mod inner {
    // xtask-lint: allow(truncating-cast) — lane index, reduced modulo 256 first
    pub fn lane(k: u64) -> u8 { (k % 256) as u8 }
}

// xtask-lint: allow(bogus-rule) — no such rule
// xtask-lint: allow(hash-collections) — retired: clippy owns this ban now
// xtask-lint: allow(float-determinism) — nothing here holds a float
pub fn quiet() {}
