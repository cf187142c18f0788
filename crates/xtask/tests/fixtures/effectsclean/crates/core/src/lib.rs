//! Clean fixture: a hot path whose forbidden effects are all discharged —
//! a reasoned cold marker, a `#[cold]` attribute and a leaf allow. Slice
//! indexing is not an effect.

// xtask-effect: hot_path
pub fn submit(xs: &[u64], i: usize) -> u64 {
    checkpoint(xs, i);
    refill();
    evict();
    xs[i]
}

// xtask-effect: cold — refill slow path: runs off the IO path
fn refill() {
    let _scratch = Vec::with_capacity(8);
}

#[cold]
fn evict() {
    panic!("cold by attribute")
}

fn checkpoint(xs: &[u64], i: usize) {
    // xtask-lint: allow(hot-path-effects) — documented bounds invariant
    assert!(i < xs.len(), "index in range");
}

#[cfg(test)]
mod tests {
    #[test]
    fn test_code_is_excluded_from_the_graph() {
        let v = vec![1u64];
        super::submit(&v, 0);
    }
}
