//! Passing fixture: integer state, one narrowing cast behind a reasoned
//! allow directive, and test code exempt from every per-file rule.

use std::collections::BTreeMap;

pub struct State {
    pub ordered: BTreeMap<u64, u64>,
}

pub fn lookup(s: &State, k: u64) -> Result<u64, String> {
    s.ordered
        .get(&k)
        .copied()
        .ok_or_else(|| format!("no entry for {k}"))
}

// xtask-lint: allow(truncating-cast) — lane index, reduced modulo 256 first
pub fn lane(k: u64) -> u8 {
    (k % 256) as u8
}

#[cfg(test)]
mod tests {
    #[test]
    fn narrowing_is_fine_in_test_code() {
        let v: u64 = 300;
        assert_eq!(v as u8, 44);
    }
}
