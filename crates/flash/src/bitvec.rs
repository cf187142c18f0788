//! A compact fixed-size bit vector used for per-slice block state.

/// Fixed-length bit vector backed by `u64` words.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct BitVec {
    words: Vec<u64>,
    len: usize,
}

impl BitVec {
    /// Creates `len` bits, all clear.
    pub(crate) fn new(len: usize) -> BitVec {
        BitVec {
            words: vec![0; len.div_ceil(64)],
            len,
        }
    }

    /// Reads bit `idx`.
    ///
    /// # Panics
    ///
    /// Panics if `idx >= len`.
    #[inline]
    pub(crate) fn get(&self, idx: usize) -> bool {
        assert!(idx < self.len, "bit index {idx} out of range {}", self.len);
        (self.words[idx / 64] >> (idx % 64)) & 1 == 1
    }

    /// Sets bit `idx` to `value`.
    ///
    /// # Panics
    ///
    /// Panics if `idx >= len`.
    #[inline]
    pub(crate) fn set(&mut self, idx: usize, value: bool) {
        assert!(idx < self.len, "bit index {idx} out of range {}", self.len);
        let word = &mut self.words[idx / 64];
        let mask = 1u64 << (idx % 64);
        if value {
            *word |= mask;
        } else {
            *word &= !mask;
        }
    }

    /// Sets the `count` bits starting at `start` to `value`, a word at a
    /// time: a masked store to the words at either end of the run, a plain
    /// one to each word between.
    ///
    /// # Panics
    ///
    /// Panics if the run reaches past `len`.
    #[inline]
    pub(crate) fn fill_range(&mut self, start: usize, count: usize, value: bool) {
        let end = start + count;
        assert!(
            end <= self.len,
            "bit run {start}..{end} out of range {}",
            self.len
        );
        if count == 0 {
            return;
        }
        let (first, last) = (start / 64, (end - 1) / 64);
        let head = u64::MAX << (start % 64);
        let tail = u64::MAX >> (63 - (end - 1) % 64);
        let fill = if value { u64::MAX } else { 0 };
        let store = |word: &mut u64, mask: u64| *word = (*word & !mask) | (fill & mask);
        match &mut self.words[first..=last] {
            [only] => store(only, head & tail),
            [lo, mid @ .., hi] => {
                store(lo, head);
                mid.fill(fill);
                store(hi, tail);
            }
            [] => {}
        }
    }

    /// Whether all `count` bits starting at `start` are set: one test per
    /// `u64` the run touches.
    ///
    /// # Panics
    ///
    /// Panics if the run reaches past `len`.
    #[inline]
    pub(crate) fn all_ones(&self, start: usize, count: usize) -> bool {
        let end = start + count;
        assert!(
            end <= self.len,
            "bit run {start}..{end} out of range {}",
            self.len
        );
        let mut idx = start;
        while idx < end {
            let bit = idx % 64;
            // Set bits from `idx` up to the word's first clear one, if any.
            let ones = (self.words[idx / 64] >> bit).trailing_ones() as usize;
            if bit + ones < 64 {
                return idx + ones >= end;
            }
            idx += ones;
        }
        true
    }

    /// Clears every bit.
    pub(crate) fn clear_all(&mut self) {
        self.words.iter_mut().for_each(|w| *w = 0);
    }

    /// Number of set bits.
    pub(crate) fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Iterates over the indices of set bits.
    pub(crate) fn iter_ones(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(move |(wi, &w)| {
            let mut bits = w;
            std::iter::from_fn(move || {
                if bits == 0 {
                    None
                } else {
                    let tz = bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    Some(wi * 64 + tz)
                }
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_get_roundtrip() {
        let mut v = BitVec::new(130);
        for i in (0..130).step_by(3) {
            v.set(i, true);
        }
        for i in 0..130 {
            assert_eq!(v.get(i), i % 3 == 0, "bit {i}");
        }
        v.set(0, false);
        assert!(!v.get(0));
    }

    #[test]
    fn count_and_iter_agree() {
        let mut v = BitVec::new(200);
        let idxs = [0usize, 1, 63, 64, 65, 127, 128, 199];
        for &i in &idxs {
            v.set(i, true);
        }
        assert_eq!(v.count_ones(), idxs.len());
        assert_eq!(v.iter_ones().collect::<Vec<_>>(), idxs);
    }

    #[test]
    fn clear_all_resets() {
        let mut v = BitVec::new(70);
        v.set(69, true);
        v.clear_all();
        assert_eq!(v.count_ones(), 0);
    }

    /// `fill_range` against the per-bit `set` loop it replaced, at every
    /// word-boundary shape.
    #[test]
    fn fill_range_equals_the_set_loop() {
        const LEN: usize = 200;
        let edges = [0usize, 1, 63, 64, 65, 127, 128, 129, LEN];
        for &start in &edges {
            for &end in edges.iter().filter(|&&e| e >= start) {
                for value in [true, false] {
                    // Start from the opposite polarity plus a pattern, so
                    // bits outside the run must survive untouched.
                    let mut bulk = BitVec::new(LEN);
                    for i in (0..LEN).filter(|i| i % 3 == 0 || !value) {
                        bulk.set(i, true);
                    }
                    let mut looped = bulk.clone();
                    bulk.fill_range(start, end - start, value);
                    for i in start..end {
                        looped.set(i, value);
                    }
                    assert_eq!(bulk, looped, "{start}..{end} = {value}");
                }
            }
        }
    }

    /// `all_ones` against the per-bit `get` loop, at every word-boundary
    /// shape, on a vector with holes in every word, at both ends of some.
    #[test]
    fn all_ones_equals_the_get_loop() {
        const LEN: usize = 200;
        let edges = [0usize, 1, 62, 63, 64, 65, 127, 128, 129, 198, LEN];
        let mut v = BitVec::new(LEN);
        v.fill_range(0, LEN, true);
        for hole in [5, 63, 64, 130, 199] {
            v.set(hole, false);
        }
        for &start in &edges {
            for &end in edges.iter().filter(|&&e| e >= start) {
                let looped = (start..end).all(|i| v.get(i));
                assert_eq!(v.all_ones(start, end - start), looped, "{start}..{end}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn all_ones_past_len_panics() {
        BitVec::new(70).all_ones(64, 7);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn fill_range_past_len_panics() {
        BitVec::new(70).fill_range(64, 7, true);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_get_panics() {
        BitVec::new(10).get(10);
    }
}
