//! The simulated-result fingerprint: FNV-1a (64 bit) over every simulated
//! number a rep produces. Two reps of one workload on one seed must agree
//! on it, traced or not; a change that only makes the emulator faster may
//! not move it, a change to the model may.

use conzone_sim::LatencySummary;
use conzone_types::Counters;

const OFFSET_BASIS: u64 = 0xcbf2_9ce4_8422_2325;
const PRIME: u64 = 0x0000_0100_0000_01b3;

/// Running FNV-1a hash over a stream of `u64` values.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fingerprint(u64);

impl Default for Fingerprint {
    fn default() -> Fingerprint {
        Fingerprint(OFFSET_BASIS)
    }
}

impl Fingerprint {
    pub fn value(self) -> u64 {
        self.0
    }

    pub fn u64(&mut self, v: u64) {
        for byte in v.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(byte)).wrapping_mul(PRIME);
        }
    }

    pub fn latency(&mut self, s: &LatencySummary) {
        self.u64(s.count);
        for d in [s.mean, s.min, s.p50, s.p90, s.p99, s.p999, s.max] {
            self.u64(d.as_nanos());
        }
    }

    pub fn counters(&mut self, c: &Counters) {
        for (_, v) in c.named_fields() {
            self.u64(v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_the_published_fnv1a_vectors() {
        // FNV-1a 64 of the empty input is the offset basis; of the single
        // byte 'a' it is af63dc4c8601ec8c. Eight bytes "a\0\0\0\0\0\0\0" is
        // what `u64(0x61)` feeds, so check the one-byte prefix by hand.
        assert_eq!(Fingerprint::default().value(), 0xcbf2_9ce4_8422_2325);
        let one = (OFFSET_BASIS ^ 0x61).wrapping_mul(PRIME);
        assert_eq!(one, 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn changes_when_one_counter_changes() {
        let mut c = Counters::new();
        c.host_read_ops = 10;
        let mut a = Fingerprint::default();
        a.counters(&c);
        let mut b = Fingerprint::default();
        b.counters(&c);
        assert_eq!(a, b);
        c.l2p_misses += 1;
        let mut d = Fingerprint::default();
        d.counters(&c);
        assert_ne!(a, d);
    }
}
