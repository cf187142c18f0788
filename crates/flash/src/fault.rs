//! Seeded, deterministic fault plane for the flash array.
//!
//! [`FaultPlane`] owns a dedicated [`SimRng`] seeded from
//! [`FaultConfig::seed`] alone, so the fault schedule depends only on the
//! seed and the *sequence of media operations* — two runs with the same
//! seed and workload draw byte-identical faults. Each fault class
//! early-returns before touching the RNG when its rate is zero, so a
//! default (all-zero) config leaves the RNG stream — and therefore every
//! latency figure — untouched.
//!
//! The plane also owns the per-block retirement bitmap: blocks retire
//! either when an erase fails or when a block accumulates
//! [`GROWN_BAD_THRESHOLD`] program failures (a *grown bad block*).
//! Retirement is permanent for the life of the array.

use conzone_sim::SimRng;
use conzone_types::{FaultConfig, SimDuration};

use crate::bitvec::BitVec;

/// Program failures on one block before it retires as a grown bad block.
const GROWN_BAD_THRESHOLD: u32 = 2;
/// Most retry steps one read-retry event takes; the count is drawn
/// uniformly from `1..=MAX_READ_RETRIES`.
const MAX_READ_RETRIES: u32 = 3;
/// Extra sense latency of one read-retry step.
const READ_RETRY_STEP: SimDuration = SimDuration::from_micros(25);

/// Deterministic fault injector and block-retirement registry.
#[derive(Debug, Clone)]
pub(crate) struct FaultPlane {
    cfg: FaultConfig,
    rng: SimRng,
    /// One bit per physical block, chip-major (same indexing as
    /// `FlashArray::blocks`); set bits are retired.
    retired: BitVec,
    /// Program failures accumulated per block, for grown-bad promotion.
    fail_counts: Vec<u32>,
}

impl FaultPlane {
    /// Creates a fault plane over `total_blocks` physical blocks.
    pub(crate) fn new(cfg: FaultConfig, total_blocks: usize) -> FaultPlane {
        FaultPlane {
            cfg,
            rng: SimRng::new(cfg.seed),
            retired: BitVec::new(total_blocks),
            fail_counts: vec![0; total_blocks],
        }
    }

    /// Whether block `idx` (chip-major) is retired.
    #[inline]
    pub(crate) fn is_retired(&self, idx: usize) -> bool {
        self.retired.get(idx)
    }

    /// Permanently retires block `idx`. Returns `true` if the block was
    /// not already retired.
    pub(crate) fn retire(&mut self, idx: usize) -> bool {
        if self.retired.get(idx) {
            return false;
        }
        self.retired.set(idx, true);
        true
    }

    /// Draws whether the next program operation fails. Never touches the
    /// RNG when the rate is zero.
    #[inline]
    pub(crate) fn program_fails(&mut self) -> bool {
        self.cfg.program_fail_rate > 0.0 && self.rng.chance(self.cfg.program_fail_rate)
    }

    /// Draws whether the next block erase fails. Never touches the RNG
    /// when the rate is zero.
    #[inline]
    pub(crate) fn erase_fails(&mut self) -> bool {
        self.cfg.erase_fail_rate > 0.0 && self.rng.chance(self.cfg.erase_fail_rate)
    }

    /// Draws the read-retry step count for one page sense: zero most of
    /// the time, otherwise uniform in `1..=MAX_READ_RETRIES`. Never
    /// touches the RNG when the rate is zero.
    #[inline]
    pub(crate) fn read_retry_steps(&mut self) -> u32 {
        if self.cfg.read_retry_rate <= 0.0 || !self.rng.chance(self.cfg.read_retry_rate) {
            return 0;
        }
        #[expect(
            clippy::cast_possible_truncation,
            reason = "below(bound) < bound, and the bound is MAX_READ_RETRIES, a u32"
        )]
        let step = self.rng.below(u64::from(MAX_READ_RETRIES)) as u32;
        1 + step
    }

    /// Extra sense latency of a read-retry event of `steps` steps.
    #[inline]
    pub(crate) fn retry_penalty(&self, steps: u32) -> SimDuration {
        READ_RETRY_STEP * u64::from(steps)
    }

    /// Records one program failure on block `idx`; when the grown-bad
    /// threshold is reached the block retires. Returns `true` when this
    /// failure retired the block.
    pub(crate) fn record_program_failure(&mut self, idx: usize) -> bool {
        self.fail_counts[idx] = self.fail_counts[idx].saturating_add(1);
        self.fail_counts[idx] >= GROWN_BAD_THRESHOLD && self.retire(idx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_rates_never_draw() {
        let mut p = FaultPlane::new(FaultConfig::default(), 8);
        let mut before = p.rng.clone();
        for _ in 0..100 {
            assert!(!p.program_fails());
            assert!(!p.erase_fails());
            assert_eq!(p.read_retry_steps(), 0);
        }
        // The RNG stream is untouched: identical next draw.
        assert_eq!(p.rng.next_u64(), before.next_u64());
    }

    #[test]
    fn schedules_are_deterministic_per_seed() {
        let cfg = FaultConfig::with_rates(0.3, 0.1, 0.2);
        let draw = |cfg: FaultConfig| {
            let mut p = FaultPlane::new(cfg, 8);
            let mut log = Vec::new();
            for _ in 0..64 {
                log.push((p.program_fails(), p.erase_fails(), p.read_retry_steps()));
            }
            log
        };
        assert_eq!(draw(cfg), draw(cfg));
        let other = FaultConfig { seed: 99, ..cfg };
        assert_ne!(draw(cfg), draw(other), "different seeds diverge");
    }

    #[test]
    fn grown_bad_promotion_respects_threshold() {
        assert_eq!(GROWN_BAD_THRESHOLD, 2);
        let mut p = FaultPlane::new(FaultConfig::with_rates(1.0, 0.0, 0.0), 4);
        assert!(!p.record_program_failure(1), "first failure only suspects");
        assert!(p.record_program_failure(1), "second failure retires");
        assert!(p.is_retired(1));
        assert!(
            !p.record_program_failure(1),
            "already retired, not retired again"
        );
        assert_eq!((0..4).filter(|&b| p.is_retired(b)).count(), 1);
    }

    #[test]
    fn retry_steps_bounded_and_penalty_scales() {
        let mut p = FaultPlane::new(FaultConfig::with_rates(0.0, 0.0, 1.0), 1);
        let mut seen = [false; 4];
        for _ in 0..100 {
            let s = p.read_retry_steps();
            assert!((1..=3).contains(&s));
            seen[s as usize] = true;
        }
        assert_eq!(seen, [false, true, true, true], "every count 1..=3 drawn");
        assert_eq!(p.retry_penalty(0), SimDuration::ZERO);
        assert_eq!(p.retry_penalty(3), SimDuration::from_micros(75));
    }
}
