//! Per-queue arbitration at the device boundary.
//!
//! The queue-pair host model (see `conzone-host`'s `qd` module) keeps one
//! NVMe-like submission queue per tenant. Commands leave those queues
//! through a single serial **command-fetch stage** modelled here: at every
//! instant the fetch unit is free, an [`Arbiter`] policy picks which
//! non-empty queue is serviced next, and the fetched command occupies the
//! unit for a fixed per-command cost before it reaches the device model.
//!
//! With a zero fetch cost the stage is transparent — commands dispatch the
//! moment they arrive, reproducing a run without the stage exactly — and
//! with a non-zero cost the stage saturates first under load, so the
//! arbitration policy measurably divides dispatch bandwidth between
//! tenants and inter-tenant interference emerges from the model rather
//! than being scripted.

use conzone_sim::Resource;
use conzone_types::{SimDuration, SimTime};

/// The arbitration policy of the command-fetch stage, built by
/// [`ArbiterKind::build`]: which submission queue is serviced next.
///
/// A pick is made once per fetched command on the steady-state dispatch
/// path, so it allocates nothing and never panics.
#[derive(Debug)]
pub struct Arbiter(Policy);

/// The two policies' state.
#[derive(Debug)]
enum Policy {
    /// Strict round-robin: service each backlogged queue once, in cyclic
    /// order. Every non-empty queue is serviced within one full rotation,
    /// so no queue can starve.
    RoundRobin { cursor: usize },
    /// Weighted round-robin with per-round credits.
    ///
    /// Each round grants queue `q` a budget of `weights[q]` fetches; the
    /// policy services the current queue until its credit or backlog runs
    /// out, then moves on, and starts a new round once every backlogged
    /// queue is out of credit. Under saturation queue `q` therefore
    /// receives a `weights[q] / Σ weights` share of dispatch bandwidth,
    /// and any queue with a non-zero weight is serviced at least once per
    /// round — the starvation bound the policy tests pin down.
    Weighted {
        weights: Vec<u32>,
        credits: Vec<u32>,
        cursor: usize,
    },
}

impl Arbiter {
    /// Chooses a queue with `backlog[q] > 0` (`backlog[q]` is the number
    /// of commands waiting in queue `q`), or `None` if all are empty.
    fn pick(&mut self, backlog: &[u32]) -> Option<usize> {
        match &mut self.0 {
            Policy::RoundRobin { cursor } => {
                let n = backlog.len();
                for step in 0..n {
                    let q = (*cursor + step) % n;
                    if backlog[q] > 0 {
                        *cursor = (q + 1) % n;
                        return Some(q);
                    }
                }
                None
            }
            Policy::Weighted {
                weights,
                credits,
                cursor,
            } => {
                let n = backlog.len().min(weights.len());
                if backlog.iter().take(n).all(|&b| b == 0) {
                    return None;
                }
                // At most two passes: if the first finds every backlogged
                // queue out of credit, the replenish guarantees the second
                // succeeds.
                for _round in 0..2 {
                    for step in 0..n {
                        let q = (*cursor + step) % n;
                        if backlog[q] > 0 && credits[q] > 0 {
                            credits[q] -= 1;
                            // Stay on q while it has credit and backlog;
                            // the next call's scan starts here again.
                            *cursor = q;
                            return Some(q);
                        }
                    }
                    credits[..n].copy_from_slice(&weights[..n]);
                    *cursor = 0;
                }
                None
            }
        }
    }
}

/// Arbitration policy selector, the CLI-facing form of [`Arbiter`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArbiterKind {
    /// Strict round-robin.
    RoundRobin,
    /// Weighted round-robin using per-queue weights.
    Weighted,
}

impl ArbiterKind {
    /// Builds the policy for `weights.len()` queues. Zero weights are
    /// bumped to 1 (round-robin ignores the weights): a silently starving
    /// queue is never what a workload description means.
    pub fn build(self, weights: &[u32]) -> Arbiter {
        Arbiter(match self {
            ArbiterKind::RoundRobin => Policy::RoundRobin { cursor: 0 },
            ArbiterKind::Weighted => {
                let weights: Vec<u32> = weights.iter().map(|&w| w.max(1)).collect();
                Policy::Weighted {
                    credits: weights.clone(),
                    weights,
                    cursor: 0,
                }
            }
        })
    }

    /// Stable policy name for reports.
    pub fn name(self) -> &'static str {
        match self {
            ArbiterKind::RoundRobin => "rr",
            ArbiterKind::Weighted => "wrr",
        }
    }
}

/// The serial command-fetch stage between submission queues and the
/// device: per-queue backlog counters, an [`Arbiter`] policy, and one
/// [`Resource`] modelling the controller's fetch engine.
///
/// The host rings [`doorbell`](Self::doorbell) when a command enters a
/// queue and calls [`grant`](Self::grant) whenever the fetch unit is free;
/// a grant reserves the unit for the per-command fetch cost and returns
/// the dispatch time at which the fetched command reaches the device.
#[derive(Debug)]
pub struct QueueFrontEnd {
    fetch: Resource,
    fetch_cost: SimDuration,
    arbiter: Arbiter,
    backlog: Vec<u32>,
}

impl QueueFrontEnd {
    /// A front end for `queues` submission queues.
    pub fn new(queues: usize, fetch_cost: SimDuration, arbiter: Arbiter) -> QueueFrontEnd {
        QueueFrontEnd {
            fetch: Resource::new(),
            fetch_cost,
            arbiter,
            backlog: vec![0; queues],
        }
    }

    /// Whether any queue has a waiting command.
    #[inline]
    pub fn has_backlog(&self) -> bool {
        self.backlog.iter().any(|&b| b > 0)
    }

    /// When the fetch unit next becomes free.
    #[inline]
    pub fn fetch_free_at(&self) -> SimTime {
        self.fetch.free_at()
    }

    /// Records a command entering queue `q`; returns the queue's backlog
    /// including the new command.
    pub fn doorbell(&mut self, q: usize) -> u32 {
        self.backlog[q] += 1;
        self.backlog[q]
    }

    /// Arbitrates among the backlogged queues at `now` and fetches the
    /// winner's head command, returning `(queue, dispatch_time)` — the
    /// command reaches the device at `dispatch_time`, after the fetch
    /// cost. Returns `None` when every queue is empty.
    ///
    /// Callers must not call this before the previous grant's dispatch
    /// time (the fetch unit is serial); the queue-pair driver schedules
    /// one grant per fetch-free instant.
    pub fn grant(&mut self, now: SimTime) -> Option<(usize, SimTime)> {
        let q = self.arbiter.pick(&self.backlog)?;
        self.backlog[q] -= 1;
        let r = self.fetch.acquire(now, self.fetch_cost);
        Some((q, r.end))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Drives `arb` against a synthetic always-full backlog and returns
    /// per-queue service counts over `rounds` picks.
    fn service_counts(arb: &mut Arbiter, queues: usize, picks: usize) -> Vec<u64> {
        let backlog = vec![u32::MAX; queues];
        let mut counts = vec![0u64; queues];
        for _ in 0..picks {
            let q = arb.pick(&backlog).expect("backlog is never empty");
            counts[q] += 1;
        }
        counts
    }

    #[test]
    fn round_robin_is_fair_under_saturation() {
        let mut arb = ArbiterKind::RoundRobin.build(&[]);
        let counts = service_counts(&mut arb, 4, 4000);
        assert_eq!(counts, vec![1000; 4]);
    }

    #[test]
    fn round_robin_skips_empty_queues() {
        let mut arb = ArbiterKind::RoundRobin.build(&[]);
        let backlog = [0, 3, 0, 2];
        assert_eq!(arb.pick(&backlog), Some(1));
        assert_eq!(arb.pick(&backlog), Some(3));
        assert_eq!(arb.pick(&backlog), Some(1));
        assert_eq!(arb.pick(&[0, 0, 0, 0]), None);
    }

    #[test]
    fn weighted_divides_service_by_weight() {
        let mut arb = ArbiterKind::Weighted.build(&[3, 1]);
        let counts = service_counts(&mut arb, 2, 4000);
        assert_eq!(counts, vec![3000, 1000]);
    }

    #[test]
    fn weighted_share_holds_for_uneven_weights() {
        let mut arb = ArbiterKind::Weighted.build(&[5, 2, 1]);
        let counts = service_counts(&mut arb, 3, 8000);
        assert_eq!(counts, vec![5000, 2000, 1000]);
    }

    /// Starvation regression: a weight-1 queue facing a heavyweight
    /// competitor must still be serviced once per round — the gap between
    /// consecutive services is bounded by the round length.
    #[test]
    fn weighted_never_starves_a_low_weight_queue() {
        let mut arb = ArbiterKind::Weighted.build(&[100, 1]);
        let backlog = [u32::MAX, u32::MAX];
        let mut last_service_of_1 = 0usize;
        let mut max_gap = 0usize;
        for i in 1..=10_000 {
            if arb.pick(&backlog) == Some(1) {
                max_gap = max_gap.max(i - last_service_of_1);
                last_service_of_1 = i;
            }
        }
        assert!(last_service_of_1 > 0, "queue 1 was never serviced");
        // One full round is 101 services; the worst-case wait is one round
        // plus the position within it.
        assert!(max_gap <= 102, "starvation window {max_gap} picks");
    }

    /// A queue that goes idle must not bank unused credit into a burst
    /// that locks competitors out when it returns.
    #[test]
    fn weighted_credit_does_not_accumulate_while_idle() {
        let mut arb = ArbiterKind::Weighted.build(&[4, 4]);
        // Queue 1 idle: queue 0 is serviced throughout, burning rounds.
        for _ in 0..40 {
            assert_eq!(arb.pick(&[1, 0]), Some(0));
        }
        // Queue 1 returns: within one round it gets its 4 services, not 40.
        let counts = service_counts(&mut arb, 2, 8);
        assert_eq!(counts[0], 4);
        assert_eq!(counts[1], 4);
    }

    #[test]
    fn weighted_zero_weight_is_bumped_to_one() {
        let mut arb = ArbiterKind::Weighted.build(&[0, 3]);
        let counts = service_counts(&mut arb, 2, 400);
        assert_eq!(counts, vec![100, 300]);
    }

    #[test]
    fn front_end_serialises_fetches() {
        let mut fe = QueueFrontEnd::new(
            2,
            SimDuration::from_nanos(100),
            ArbiterKind::RoundRobin.build(&[1, 1]),
        );
        assert!(!fe.has_backlog());
        assert_eq!(fe.doorbell(0), 1);
        assert_eq!(fe.doorbell(0), 2);
        assert_eq!(fe.doorbell(1), 1);
        assert!(fe.has_backlog());

        let t0 = SimTime::ZERO;
        let (q1, d1) = fe.grant(t0).unwrap();
        assert_eq!(q1, 0);
        assert_eq!(d1, SimTime::from_nanos(100));
        // Next grant at the fetch-free instant services the other queue.
        let (q2, d2) = fe.grant(d1).unwrap();
        assert_eq!(q2, 1);
        assert_eq!(d2, SimTime::from_nanos(200));
        let (q3, d3) = fe.grant(d2).unwrap();
        assert_eq!(q3, 0);
        assert_eq!(d3, SimTime::from_nanos(300));
        assert!(fe.grant(d3).is_none());
        assert!(!fe.has_backlog());
        assert_eq!(fe.fetch_free_at(), SimTime::from_nanos(300));
    }

    #[test]
    fn zero_fetch_cost_is_transparent() {
        let mut fe = QueueFrontEnd::new(1, SimDuration::ZERO, ArbiterKind::RoundRobin.build(&[1]));
        fe.doorbell(0);
        let (q, d) = fe.grant(SimTime::from_nanos(42)).unwrap();
        assert_eq!(q, 0);
        assert_eq!(d, SimTime::from_nanos(42), "no fetch delay");
    }
}
