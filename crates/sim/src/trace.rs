//! Trace collection: a bounded overwrite-oldest event sink and the
//! periodic interval-metrics sampler.
//!
//! [`RingBufferSink`] keeps the last `capacity` [`TraceRecord`]s in a
//! vector preallocated at construction, so recording never allocates;
//! once full it overwrites its oldest entries and counts how many were
//! dropped. The simulator is single-threaded, but a sink is shared
//! through `Probe` clones behind `Arc<dyn TraceSink + Send + Sync>`, so
//! the storage sits under a mutex — the same choice as the sibling
//! [`SpanBuffer`](crate::SpanBuffer), which keeps the *first* N.
//!
//! [`MetricsSampler`] turns the cumulative [`Counters`] record into an
//! interval time series: feed it `(now, counters)` observations and it
//! emits one [`MetricsSample`] delta per elapsed sampling interval.

#[allow(
    clippy::disallowed_types,
    reason = "observability sink: only reached with a probe attached, and attaching one never changes simulated results; the mutex orders concurrent recorders, not device state"
)]
use std::sync::{Mutex, MutexGuard, PoisonError};

use conzone_types::{Counters, DeviceEvent, SimDuration, SimTime, TraceRecord, TraceSink};

/// The storage behind [`RingBufferSink`].
#[derive(Debug)]
struct Ring {
    /// Grows to the sink's capacity (reserved up front), then is
    /// overwritten in place, oldest first.
    records: Vec<TraceRecord>,
    /// The slot the next record overwrites once the ring is full, which
    /// is where the oldest retained record sits; 0 until then.
    next: usize,
    /// Events recorded so far, overwritten ones included.
    head: u64,
}

/// A bounded, overwrite-oldest event sink.
///
/// Keeps the last `capacity` events and counts the rest as dropped. No
/// allocation happens after construction.
#[derive(Debug)]
pub struct RingBufferSink {
    #[allow(clippy::disallowed_types, reason = "see the import")]
    ring: Mutex<Ring>,
    capacity: usize,
}

impl RingBufferSink {
    /// Default capacity: 64 Ki events (2 MiB).
    pub fn new() -> RingBufferSink {
        RingBufferSink::with_capacity(64 * 1024)
    }

    /// Creates a sink holding the last `capacity` events (min 16).
    pub fn with_capacity(capacity: usize) -> RingBufferSink {
        let capacity = capacity.max(16);
        RingBufferSink {
            #[allow(clippy::disallowed_types, reason = "see the import")]
            ring: Mutex::new(Ring {
                records: Vec::with_capacity(capacity),
                next: 0,
                head: 0,
            }),
            capacity,
        }
    }

    /// A recorder that panicked cannot have left the ring half-updated
    /// (`record` writes the slot, then moves `next` and bumps `head`, and
    /// no step can fail), so a poisoned lock is still safe to read and
    /// write.
    #[allow(clippy::disallowed_types, reason = "see the import")]
    fn ring(&self) -> MutexGuard<'_, Ring> {
        self.ring.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Events recorded so far (including any overwritten ones).
    pub fn recorded(&self) -> u64 {
        self.ring().head
    }

    /// Events lost to overwriting (recorded minus capacity, if positive).
    pub fn dropped(&self) -> u64 {
        self.recorded().saturating_sub(self.capacity as u64)
    }

    /// Copies out the retained events in recording order; the sink keeps
    /// them, so draining twice returns the same records.
    pub fn drain(&self) -> Vec<TraceRecord> {
        let ring = self.ring();
        let (newer, older) = ring.records.split_at(ring.next);
        [older, newer].concat()
    }
}

impl Default for RingBufferSink {
    fn default() -> RingBufferSink {
        RingBufferSink::new()
    }
}

impl TraceSink for RingBufferSink {
    fn record(&self, time: SimTime, event: DeviceEvent) {
        let record = TraceRecord { time, event };
        let mut ring = self.ring();
        if ring.records.len() < self.capacity {
            ring.records.push(record);
        } else {
            let slot = ring.next;
            ring.records[slot] = record;
            ring.next = if slot + 1 == self.capacity {
                0
            } else {
                slot + 1
            };
        }
        ring.head += 1;
    }
}

/// One closed sampling interval: the [`Counters`] delta across it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricsSample {
    /// Interval start (inclusive).
    pub start: SimTime,
    /// Interval end (exclusive).
    pub end: SimTime,
    /// Counter increments inside the interval.
    pub delta: Counters,
}

/// Snapshots [`Counters::since`] deltas on a fixed simulated-time grid.
///
/// Feed it monotone `(now, cumulative counters)` observations via
/// [`MetricsSampler::observe`]; every time `now` crosses an interval
/// boundary one sample is closed. Activity between two observations that
/// straddles several boundaries is attributed to the first crossed
/// interval (later ones get zero deltas) — observations arrive at every
/// request completion, so in practice intervals are much coarser than the
/// observation stream.
#[derive(Debug, Clone)]
pub struct MetricsSampler {
    interval: SimDuration,
    next_boundary: SimTime,
    last: Counters,
    samples: Vec<MetricsSample>,
}

impl MetricsSampler {
    /// Creates a sampler with the given (non-zero) interval whose grid
    /// starts at `origin` and whose first delta is taken against
    /// `baseline` — a job may begin mid-simulation on a device with prior
    /// activity.
    pub fn anchored(origin: SimTime, interval: SimDuration, baseline: &Counters) -> MetricsSampler {
        assert!(interval.as_nanos() > 0, "sampling interval must be > 0");
        MetricsSampler {
            interval,
            next_boundary: origin + interval,
            last: *baseline,
            samples: Vec::new(),
        }
    }

    /// Observes the cumulative counters at simulated time `now`, closing
    /// any intervals that have fully elapsed.
    pub fn observe(&mut self, now: SimTime, counters: &Counters) {
        while self.next_boundary <= now {
            let end = self.next_boundary;
            self.samples.push(MetricsSample {
                start: end - self.interval,
                end,
                delta: counters.since(&self.last),
            });
            self.last = *counters;
            self.next_boundary = end + self.interval;
        }
    }

    /// Closes the final partial interval at `now` (if any activity or time
    /// remains past the last boundary) and returns all samples.
    ///
    /// A zero-duration window with activity still yields a (zero-width)
    /// sample: the PR 2 reporting-math rules make rates over it read as
    /// `NaN`/`inf` rather than silently vanishing the counted work.
    pub fn finish(mut self, now: SimTime, counters: &Counters) -> Vec<MetricsSample> {
        self.observe(now, counters);
        let start = self.next_boundary - self.interval;
        if now > start || counters.since(&self.last) != Counters::new() {
            self.samples.push(MetricsSample {
                start,
                end: now.max(start),
                delta: counters.since(&self.last),
            });
        }
        self.samples
    }
}

/// One event per [`DeviceEvent::kind_index`] bucket, plus the payload
/// variations (`L2pOutcome` hit levels, both `FaultKind`s) a bucket
/// does not distinguish. Shared with the exporters' tests.
#[cfg(test)]
pub(crate) fn all_events() -> Vec<DeviceEvent> {
    use conzone_types::{CellType, FaultKind, FlushKind, L2pOutcome, MediaOp, ZoneId};
    vec![
        DeviceEvent::BufferFlush {
            zone: ZoneId(4),
            kind: FlushKind::Full,
            slices: 16,
        },
        DeviceEvent::BufferFlush {
            zone: ZoneId(9),
            kind: FlushKind::Premature,
            slices: 3,
        },
        DeviceEvent::BufferConflict { zone: ZoneId(2) },
        DeviceEvent::SlcCombine {
            zone: ZoneId(1),
            staged_slices: 7,
        },
        DeviceEvent::PatchSlice {
            zone: ZoneId(5),
            slices: 2,
        },
        DeviceEvent::GcBegin { valid_slices: 100 },
        DeviceEvent::GcEnd {
            migrated_slices: 100,
        },
        DeviceEvent::L2pLookup {
            outcome: L2pOutcome::HitZone,
        },
        DeviceEvent::L2pLookup {
            outcome: L2pOutcome::HitChunk,
        },
        DeviceEvent::L2pLookup {
            outcome: L2pOutcome::HitPage,
        },
        DeviceEvent::L2pLookup {
            outcome: L2pOutcome::Miss,
        },
        DeviceEvent::L2pEviction { count: 12 },
        DeviceEvent::L2pLogFlush,
        DeviceEvent::Media {
            op: MediaOp::Program,
            cell: CellType::Tlc,
            bytes: 65536,
        },
        DeviceEvent::Media {
            op: MediaOp::Read,
            cell: CellType::Slc,
            bytes: 16384,
        },
        DeviceEvent::Media {
            op: MediaOp::Erase,
            cell: CellType::Qlc,
            bytes: 0,
        },
        DeviceEvent::ZoneReset { zone: ZoneId(11) },
        DeviceEvent::FaultInjected {
            kind: FaultKind::Program,
            chip: 2,
            block: 17,
        },
        DeviceEvent::FaultInjected {
            kind: FaultKind::Erase,
            chip: 0,
            block: 6,
        },
        DeviceEvent::BlockRetired { chip: 3, block: 8 },
        DeviceEvent::ReadRetry { steps: 2 },
        DeviceEvent::PowerCut { lost_slices: 14 },
        DeviceEvent::RecoveryReplay {
            recovered_slices: 9,
            lost_slices: 14,
        },
        DeviceEvent::QueueSubmit {
            queue: 1,
            backlog: 5,
        },
        DeviceEvent::QueueArbitrate {
            queue: 0,
            wait_ns: 350,
        },
        DeviceEvent::QueueComplete {
            queue: 1,
            inflight: 7,
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use conzone_check::{check, Rng};
    use std::collections::VecDeque;

    /// Every `DeviceEvent` kind comes back out of the sink exactly as it
    /// went in, in order, with its timestamp.
    #[test]
    fn ring_keeps_order_and_contents() {
        let events = all_events();
        let kinds: std::collections::BTreeSet<usize> =
            events.iter().map(DeviceEvent::kind_index).collect();
        assert_eq!(kinds.len(), DeviceEvent::KIND_COUNT, "a kind is missing");
        let sink = RingBufferSink::with_capacity(64);
        for (i, e) in events.iter().enumerate() {
            sink.record(SimTime::from_nanos(i as u64 * 10), *e);
        }
        let expected: Vec<TraceRecord> = events
            .iter()
            .enumerate()
            .map(|(i, &event)| TraceRecord {
                time: SimTime::from_nanos(i as u64 * 10),
                event,
            })
            .collect();
        assert_eq!(sink.drain(), expected);
        assert_eq!(sink.dropped(), 0);
    }

    /// The ring against a `VecDeque` that drops its front when over
    /// capacity: at every drain point the retained records are the
    /// model's, in order; `recorded`/`dropped` count exactly; and
    /// `drain` takes nothing away.
    #[test]
    fn ring_matches_a_bounded_deque_model() {
        let generate = |rng: &mut Rng| {
            let shape = (rng.range(16..65), rng.range(0..401), rng.range(1..40));
            (shape, Vec::<()>::new())
        };
        let path = concat!(module_path!(), "::ring_matches_a_bounded_deque_model");
        check(path, 64, generate, |shape, _| {
            let &(capacity, fill_percent, drain_every) = shape;
            let n = capacity * fill_percent / 100;
            let sink = RingBufferSink::with_capacity(capacity);
            let mut model: VecDeque<TraceRecord> = VecDeque::new();
            let events = all_events();
            for i in 0..n {
                let record = TraceRecord {
                    time: SimTime::from_nanos(i as u64),
                    event: events[i % events.len()],
                };
                sink.record(record.time, record.event);
                model.push_back(record);
                if model.len() > capacity {
                    model.pop_front();
                }
                if (i + 1) % drain_every == 0 || i + 1 == n {
                    let drained = sink.drain();
                    assert_eq!(&drained, &Vec::from(model.clone()));
                    assert_eq!(sink.drain(), drained, "drain is not idempotent");
                    assert_eq!(sink.recorded(), i as u64 + 1);
                    assert_eq!(sink.dropped(), (i + 1).saturating_sub(capacity) as u64);
                }
            }
            assert_eq!(sink.drain().len(), n.min(capacity));
            assert_eq!(sink.recorded(), n as u64);
        });
    }

    #[test]
    fn ring_overwrites_oldest_when_full() {
        let sink = RingBufferSink::with_capacity(16);
        for i in 0..40u64 {
            sink.record(
                SimTime::from_nanos(i),
                DeviceEvent::L2pEviction { count: i },
            );
        }
        assert_eq!(sink.recorded(), 40);
        assert_eq!(sink.dropped(), 24);
        let records = sink.drain();
        assert_eq!(records.len(), 16);
        assert_eq!(
            records[0].event,
            DeviceEvent::L2pEviction { count: 24 },
            "oldest retained is #24"
        );
        assert_eq!(records[15].event, DeviceEvent::L2pEviction { count: 39 });
    }

    /// At capacity 16, through three wraps of the slot cursor: after
    /// every record the ring drains the last 16 events in order, and
    /// counts the rest as dropped.
    #[test]
    fn ring_wraps_around_at_capacity_16() {
        let sink = RingBufferSink::with_capacity(16);
        assert!(sink.drain().is_empty());
        for n in 1..=3 * 16 + 5u64 {
            sink.record(
                SimTime::from_nanos(n),
                DeviceEvent::L2pEviction { count: n },
            );
            let first = n.saturating_sub(16) + 1;
            let last_16: Vec<TraceRecord> = (first..=n)
                .map(|count| TraceRecord {
                    time: SimTime::from_nanos(count),
                    event: DeviceEvent::L2pEviction { count },
                })
                .collect();
            assert_eq!(sink.drain(), last_16, "after {n} records");
            assert_eq!(sink.dropped(), n.saturating_sub(16));
        }
    }

    #[test]
    fn ring_survives_concurrent_writers_with_exact_accounting() {
        // A sink is shared through `Probe` clones as `Send + Sync`:
        // hammer a small ring from several threads, then check that
        // nothing is torn and the drop accounting balances to the record.
        let sink = std::sync::Arc::new(RingBufferSink::with_capacity(16));
        let mut handles = Vec::new();
        for t in 0..4u64 {
            let sink = std::sync::Arc::clone(&sink);
            handles.push(std::thread::spawn(move || {
                for k in 0..64u64 {
                    let i = t * 1000 + k;
                    sink.record(
                        SimTime::from_nanos(i),
                        DeviceEvent::RecoveryReplay {
                            recovered_slices: i,
                            lost_slices: i,
                        },
                    );
                }
            }));
        }
        for h in handles {
            h.join().expect("writer thread");
        }
        let records = sink.drain();
        assert_eq!(sink.recorded(), 256);
        assert_eq!(records.len() as u64 + sink.dropped(), sink.recorded());
        assert_eq!(records.len(), 16, "every retained slot is readable");
        for r in &records {
            match r.event {
                DeviceEvent::RecoveryReplay {
                    recovered_slices,
                    lost_slices,
                } => {
                    assert_eq!(recovered_slices, lost_slices, "torn payload: {r:?}");
                    assert_eq!(r.time, SimTime::from_nanos(recovered_slices), "torn time");
                }
                ref other => panic!("foreign event decoded: {other:?}"),
            }
        }
    }

    /// A sampler on a grid starting at time zero.
    fn sampler(interval: SimDuration) -> MetricsSampler {
        MetricsSampler::anchored(SimTime::ZERO, interval, &Counters::new())
    }

    #[test]
    fn sampler_emits_one_delta_per_interval() {
        let mut c = Counters::new();
        let mut s = sampler(SimDuration::from_millis(1));
        let at = |us: u64| SimTime::ZERO + SimDuration::from_micros(us);
        // 0.4 ms: some writes; the interval has not elapsed yet.
        c.host_write_bytes = 100;
        s.observe(at(400), &c);
        // 1.2 ms: more writes — first interval closes with everything so far.
        c.host_write_bytes = 250;
        s.observe(at(1200), &c);
        // 3.5 ms: crossing two boundaries at once.
        c.host_write_bytes = 400;
        let samples = s.finish(at(3500), &c);
        assert_eq!(samples.len(), 4, "2 full + 1 empty + final partial");
        assert_eq!(samples[0].delta.host_write_bytes, 250);
        assert_eq!(samples[0].start, SimTime::ZERO);
        assert_eq!(samples[0].end, at(1000));
        assert_eq!(samples[1].delta.host_write_bytes, 150);
        assert_eq!(samples[2].delta.host_write_bytes, 0);
        assert_eq!(samples[3].end, at(3500));
        // Deltas over all intervals add up to the cumulative counter.
        let total: u64 = samples.iter().map(|s| s.delta.host_write_bytes).sum();
        assert_eq!(total, 400);
    }

    #[test]
    fn sampler_finish_on_exact_boundary_adds_no_empty_tail() {
        let mut c = Counters::new();
        let mut s = sampler(SimDuration::from_millis(1));
        c.host_write_bytes = 64;
        s.observe(SimTime::ZERO + SimDuration::from_micros(400), &c);
        let samples = s.finish(SimTime::ZERO + SimDuration::from_millis(1), &c);
        // The boundary interval captured everything; no zero-width tail.
        assert_eq!(samples.len(), 1);
        assert_eq!(samples[0].end, SimTime::ZERO + SimDuration::from_millis(1));
        assert_eq!(samples[0].delta.host_write_bytes, 64);
    }

    #[test]
    fn sampler_zero_duration_run_keeps_nonzero_delta() {
        // A run that starts and finishes at the same instant must not
        // silently drop counted work: it yields one zero-width sample, so
        // rates over it read NaN/inf per the reporting-math rules instead
        // of the work vanishing.
        let mut c = Counters::new();
        c.host_write_bytes = 4096;
        let s = sampler(SimDuration::from_millis(1));
        let samples = s.finish(SimTime::ZERO, &c);
        assert_eq!(samples.len(), 1);
        assert_eq!(samples[0].start, SimTime::ZERO);
        assert_eq!(samples[0].end, SimTime::ZERO);
        assert_eq!(samples[0].delta.host_write_bytes, 4096);
        let width = samples[0].end.saturating_since(samples[0].start);
        let rate = samples[0].delta.host_write_bytes as f64 / width.as_nanos() as f64;
        assert!(
            rate.is_infinite() || rate.is_nan(),
            "explicit NaN/inf, not 0"
        );
    }

    #[test]
    fn sampler_zero_duration_idle_run_is_empty() {
        let s = sampler(SimDuration::from_millis(1));
        let samples = s.finish(SimTime::ZERO, &Counters::new());
        assert!(samples.is_empty(), "nothing happened, nothing to report");
    }

    #[test]
    fn sampler_anchored_boundary_finish_with_trailing_delta() {
        // Activity after the last closed boundary but at an exact
        // boundary instant: observe() closes it, finish() must not lose
        // a delta that lands between the two calls.
        let origin = SimTime::from_nanos(500);
        let base = Counters::new();
        let mut s = MetricsSampler::anchored(origin, SimDuration::from_micros(1), &base);
        let mut c = Counters::new();
        c.host_read_ops = 3;
        s.observe(origin + SimDuration::from_micros(1), &c);
        // More work lands at exactly the same instant; finish at the
        // boundary keeps it as a zero-width sample.
        c.host_read_ops = 7;
        let samples = s.finish(origin + SimDuration::from_micros(1), &c);
        assert_eq!(samples.len(), 2);
        assert_eq!(samples[0].delta.host_read_ops, 3);
        assert_eq!(samples[1].delta.host_read_ops, 4);
        assert_eq!(samples[1].start, samples[1].end);
        let total: u64 = samples.iter().map(|s| s.delta.host_read_ops).sum();
        assert_eq!(total, 7);
    }
}
