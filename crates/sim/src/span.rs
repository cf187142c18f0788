//! Collection and attribution of causal IO spans.
//!
//! The device model emits [`SpanRecord`]s through a
//! [`SpanRecorder`](conzone_types::SpanRecorder); this module provides the
//! harness side: a bounded [`SpanBuffer`] sink, and the self-time
//! attribution that folds closed spans back into the per-phase table the
//! `TimeBreakdown` reports — the reconciliation that makes a span dump
//! trustworthy.
//!
//! *Self time* is a span's duration minus the durations of its direct
//! children. The write path charges its breakdown category exclusively of
//! the combine / GC / log work nested inside it, so only self time — never
//! inclusive time — sums back to the breakdown totals.

#[allow(
    clippy::disallowed_types,
    reason = "observability sink: only reached with a probe attached, and attaching one never changes simulated results; the mutex orders concurrent recorders, not device state"
)]
use std::sync::{Mutex, MutexGuard, PoisonError};

use conzone_types::{to_index, SimDuration, SpanKind, SpanRecord, SpanSink};

/// A bounded in-memory span sink.
///
/// Keeps the first `capacity` spans and counts the rest as dropped, so a
/// runaway run degrades to a truncated-but-honest dump instead of
/// unbounded memory growth.
#[derive(Debug)]
pub struct SpanBuffer {
    #[allow(clippy::disallowed_types, reason = "see the import")]
    spans: Mutex<Spans>,
    capacity: usize,
}

/// The storage behind [`SpanBuffer`]: one lock covers both members, so
/// recording a span synchronises once.
#[derive(Debug)]
struct Spans {
    /// The kept spans, in close order, until drained.
    records: Vec<SpanRecord>,
    /// Spans offered so far, kept or dropped, drained ones included.
    recorded: u64,
}

impl SpanBuffer {
    /// A buffer keeping at most `capacity` spans.
    pub fn with_capacity(capacity: usize) -> SpanBuffer {
        SpanBuffer {
            #[allow(clippy::disallowed_types, reason = "see the import")]
            spans: Mutex::new(Spans {
                records: Vec::new(),
                recorded: 0,
            }),
            capacity,
        }
    }

    /// A recorder that panicked cannot have left the buffer half-updated
    /// (`record` bumps the count, then pushes, and neither step can fail
    /// halfway), so a poisoned lock is still safe to use.
    #[allow(clippy::disallowed_types, reason = "see the import")]
    fn spans(&self) -> MutexGuard<'_, Spans> {
        self.spans.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Total spans offered to the buffer (kept or dropped).
    pub fn recorded(&self) -> u64 {
        self.spans().recorded
    }

    /// Spans that did not fit in `capacity`.
    pub fn dropped(&self) -> u64 {
        self.recorded().saturating_sub(self.capacity as u64)
    }

    /// Takes the collected spans out of the buffer.
    pub fn drain(&self) -> Vec<SpanRecord> {
        std::mem::take(&mut self.spans().records)
    }
}

impl SpanSink for SpanBuffer {
    fn record(&self, span: SpanRecord) {
        let mut spans = self.spans();
        spans.recorded += 1;
        if spans.records.len() < self.capacity {
            spans.records.push(span);
        }
    }
}

/// Aggregated attribution for one [`SpanKind`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KindAttribution {
    /// The kind these totals cover.
    pub kind: SpanKind,
    /// Closed spans of this kind.
    pub count: u64,
    /// Inclusive time: children counted inside their parents.
    pub total: SimDuration,
    /// Exclusive time: each span's duration minus its direct children.
    pub self_time: SimDuration,
}

/// Folds closed spans into one [`KindAttribution`] per kind, in
/// [`SpanKind::index`] order.
///
/// Self time clamps at zero per span: a child that outlives its parent's
/// accounting window (which the recorder's monotonic clock prevents, but a
/// hand-built record set could produce) subtracts no further.
pub fn attribute_spans(spans: &[SpanRecord]) -> Vec<KindAttribution> {
    // Ids are assigned in open order, so they are dense enough to index.
    let max_id = to_index(spans.iter().map(|s| s.id).max().unwrap_or(0));
    let mut self_ns: Vec<u64> = vec![0; max_id + 1];
    let mut kind_of: Vec<Option<SpanKind>> = vec![None; max_id + 1];
    for s in spans {
        self_ns[to_index(s.id)] = s.duration_nanos();
        kind_of[to_index(s.id)] = Some(s.kind);
    }
    for s in spans {
        if s.parent != 0 {
            let p = to_index(s.parent);
            if p < self_ns.len() {
                self_ns[p] = self_ns[p].saturating_sub(s.duration_nanos());
            }
        }
    }

    let mut out: Vec<KindAttribution> = SpanKind::ALL
        .iter()
        .map(|&kind| KindAttribution {
            kind,
            count: 0,
            total: SimDuration::ZERO,
            self_time: SimDuration::ZERO,
        })
        .collect();
    for s in spans {
        let slot = &mut out[s.kind.index()];
        slot.count += 1;
        slot.total += SimDuration::from_nanos(s.duration_nanos());
        slot.self_time += SimDuration::from_nanos(self_ns[to_index(s.id)]);
    }
    out
}

/// Sums child-kind self times per `TimeBreakdown` category name, in the
/// breakdown's declaration order — the table a span dump is reconciled
/// against.
pub fn breakdown_from_spans(spans: &[SpanRecord]) -> Vec<(&'static str, SimDuration)> {
    let per_kind = attribute_spans(spans);
    let mut out: Vec<(&'static str, SimDuration)> = Vec::new();
    for a in &per_kind {
        if let Some(category) = a.kind.breakdown_category() {
            match out.iter_mut().find(|(name, _)| *name == category) {
                Some((_, d)) => *d += a.self_time,
                None => out.push((category, a.self_time)),
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use conzone_types::SimTime;

    fn span(id: u64, parent: u64, kind: SpanKind, start: u64, end: u64) -> SpanRecord {
        SpanRecord {
            id,
            parent,
            io: 1,
            kind,
            start: SimTime::from_nanos(start),
            end: SimTime::from_nanos(end),
        }
    }

    #[test]
    fn buffer_caps_and_counts_drops() {
        let buf = SpanBuffer::with_capacity(2);
        for id in 1..=5 {
            buf.record(span(id, 0, SpanKind::IoRead, 0, 1));
        }
        assert_eq!(buf.recorded(), 5);
        assert_eq!(buf.dropped(), 3);
        assert_eq!(buf.drain().len(), 2);
        assert!(buf.drain().is_empty(), "drain takes ownership");
    }

    #[test]
    fn self_time_excludes_direct_children() {
        // io_write [0,100] > write_path [0,90] > {gc [10,40], l2p [50,60]}
        let spans = [
            span(4, 2, SpanKind::GcStall, 10, 40),
            span(5, 2, SpanKind::L2pLog, 50, 60),
            span(2, 1, SpanKind::WritePath, 0, 90),
            span(1, 0, SpanKind::IoWrite, 0, 100),
        ];
        let attr = attribute_spans(&spans);
        let by_kind = |k: SpanKind| attr[k.index()];
        assert_eq!(by_kind(SpanKind::WritePath).total.as_nanos(), 90);
        assert_eq!(by_kind(SpanKind::WritePath).self_time.as_nanos(), 50);
        assert_eq!(by_kind(SpanKind::GcStall).self_time.as_nanos(), 30);
        assert_eq!(by_kind(SpanKind::IoWrite).self_time.as_nanos(), 10);
        assert_eq!(by_kind(SpanKind::IoWrite).count, 1);

        let breakdown = breakdown_from_spans(&spans);
        let get = |name: &str| {
            breakdown
                .iter()
                .find(|(n, _)| *n == name)
                .map(|(_, d)| d.as_nanos())
                .unwrap_or(0)
        };
        assert_eq!(get("write_path"), 50);
        assert_eq!(get("gc"), 30);
        assert_eq!(get("l2p_log"), 10);
        assert_eq!(get("mapping_fetch"), 0);
    }

    #[test]
    fn empty_span_set_attributes_nothing() {
        let attr = attribute_spans(&[]);
        assert_eq!(attr.len(), SpanKind::KIND_COUNT);
        assert!(attr.iter().all(|a| a.count == 0));
        assert!(breakdown_from_spans(&[])
            .iter()
            .all(|(_, d)| *d == SimDuration::ZERO));
    }
}
