//! Causal IO-lifecycle spans on the simulated clock (the `conzone-span`
//! layer).
//!
//! [`DeviceEvent`](crate::DeviceEvent) tracing answers *when* something
//! happened; spans answer *why an IO took as long as it did*. Each host
//! request opens a **root** span ([`SpanKind::IoRead`] /
//! [`SpanKind::IoWrite`] / …) covering its submit-to-completion window on
//! the DES clock, and the device model child-scopes the phases the request
//! blocked on — mapping fetches, media data reads, the write path, staged
//! combines, GC stalls, L2P log flushes and erases. Child kinds map
//! one-to-one onto `TimeBreakdown` categories
//! ([`SpanKind::breakdown_category`]), so summing the *self time* of all
//! closed spans per kind reproduces the breakdown table exactly — the
//! reconciliation tested end to end in `tests/observability.rs`.
//!
//! The [`SpanRecorder`] is owned by the (single-threaded) device model:
//! `open`/`close` maintain a stack of in-flight spans and emit one
//! [`SpanRecord`] per close to the attached [`SpanSink`]. With no sink
//! attached every call is a single branch, preserving the null-probe
//! overhead envelope.

use std::fmt;
use std::sync::Arc;

use crate::time::SimTime;

/// The phase a span attributes simulated time to.
///
/// Root kinds (`Io*`, `ZoneReset`) cover a whole host command; child kinds
/// cover one request-blocking activity inside it and correspond to one
/// `TimeBreakdown` category each.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SpanKind {
    /// Root: one host read command, submit to completion.
    IoRead,
    /// Root: one host write command, submit to completion.
    IoWrite,
    /// Root: one host zone-append command, submit to completion.
    IoAppend,
    /// Root: one host flush command, submit to completion.
    IoFlush,
    /// Root: one zone-reset command, submit to completion.
    ZoneReset,
    /// Mapping-table fetches on L2P cache misses (read path Ⅱ).
    MapFetch,
    /// Flash data reads serving a host read (read path ③).
    DataRead,
    /// The write path: buffer transfers, flushes and SLC programs. Its
    /// *self time* excludes the nested combine / GC / log children, like
    /// the exclusive `write_path` breakdown charge.
    WritePath,
    /// Reading staged fragments back out of SLC (combine path ③, §III-B).
    CombineRead,
    /// An SLC garbage-collection pass blocking the host request.
    GcStall,
    /// L2P persistence-log flushes blocking the host request (§III-E).
    L2pLog,
    /// A zone-reset superblock erase.
    Erase,
    /// Root: one queued host command's full lifecycle on the queue-pair
    /// host model, submission-queue doorbell to completion posting.
    QueueCmd,
    /// Time a queued command spent waiting between its doorbell and the
    /// arbitration grant that dispatched it to the device.
    QueueWait,
}

/// [`SpanKind::name`] of each [`SpanKind::index`].
const KIND_NAMES: [&str; SpanKind::KIND_COUNT] = [
    "io_read",
    "io_write",
    "io_append",
    "io_flush",
    "zone_reset",
    "map_fetch",
    "data_read",
    "write_path",
    "combine_read",
    "gc_stall",
    "l2p_log",
    "erase",
    "queue_cmd",
    "queue_wait",
];

// A `_` arm in these mappings would absorb a newly added kind instead of
// failing the build (E0004), and an exporter would silently miss it.
#[deny(clippy::wildcard_enum_match_arm)]
impl SpanKind {
    /// Number of distinct span kinds (indexable via [`SpanKind::index`]).
    pub const KIND_COUNT: usize = 14;

    /// Every kind, in [`SpanKind::index`] order.
    pub const ALL: [SpanKind; SpanKind::KIND_COUNT] = [
        SpanKind::IoRead,
        SpanKind::IoWrite,
        SpanKind::IoAppend,
        SpanKind::IoFlush,
        SpanKind::ZoneReset,
        SpanKind::MapFetch,
        SpanKind::DataRead,
        SpanKind::WritePath,
        SpanKind::CombineRead,
        SpanKind::GcStall,
        SpanKind::L2pLog,
        SpanKind::Erase,
        SpanKind::QueueCmd,
        SpanKind::QueueWait,
    ];

    /// Stable short name of the kind, used by every exporter.
    pub fn name(&self) -> &'static str {
        KIND_NAMES[self.index()]
    }

    /// Dense index of the kind into attribution buckets.
    pub fn index(&self) -> usize {
        match self {
            SpanKind::IoRead => 0,
            SpanKind::IoWrite => 1,
            SpanKind::IoAppend => 2,
            SpanKind::IoFlush => 3,
            SpanKind::ZoneReset => 4,
            SpanKind::MapFetch => 5,
            SpanKind::DataRead => 6,
            SpanKind::WritePath => 7,
            SpanKind::CombineRead => 8,
            SpanKind::GcStall => 9,
            SpanKind::L2pLog => 10,
            SpanKind::Erase => 11,
            SpanKind::QueueCmd => 12,
            SpanKind::QueueWait => 13,
        }
    }

    /// Whether this kind opens a new IO lifecycle (a root span).
    pub(crate) fn is_root(&self) -> bool {
        matches!(
            self,
            SpanKind::IoRead
                | SpanKind::IoWrite
                | SpanKind::IoAppend
                | SpanKind::IoFlush
                | SpanKind::ZoneReset
                | SpanKind::QueueCmd
        )
    }

    /// The `TimeBreakdown` category this kind's *self time* accumulates
    /// into, or `None` for root kinds (their self time is queueing and
    /// host overhead, which the breakdown deliberately excludes).
    pub fn breakdown_category(&self) -> Option<&'static str> {
        match self {
            SpanKind::IoRead => None,
            SpanKind::IoWrite => None,
            SpanKind::IoAppend => None,
            SpanKind::IoFlush => None,
            SpanKind::ZoneReset => None,
            SpanKind::MapFetch => Some("mapping_fetch"),
            SpanKind::DataRead => Some("data_read"),
            SpanKind::WritePath => Some("write_path"),
            SpanKind::CombineRead => Some("combine_read"),
            SpanKind::GcStall => Some("gc"),
            SpanKind::L2pLog => Some("l2p_log"),
            SpanKind::Erase => Some("erase"),
            SpanKind::QueueCmd => None,
            SpanKind::QueueWait => Some("queue_wait"),
        }
    }
}

/// One closed span, emitted by the [`SpanRecorder`] at close time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanRecord {
    /// Unique id of this span (1-based; ids are assigned in open order,
    /// so a parent's id is always smaller than its children's).
    pub id: u64,
    /// Id of the enclosing span, or 0 for a top-of-stack span.
    pub parent: u64,
    /// The IO lifecycle this span belongs to (root spans allocate a fresh
    /// sequence number; 0 for spans emitted outside any root, e.g. an
    /// internal flush during zone close).
    pub io: u64,
    /// What the span attributes time to.
    pub kind: SpanKind,
    /// When the phase began on the simulated clock.
    pub start: SimTime,
    /// When the phase ended on the simulated clock.
    pub end: SimTime,
}

impl SpanRecord {
    /// The span's inclusive duration in nanoseconds (children included).
    pub fn duration_nanos(&self) -> u64 {
        self.end.saturating_since(self.start).as_nanos()
    }
}

/// Receives closed spans from one device's [`SpanRecorder`].
///
/// Like `TraceSink`, `record` takes `&self` so the sink can be shared with
/// the harness that later drains it.
pub trait SpanSink {
    /// Called once per span, at its close. Closes arrive children-first
    /// (a parent closes after everything nested in it).
    fn record(&self, span: SpanRecord);
}

/// The stack of in-flight spans for one device.
///
/// The device model owns one recorder and brackets each phase with
/// [`open`](SpanRecorder::open) / [`close`](SpanRecorder::close). With no
/// sink attached (the default) both are a single branch. Error paths that
/// abandon a request mid-phase roll the stack back with
/// [`cancel_to`](SpanRecorder::cancel_to), so nesting stays balanced per
/// IO even when a command fails.
#[derive(Default)]
pub struct SpanRecorder {
    sink: Option<Arc<dyn SpanSink + Send + Sync>>,
    stack: Vec<OpenSpan>,
    next_id: u64,
    io_seq: u64,
}

#[derive(Debug, Clone, Copy)]
struct OpenSpan {
    id: u64,
    io: u64,
    kind: SpanKind,
    start: SimTime,
}

impl SpanRecorder {
    /// A recorder with no sink: every call is a branch and nothing more.
    pub fn disabled() -> SpanRecorder {
        SpanRecorder::default()
    }

    /// A recorder forwarding closed spans to `sink`.
    pub fn attached(sink: Arc<dyn SpanSink + Send + Sync>) -> SpanRecorder {
        SpanRecorder {
            sink: Some(sink),
            stack: Vec::new(),
            next_id: 0,
            io_seq: 0,
        }
    }

    /// Whether a sink is attached.
    #[inline]
    pub(crate) fn enabled(&self) -> bool {
        self.sink.is_some()
    }

    /// Opens a span of `kind` at simulated time `t`. Root kinds start a
    /// new IO lifecycle; child kinds inherit the enclosing span's IO.
    #[inline]
    pub fn open(&mut self, t: SimTime, kind: SpanKind) {
        if self.sink.is_none() {
            return;
        }
        let io = if kind.is_root() {
            self.io_seq += 1;
            self.io_seq
        } else {
            self.stack.last().map_or(0, |s| s.io)
        };
        self.next_id += 1;
        self.stack.push(OpenSpan {
            id: self.next_id,
            io,
            kind,
            start: t,
        });
    }

    /// Closes the innermost open span at simulated time `t`, emitting its
    /// record. A close with nothing open (recorder disabled, or the stack
    /// was cancelled) is a no-op.
    #[inline]
    pub fn close(&mut self, t: SimTime) {
        let Some(open) = self.stack.pop() else {
            return;
        };
        if let Some(sink) = &self.sink {
            sink.record(SpanRecord {
                id: open.id,
                parent: self.stack.last().map_or(0, |s| s.id),
                io: open.io,
                kind: open.kind,
                start: open.start,
                end: t.max(open.start),
            });
        }
    }

    /// Number of spans currently open.
    #[inline]
    pub fn depth(&self) -> usize {
        self.stack.len()
    }

    /// Discards every span opened above `depth` without emitting records —
    /// the error-path cleanup when a command fails with phases in flight.
    #[inline]
    pub fn cancel_to(&mut self, depth: usize) {
        self.stack.truncate(depth);
    }
}

impl fmt::Debug for SpanRecorder {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "SpanRecorder({}, depth {})",
            if self.enabled() {
                "attached"
            } else {
                "disabled"
            },
            self.stack.len()
        )
    }
}

#[cfg(test)]
#[allow(
    clippy::disallowed_types,
    reason = "test-only collecting sink; the real one (SpanBuffer) lives downstream in conzone-sim"
)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    #[derive(Default)]
    struct VecSink(Mutex<Vec<SpanRecord>>);

    impl SpanSink for VecSink {
        fn record(&self, span: SpanRecord) {
            self.0.lock().unwrap().push(span);
        }
    }

    #[test]
    fn kind_names_and_indices_are_distinct() {
        let mut idx = std::collections::BTreeSet::new();
        let mut names = std::collections::BTreeSet::new();
        for k in SpanKind::ALL {
            assert_eq!(SpanKind::ALL[k.index()], k, "ALL is in index order");
            idx.insert(k.index());
            names.insert(k.name());
        }
        assert_eq!(idx.len(), SpanKind::KIND_COUNT);
        assert_eq!(names.len(), SpanKind::KIND_COUNT);
    }

    #[test]
    fn roots_have_no_breakdown_category_and_children_do() {
        for k in SpanKind::ALL {
            assert_eq!(
                k.breakdown_category().is_none(),
                k.is_root(),
                "{:?} category/root mismatch",
                k
            );
        }
    }

    #[test]
    fn disabled_recorder_is_inert() {
        let mut r = SpanRecorder::disabled();
        assert!(!r.enabled());
        r.open(SimTime::from_nanos(1), SpanKind::IoWrite);
        assert_eq!(r.depth(), 0);
        r.close(SimTime::from_nanos(2));
    }

    #[test]
    fn nesting_assigns_parent_and_io() {
        let sink = Arc::new(VecSink::default());
        let mut r = SpanRecorder::attached(sink.clone());
        r.open(SimTime::from_nanos(0), SpanKind::IoWrite);
        r.open(SimTime::from_nanos(1), SpanKind::WritePath);
        r.open(SimTime::from_nanos(2), SpanKind::GcStall);
        r.close(SimTime::from_nanos(5)); // gc
        r.close(SimTime::from_nanos(6)); // write path
        r.close(SimTime::from_nanos(7)); // root
        r.open(SimTime::from_nanos(8), SpanKind::IoRead);
        r.close(SimTime::from_nanos(9));

        let spans = sink.0.lock().unwrap().clone();
        assert_eq!(spans.len(), 4);
        let gc = &spans[0];
        let wp = &spans[1];
        let root = &spans[2];
        let read = &spans[3];
        assert_eq!(gc.kind, SpanKind::GcStall);
        assert_eq!(gc.parent, wp.id);
        assert_eq!(wp.parent, root.id);
        assert_eq!(root.parent, 0);
        assert_eq!(gc.io, root.io);
        assert_eq!(read.io, root.io + 1, "new root, new IO");
        assert!(root.id < wp.id && wp.id < gc.id, "ids follow open order");
        assert_eq!(gc.duration_nanos(), 3);
    }

    #[test]
    fn cancel_to_discards_in_flight_spans() {
        let sink = Arc::new(VecSink::default());
        let mut r = SpanRecorder::attached(sink.clone());
        r.open(SimTime::from_nanos(0), SpanKind::IoWrite);
        let d = r.depth();
        r.open(SimTime::from_nanos(1), SpanKind::WritePath);
        r.open(SimTime::from_nanos(2), SpanKind::L2pLog);
        r.cancel_to(d);
        assert_eq!(r.depth(), 1);
        r.close(SimTime::from_nanos(3));
        let spans = sink.0.lock().unwrap().clone();
        assert_eq!(spans.len(), 1, "only the root survived");
        assert_eq!(spans[0].kind, SpanKind::IoWrite);
    }
}
