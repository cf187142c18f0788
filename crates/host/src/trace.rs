//! Trace-driven workloads: parse, print and replay I/O traces. The
//! synthetic ones come from [`WorkloadPreset`](crate::WorkloadPreset).
//!
//! The text format is one operation per line, blkparse-style:
//!
//! ```text
//! # time_ns  op  offset_bytes  length_bytes
//! 0          W   0             131072
//! 250000     R   65536         4096
//! 1000000    D   0             16777216      # zone reset (discard)
//! ```
//!
//! Comments (`#`) and blank lines are ignored. Replay issues each
//! operation no earlier than its timestamp (open-loop), or back to back
//! (closed-loop) when `open_loop` is off.

use conzone_types::{IoRequest, SimTime, ZonedDevice};

use crate::runner::{HostError, JobReport, Tally, ARRIVAL_HORIZON};

/// One trace operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct TraceOp {
    /// Issue time relative to trace start.
    pub(crate) at: SimTime,
    /// What to do.
    pub(crate) kind: TraceKind,
    /// Byte offset.
    pub(crate) offset: u64,
    /// Byte length.
    pub(crate) len: u64,
}

/// Operation kind in a trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum TraceKind {
    /// Host read.
    Read,
    /// Host write.
    Write,
    /// Discard: reset the zone containing `offset` (zoned devices only).
    Discard,
}

/// A parsed or generated trace.
#[derive(Debug, Clone, Default)]
pub struct Trace {
    ops: Vec<TraceOp>,
}

/// Error from parsing a trace line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseTraceError {
    /// 1-based line number of the offending line.
    pub line: usize,
    /// What was wrong.
    pub message: String,
}

impl core::fmt::Display for ParseTraceError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "trace line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseTraceError {}

impl Trace {
    /// Creates an empty trace.
    pub(crate) fn new() -> Trace {
        Trace::default()
    }

    /// Appends an operation (kept in insertion order).
    pub(crate) fn push(&mut self, op: TraceOp) {
        self.ops.push(op);
    }

    /// The operations in order.
    pub(crate) fn ops(&self) -> &[TraceOp] {
        &self.ops
    }

    /// Number of operations.
    #[expect(
        clippy::len_without_is_empty,
        reason = "callers count operations; none asks whether the trace is empty"
    )]
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Total bytes moved by reads and writes, saturating at `u64::MAX`
    /// (a trace file may hold any lengths).
    pub fn total_bytes(&self) -> u64 {
        self.ops
            .iter()
            .filter(|o| o.kind != TraceKind::Discard)
            .fold(0, |sum, o| sum.saturating_add(o.len))
    }

    /// Parses the text format described in the module docs.
    ///
    /// # Errors
    ///
    /// Returns [`ParseTraceError`] naming the first malformed line.
    pub fn parse(text: &str) -> Result<Trace, ParseTraceError> {
        let mut trace = Trace::new();
        for (idx, raw) in text.lines().enumerate() {
            let line = idx + 1;
            let body = raw.split('#').next().unwrap_or("").trim();
            if body.is_empty() {
                continue;
            }
            let fields: Vec<&str> = body.split_whitespace().collect();
            if fields.len() != 4 {
                return Err(ParseTraceError {
                    line,
                    message: format!("expected 4 fields, found {}", fields.len()),
                });
            }
            let at = fields[0].parse::<u64>().map_err(|e| ParseTraceError {
                line,
                message: format!("bad timestamp: {e}"),
            })?;
            let kind = match fields[1] {
                "R" | "r" => TraceKind::Read,
                "W" | "w" => TraceKind::Write,
                "D" | "d" => TraceKind::Discard,
                other => {
                    return Err(ParseTraceError {
                        line,
                        message: format!("unknown op '{other}' (expected R, W or D)"),
                    })
                }
            };
            let offset = fields[2].parse::<u64>().map_err(|e| ParseTraceError {
                line,
                message: format!("bad offset: {e}"),
            })?;
            let len = fields[3].parse::<u64>().map_err(|e| ParseTraceError {
                line,
                message: format!("bad length: {e}"),
            })?;
            trace.push(TraceOp {
                at: SimTime::from_nanos(at),
                kind,
                offset,
                len,
            });
        }
        Ok(trace)
    }

    /// Serialises back to the text format.
    pub fn to_text(&self) -> String {
        let mut out = String::from("# time_ns op offset_bytes length_bytes\n");
        for op in &self.ops {
            let k = match op.kind {
                TraceKind::Read => 'R',
                TraceKind::Write => 'W',
                TraceKind::Discard => 'D',
            };
            out.push_str(&format!(
                "{} {} {} {}\n",
                op.at.as_nanos(),
                k,
                op.offset,
                op.len
            ));
        }
        out
    }
}

/// Replays a trace against a zoned device, honouring timestamps as
/// earliest-issue times (`open_loop`) or issuing back to back.
///
/// # Errors
///
/// Propagates device errors with the offending offset;
/// [`HostError::BadJob`] for an open-loop op timestamped past the arrival
/// horizon (≈ 292 years after `start`'s origin).
pub fn replay_trace<D: ZonedDevice + ?Sized>(
    dev: &mut D,
    trace: &Trace,
    start: SimTime,
    open_loop: bool,
) -> Result<JobReport, HostError> {
    let before = dev.counters();
    // Replay is a single issuing stream: thread 0.
    let mut tally = Tally::new(start, 1);
    let mut t = start;
    for op in trace.ops() {
        let issue = if open_loop {
            let at = start.checked_add(op.at - SimTime::ZERO);
            let at = at.filter(|&at| at <= ARRIVAL_HORIZON).ok_or_else(|| {
                HostError::BadJob(format!(
                    "trace op at {} falls past the end of simulated time",
                    op.at
                ))
            })?;
            t.max(at)
        } else {
            t
        };
        let completion = match op.kind {
            TraceKind::Read => dev.submit(issue, &IoRequest::read(op.offset, op.len)),
            TraceKind::Write => dev.submit(issue, &IoRequest::write(op.offset, op.len)),
            TraceKind::Discard => {
                let zone = dev.zone_of(op.offset);
                dev.reset_zone(issue, zone)
            }
        }
        .map_err(|source| HostError::Device {
            offset: op.offset,
            source,
        })?;
        t = completion.finished;
        match op.kind {
            TraceKind::Read => tally.record_io(0, true, op.len, completion.latency(), t),
            TraceKind::Write => tally.record_io(0, false, op.len, completion.latency(), t),
            TraceKind::Discard => tally.record(0, completion.latency(), t),
        }
    }
    let after = dev.counters();
    Ok(tally.job_report(dev.model_name(), start, Vec::new(), after.since(&before)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use conzone_core::ConZone;
    use conzone_types::DeviceConfig;

    #[test]
    fn parse_roundtrip() {
        let text = "\
# a comment
0 W 0 131072
250000 R 65536 4096   # inline comment

1000000 D 0 16777216
";
        let trace = Trace::parse(text).unwrap();
        assert_eq!(trace.len(), 3);
        assert_eq!(trace.ops()[0].kind, TraceKind::Write);
        assert_eq!(trace.ops()[1].at, SimTime::from_nanos(250_000));
        assert_eq!(trace.ops()[2].kind, TraceKind::Discard);
        assert_eq!(trace.total_bytes(), 131072 + 4096);

        let reparsed = Trace::parse(&trace.to_text()).unwrap();
        assert_eq!(reparsed.ops(), trace.ops());
    }

    #[test]
    fn parse_errors_name_the_line() {
        let err = Trace::parse("0 W 0\n").unwrap_err();
        assert_eq!(err.line, 1);
        let err = Trace::parse("0 X 0 4096\n").unwrap_err();
        assert!(err.message.contains("unknown op"));
        let err = Trace::parse("zero W 0 4096\n").unwrap_err();
        assert!(err.message.contains("timestamp"));
    }

    /// An op timestamped past the arrival horizon is a bad job, not an
    /// overflow in the device's `now + latency`.
    #[test]
    fn an_open_loop_op_past_the_end_of_time_is_a_bad_job() {
        let mut dev = ConZone::new(DeviceConfig::tiny_for_tests());
        let trace = Trace::parse("0 W 0 4096\n18446744073709551000 W 4096 4096\n").unwrap();
        let err = replay_trace(&mut dev, &trace, SimTime::ZERO, true).unwrap_err();
        assert!(
            matches!(&err, HostError::BadJob(why) if why.contains("end of simulated time")),
            "{err}"
        );
        // Back to back, the timestamps are ignored.
        let mut dev = ConZone::new(DeviceConfig::tiny_for_tests());
        replay_trace(&mut dev, &trace, SimTime::ZERO, false).unwrap();
    }

    #[test]
    fn open_loop_respects_timestamps() {
        let mut dev = ConZone::new(DeviceConfig::tiny_for_tests());
        let mut trace = Trace::new();
        trace.push(TraceOp {
            at: SimTime::ZERO,
            kind: TraceKind::Write,
            offset: 0,
            len: 4096,
        });
        trace.push(TraceOp {
            at: SimTime::from_nanos(50_000_000), // 50 ms idle gap
            kind: TraceKind::Write,
            offset: 4096,
            len: 4096,
        });
        let r = replay_trace(&mut dev, &trace, SimTime::ZERO, true).unwrap();
        assert!(r.finished >= SimTime::from_nanos(50_000_000));
        let mut dev = ConZone::new(DeviceConfig::tiny_for_tests());
        let r = replay_trace(&mut dev, &trace, SimTime::ZERO, false).unwrap();
        assert!(
            r.finished < SimTime::from_nanos(50_000_000),
            "closed loop ignores gaps"
        );
    }
}
