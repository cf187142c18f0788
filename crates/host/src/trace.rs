//! Trace-driven workloads: parse, synthesise and replay I/O traces.
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
//! (closed-loop) when `respect_timestamps` is off.

use conzone_sim::SimRng;
use conzone_types::{IoRequest, SimTime, ZonedDevice, SLICE_BYTES};

use crate::runner::{HostError, JobReport, Tally, ARRIVAL_HORIZON};

/// Zipf skew of a mobile trace's reads (0.0 = uniform, ~1.0 = typical
/// hot/cold).
const READ_SKEW: f64 = 1.1;

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

/// Builder for a synthetic mobile-like trace: bursts of sequential media
/// writes, a stream of small synchronous metadata writes, and zipf-skewed
/// random reads — the consumer access pattern the paper targets.
#[derive(Debug, Clone)]
pub struct MobileTraceBuilder {
    zone_bytes: u64,
    zones: u64,
    seed: u64,
    bursts: u64,
    burst_bytes: u64,
    metadata_every: u64,
    reads: u64,
}

impl MobileTraceBuilder {
    /// Targets a zoned device of `zones` zones of `zone_bytes` each.
    pub fn new(zone_bytes: u64, zones: u64) -> MobileTraceBuilder {
        MobileTraceBuilder {
            zone_bytes,
            zones,
            seed: 0xb11e_7ace,
            bursts: 4,
            burst_bytes: 8 * 1024 * 1024,
            metadata_every: 2 * 1024 * 1024,
            reads: 2000,
        }
    }

    /// Sets the RNG seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Number of media write bursts (e.g. photos).
    pub fn bursts(mut self, n: u64) -> Self {
        self.bursts = n;
        self
    }

    /// Bytes per burst.
    pub fn burst_bytes(mut self, bytes: u64) -> Self {
        self.burst_bytes = bytes;
        self
    }

    /// Number of 4 KiB random reads appended after the writes.
    pub fn reads(mut self, n: u64) -> Self {
        self.reads = n;
        self
    }

    /// Builds the trace. Writes are strictly sequential per zone (media in
    /// even zones, metadata in zone 1); reads are zipf-skewed over the
    /// written media region.
    pub fn build(self) -> Trace {
        let mut rng = SimRng::new(self.seed);
        let mut trace = Trace::new();
        let chunk = 512 * 1024u64;
        let mut t = 0u64;
        let mut media_zone = 0u64;
        let mut media_off = 0u64;
        let mut meta_off = 0u64;
        let mut written_media: Vec<(u64, u64)> = Vec::new(); // (offset, len)

        let mut used_zones: std::collections::BTreeSet<u64> = std::collections::BTreeSet::new();
        used_zones.insert(0);
        for _ in 0..self.bursts {
            let mut streamed = 0;
            while streamed < self.burst_bytes {
                if media_off == self.zone_bytes {
                    media_zone = (media_zone + 2) % (self.zones & !1).max(2);
                    if !used_zones.insert(media_zone) {
                        // Revisiting a zone: the host discards it first and
                        // its old extents disappear from the read footprint.
                        trace.push(TraceOp {
                            at: SimTime::from_nanos(t),
                            kind: TraceKind::Discard,
                            offset: media_zone * self.zone_bytes,
                            len: self.zone_bytes,
                        });
                        let lo = media_zone * self.zone_bytes;
                        let hi = lo + self.zone_bytes;
                        written_media.retain(|(off, _)| *off < lo || *off >= hi);
                    }
                    media_off = 0;
                }
                let offset = media_zone * self.zone_bytes + media_off;
                trace.push(TraceOp {
                    at: SimTime::from_nanos(t),
                    kind: TraceKind::Write,
                    offset,
                    len: chunk,
                });
                written_media.push((offset, chunk));
                media_off += chunk;
                streamed += chunk;
                t += 200_000; // 200 us between submissions
                if streamed % self.metadata_every == 0 {
                    trace.push(TraceOp {
                        at: SimTime::from_nanos(t),
                        kind: TraceKind::Write,
                        offset: self.zone_bytes + meta_off,
                        len: 16 * 1024,
                    });
                    meta_off += 16 * 1024;
                    t += 100_000;
                }
            }
            t += 5_000_000; // 5 ms between bursts
        }

        // Zipf-ish skewed reads over written media extents: rank sampled
        // with probability ∝ rank^-skew via inversion on a harmonic CDF.
        let n = written_media.len().max(1);
        #[expect(
            clippy::disallowed_methods,
            reason = "Zipf skew: sampling is seeded and quantised to a rank; a last-bit \
                      libm difference across platforms is accepted"
        )]
        let weights: Vec<f64> = (1..=n).map(|r| 1.0 / (r as f64).powf(READ_SKEW)).collect();
        let total: f64 = weights.iter().sum();
        for _ in 0..self.reads {
            let mut x = rng.f64() * total;
            let mut rank = 0;
            for (i, w) in weights.iter().enumerate() {
                if x < *w {
                    rank = i;
                    break;
                }
                x -= w;
            }
            let (base, len) = written_media[rank % written_media.len()];
            let slice = rng.below(len / SLICE_BYTES) * SLICE_BYTES;
            trace.push(TraceOp {
                at: SimTime::from_nanos(t),
                kind: TraceKind::Read,
                offset: base + slice,
                len: SLICE_BYTES,
            });
            t += 50_000;
        }
        trace
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

    #[test]
    fn mobile_trace_replays_on_conzone() {
        let mut dev = ConZone::new(DeviceConfig::tiny_for_tests());
        let trace = MobileTraceBuilder::new(dev.zone_size(), dev.zone_count() as u64)
            .bursts(2)
            .burst_bytes(1024 * 1024)
            .reads(200)
            .build();
        assert!(trace.len() > 0);
        let report = replay_trace(&mut dev, &trace, SimTime::ZERO, false).unwrap();
        assert_eq!(report.ops, trace.len() as u64);
        assert!(report.bandwidth_mibs() > 0.0);
        assert!(report.counters.host_read_ops >= 200);
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
