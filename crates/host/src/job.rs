//! FIO-like job descriptions (paper §IV-A uses FIO micro-benchmarks).

use conzone_types::SimTime;

/// Access pattern of a job, mirroring fio's `rw=` parameter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessPattern {
    /// Sequential reads.
    SeqRead,
    /// Sequential writes (zoned devices: each thread fills its own zones).
    SeqWrite,
    /// Uniform random reads.
    RandRead,
    /// Uniform random writes (Legacy / conventional zones only).
    RandWrite,
    /// Random mix of reads and writes (fio `rwmixread=`): each request is
    /// a read with the given percentage probability. Requires in-place
    /// writability (Legacy or ConZone conventional zones) and a pre-filled
    /// region so the reads land on valid data.
    Mixed {
        /// Percentage of requests that are reads, `0..=100`.
        read_percent: u8,
    },
}

impl AccessPattern {
    /// Whether the pattern issues any reads (and so needs pre-filled data).
    pub fn is_read(self) -> bool {
        matches!(
            self,
            AccessPattern::SeqRead | AccessPattern::RandRead | AccessPattern::Mixed { .. }
        )
    }
}

/// NVMe addresses queues and queue entries with 16-bit fields: at most
/// 65 535 I/O queues of at most 65 535 entries each. The bound of every
/// thread, tenant and queue-depth count a flag or a job file may ask for.
pub const NVME_QUEUE_LIMIT: u64 = 65_535;

/// One synchronous (queue-depth-1 per thread) I/O job.
///
/// ```
/// use conzone_host::{AccessPattern, FioJob};
///
/// let job = FioJob::new(AccessPattern::SeqWrite, 512 * 1024)
///     .threads(4)
///     .region(0, 64 * 1024 * 1024)
///     .bytes_per_thread(16 * 1024 * 1024);
/// assert_eq!(job.threads, 4);
/// ```
#[derive(Debug, Clone)]
pub struct FioJob {
    /// Access pattern.
    pub pattern: AccessPattern,
    /// Request size in bytes (fio `bs=`), 4 KiB aligned.
    pub block_bytes: u64,
    /// Number of synchronous threads (fio `numjobs=` with `iodepth=1`).
    pub threads: usize,
    /// Start of the addressed region in bytes.
    pub region_offset: u64,
    /// Length of the addressed region in bytes.
    pub region_bytes: u64,
    /// I/O volume per thread in bytes (`size=`); mutually exclusive with
    /// `ops_per_thread` (whichever is smaller ends the thread).
    pub bytes_per_thread: u64,
    /// Optional cap on the number of requests per thread.
    pub ops_per_thread: Option<u64>,
    /// Explicit zone assignment per thread for zoned sequential writes
    /// (zone indices relative to the device). When absent, thread `i`
    /// takes zones `i, i + threads, i + 2·threads, …` within the region.
    pub thread_zones: Option<Vec<Vec<u64>>>,
    /// Seed for random offsets.
    pub seed: u64,
    /// Simulated start time.
    pub start: SimTime,
    /// Attach verifiable payloads to writes (requires device data backing).
    pub verify_data: bool,
    /// Zone size in bytes for zoned sequential writes: threads fill whole
    /// zones instead of a flat stripe. `None` for flat devices (Legacy).
    pub zone_bytes: Option<u64>,
    /// Open-loop arrivals: submit requests at a Poisson process of this
    /// many IOPS instead of waiting for completions (read patterns only).
    /// `None` keeps the default closed-loop sync behaviour.
    pub arrival_iops: Option<f64>,
    /// Outstanding requests per thread in closed-loop mode (fio
    /// `iodepth=`); each completion immediately re-arms its slot.
    pub queue_depth: usize,
    /// Issue a device flush after every N writes (fio `fsync=`),
    /// modelling synchronous application I/O. `None` disables.
    pub fsync_every: Option<u64>,
}

impl FioJob {
    /// Creates a job with one thread over the whole device and a 64 MiB
    /// per-thread volume.
    pub fn new(pattern: AccessPattern, block_bytes: u64) -> FioJob {
        FioJob {
            pattern,
            block_bytes,
            threads: 1,
            region_offset: 0,
            region_bytes: u64::MAX, // clamped to device capacity at run time
            bytes_per_thread: 64 * 1024 * 1024,
            ops_per_thread: None,
            thread_zones: None,
            seed: 0x10_15_b0_0c,
            start: SimTime::ZERO,
            verify_data: false,
            zone_bytes: None,
            arrival_iops: None,
            queue_depth: 1,
            fsync_every: None,
        }
    }

    /// Flushes the device after every `n` writes (fio `fsync=`).
    pub fn fsync_every(mut self, n: u64) -> FioJob {
        self.fsync_every = Some(n);
        self
    }

    /// Sets the closed-loop queue depth per thread (fio `iodepth=`).
    pub fn queue_depth(mut self, qd: usize) -> FioJob {
        self.queue_depth = qd;
        self
    }

    /// Switches to open-loop Poisson arrivals at `iops` requests/second
    /// (read patterns only; latency then includes queueing delay).
    pub fn arrival_iops(mut self, iops: f64) -> FioJob {
        self.arrival_iops = Some(iops);
        self
    }

    /// Declares the device's zone size so sequential writes fill whole
    /// zones (required for zoned devices).
    pub fn zone_bytes(mut self, bytes: u64) -> FioJob {
        self.zone_bytes = Some(bytes);
        self
    }

    /// Sets the number of threads.
    pub fn threads(mut self, n: usize) -> FioJob {
        self.threads = n;
        self
    }

    /// Restricts the job to `[offset, offset + bytes)`.
    pub fn region(mut self, offset: u64, bytes: u64) -> FioJob {
        self.region_offset = offset;
        self.region_bytes = bytes;
        self
    }

    /// Sets the per-thread I/O volume in bytes.
    pub fn bytes_per_thread(mut self, bytes: u64) -> FioJob {
        self.bytes_per_thread = bytes;
        self
    }

    /// Caps the number of requests per thread.
    pub fn ops_per_thread(mut self, ops: u64) -> FioJob {
        self.ops_per_thread = Some(ops);
        self
    }

    /// Assigns explicit zones to each thread (sequential zoned writes).
    pub fn with_thread_zones(mut self, zones: Vec<Vec<u64>>) -> FioJob {
        self.thread_zones = Some(zones);
        self
    }

    /// Sets the random seed.
    pub fn seed(mut self, seed: u64) -> FioJob {
        self.seed = seed;
        self
    }

    /// Sets the simulated start time.
    pub fn start_at(mut self, start: SimTime) -> FioJob {
        self.start = start;
        self
    }

    /// Enables payload generation and verification.
    pub fn verify(mut self, on: bool) -> FioJob {
        self.verify_data = on;
        self
    }

    /// Number of requests each thread will issue.
    pub fn requests_per_thread(&self) -> u64 {
        let by_bytes = self.bytes_per_thread / self.block_bytes;
        match self.ops_per_thread {
            Some(ops) => ops.min(by_bytes.max(1)),
            None => by_bytes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_chains() {
        let j = FioJob::new(AccessPattern::RandRead, 4096)
            .threads(2)
            .region(4096, 1 << 20)
            .bytes_per_thread(1 << 20)
            .seed(42);
        assert_eq!(j.block_bytes, 4096);
        assert_eq!(j.threads, 2);
        assert_eq!(j.region_offset, 4096);
        assert_eq!(j.requests_per_thread(), 256);
    }

    #[test]
    fn ops_cap_applies() {
        let j = FioJob::new(AccessPattern::RandRead, 4096)
            .bytes_per_thread(1 << 30)
            .ops_per_thread(100);
        assert_eq!(j.requests_per_thread(), 100);
    }

    #[test]
    fn pattern_direction() {
        assert!(AccessPattern::SeqRead.is_read());
        assert!(AccessPattern::RandRead.is_read());
        assert!(!AccessPattern::SeqWrite.is_read());
        assert!(!AccessPattern::RandWrite.is_read());
    }
}
