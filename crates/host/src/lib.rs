//! Host-side harness for the ConZone emulator.
//!
//! This crate plays the role FIO and the file system play in the paper's
//! evaluation (§IV): it generates well-defined request streams against any
//! [`StorageDevice`](conzone_types::StorageDevice) model and collects
//! bandwidth, IOPS, latency-percentile and write-amplification reports.
//!
//! * [`FioJob`] / [`run_job`] — fio-like jobs (sequential or random, read
//!   or write, 1..n threads at any queue depth, closed or open loop);
//! * [`run_tenants`] — the same driver loop with an NVMe-like front end:
//!   a queue pair per tenant behind an arbitrated command-fetch stage.
//!   `run_job(job)` ≡ `run_tenants([job], QdOptions::default())`: one
//!   tenant behind a zero-cost fetch stage reports identical numbers;
//! * [`JobReport`] — bandwidth / KIOPS / tail-latency / WAF summary;
//! * `verify` jobs — payloads regenerated from `(seed, offset)` check
//!   data integrity across the device's buffering and GC paths;
//! * [`F2fsLite`] — a six-log F2FS-like allocator reproducing the
//!   ≤6-open-zones access pattern of consumer devices (§II-B).
//!
//! ```
//! use conzone_core::ConZone;
//! use conzone_host::{run_job, AccessPattern, FioJob};
//! use conzone_types::DeviceConfig;
//!
//! let mut dev = ConZone::new(DeviceConfig::tiny_for_tests());
//! let job = FioJob::new(AccessPattern::SeqWrite, 256 * 1024)
//!     .zone_bytes(1024 * 1024)
//!     .bytes_per_thread(2 * 1024 * 1024);
//! let report = run_job(&mut dev, &job)?;
//! assert!(report.bandwidth_mibs() > 0.0);
//! # Ok::<(), conzone_host::HostError>(())
//! ```

// Unit tests cast freely; the truncating-cast ban (`[workspace.lints]`) is
// meant for library code reachable from the simulator.
#![cfg_attr(test, allow(clippy::cast_possible_truncation))]
#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod crash;
mod f2fs;
mod fio_file;
mod job;
mod qd;
mod runner;
mod trace;
mod verify;
mod workloads;

#[cfg(test)]
mod parse_fuzz;

pub use crash::{power_cycle_and_verify, CrashVerdict};
pub use f2fs::{F2fsLite, F2fsStats, Temperature};
pub use fio_file::{parse_fio_jobs, parse_size, NamedJob, ParseFioError};
pub use job::{AccessPattern, FioJob, NVME_QUEUE_LIMIT};
pub use qd::{run_tenants, MultiReport, QdOptions, TenantReport, TenantSpec};
pub use runner::{run_job, run_job_sampled, run_job_until, HostError, JobReport};
pub use trace::{replay_trace, ParseTraceError, Trace};
pub use workloads::WorkloadPreset;
