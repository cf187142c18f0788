//! Parsing a subset of fio's INI job-file format into [`FioJob`]s.
//!
//! The paper's evaluation drives the emulator with FIO; this module lets
//! the same job descriptions drive the Rust emulator:
//!
//! ```ini
//! [global]
//! bs=512k
//! size=256m
//!
//! [seqwrite]
//! rw=write
//! numjobs=4
//!
//! [randread]
//! rw=randread
//! bs=4k
//! iodepth=8
//! ```
//!
//! Supported keys: `rw`/`readwrite` (`read`, `write`, `randread`,
//! `randwrite`, `randrw`), `rwmixread`, `bs`/`blocksize`, `size`,
//! `offset`, `io_size`, `numjobs`, `iodepth`, `rate_iops`, `fsync`,
//! `randseed`. `[global]` sets defaults for subsequent sections. Unknown
//! keys are rejected (better loud than silently different from fio).

use conzone_types::to_index;

use crate::job::{AccessPattern, FioJob, NVME_QUEUE_LIMIT};

/// Error from parsing a fio job file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseFioError {
    /// 1-based line number.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl core::fmt::Display for ParseFioError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "fio job file line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseFioError {}

/// One parsed job: section name plus the configured [`FioJob`].
#[derive(Debug, Clone)]
pub struct NamedJob {
    /// The `[section]` name.
    pub name: String,
    /// The job description.
    pub job: FioJob,
}

/// Parses "4k", "512K", "16m", "1g" or plain bytes — the sizes of a job
/// file and of the `conzone` CLI's flags.
///
/// # Errors
///
/// `bad size '…': …` for anything else, including a size past the `u64`
/// byte space.
pub fn parse_size(s: &str) -> Result<u64, String> {
    let s = s.trim();
    let (digits, mult) = match s.chars().last() {
        Some('k') | Some('K') => (&s[..s.len() - 1], 1024u64),
        Some('m') | Some('M') => (&s[..s.len() - 1], 1024 * 1024),
        Some('g') | Some('G') => (&s[..s.len() - 1], 1024 * 1024 * 1024),
        _ => (s, 1),
    };
    let v = digits
        .parse::<u64>()
        .map_err(|e| format!("bad size '{s}': {e}"))?;
    v.checked_mul(mult)
        .ok_or_else(|| format!("bad size '{s}': more than {} bytes", u64::MAX))
}

/// The accumulated key/value state of a section.
#[derive(Debug, Clone)]
struct Section {
    rw: String,
    rwmixread: u8,
    bs: u64,
    size: u64,
    io_size: Option<u64>,
    offset: u64,
    numjobs: usize,
    iodepth: usize,
    rate_iops: Option<f64>,
    randseed: u64,
    fsync: Option<u64>,
}

impl Default for Section {
    fn default() -> Section {
        Section {
            rw: "read".to_string(),
            rwmixread: 50,
            bs: 4096,
            size: 64 << 20,
            io_size: None,
            offset: 0,
            numjobs: 1,
            iodepth: 1,
            rate_iops: None,
            randseed: 0x10_15_b0_0c,
            fsync: None,
        }
    }
}

impl Section {
    fn apply(&mut self, key: &str, value: &str, line: usize) -> Result<(), ParseFioError> {
        let bad_num = |e: std::num::ParseIntError| ParseFioError {
            line,
            message: format!("bad {key}: {e}"),
        };
        let size =
            |value: &str| parse_size(value).map_err(|message| ParseFioError { line, message });
        let queue_count = |value: &str| match value.parse::<u64>().map_err(bad_num)? {
            n if n > NVME_QUEUE_LIMIT => Err(ParseFioError {
                line,
                message: format!("bad {key}: {n} exceeds the NVMe limit of {NVME_QUEUE_LIMIT}"),
            }),
            n => Ok(to_index(n)),
        };
        match key {
            "rw" | "readwrite" => self.rw = value.to_string(),
            "rwmixread" => self.rwmixread = value.parse().map_err(bad_num)?,
            "bs" | "blocksize" => self.bs = size(value)?,
            "size" => self.size = size(value)?,
            "io_size" => self.io_size = Some(size(value)?),
            "offset" => self.offset = size(value)?,
            "numjobs" => self.numjobs = queue_count(value)?,
            "iodepth" => self.iodepth = queue_count(value)?,
            "rate_iops" => {
                self.rate_iops = Some(value.parse().map_err(|e| ParseFioError {
                    line,
                    message: format!("bad rate_iops: {e}"),
                })?);
            }
            "randseed" => self.randseed = value.parse().map_err(bad_num)?,
            "fsync" => self.fsync = Some(value.parse().map_err(bad_num)?),
            other => {
                return Err(ParseFioError {
                    line,
                    message: format!("unsupported key '{other}'"),
                })
            }
        }
        Ok(())
    }

    fn build(&self, line: usize) -> Result<FioJob, ParseFioError> {
        let pattern = match self.rw.as_str() {
            "read" => AccessPattern::SeqRead,
            "write" => AccessPattern::SeqWrite,
            "randread" => AccessPattern::RandRead,
            "randwrite" => AccessPattern::RandWrite,
            "randrw" | "rw" => AccessPattern::Mixed {
                read_percent: self.rwmixread,
            },
            other => {
                return Err(ParseFioError {
                    line,
                    message: format!("unsupported rw '{other}'"),
                })
            }
        };
        let volume = self.io_size.unwrap_or(self.size);
        let per_job = volume / self.numjobs.max(1) as u64;
        if per_job < self.bs {
            return Err(ParseFioError {
                line,
                message: format!(
                    "{volume} bytes over {} jobs issue no {}-byte request",
                    self.numjobs, self.bs
                ),
            });
        }
        let mut job = FioJob::new(pattern, self.bs)
            .threads(self.numjobs)
            .region(self.offset, self.size)
            .bytes_per_thread(per_job)
            .queue_depth(self.iodepth)
            .seed(self.randseed);
        if let Some(iops) = self.rate_iops {
            job = job.arrival_iops(iops);
        }
        if let Some(n) = self.fsync {
            if n > 0 {
                job = job.fsync_every(n);
            }
        }
        Ok(job)
    }
}

/// Parses a fio-style INI job file into named jobs, in file order.
/// `[global]` sections update the defaults inherited by later sections.
///
/// # Errors
///
/// Returns [`ParseFioError`] for syntax errors, unsupported keys or
/// unsupported values — loud failure beats silent divergence from fio.
pub fn parse_fio_jobs(text: &str) -> Result<Vec<NamedJob>, ParseFioError> {
    let mut global = Section::default();
    let mut jobs: Vec<NamedJob> = Vec::new();
    let mut current: Option<(String, Section, usize)> = None;

    for (idx, raw) in text.lines().enumerate() {
        let line = idx + 1;
        let body = raw.split(['#', ';']).next().unwrap_or("").trim();
        if body.is_empty() {
            continue;
        }
        if let Some(name) = body.strip_prefix('[').and_then(|b| b.strip_suffix(']')) {
            // Finish the previous section.
            if let Some((n, s, l)) = current.take() {
                jobs.push(NamedJob {
                    name: n,
                    job: s.build(l)?,
                });
            }
            if name == "global" {
                current = None; // keys now update the global defaults
            } else {
                current = Some((name.to_string(), global.clone(), line));
            }
            continue;
        }
        let (key, value) = body.split_once('=').ok_or_else(|| ParseFioError {
            line,
            message: format!("expected key=value, found '{body}'"),
        })?;
        let (key, value) = (key.trim(), value.trim());
        match current.as_mut() {
            Some((_, section, _)) => section.apply(key, value, line)?,
            None => global.apply(key, value, line)?,
        }
    }
    if let Some((n, s, l)) = current.take() {
        jobs.push(NamedJob {
            name: n,
            job: s.build(l)?,
        });
    }
    Ok(jobs)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_global_and_sections() {
        let text = "\
# the paper's Fig. 6(a) write job
[global]
bs=512k
size=256m

[seqwrite]
rw=write
numjobs=4

[randread]
rw=randread
bs=4k
iodepth=8
rate_iops=10000
";
        let jobs = parse_fio_jobs(text).unwrap();
        assert_eq!(jobs.len(), 2);
        assert_eq!(jobs[0].name, "seqwrite");
        assert_eq!(jobs[0].job.pattern, AccessPattern::SeqWrite);
        assert_eq!(jobs[0].job.block_bytes, 512 * 1024);
        assert_eq!(jobs[0].job.threads, 4);
        assert_eq!(jobs[0].job.bytes_per_thread, 64 << 20);
        assert_eq!(jobs[1].job.pattern, AccessPattern::RandRead);
        assert_eq!(jobs[1].job.block_bytes, 4096);
        assert_eq!(jobs[1].job.queue_depth, 8);
        assert_eq!(jobs[1].job.arrival_iops, Some(10_000.0));
    }

    #[test]
    fn randrw_uses_mix() {
        let jobs = parse_fio_jobs("[mix]\nrw=randrw\nrwmixread=70\n").unwrap();
        assert_eq!(
            jobs[0].job.pattern,
            AccessPattern::Mixed { read_percent: 70 }
        );
    }

    #[test]
    fn io_size_and_offset() {
        let jobs = parse_fio_jobs("[j]\nrw=read\noffset=16m\nsize=64m\nio_size=8m\n").unwrap();
        assert_eq!(jobs[0].job.region_offset, 16 << 20);
        assert_eq!(jobs[0].job.region_bytes, 64 << 20);
        assert_eq!(jobs[0].job.bytes_per_thread, 8 << 20);
    }

    #[test]
    fn errors_name_lines_and_keys() {
        let err = parse_fio_jobs("[j]\nnot a kv\n").unwrap_err();
        assert_eq!(err.line, 2);
        let err = parse_fio_jobs("[j]\nioengine=libaio\n").unwrap_err();
        assert!(err.message.contains("unsupported key"));
        let err = parse_fio_jobs("[j]\nrw=trimwrite\n").unwrap_err();
        assert!(err.message.contains("unsupported rw"));
        let err = parse_fio_jobs("[j]\nbs=12q\n").unwrap_err();
        assert!(err.message.contains("bad size"));
        let err = parse_fio_jobs("[j]\nrw=write\nsize=99999999999g\n").unwrap_err();
        assert_eq!((err.line, err.message.contains("bad size")), (3, true));
        let err = parse_fio_jobs("[j]\nrw=read\nnumjobs=65536\n").unwrap_err();
        assert_eq!((err.line, err.message.contains("NVMe limit")), (3, true));
        let err = parse_fio_jobs("[global]\niodepth=65536\n[j]\n").unwrap_err();
        assert_eq!((err.line, err.message.contains("NVMe limit")), (2, true));
        // 1 MiB over 65 535 jobs is 16 bytes each: not one 4 KiB request.
        let text = "[fill]\nrw=write\n\n[j]\nrw=randread\nsize=1m\nbs=4k\nnumjobs=65535\n";
        let err = parse_fio_jobs(text).unwrap_err();
        assert_eq!((err.line, err.message.contains("issue no")), (4, true));
    }

    #[test]
    fn comments_and_semicolons() {
        let jobs = parse_fio_jobs("; header\n[j] \nrw=read ; inline\nbs=8k # note\n");
        let jobs = jobs.unwrap_or_else(|e| panic!("{e}"));
        assert_eq!(jobs[0].job.block_bytes, 8192);
    }
}
