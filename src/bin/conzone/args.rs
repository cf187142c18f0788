//! Parse: the usage text, the flag parser and every `--flag` → typed value
//! conversion. Nothing here touches a device.

use conzone::host::{parse_size, AccessPattern, QdOptions, NVME_QUEUE_LIMIT};
use conzone::types::{
    to_index, DeviceConfig, FaultConfig, Geometry, MapGranularity, SearchStrategy, SimDuration,
};
use conzone::ArbiterKind;

/// The help text, and the flag vocabulary: [`Args::parse`] rejects any
/// `--key` that is not a whole token of this string.
pub const USAGE: &str = "\
conzone — zoned flash storage emulator for consumer devices

usage:
  conzone info      [--config paper|tiny] [--strategy ...] [--cache 12k]
  conzone zones     [--config paper|tiny] [--conventional 2]
  conzone run       [--job file.fio] [--device conzone|legacy|femu]
                    [--pattern seqwrite|seqread|randread|randwrite|mixedNN]
                    [--bs 512k] [--threads 4] [--size 256m] [--region 1g] [--seed N]
                    [--strategy bitmap|multiple|pinned] [--aggregation page|chunk|zone]
                    [--cache 12k] [--buffers 2] [--l2p-log 4096] [--conventional 2]
                    [--trace-out events.json] [--metrics-out metrics.jsonl]
                    [--span-out spans.json|spans.jsonl] [--heatmap]
                    [--metrics-interval 100ms] [--stats-json]
                    [--fault-seed N] [--fault-rates 0.01,0.001,0.05]
                    [--power-cut-at 400us]
                    [--qd 8] [--tenants 2] [--tenant-weights 3,1]
                    [--arbiter rr|wrr] [--fetch-cost 25us]
  conzone scenario  qd-sweep     [--bs 4k] [--region 4m] [--ops 512] [--csv sweep.csv]
  conzone scenario  interference [--qd 8] [--tenant-weights 3,1] [--arbiter rr|wrr]
                                 [--fetch-cost 25us] [--stats-json]
  conzone scenario  mixed        [--qd 8] [--region 8m] [--stats-json]
  conzone scenario  flash-cache  [--qd 16] [--region 8m] [--stats-json]
  conzone replay    <trace-file> [--device conzone|femu] [--open-loop]
  conzone gen-trace [--preset mobile|boot|app-install|camera-burst|social-scroll]
                    [--config paper|tiny] [--seed N] [--out trace.txt]
";

/// Parses "100ms", "1s", "50us", "7500ns" or plain nanoseconds.
pub fn parse_duration(s: &str) -> Result<SimDuration, String> {
    let s = s.trim();
    let (digits, unit) = match s {
        _ if s.ends_with("ns") => (&s[..s.len() - 2], 1u64),
        _ if s.ends_with("us") => (&s[..s.len() - 2], 1_000),
        _ if s.ends_with("ms") => (&s[..s.len() - 2], 1_000_000),
        _ if s.ends_with('s') => (&s[..s.len() - 1], 1_000_000_000),
        _ => (s, 1),
    };
    let v: u64 = digits
        .trim()
        .parse()
        .map_err(|e| format!("bad duration '{s}': {e}"))?;
    if v == 0 {
        return Err(format!("bad duration '{s}': must be > 0"));
    }
    v.checked_mul(unit)
        .map(SimDuration::from_nanos)
        .ok_or_else(|| format!("bad duration '{s}': more than {} ns", u64::MAX))
}

/// Minimal flag parser: `--key value` pairs plus positional arguments.
#[derive(Debug, Default, Clone)]
pub struct Args {
    pub positional: Vec<String>,
    flags: Vec<(String, String)>,
    switches: Vec<String>,
}

impl Args {
    pub fn parse(argv: &[String]) -> Result<Args, String> {
        let mut args = Args::default();
        let mut it = argv.iter().peekable();
        while let Some(a) = it.next() {
            let Some(key) = a.strip_prefix("--") else {
                args.positional.push(a.clone());
                continue;
            };
            // A flag nobody reads is a typo, not a no-op.
            if !USAGE
                .split(|c: char| !(c.is_ascii_alphanumeric() || c == '-'))
                .any(|token| token == a)
            {
                return Err(format!("unknown flag '{a}'"));
            }
            match it.next_if(|v| !v.starts_with("--")) {
                Some(v) => args.flags.push((key.to_string(), v.clone())),
                None => args.switches.push(key.to_string()),
            }
        }
        Ok(args)
    }

    pub fn get(&self, key: &str) -> Option<&str> {
        self.flags
            .iter()
            .rev()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    pub fn has(&self, key: &str) -> bool {
        self.switches.iter().any(|s| s == key)
    }

    /// A copy with `--key` defaulted to `default` — how scenarios differ
    /// from `run` in their defaults while sharing its parsers.
    pub fn with_default(&self, key: &str, default: &str) -> Args {
        let mut out = self.clone();
        if out.get(key).is_none() {
            out.flags.push((key.to_string(), default.to_string()));
        }
        out
    }

    pub fn size(&self, key: &str, default: u64) -> Result<u64, String> {
        match self.get(key) {
            Some(v) => parse_size(v),
            None => Ok(default),
        }
    }

    pub fn num(&self, key: &str, default: u64) -> Result<u64, String> {
        match self.get(key) {
            Some(v) => v.parse().map_err(|e| format!("bad --{key}: {e}")),
            None => Ok(default),
        }
    }

    pub fn duration(&self, key: &str) -> Result<Option<SimDuration>, String> {
        self.get(key).map(parse_duration).transpose()
    }

    /// `--qd`, `--tenants` and `--threads` (a thread is one submitter):
    /// each fits NVMe's 16-bit queue fields. Their product is bounded by
    /// the host library, where the state sized by it is allocated.
    pub fn queue_count(&self, key: &str, default: u64) -> Result<usize, String> {
        let v = self.num(key, default)?;
        if v > NVME_QUEUE_LIMIT {
            return Err(format!(
                "bad --{key}: {v} exceeds the NVMe limit of {NVME_QUEUE_LIMIT}"
            ));
        }
        Ok(to_index(v))
    }
}

pub fn build_config(args: &Args) -> Result<DeviceConfig, String> {
    let geometry = match args.get("config").unwrap_or("paper") {
        "paper" => Geometry::consumer_1p5gb(),
        "tiny" => Geometry::tiny(),
        other => return Err(format!("unknown --config '{other}' (paper|tiny)")),
    };
    let strategy = match args.get("strategy").unwrap_or("bitmap") {
        "bitmap" => SearchStrategy::Bitmap,
        "multiple" => SearchStrategy::Multiple,
        "pinned" => SearchStrategy::Pinned,
        other => return Err(format!("unknown --strategy '{other}'")),
    };
    let aggregation = match args.get("aggregation").unwrap_or("zone") {
        "page" => MapGranularity::Page,
        "chunk" => MapGranularity::Chunk,
        "zone" => MapGranularity::Zone,
        other => return Err(format!("unknown --aggregation '{other}'")),
    };
    let mut builder = DeviceConfig::builder(geometry)
        .search_strategy(strategy)
        .max_aggregation(aggregation)
        .l2p_cache_bytes(args.size("cache", 12 * 1024)?)
        .write_buffers(
            usize::try_from(args.num("buffers", 2)?).map_err(|e| format!("bad --buffers: {e}"))?,
        )
        .seed(args.num("seed", 0x5eed_c0de)?);
    if args.get("config") == Some("tiny") {
        builder = builder.chunk_bytes(256 * 1024);
    }
    if let Some(v) = args.get("l2p-log") {
        builder = builder.l2p_log_entries(parse_size(v)?);
    }
    if let Some(v) = args.get("conventional") {
        builder =
            builder.conventional_zones(v.parse().map_err(|e| format!("bad --conventional: {e}"))?);
    }
    if let Some(fault) = parse_fault(args)? {
        builder = builder.fault(fault);
    }
    builder.build().map_err(|e| e.to_string())
}

/// Builds the fault-plane configuration from `--fault-rates P,E,R`
/// (program-fail, erase-fail, read-retry probabilities) and
/// `--fault-seed N`. Returns `None` when neither flag is present, so the
/// default zero-rate plane (bit-identical to a fault-free build) is kept.
fn parse_fault(args: &Args) -> Result<Option<FaultConfig>, String> {
    let rates = args.get("fault-rates");
    let seed = args.get("fault-seed");
    if rates.is_none() && seed.is_none() {
        return Ok(None);
    }
    let mut fault = match rates {
        Some(v) => {
            let parts: Vec<&str> = v.split(',').map(str::trim).collect();
            if parts.len() != 3 {
                return Err(format!(
                    "bad --fault-rates '{v}': expected program,erase,read-retry"
                ));
            }
            let mut p = [0.0f64; 3];
            for (slot, part) in p.iter_mut().zip(&parts) {
                *slot = part
                    .parse()
                    .map_err(|e| format!("bad --fault-rates '{v}': {e}"))?;
            }
            FaultConfig::with_rates(p[0], p[1], p[2])
        }
        None => FaultConfig::default(),
    };
    if let Some(v) = seed {
        fault.seed = v.parse().map_err(|e| format!("bad --fault-seed: {e}"))?;
    }
    Ok(Some(fault))
}

pub fn parse_pattern(args: &Args) -> Result<AccessPattern, String> {
    match args.get("pattern").unwrap_or("seqwrite") {
        "seqwrite" => Ok(AccessPattern::SeqWrite),
        "seqread" => Ok(AccessPattern::SeqRead),
        "randread" => Ok(AccessPattern::RandRead),
        "randwrite" => Ok(AccessPattern::RandWrite),
        other => match other.strip_prefix("mixed") {
            // e.g. --pattern mixed70 = 70 % reads (fio rwmixread=70).
            Some(pct) => Ok(AccessPattern::Mixed {
                read_percent: pct
                    .parse::<u8>()
                    .ok()
                    .filter(|p| *p <= 100)
                    .ok_or_else(|| format!("bad mixed percentage in '{other}'"))?,
            }),
            None => Err(format!("unknown --pattern '{other}'")),
        },
    }
}

/// The queue front end `--fetch-cost 25us` (free when absent) and
/// `--arbiter rr|wrr` describe, with no instruments attached.
pub fn parse_qd_options(args: &Args) -> Result<QdOptions, String> {
    Ok(QdOptions {
        fetch_cost: args.duration("fetch-cost")?.unwrap_or(SimDuration::ZERO),
        arbiter: match args.get("arbiter").unwrap_or("rr") {
            "rr" | "round-robin" => ArbiterKind::RoundRobin,
            "wrr" | "weighted" => ArbiterKind::Weighted,
            other => return Err(format!("unknown --arbiter '{other}' (rr|wrr)")),
        },
        ..QdOptions::default()
    })
}

/// Parses `--tenant-weights 3,1` into exactly one weight per tenant;
/// every tenant weighs 1 when the flag is absent.
pub fn parse_tenant_weights(args: &Args, tenants: usize) -> Result<Vec<u32>, String> {
    let Some(v) = args.get("tenant-weights") else {
        return Ok(vec![1; tenants]);
    };
    let weights = v
        .split(',')
        .map(|p| p.trim().parse::<u32>())
        .collect::<Result<Vec<u32>, _>>()
        .map_err(|e| format!("bad --tenant-weights '{v}': {e}"))?;
    if weights.len() != tenants {
        return Err(format!(
            "--tenant-weights lists {} weights for {tenants} tenants",
            weights.len()
        ));
    }
    Ok(weights)
}

/// Test helpers shared by every module's tests: parse a literal argv, or
/// a command line split at whitespace.
#[cfg(test)]
pub fn args(list: &[&str]) -> Args {
    Args::parse(&list.iter().map(|s| s.to_string()).collect::<Vec<_>>()).unwrap()
}
#[cfg(test)]
pub fn cli(line: &str) -> Args {
    args(&line.split_whitespace().collect::<Vec<_>>())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_sizes() {
        assert_eq!(parse_size("4096").unwrap(), 4096);
        assert_eq!(parse_size("4k").unwrap(), 4096);
        assert_eq!(parse_size("512K").unwrap(), 512 * 1024);
        assert_eq!(parse_size("16m").unwrap(), 16 << 20);
        assert_eq!(parse_size("1G").unwrap(), 1 << 30);
        assert!(parse_size("x").is_err());
        assert!(parse_size("4q").is_err());
        assert!(parse_size("17179869184g").is_err(), "2^64 bytes");
        assert_eq!(
            parse_size("17179869183g").unwrap(),
            u64::MAX - (1 << 30) + 1
        );
    }

    #[test]
    fn parse_durations() {
        assert_eq!(
            parse_duration("100ms").unwrap(),
            SimDuration::from_millis(100)
        );
        assert_eq!(parse_duration("2s").unwrap(), SimDuration::from_secs(2));
        assert_eq!(
            parse_duration("50us").unwrap(),
            SimDuration::from_micros(50)
        );
        assert_eq!(
            parse_duration("750ns").unwrap(),
            SimDuration::from_nanos(750)
        );
        assert_eq!(parse_duration("123").unwrap(), SimDuration::from_nanos(123));
        assert!(parse_duration("0ms").is_err());
        assert!(parse_duration("fast").is_err());
        assert!(parse_duration("18446744074s").is_err(), "past u64 ns");
    }

    #[test]
    fn flag_parsing() {
        let a = args(&["run", "--bs", "4k", "--open-loop", "--device", "femu"]);
        assert_eq!(a.positional, vec!["run"]);
        assert_eq!(a.get("bs"), Some("4k"));
        assert_eq!(a.get("device"), Some("femu"));
        assert!(a.has("open-loop"));
        assert!(!a.has("bs"));
        assert_eq!(a.size("bs", 0).unwrap(), 4096);
        assert_eq!(a.num("threads", 3).unwrap(), 3);
    }

    #[test]
    fn last_flag_wins() {
        let a = args(&["run", "--bs", "4k", "--bs", "8k"]);
        assert_eq!(a.size("bs", 0).unwrap(), 8192);
    }

    #[test]
    fn flags_outside_the_usage_text_are_rejected() {
        let parse =
            |list: &[&str]| Args::parse(&list.iter().map(|s| s.to_string()).collect::<Vec<_>>());
        // A typo, a prefix of a real flag, a real flag with a suffix.
        for bad in ["--patern", "--q", "--qdx", "--", "--config|tiny"] {
            let err = parse(&["run", bad, "4"]).unwrap_err();
            assert_eq!(err, format!("unknown flag '{bad}'"));
        }
        assert!(parse(&["run", "--qd", "4", "--stats-json", "--seed", "1"]).is_ok());
    }

    #[test]
    fn config_builds_for_both_presets() {
        assert!(build_config(&args(&["info"])).is_ok());
        assert!(build_config(&args(&["info", "--config", "tiny"])).is_ok());
        assert!(build_config(&args(&["info", "--config", "nope"])).is_err());
        let cfg = build_config(&args(&[
            "info",
            "--strategy",
            "pinned",
            "--aggregation",
            "chunk",
            "--cache",
            "1k",
            "--conventional",
            "2",
        ]))
        .unwrap();
        assert_eq!(cfg.search_strategy, SearchStrategy::Pinned);
        assert_eq!(cfg.max_aggregation, MapGranularity::Chunk);
        assert_eq!(cfg.l2p_cache_entries(), 256);
        assert_eq!(cfg.conventional_zones, 2);
    }

    #[test]
    fn fault_flags_configure_the_plane() {
        // Without fault flags the default zero-rate plane is kept.
        let cfg = build_config(&args(&["info", "--config", "tiny"])).unwrap();
        assert!(!cfg.fault.enabled());

        let cfg = build_config(&args(&[
            "info",
            "--config",
            "tiny",
            "--fault-rates",
            "0.1, 0.02, 0.3",
            "--fault-seed",
            "42",
        ]))
        .unwrap();
        assert_eq!(cfg.fault.program_fail_rate, 0.1);
        assert_eq!(cfg.fault.erase_fail_rate, 0.02);
        assert_eq!(cfg.fault.read_retry_rate, 0.3);
        assert_eq!(cfg.fault.seed, 42);

        // A seed alone re-seeds the default (disabled) plane.
        let cfg = build_config(&args(&["info", "--config", "tiny", "--fault-seed", "9"])).unwrap();
        assert!(!cfg.fault.enabled());
        assert_eq!(cfg.fault.seed, 9);

        // Malformed triples and out-of-range rates are rejected.
        assert!(build_config(&args(&["info", "--fault-rates", "0.1,0.2"])).is_err());
        assert!(build_config(&args(&["info", "--fault-rates", "0.1,x,0.3"])).is_err());
        assert!(build_config(&args(&["info", "--fault-rates", "1.5,0,0"])).is_err());
    }
}
