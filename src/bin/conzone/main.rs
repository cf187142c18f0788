//! The `conzone` command-line tool: run workloads, replay traces and
//! inspect device configurations without writing Rust. `conzone help`
//! prints the commands and flags.
//!
//! * `args` parses: the usage text is the flag vocabulary;
//! * `run` owns the device under test (`Dut`) and the `run` pipeline;
//! * `report` owns every stats-JSON and text format;
//! * `scenario` composes tenant sets on top of `run`'s device handling.

// The truncating-cast ban of the member crates (see `src/lib.rs`).
#![cfg_attr(not(test), warn(clippy::cast_possible_truncation))]

mod args;
mod report;
mod run;
mod scenario;

use std::process::ExitCode;

use conzone::host::{replay_trace, Trace, WorkloadPreset};
use conzone::types::{
    IoRequest, SimTime, StorageDevice, ZoneId, ZonedDevice, CHANNEL_BYTES_PER_SEC, MAPPING_MEDIA,
};

use crate::args::{build_config, Args, USAGE};
use crate::report::{emit, Extras, Report};
use crate::run::{cmd_run, Dut};
use crate::scenario::cmd_scenario;

fn cmd_info(args: &Args) -> Result<(), String> {
    let cfg = build_config(args)?;
    let g = &cfg.geometry;
    println!(
        "geometry : {} ch x {} chips, {} blocks/chip ({} SLC), {} pages/block",
        g.channels,
        g.chips_per_channel,
        g.blocks_per_chip,
        g.slc_blocks_per_chip,
        g.pages_per_block
    );
    println!(
        "media    : {} normal region, {} mapping media, {} MiB/s per channel",
        cfg.normal_cell,
        MAPPING_MEDIA,
        CHANNEL_BYTES_PER_SEC >> 20
    );
    println!(
        "zones    : {} x {} MiB (backing {} MiB, patch {} KiB)",
        cfg.zone_count(),
        cfg.zone_size_bytes() >> 20,
        cfg.zone_backing_bytes() >> 20,
        cfg.zone_patch_slices() * 4
    );
    println!(
        "buffers  : {} x {} KiB superpage write buffers",
        cfg.write_buffers,
        g.superpage_bytes() >> 10
    );
    println!(
        "l2p      : {} entry cache ({} KiB), {} strategy, {} max aggregation",
        cfg.l2p_cache_entries(),
        cfg.l2p_cache_bytes >> 10,
        cfg.search_strategy,
        cfg.max_aggregation
    );
    println!("capacity : {} MiB logical", cfg.capacity_bytes() >> 20);
    if cfg.conventional_zones > 0 {
        println!("conv     : {} conventional zones", cfg.conventional_zones);
    }
    if cfg.l2p_log_entries > 0 {
        println!("l2p log  : flush every {} updates", cfg.l2p_log_entries);
    }
    Ok(())
}

fn cmd_replay(args: &Args) -> Result<(), String> {
    let path = args
        .positional
        .get(1)
        .ok_or("usage: conzone replay <trace-file>")?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let trace = Trace::parse(&text).map_err(|e| e.to_string())?;
    println!(
        "replaying {} ops ({:.1} MiB) from {path}",
        trace.len(),
        trace.total_bytes() as f64 / (1 << 20) as f64
    );
    let mut dut = Dut::from_args(args, build_config(args)?)?;
    let model = dut.dev().model_name();
    let dev = dut
        .zoned_dev()
        .ok_or_else(|| format!("replay supports zoned devices only, not '{model}'"))?;
    let report = replay_trace(dev, &trace, SimTime::ZERO, args.has("open-loop"))
        .map_err(|e| e.to_string())?;
    emit(false, &Report::Job(report), Extras::default());
    Ok(())
}

/// Writes a little data into a fresh device and prints the zone map —
/// a demonstration of zone states more than a tool, but handy for
/// sanity-checking a configuration.
fn cmd_zones(args: &Args) -> Result<(), String> {
    let cfg = build_config(args)?;
    let conventional = cfg.conventional_zones;
    let mut dut = Dut::from_args(args, cfg)?;
    let dev = dut
        .conzone()
        .ok_or("zones shows the ConZone zone map only")?;
    // Touch a few zones so the map shows something.
    let zs = dev.zone_size();
    let first_seq = conventional as u64;
    let mut t = SimTime::ZERO;
    for (i, len) in [(first_seq, zs), (first_seq + 1, 64 * 1024)] {
        let mut off = i * zs;
        let mut left = len;
        while left > 0 {
            let chunk = left.min(512 * 1024);
            t = dev
                .submit(t, &IoRequest::write(off, chunk))
                .map_err(|e| e.to_string())?
                .finished;
            off += chunk;
            left -= chunk;
        }
    }
    dev.finish_zone(t, ZoneId(first_seq + 2))
        .map_err(|e| e.to_string())?;
    println!("zone  type          state   wp (KiB)  size (MiB)");
    for z in 0..dev.zone_count() as u64 {
        let info = dev.zone_info(ZoneId(z)).map_err(|e| e.to_string())?;
        let kind = if z < conventional as u64 {
            "conventional"
        } else {
            "sequential"
        };
        println!(
            "{z:>4}  {kind:<12}  {:<6}  {:>8}  {:>10}",
            format!("{:?}", info.state),
            info.write_pointer >> 10,
            info.size >> 20
        );
        if z >= first_seq + 3 && z + 2 < dev.zone_count() as u64 {
            println!(
                "  ...  ({} more empty zones)",
                dev.zone_count() as u64 - z - 1
            );
            break;
        }
    }
    Ok(())
}

fn cmd_gen_trace(args: &Args) -> Result<(), String> {
    let cfg = build_config(args)?;
    let name = args.get("preset").unwrap_or(WorkloadPreset::Mobile.name());
    let preset = WorkloadPreset::from_name(name).ok_or_else(|| {
        format!(
            "unknown --preset '{name}' (expected one of: {})",
            WorkloadPreset::ALL
                .iter()
                .map(|p| p.name())
                .collect::<Vec<_>>()
                .join(", ")
        )
    })?;
    let trace = preset.build(
        cfg.zone_size_bytes(),
        cfg.zone_count() as u64,
        args.num("seed", 7)?,
    );
    let text = trace.to_text();
    match args.get("out") {
        Some(path) => {
            std::fs::write(path, text).map_err(|e| format!("{path}: {e}"))?;
            println!("wrote {} ops to {path}", trace.len());
        }
        None => print!("{text}"),
    }
    Ok(())
}

fn dispatch(args: &Args) -> Result<(), String> {
    match args.positional.first().map(String::as_str) {
        Some("info") => cmd_info(args),
        Some("zones") => cmd_zones(args),
        Some("run") => cmd_run(args),
        Some("scenario") => cmd_scenario(args),
        Some("replay") => cmd_replay(args),
        Some("gen-trace") => cmd_gen_trace(args),
        Some("help") | None => {
            print!("{USAGE}");
            Ok(())
        }
        Some(other) => Err(format!("unknown command '{other}'\n\n{USAGE}")),
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match Args::parse(&argv).and_then(|args| dispatch(&args)) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::args::args;

    #[test]
    fn gen_and_replay_roundtrip() {
        let dir = std::env::temp_dir().join("conzone-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("trace.txt");
        let path_str = path.to_str().unwrap();
        let a = args(&["gen-trace", "--config", "tiny", "--out", path_str]);
        cmd_gen_trace(&a).expect("gen ok");
        let a = args(&["replay", path_str, "--config", "tiny"]);
        cmd_replay(&a).expect("replay ok");
        std::fs::remove_file(path).ok();
    }

    /// Every command line in the README is in the CLI's vocabulary, so a
    /// flag that leaves the usage text leaves the README too.
    #[test]
    fn readme_command_lines_parse() {
        let readme = include_str!("../../../README.md").replace("\\\n", " ");
        let lines: Vec<Vec<String>> = readme
            .split("conzone -- ")
            .skip(1)
            .map(|rest| {
                let line = rest.split(['\n', '>', '#']).next().unwrap_or_default();
                line.split_whitespace().map(str::to_string).collect()
            })
            .collect();
        assert!(lines.len() >= 10, "{} command lines", lines.len());
        for argv in lines {
            Args::parse(&argv).unwrap_or_else(|e| panic!("{argv:?}: {e}"));
        }
    }
}
