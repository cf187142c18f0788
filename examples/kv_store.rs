//! A log-structured key-value store on the full stack: application →
//! F2FS-like file system → ConZone device.
//!
//! The paper's pitch is that "applications and file systems can regard
//! ConZone as a common storage device" (§I). This example builds a small
//! KV store whose values live in F2FS-lite files, runs a zipf-skewed
//! GET/PUT mix, and reports how application-level operations decompose
//! into file-system and device behaviour.
//!
//! ```sh
//! cargo run --release --example kv_store
//! ```

use std::collections::BTreeMap;

use conzone::host::{F2fsLite, Temperature};
use conzone::sim::{LatencyHistogram, SimRng};
use conzone::types::{DeviceConfig, Geometry, IoRequest, SimTime, StorageDevice};
use conzone::ConZone;

/// Values are stored in per-key file blocks: key → (file, block index).
struct KvStore {
    fs: F2fsLite,
    index: BTreeMap<u64, (u64, u64)>,
    /// Blocks per value.
    value_blocks: u64,
    next_file: u64,
    blocks_in_file: u64,
    /// Values per file before rotating to a fresh one.
    file_capacity: u64,
}

impl KvStore {
    fn new(dev: &ConZone) -> KvStore {
        KvStore {
            fs: F2fsLite::with_conventional_metadata(dev, 2),
            index: BTreeMap::new(),
            value_blocks: 4, // 16 KiB values
            next_file: 0,
            blocks_in_file: 0,
            file_capacity: 512, // 8 MiB files
        }
    }

    fn put(
        &mut self,
        dev: &mut ConZone,
        t: SimTime,
        key: u64,
        hot: bool,
    ) -> Result<SimTime, conzone::types::DeviceError> {
        let temp = if hot {
            Temperature::Hot
        } else {
            Temperature::Warm
        };
        // Updates rewrite the key's existing file range (the FS stales the
        // old blocks and appends new ones — log-structured semantics);
        // fresh keys take the next slot of the current file.
        let (file, block) = match self.index.get(&key) {
            Some(&slot) => slot,
            None => {
                if self.blocks_in_file + self.value_blocks > self.file_capacity * self.value_blocks
                {
                    self.next_file += 1;
                    self.blocks_in_file = 0;
                }
                let slot = (self.next_file, self.blocks_in_file);
                self.blocks_in_file += self.value_blocks;
                slot
            }
        };
        let t = self
            .fs
            .write_file(dev, t, file, block, self.value_blocks, temp)?;
        self.index.insert(key, (file, block));
        Ok(t)
    }

    fn get(
        &mut self,
        dev: &mut ConZone,
        t: SimTime,
        key: u64,
    ) -> Result<Option<SimTime>, conzone::types::DeviceError> {
        let Some(&(file, block)) = self.index.get(&key) else {
            return Ok(None);
        };
        let mut t = t;
        for b in block..block + self.value_blocks {
            let Some(lpn) = self.fs.locate(file, b) else {
                return Ok(None);
            };
            let c = dev.submit(t, &IoRequest::read(lpn * 4096, 4096))?;
            t = c.finished;
        }
        Ok(Some(t))
    }
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut geometry = Geometry::consumer_1p5gb();
    geometry.blocks_per_chip = 20; // 12 zones: tight enough to clean
    let mut dev = ConZone::new(
        DeviceConfig::builder(geometry)
            .conventional_zones(2)
            .max_open_zones(8)
            .build()?,
    );
    let mut kv = KvStore::new(&dev);
    let mut rng = SimRng::new(0x5707e);
    let mut t = SimTime::ZERO;

    // Load 4096 keys, then run a zipf-skewed 80/20 GET/PUT mix.
    const KEYS: u64 = 4096;
    for key in 0..KEYS {
        t = kv.put(&mut dev, t, key, false)?;
    }
    let load_done = t;

    let mut get_lat = LatencyHistogram::new();
    let mut put_lat = LatencyHistogram::new();
    let (mut gets, mut puts) = (0u64, 0u64);
    for _ in 0..60_000 {
        // Approximate zipf: bias toward low key ids by squaring.
        let u = rng.f64();
        let key = ((u * u) * KEYS as f64) as u64;
        let start = t;
        if rng.chance(0.8) {
            if let Some(t2) = kv.get(&mut dev, t, key)? {
                t = t2;
                get_lat.record(t - start);
                gets += 1;
            }
        } else {
            t = kv.put(&mut dev, t, key, true)?;
            put_lat.record(t - start);
            puts += 1;
        }
    }

    let c = dev.counters();
    let fs = kv.fs.stats();
    println!("kv store on ConZone (via f2fs-lite, metadata in conventional zones)\n");
    println!(
        "load phase : {KEYS} x 16 KiB values in {:.3} s",
        load_done.as_secs_f64()
    );
    println!(
        "mix phase  : {gets} GETs ({}), {puts} PUTs ({}) in {:.3} s",
        get_lat.summary().p99,
        put_lat.summary().p99,
        (t - load_done).as_secs_f64()
    );
    println!("\napplication view      file-system view        device view");
    println!(
        "GET p50 {:>8}      cleanings   {:>6}      l2p miss   {:>5.1}%",
        get_lat.quantile(0.5),
        fs.cleanings,
        c.l2p_miss_rate() * 100.0
    );
    println!(
        "GET p99 {:>8}      migrated MiB {:>5}      conflicts  {:>6}",
        get_lat.quantile(0.99),
        (fs.migrated_blocks * 4096) >> 20,
        c.buffer_conflicts
    );
    println!(
        "PUT p50 {:>8}      node writes {:>6}      waf        {:>6.3}",
        put_lat.quantile(0.5),
        fs.node_blocks,
        c.write_amplification()
    );
    println!(
        "PUT p99 {:>8}      zone resets {:>6}      gc runs    {:>6}",
        put_lat.quantile(0.99),
        fs.zone_resets,
        c.gc_runs
    );
    println!("\ndevice time: {}", dev.time_breakdown());
    Ok(())
}

#[test]
fn runs() {
    main().expect("kv_store runs");
}
