//! A miniature F2FS-like log-structured allocator.
//!
//! Consumer devices run F2FS on top of zoned storage (paper §I/§II-B):
//! the file system keeps up to six logs open simultaneously — hot / warm /
//! cold, each for data and node (metadata) blocks — writes each log
//! strictly sequentially into its own zone, and reclaims space by
//! migrating live blocks out of a victim zone and resetting it.
//!
//! `F2fsLite` reproduces exactly that access pattern so the
//! `conventional_zones` figure and the `kv_store` example can exercise the
//! write-buffer pressure the paper's §II-B arithmetic describes (six open
//! zones sharing two device write buffers).

use std::collections::{BTreeMap, VecDeque};

use conzone_types::{to_index, DeviceError, IoRequest, SimTime, ZoneId, ZonedDevice, SLICE_BYTES};

/// Data temperature, following F2FS's hot/warm/cold separation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Temperature {
    /// Frequently updated data (directory blocks, small overwrites).
    Hot,
    /// Ordinary file data.
    Warm,
    /// Write-once data (media files, GC migrations).
    Cold,
}

/// The six F2FS logs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum LogKind {
    Data(Temperature),
    Node(Temperature),
}

const LOG_ORDER: [LogKind; 6] = [
    LogKind::Data(Temperature::Hot),
    LogKind::Data(Temperature::Warm),
    LogKind::Data(Temperature::Cold),
    LogKind::Node(Temperature::Hot),
    LogKind::Node(Temperature::Warm),
    LogKind::Node(Temperature::Cold),
];

fn log_index(kind: LogKind) -> usize {
    LOG_ORDER
        .iter()
        .position(|k| *k == kind)
        .expect("known log")
}

#[derive(Debug, Clone, Copy)]
struct LogCursor {
    zone: u64,
    wp_slices: u64,
}

/// Aggregate statistics of the allocator.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct F2fsStats {
    /// Data blocks written on behalf of files.
    pub data_blocks: u64,
    /// Node (metadata) blocks written.
    pub node_blocks: u64,
    /// Segment-cleaning passes.
    pub cleanings: u64,
    /// Live blocks migrated by cleaning.
    pub migrated_blocks: u64,
    /// Zones reset.
    pub zone_resets: u64,
}

/// Sentinel block index marking a node block in the owner map.
const NODE_BLOCK: u64 = u64::MAX;

/// The F2FS-like allocator. Drives any [`ZonedDevice`].
#[derive(Debug)]
pub struct F2fsLite {
    zone_slices: u64,
    nzones: u64,
    logs: [Option<LogCursor>; 6],
    free_zones: VecDeque<u64>,
    /// file → logical block index → device slice address.
    files: BTreeMap<u64, BTreeMap<u64, u64>>,
    /// file → node block device slices.
    nodes: BTreeMap<u64, Vec<u64>>,
    /// device slice → (file, block index or NODE_BLOCK).
    owners: BTreeMap<u64, (u64, u64)>,
    /// live slices per zone.
    zone_live: Vec<u64>,
    /// written slices per zone (from this allocator's perspective).
    zone_written: Vec<u64>,
    /// one node block per this many data blocks.
    node_interval: u64,
    pending_node: [u64; 6],
    /// Guards against recursive cleaning while cleaning's own migration
    /// writes allocate space.
    cleaning: bool,
    /// When set, node blocks live as in-place slots inside the device's
    /// first `n` conventional zones (paper §III-E: "updating the metadata
    /// of F2FS") instead of flowing through the node logs.
    conventional_meta_zones: Option<u64>,
    /// file → its node slot, numbered in order of first use.
    node_slots: BTreeMap<u64, u64>,
    stats: F2fsStats,
}

impl F2fsLite {
    /// Creates an allocator spanning every zone of the device.
    pub fn new<D: ZonedDevice + ?Sized>(dev: &D) -> F2fsLite {
        let zone_bytes = dev.zone_size();
        let nzones = dev.zone_count() as u64;
        F2fsLite {
            zone_slices: zone_bytes / SLICE_BYTES,
            nzones,
            logs: [None; 6],
            free_zones: (0..nzones).collect(),
            files: BTreeMap::new(),
            nodes: BTreeMap::new(),
            owners: BTreeMap::new(),
            zone_live: vec![0; to_index(nzones)],
            zone_written: vec![0; to_index(nzones)],
            node_interval: 64,
            pending_node: [0; 6],
            cleaning: false,
            conventional_meta_zones: None,
            node_slots: BTreeMap::new(),
            stats: F2fsStats::default(),
        }
    }

    /// Creates an allocator that keeps node (metadata) blocks as in-place
    /// slots inside the device's first `meta_zones` conventional zones —
    /// the §III-E metadata use case. The device must be configured with
    /// at least that many [`conventional_zones`]; the data logs use the
    /// remaining sequential zones.
    ///
    /// # Panics
    ///
    /// Panics if `meta_zones` is zero or covers every zone.
    ///
    /// [`conventional_zones`]: conzone_types::DeviceConfig::conventional_zones
    pub fn with_conventional_metadata<D: ZonedDevice + ?Sized>(
        dev: &D,
        meta_zones: u64,
    ) -> F2fsLite {
        let nzones = dev.zone_count() as u64;
        assert!(meta_zones > 0 && meta_zones < nzones);
        let mut fs = F2fsLite::new(dev);
        fs.conventional_meta_zones = Some(meta_zones);
        fs.free_zones = (meta_zones..nzones).collect();
        fs
    }

    /// Statistics so far.
    pub fn stats(&self) -> F2fsStats {
        self.stats
    }

    fn zone_is_log_active(&self, zone: u64) -> bool {
        // Only a zone the log is still writing into is protected; a full
        // zone that a log merely last touched is a normal cleaning victim.
        self.logs
            .iter()
            .flatten()
            .any(|c| c.zone == zone && c.wp_slices < self.zone_slices)
    }

    /// Takes the next slice of a log, opening a new zone when needed.
    fn alloc_slice<D: ZonedDevice + ?Sized>(
        &mut self,
        dev: &mut D,
        now: SimTime,
        log: usize,
    ) -> Result<(u64, SimTime), DeviceError> {
        let mut t = now;
        let needs_zone = match self.logs[log] {
            Some(c) => c.wp_slices == self.zone_slices,
            None => true,
        };
        if needs_zone {
            // Keep a small reserve so cleaning's own cold-log destinations
            // (data + node) always find zones; clean until the reserve is
            // restored or nothing reclaimable remains.
            while self.free_zones.len() < 3 && !self.cleaning {
                match self.clean(dev, t) {
                    Ok(t2) => t = t2,
                    Err(e) if self.free_zones.is_empty() => return Err(e),
                    Err(_) => break,
                }
            }
            let zone = self
                .free_zones
                .pop_front()
                .ok_or_else(|| DeviceError::NoFreeSpace {
                    at: t,
                    what: "f2fs-lite out of free zones".to_string(),
                })?;
            self.logs[log] = Some(LogCursor { zone, wp_slices: 0 });
        }
        let cursor = self.logs[log].as_mut().expect("log opened above");
        let lpn = cursor.zone * self.zone_slices + cursor.wp_slices;
        cursor.wp_slices += 1;
        Ok((lpn, t))
    }

    fn stale_slice(&mut self, lpn: u64) {
        if self.owners.remove(&lpn).is_some() {
            let zone = to_index(lpn / self.zone_slices);
            self.zone_live[zone] -= 1;
        }
    }

    fn record_slice(&mut self, lpn: u64, file: u64, block: u64) {
        let zone = to_index(lpn / self.zone_slices);
        self.owners.insert(lpn, (file, block));
        self.zone_live[zone] += 1;
        self.zone_written[zone] = self.zone_written[zone].max(lpn % self.zone_slices + 1);
    }

    /// Writes `blocks` consecutive 4 KiB blocks of `file` starting at file
    /// block `start`, through the temperature-matched data log, emitting
    /// periodic node updates into the node log. Returns the completion
    /// time.
    ///
    /// # Errors
    ///
    /// Propagates device errors; runs cleaning automatically when free
    /// zones run low.
    pub fn write_file<D: ZonedDevice + ?Sized>(
        &mut self,
        dev: &mut D,
        now: SimTime,
        file: u64,
        start: u64,
        blocks: u64,
        temp: Temperature,
    ) -> Result<SimTime, DeviceError> {
        let data_log = log_index(LogKind::Data(temp));
        let node_log = log_index(LogKind::Node(temp));
        let mut t = now;
        // Coalesce consecutive allocations into single device writes.
        let mut run_start: Option<u64> = None;
        let mut run_len = 0u64;
        let flush_run = |dev: &mut D,
                         t: SimTime,
                         run_start: &mut Option<u64>,
                         run_len: &mut u64|
         -> Result<SimTime, DeviceError> {
            if let Some(first) = run_start.take() {
                let req = IoRequest::write(first * SLICE_BYTES, *run_len * SLICE_BYTES);
                let c = dev.submit(t, &req)?;
                *run_len = 0;
                return Ok(c.finished);
            }
            Ok(t)
        };

        for b in start..start + blocks {
            // Invalidate the previous version of this block.
            if let Some(&old) = self.files.get(&file).and_then(|m| m.get(&b)) {
                self.stale_slice(old);
            }
            let (lpn, t2) = self.alloc_slice(dev, t, data_log)?;
            if t2 != t {
                // Cleaning interleaved: flush any open run first so write
                // pointers stay consistent.
                t = flush_run(dev, t2, &mut run_start, &mut run_len)?;
            }
            match run_start {
                Some(first) if first + run_len == lpn => run_len += 1,
                Some(_) => {
                    t = flush_run(dev, t, &mut run_start, &mut run_len)?;
                    run_start = Some(lpn);
                    run_len = 1;
                }
                None => {
                    run_start = Some(lpn);
                    run_len = 1;
                }
            }
            self.files.entry(file).or_default().insert(b, lpn);
            self.record_slice(lpn, file, b);
            self.stats.data_blocks += 1;

            // Node update cadence.
            self.pending_node[data_log] += 1;
            if self.pending_node[data_log] >= self.node_interval {
                self.pending_node[data_log] = 0;
                t = flush_run(dev, t, &mut run_start, &mut run_len)?;
                t = self.write_node(dev, t, file, node_log)?;
            }
        }
        t = flush_run(dev, t, &mut run_start, &mut run_len)?;
        Ok(t)
    }

    fn write_node<D: ZonedDevice + ?Sized>(
        &mut self,
        dev: &mut D,
        now: SimTime,
        file: u64,
        node_log: usize,
    ) -> Result<SimTime, DeviceError> {
        // In-place metadata: update the file's fixed node slot inside the
        // conventional area — no log traffic, no cleaning involvement.
        if let Some(meta_zones) = self.conventional_meta_zones {
            let capacity = meta_zones * self.zone_slices;
            let next = self.node_slots.len() as u64;
            let slot = *self.node_slots.entry(file).or_insert(next) % capacity;
            let c = dev.submit(now, &IoRequest::write(slot * SLICE_BYTES, SLICE_BYTES))?;
            self.stats.node_blocks += 1;
            return Ok(c.finished);
        }
        // A node rewrite supersedes the file's previous newest node block.
        if let Some(list) = self.nodes.get_mut(&file) {
            if let Some(old) = list.pop() {
                self.stale_slice(old);
            }
        }
        let (lpn, t) = self.alloc_slice(dev, now, node_log)?;
        let c = dev.submit(t, &IoRequest::write(lpn * SLICE_BYTES, SLICE_BYTES))?;
        self.nodes.entry(file).or_default().push(lpn);
        self.record_slice(lpn, file, NODE_BLOCK);
        self.stats.node_blocks += 1;
        Ok(c.finished)
    }

    /// One segment-cleaning pass: migrate the live blocks of the dirtiest
    /// victim zone into the cold logs, then reset it.
    ///
    /// # Errors
    ///
    /// Returns [`DeviceError::NoFreeSpace`] when no zone is reclaimable.
    pub(crate) fn clean<D: ZonedDevice + ?Sized>(
        &mut self,
        dev: &mut D,
        now: SimTime,
    ) -> Result<SimTime, DeviceError> {
        // Victim: written zone, not log-active, with the most stale
        // slices. A victim with no stale space would free nothing.
        let victim = (0..self.nzones)
            .filter(|&z| {
                self.zone_written[to_index(z)] > self.zone_live[to_index(z)]
                    && !self.zone_is_log_active(z)
                    && !self.free_zones.contains(&z)
            })
            .max_by_key(|&z| self.zone_written[to_index(z)] - self.zone_live[to_index(z)])
            .ok_or_else(|| DeviceError::NoFreeSpace {
                at: now,
                what: "f2fs-lite found no cleanable zone".to_string(),
            })?;
        self.stats.cleanings += 1;
        self.cleaning = true;
        let result = self.clean_victim(dev, now, victim);
        self.cleaning = false;
        result
    }

    /// Migrates the victim's live blocks and resets it (the body of
    /// [`F2fsLite::clean`], split out so the re-entrancy flag always
    /// resets).
    fn clean_victim<D: ZonedDevice + ?Sized>(
        &mut self,
        dev: &mut D,
        now: SimTime,
        victim: u64,
    ) -> Result<SimTime, DeviceError> {
        let mut t = now;

        // Migrate live blocks.
        let live: Vec<(u64, (u64, u64))> = self
            .owners
            .iter()
            .filter(|(lpn, _)| **lpn / self.zone_slices == victim)
            .map(|(l, o)| (*l, *o))
            .collect();
        let mut live = live;
        live.sort_unstable_by_key(|(l, _)| *l);
        for (old_lpn, (file, block)) in live {
            let c = dev.submit(t, &IoRequest::read(old_lpn * SLICE_BYTES, SLICE_BYTES))?;
            t = c.finished;
            let dest_log = if block == NODE_BLOCK {
                log_index(LogKind::Node(Temperature::Cold))
            } else {
                log_index(LogKind::Data(Temperature::Cold))
            };
            let (new_lpn, t2) = self.alloc_slice(dev, t, dest_log)?;
            t = t2;
            let c = dev.submit(t, &IoRequest::write(new_lpn * SLICE_BYTES, SLICE_BYTES))?;
            t = c.finished;
            self.stale_slice(old_lpn);
            self.record_slice(new_lpn, file, block);
            if block == NODE_BLOCK {
                let list = self.nodes.entry(file).or_default();
                if let Some(slot) = list.iter_mut().find(|l| **l == old_lpn) {
                    *slot = new_lpn;
                } else {
                    list.push(new_lpn);
                }
            } else {
                self.files.entry(file).or_default().insert(block, new_lpn);
            }
            self.stats.migrated_blocks += 1;
        }

        // Reset and free the victim.
        let c = dev.reset_zone(t, ZoneId(victim))?;
        t = c.finished;
        self.zone_written[to_index(victim)] = 0;
        debug_assert_eq!(self.zone_live[to_index(victim)], 0);
        self.free_zones.push_back(victim);
        self.stats.zone_resets += 1;
        Ok(t)
    }

    /// Device slice currently holding file block `(file, block)`, if live.
    pub fn locate(&self, file: u64, block: u64) -> Option<u64> {
        self.files.get(&file)?.get(&block).copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use conzone_core::ConZone;
    use conzone_types::{DeviceConfig, StorageDevice};

    fn dev() -> ConZone {
        // Timing-only (no payload), ample open-zone budget.
        ConZone::new(
            DeviceConfig::builder(conzone_types::Geometry::tiny())
                .chunk_bytes(256 * 1024)
                .build()
                .unwrap(),
        )
    }

    #[test]
    fn write_files_across_logs() {
        let mut d = dev();
        let mut fs = F2fsLite::new(&d);
        let mut t = SimTime::ZERO;
        t = fs
            .write_file(&mut d, t, 1, 0, 100, Temperature::Warm)
            .unwrap();
        t = fs
            .write_file(&mut d, t, 2, 0, 100, Temperature::Cold)
            .unwrap();
        let _ = fs
            .write_file(&mut d, t, 3, 0, 10, Temperature::Hot)
            .unwrap();
        let s = fs.stats();
        assert_eq!(s.data_blocks, 210);
        assert!(s.node_blocks > 0, "node cadence fired");
        assert_eq!(fs.owners.len() as u64, 210 + s.node_blocks);
        // Three data logs and at least one node log hold open zones.
        assert!(fs.free_zones.len() < 16);
    }

    #[test]
    fn overwrite_creates_stale_blocks() {
        let mut d = dev();
        let mut fs = F2fsLite::new(&d);
        let mut t = SimTime::ZERO;
        t = fs
            .write_file(&mut d, t, 1, 0, 50, Temperature::Warm)
            .unwrap();
        let first = fs.locate(1, 0).unwrap();
        let _ = fs
            .write_file(&mut d, t, 1, 0, 50, Temperature::Warm)
            .unwrap();
        let second = fs.locate(1, 0).unwrap();
        assert_ne!(first, second, "log-structured: overwrite relocates");
        assert_eq!(fs.stats().data_blocks, 100);
    }

    #[test]
    fn cleaning_reclaims_zones() {
        let mut d = dev();
        let mut fs = F2fsLite::new(&d);
        let mut t = SimTime::ZERO;
        // Churn: repeatedly rewrite a working set larger than one zone so
        // stale blocks accumulate and free zones are consumed.
        for round in 0..12u64 {
            t = fs
                .write_file(&mut d, t, round % 3, 0, 600, Temperature::Warm)
                .unwrap();
        }
        let s = fs.stats();
        assert!(s.cleanings > 0, "cleaning ran: {s:?}");
        assert!(s.zone_resets > 0);
        assert!(d.counters().zone_resets > 0, "resets reached the device");
        // Live accounting stays consistent.
        assert_eq!(
            fs.owners.len() as u64,
            fs.files.values().map(|m| m.len() as u64).sum::<u64>()
                + fs.nodes.values().map(|v| v.len() as u64).sum::<u64>()
        );
    }
}

#[cfg(test)]
mod conventional_tests {
    use super::*;
    use conzone_core::ConZone;
    use conzone_types::{DeviceConfig, Geometry, StorageDevice};

    fn dev_with_conventional() -> ConZone {
        ConZone::new(
            DeviceConfig::builder(Geometry::tiny())
                .chunk_bytes(256 * 1024)
                .conventional_zones(2)
                .max_open_zones(8)
                .build()
                .unwrap(),
        )
    }

    #[test]
    fn metadata_lands_in_conventional_zones() {
        let mut d = dev_with_conventional();
        let mut fs = F2fsLite::with_conventional_metadata(&d, 2);
        let mut t = SimTime::ZERO;
        for file in 0..4u64 {
            t = fs
                .write_file(&mut d, t, file, 0, 200, Temperature::Warm)
                .unwrap();
        }
        let s = fs.stats();
        assert!(s.node_blocks > 0);
        let c = d.counters();
        // Every node write is an in-place conventional update.
        assert_eq!(c.conventional_updates, s.node_blocks);
        // Repeated rewrites hit the same slots in place.
        let before = d.counters().conventional_updates;
        let _ = fs
            .write_file(&mut d, t, 0, 0, 200, Temperature::Warm)
            .unwrap();
        assert!(d.counters().conventional_updates > before);
    }

    #[test]
    fn conventional_metadata_reduces_open_log_pressure() {
        // With node logs folded into conventional zones, only the three
        // data logs stay open — fewer sequential streams contending for
        // the two write buffers.
        let run = |conventional: bool| -> u64 {
            let mut d = dev_with_conventional();
            let mut fs = if conventional {
                F2fsLite::with_conventional_metadata(&d, 2)
            } else {
                F2fsLite::new(&d)
            };
            let mut t = SimTime::ZERO;
            for round in 0..3u64 {
                for file in 0..6u64 {
                    let temp = match file % 3 {
                        0 => Temperature::Hot,
                        1 => Temperature::Warm,
                        _ => Temperature::Cold,
                    };
                    t = fs
                        .write_file(&mut d, t, round * 8 + file, 0, 128, temp)
                        .unwrap();
                }
            }
            d.counters().buffer_conflicts
        };
        let with_meta = run(true);
        let without = run(false);
        assert!(
            with_meta <= without,
            "conventional metadata must not add conflicts: {with_meta} vs {without}"
        );
    }
}
