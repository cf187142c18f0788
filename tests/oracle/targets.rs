//! What the oracle runs against: the three device models, behind
//! `&mut dyn StorageDevice` / `ZonedDevice`, in the named configurations
//! of [`build`]; and the zone table alone.

use bytes::Bytes;
use conzone::types::{
    Counters, DeviceConfig, DeviceConfigBuilder, DeviceError, FaultConfig, Geometry, IoRequest,
    LpnRange, SearchStrategy, SimTime, StorageDevice, ZoneId, ZoneInfo, ZoneTable, ZonedDevice,
    SLICE_BYTES,
};
use conzone::{ConZone, FemuZns, LegacyDevice};

use super::{payloads, tags, Cmd, Done, NaiveZones, Refusal, Target, Timed};

/// A device under test.
#[allow(clippy::large_enum_variant, reason = "one device per stream")]
pub enum Dut {
    /// The one model with power loss.
    ConZone(ConZone),
    Femu(FemuZns),
    /// One region of in-place writes: no zone commands, appends refused.
    Legacy(LegacyDevice),
}

/// The named device configurations, each with its naive twin.
pub fn build(name: &str) -> (Dut, NaiveZones) {
    let geometry = |blocks_per_chip, slc_blocks_per_chip| Geometry {
        blocks_per_chip,
        slc_blocks_per_chip,
        ..Geometry::tiny()
    };
    let with = |g| DeviceConfig::builder(g).data_backing(true);
    let tiny = || with(Geometry::tiny()).chunk_bytes(256 * 1024);
    let conzone = |b: DeviceConfigBuilder| Dut::ConZone(ConZone::new(b.build().expect(name)));
    let dut = match name {
        "tiny" => conzone(tiny()),
        "conv1-open1" => conzone(tiny().conventional_zones(1).max_open_zones(1)),
        "conv2-open2" => conzone(tiny().conventional_zones(2).max_open_zones(2)),
        "conv1-open6" => conzone(tiny().conventional_zones(1).max_open_zones(6)),
        // A 384 KiB superblock padded to 512 KiB zones: a 128 KiB SLC patch
        // at the end of each (the tail geometry of the core proptests).
        "tail" => {
            let g = Geometry {
                channels: 1,
                pages_per_block: 12,
                ..geometry(14, 8)
            };
            conzone(with(g).chunk_bytes(128 * 1024).conventional_zones(1))
        }
        // Program and erase failures, grown-bad retirement and read
        // retries, over the tiny geometry's SLC. A failed or retired unit
        // moves to SLC until its zone is reset, so SLC runs out, and the
        // device refuses what it cannot place (`NaiveZones::starved`).
        "faults" => conzone(
            with(geometry(24, 4))
                .chunk_bytes(256 * 1024)
                .conventional_zones(1)
                .fault(FaultConfig::with_rates(0.05, 0.05, 0.2)),
        ),
        // Two SLC blocks a chip and 256 KiB program units: the zones'
        // staged sub-unit remainders outgrow the SLC region, flushes run
        // out of space, and the device refuses them (`NaiveZones::starved`).
        "starved" => {
            let g = Geometry {
                program_unit_bytes: 256 * 1024,
                ..geometry(18, 2)
            };
            conzone(with(g).chunk_bytes(256 * 1024))
        }
        // A conventional zone, pinned search over a 16-entry L2P cache, an
        // L2P log and little SLC: every feature at once.
        "torture" => conzone(
            with(geometry(14, 4))
                .chunk_bytes(256 * 1024)
                .conventional_zones(1)
                .l2p_log_entries(512)
                .search_strategy(SearchStrategy::Pinned)
                .l2p_cache_bytes(64)
                .max_open_zones(4)
                .seed(99),
        ),
        "femu" => Dut::Femu(FemuZns::new(tiny().build().expect(name))),
        "legacy" => Dut::Legacy(LegacyDevice::new(tiny().build().expect(name))),
        _ => panic!("no configuration {name}"),
    };
    let mut naive = dut.naive();
    naive.starved = matches!(name, "starved" | "faults");
    (dut, naive)
}

impl Dut {
    pub fn dev(&mut self) -> &mut dyn StorageDevice {
        match self {
            Dut::ConZone(d) => d,
            Dut::Femu(d) => d,
            Dut::Legacy(d) => d,
        }
    }

    fn zoned(&mut self) -> Option<&mut dyn ZonedDevice> {
        match self {
            Dut::ConZone(d) => Some(d),
            Dut::Femu(d) => Some(d),
            Dut::Legacy(_) => None,
        }
    }

    /// The naive device with this one's zones: FEMU's have no open limit,
    /// Legacy is one conventional zone.
    fn naive(&self) -> NaiveZones {
        let slices = |bytes| bytes / SLICE_BYTES;
        match self {
            Dut::ConZone(d) => {
                let (zones, limit) = (d.zone_count() as u64, d.config().max_open_zones);
                let conventional = d.config().conventional_zones as u64;
                NaiveZones::new(zones, slices(d.zone_size()), limit, conventional)
            }
            Dut::Femu(d) => {
                NaiveZones::new(d.zone_count() as u64, slices(d.zone_size()), usize::MAX, 0)
            }
            Dut::Legacy(d) => NaiveZones::new(1, slices(d.capacity_bytes()), usize::MAX, 1),
        }
    }
}

impl Target for Dut {
    fn exec(&mut self, cmd: Cmd, naive: &NaiveZones, now: SimTime) -> Timed {
        let data = |count| Bytes::from(payloads(naive.tags(count)));
        let request = match cmd {
            Cmd::Write { zone, skew, count } => {
                IoRequest::write_data(naive.at(zone, skew) * SLICE_BYTES, data(count))
            }
            Cmd::Append { zone, count } => {
                IoRequest::append_data(naive.start(zone) * SLICE_BYTES, data(count))
            }
            Cmd::Read { zone, skew, count } => {
                IoRequest::read(naive.at(zone, skew) * SLICE_BYTES, count * SLICE_BYTES)
            }
            Cmd::Flush => return Ok((self.dev().flush(now)?.finished, Done::Ok)),
            Cmd::Open(z) | Cmd::Close(z) | Cmd::Finish(z) | Cmd::Reset(z) => {
                let (dev, zone) = (self.zoned().ok_or(Refusal::Unsupported)?, ZoneId(z));
                let done = match cmd {
                    Cmd::Open(_) => dev.open_zone(now, zone),
                    Cmd::Close(_) => dev.close_zone(now, zone),
                    Cmd::Finish(_) => dev.finish_zone(now, zone),
                    _ => dev.reset_zone(now, zone),
                };
                return Ok((done?.finished, Done::Ok));
            }
            Cmd::PowerCut { .. } => {
                let Dut::ConZone(dev) = self else {
                    return Err(Refusal::Unsupported);
                };
                dev.power_cut(now)?;
                let report = dev.remount(now)?;
                let lost = report.lost.iter().map(|r| (r.start.raw(), r.count));
                return Ok((report.finished, Done::Lost(lost.collect())));
            }
        };
        let done = self.dev().submit(now, &request)?;
        match (cmd, done.assigned_offset, done.data.as_deref()) {
            (Cmd::Write { .. }, None, None) => Ok((done.finished, Done::Ok)),
            (Cmd::Append { .. }, Some(at), None) => Ok((done.finished, Done::Landed(at))),
            (Cmd::Read { .. }, None, Some(data)) => Ok((done.finished, Done::Read(tags(data)))),
            _ => Err(Refusal::Other(format!("{cmd:?} completed as {done:?}"))),
        }
    }

    fn zone(&mut self, zone: u64) -> Option<Result<ZoneInfo, DeviceError>> {
        self.zoned().map(|d| d.zone_info(ZoneId(zone)))
    }

    fn counters(&mut self) -> Option<Counters> {
        Some(self.dev().counters())
    }
}

/// Takes in an admitted write the way a device model does: the zone table
/// admits it, the model stores it, the table moves on.
fn take(table: &mut ZoneTable, range: LpnRange) -> Result<(), DeviceError> {
    let (zone, offset) = table.admit_write(range)?;
    if table.is_conventional(zone) {
        table.mark_written(zone, offset + range.count);
    } else if table.advance(zone, range.count) {
        table.seal(zone);
    }
    Ok(())
}

/// The zone table alone, driven the way a device model drives it.
impl Target for ZoneTable {
    fn exec(&mut self, cmd: Cmd, naive: &NaiveZones, now: SimTime) -> Timed {
        let capacity = self.capacity_bytes();
        let range =
            |at, count| IoRequest::write(at * SLICE_BYTES, count * SLICE_BYTES).admit(capacity);
        match cmd {
            Cmd::Write { zone, skew, count } => take(self, range(naive.at(zone, skew), count)?)?,
            Cmd::Append { zone, count } => {
                let landed = self.append_target(range(naive.start(zone), count)?)?;
                take(self, landed)?;
                return Ok((now, Done::Landed(landed.start.byte_offset())));
            }
            Cmd::Open(z) => self.open(ZoneId(z))?,
            Cmd::Close(z) => self.closable(ZoneId(z)).map(|()| self.close(ZoneId(z)))?,
            Cmd::Finish(z) => {
                if self.finishable(ZoneId(z))? {
                    self.seal(ZoneId(z));
                }
            }
            Cmd::Reset(z) => self.checked(ZoneId(z)).map(|_| self.reset(ZoneId(z)))?,
            Cmd::PowerCut { zone, lost } => {
                let mut runs = Vec::new();
                if zone < naive.zone_count() && !self.is_conventional(ZoneId(zone)) {
                    let wp = self.wp_slices(ZoneId(zone));
                    let n = lost.min(wp);
                    self.rewind(ZoneId(zone), wp - n);
                    runs.extend((n > 0).then(|| (naive.start(zone) + wp - n, n)));
                }
                self.close_open_zones();
                return Ok((now, Done::Lost(runs)));
            }
            // The table holds no data: the oracle answers for it.
            Cmd::Read { .. } | Cmd::Flush => {
                return naive
                    .clone()
                    .apply(cmd, &Ok(Done::Ok))
                    .map(|done| (now, done))
            }
        }
        Ok((now, Done::Ok))
    }

    fn zone(&mut self, zone: u64) -> Option<Result<ZoneInfo, DeviceError>> {
        Some(self.info(ZoneId(zone)))
    }

    fn counters(&mut self) -> Option<Counters> {
        None
    }
}
