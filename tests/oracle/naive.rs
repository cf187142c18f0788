//! The naive zoned device: the zoned contract written down once, every
//! rule a line, nothing timed.

use std::collections::BTreeMap;

use conzone::types::{ZoneState, SLICE_BYTES};

use super::{Answer, Cmd, Done, Refusal};

/// A map from zone to `(state, write pointer)`, the open zones counted by
/// scanning, and an ordered map from written slice to payload tag. The
/// first `conventional` zones take writes anywhere and have no lifecycle;
/// the rest are sequential-write-required.
#[derive(Debug, Clone)]
pub struct NaiveZones {
    pub zones: BTreeMap<u64, (ZoneState, u64)>,
    pub zone_slices: u64,
    pub limit: usize,
    pub conventional: u64,
    data: BTreeMap<u64, u64>,
    /// The tag of the next write's first slice.
    next_tag: u64,
}

impl NaiveZones {
    pub fn new(zones: u64, zone_slices: u64, limit: usize, conventional: u64) -> NaiveZones {
        NaiveZones {
            zones: (0..zones).map(|z| (z, (ZoneState::Empty, 0))).collect(),
            zone_slices,
            limit,
            conventional,
            data: BTreeMap::new(),
            next_tag: 1,
        }
    }

    pub fn zone_count(&self) -> u64 {
        self.zones.len() as u64
    }

    pub fn zone(&self, zone: u64) -> Result<(ZoneState, u64), Refusal> {
        self.zones.get(&zone).copied().ok_or(Refusal::OutOfRange)
    }

    /// First slice of `zone`; an id past the end stands for the first zone
    /// past it.
    pub fn start(&self, zone: u64) -> u64 {
        zone.min(self.zone_count()) * self.zone_slices
    }

    /// The slice `skew` past `zone`'s write pointer, wrapping inside the
    /// zone.
    pub fn at(&self, zone: u64, skew: u64) -> u64 {
        let wp = self.zone(zone).map_or(0, |(_, wp)| wp);
        self.start(zone) + (wp + skew) % self.zone_slices
    }

    /// Tags of the `count` slices the next write or append carries.
    pub fn tags(&self, count: u64) -> std::ops::Range<u64> {
        self.next_tag..self.next_tag + count
    }

    /// Reads of every written slice, one per run of them inside a zone,
    /// addressed the way stream commands are.
    pub fn sweep(&self) -> Vec<Cmd> {
        let zs = self.zone_slices;
        let mut runs: Vec<(u64, u64)> = Vec::new();
        for &slice in self.data.keys() {
            match runs.last_mut() {
                Some((first, n)) if *first + *n == slice && slice % zs != 0 => *n += 1,
                _ => runs.push((slice, 1)),
            }
        }
        let read = |(first, count)| {
            let zone = first / zs;
            let skew = (first + zs - self.at(zone, 0)) % zs;
            Cmd::Read { zone, skew, count }
        };
        runs.into_iter().map(read).collect()
    }

    /// Sequential zones open now.
    fn open(&self) -> usize {
        let sequential = self.zones.range(self.conventional..).map(|(_, &(s, _))| s);
        sequential.filter(|&s| s == ZoneState::Open).count()
    }

    /// A sequential zone's entry; `None` for a conventional one.
    fn sequential(&self, zone: u64) -> Result<Option<(ZoneState, u64)>, Refusal> {
        let entry = self.zone(zone)?;
        Ok((zone >= self.conventional).then_some(entry))
    }

    /// `count` slices from `at` fit in the address space.
    fn admit(&self, at: u64, count: u64) -> Result<(), Refusal> {
        let fits = at + count <= self.zone_count() * self.zone_slices;
        fits.then_some(()).ok_or(Refusal::OutOfRange)
    }

    fn set(&mut self, zone: u64, state: ZoneState, wp: u64) -> Answer {
        self.zones.insert(zone, (state, wp));
        Ok(Done::Ok)
    }

    /// A write of `count` slices from logical slice `at`, the first tagged
    /// `tag`.
    fn write(&mut self, at: u64, count: u64, tag: u64) -> Answer {
        self.admit(at, count)?;
        let zs = self.zone_slices;
        let (zone, offset) = (at / zs, at % zs);
        let (state, wp) = self.zone(zone)?;
        let (state, wp) = if offset + count > zs {
            return Err(Refusal::Boundary);
        } else if zone < self.conventional {
            (ZoneState::Open, wp.max(offset + count))
        } else if state == ZoneState::Full {
            return Err(Refusal::Full);
        } else if state != ZoneState::Open && self.open() >= self.limit {
            return Err(Refusal::TooManyOpen);
        } else if offset != wp {
            return Err(Refusal::NotWritePointer);
        } else if wp + count == zs {
            (ZoneState::Full, zs)
        } else {
            (ZoneState::Open, wp + count)
        };
        self.data.extend((at..at + count).zip(tag..));
        self.set(zone, state, wp)
    }

    /// Applies `cmd` and returns what the device must have answered. A
    /// power cut takes the runs the device says it lost (`got`), which must
    /// each be a suffix of a sequential zone's written range.
    pub fn apply(&mut self, cmd: Cmd, got: &Answer) -> Answer {
        let zs = self.zone_slices;
        let tag = self.next_tag;
        match cmd {
            Cmd::Write { zone, skew, count } => {
                self.next_tag += count;
                self.write(self.at(zone, skew), count, tag)
            }
            Cmd::Append { zone, count } => {
                self.next_tag += count;
                self.admit(self.start(zone), count)?;
                let at = match self.sequential(zone)? {
                    None => return Err(Refusal::Unsupported),
                    Some((_, wp)) if wp + count > zs => return Err(Refusal::Boundary),
                    Some((_, wp)) => zone * zs + wp,
                };
                self.write(at, count, tag)?;
                Ok(Done::Landed(at * SLICE_BYTES))
            }
            Cmd::Read { zone, skew, count } => {
                let at = self.at(zone, skew);
                self.admit(at, count)?;
                let tag = |s| self.data.get(&s).copied().ok_or(Refusal::Unwritten);
                let tags: Result<_, _> = (at..at + count).map(tag).collect();
                tags.map(Done::Read)
            }
            Cmd::Flush => Ok(Done::Ok),
            Cmd::Open(zone) => match self.sequential(zone)? {
                None | Some((ZoneState::Open, _)) => Ok(Done::Ok),
                Some((ZoneState::Full, _)) => Err(Refusal::Full),
                Some(_) if self.open() >= self.limit => Err(Refusal::TooManyOpen),
                Some((_, wp)) => self.set(zone, ZoneState::Open, wp),
            },
            Cmd::Close(zone) => match self.sequential(zone)? {
                Some((ZoneState::Open, wp)) => self.set(zone, ZoneState::Closed, wp),
                _ => Err(Refusal::NotWritable),
            },
            Cmd::Finish(zone) => match self.sequential(zone)? {
                None => Err(Refusal::NotWritable),
                Some((_, wp)) => self.set(zone, ZoneState::Full, wp),
            },
            Cmd::Reset(zone) => {
                self.sequential(zone)?;
                self.data.retain(|&s, _| s / zs != zone);
                self.set(zone, ZoneState::Empty, 0)
            }
            Cmd::PowerCut { .. } => {
                let Ok(Done::Lost(runs)) = got else {
                    return Err(Refusal::Other(format!("a power cycle, not {got:?}")));
                };
                for &(first, n) in runs {
                    let zone = first / zs;
                    match self.sequential(zone) {
                        Ok(Some((state, wp))) if n <= wp && first + n == zone * zs + wp => {
                            self.set(zone, state, wp - n)?;
                            self.data.retain(|&s, _| !(first..first + n).contains(&s));
                        }
                        _ => {
                            let why = format!("lost {first}+{n}: no suffix of a zone's data");
                            return Err(Refusal::Other(why));
                        }
                    }
                }
                // No zone comes back open: it is closed, or empty if
                // nothing of it was durable.
                for (state, wp) in self.zones.values_mut() {
                    if *state == ZoneState::Open {
                        *state = match wp {
                            0 => ZoneState::Empty,
                            _ => ZoneState::Closed,
                        };
                    }
                }
                Ok(Done::Lost(runs.clone()))
            }
        }
    }
}
