//! The lock-step oracle: one untimed, deliberately naive zoned device
//! ([`NaiveZones`]) and the harness that runs it next to a device under
//! test. A seeded [`Cmd`] stream goes to both; after every command they
//! must agree on the accept or the refusal variant, an append's landing
//! offset, the bytes a read returns and every zone's state and write
//! pointer, and the device must not finish a command before it was issued.
//! A device's host counters must add up to the commands it accepted.
//! A disagreement is shrunk to a short stream and reported with the
//! configuration and the seed that found it.

// Each test crate that includes this module uses a different part of it.
#![allow(dead_code)]

mod naive;
mod targets;

use std::panic::{catch_unwind, AssertUnwindSafe};

use conzone::sim::SimRng;
use conzone::types::{Counters, DeviceError, SimTime, ZoneInfo, SLICE_BYTES, SLICE_LEN};
use conzone_check::{message, shrink, Simpler};

pub use naive::NaiveZones;
pub use targets::{build, Dut};

/// One command of a stream. Zone ids may name no zone: the first id past
/// the end, or `u64::MAX`; an address in such a zone starts at the first
/// slice past the end.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cmd {
    /// `count` slices from `skew` past `zone`'s write pointer, wrapping
    /// inside the zone.
    Write {
        zone: u64,
        skew: u64,
        count: u64,
    },
    /// A zone append of `count` slices.
    Append {
        zone: u64,
        count: u64,
    },
    /// `count` slices from `skew` past `zone`'s write pointer.
    Read {
        zone: u64,
        skew: u64,
        count: u64,
    },
    Flush,
    Open(u64),
    Close(u64),
    Finish(u64),
    Reset(u64),
    /// A power cut and a remount. A device decides what it loses; the zone
    /// table alone loses the last `lost` slices of `zone`.
    PowerCut {
        zone: u64,
        lost: u64,
    },
}

impl Simpler for Cmd {
    /// The command with its slice count halved, if it has one above 1.
    fn simpler(&self) -> Option<Cmd> {
        let mut cmd = *self;
        let (Cmd::Write { count, .. } | Cmd::Append { count, .. } | Cmd::Read { count, .. }) =
            &mut cmd
        else {
            return None;
        };
        *count /= 2;
        (*count > 0).then_some(cmd)
    }
}

/// What an accepted command answered.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Done {
    Ok,
    /// An append's byte offset.
    Landed(u64),
    /// A read's payload, as the tag of each slice (0: not a payload the
    /// stream wrote).
    Read(Vec<u64>),
    /// The `(first slice, slices)` runs a power cut lost.
    Lost(Vec<(u64, u64)>),
}

/// Which error a command was refused with; `Other` is never a right answer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Refusal {
    OutOfRange,
    Boundary,
    Full,
    TooManyOpen,
    NotWritePointer,
    NotWritable,
    Unsupported,
    Unwritten,
    /// Out of SLC space: a right answer only where the device is starved
    /// ([`NaiveZones::starved`]).
    NoSpace,
    Other(String),
}

impl From<DeviceError> for Refusal {
    fn from(e: DeviceError) -> Refusal {
        match e {
            DeviceError::OutOfRange { .. } => Refusal::OutOfRange,
            DeviceError::ZoneBoundary { .. } => Refusal::Boundary,
            DeviceError::ZoneFull { .. } => Refusal::Full,
            DeviceError::TooManyOpenZones { .. } => Refusal::TooManyOpen,
            DeviceError::NotWritePointer { .. } => Refusal::NotWritePointer,
            DeviceError::ZoneNotWritable { .. } => Refusal::NotWritable,
            DeviceError::Unsupported(_) => Refusal::Unsupported,
            DeviceError::UnwrittenRead { .. } => Refusal::Unwritten,
            DeviceError::NoFreeSpace { .. } => Refusal::NoSpace,
            other => Refusal::Other(other.to_string()),
        }
    }
}

pub type Answer = Result<Done, Refusal>;

/// An answer and when it completed.
pub type Timed = Result<(SimTime, Done), Refusal>;

/// The step a stream failed at, and how.
pub type Failure = (usize, String);

/// The payload of slices written with `tags`: each slice its tag, repeated.
pub fn payloads(tags: std::ops::Range<u64>) -> Vec<u8> {
    let slice = |tag: u64| tag.to_le_bytes().repeat(SLICE_LEN / 8);
    tags.map(slice).collect::<Vec<_>>().concat()
}

/// The tag of each slice of `bytes`; 0 for one that is no payload.
pub fn tags(bytes: &[u8]) -> Vec<u64> {
    let tag = |s: &[u8]| {
        let repeats = s.len() == SLICE_LEN && s[8..] == s[..SLICE_LEN - 8];
        s.first_chunk()
            .filter(|_| repeats)
            .map_or(0, |&head| u64::from_le_bytes(head))
    };
    bytes.chunks(SLICE_LEN).map(tag).collect()
}

/// What the oracle runs next to: a device, or the zone table alone.
pub trait Target {
    /// Runs `cmd` at `now`, addressed and filled through `naive` (its write
    /// pointers, its next payload tag).
    fn exec(&mut self, cmd: Cmd, naive: &NaiveZones, now: SimTime) -> Timed;

    /// What the target says of `zone`; `None` if it has no zones.
    fn zone(&mut self, zone: u64) -> Option<Result<ZoneInfo, DeviceError>>;

    /// The target's counters; `None` if it keeps none.
    fn counters(&mut self) -> Option<Counters>;
}

/// The counters the host's commands book: `(write ops, write bytes, read
/// ops, read bytes, zone resets)`.
fn host_books(c: &Counters) -> [u64; 5] {
    [
        c.host_write_ops,
        c.host_write_bytes,
        c.host_read_ops,
        c.host_read_bytes,
        c.zone_resets,
    ]
}

/// Books an accepted `cmd` as a device must: a write or an append is one
/// host write of its bytes, a read one host read, a reset one zone reset.
fn book(books: &mut Counters, cmd: Cmd) {
    match cmd {
        Cmd::Write { count, .. } | Cmd::Append { count, .. } => {
            books.host_write_ops += 1;
            books.host_write_bytes += count * SLICE_BYTES;
        }
        Cmd::Read { count, .. } => {
            books.host_read_ops += 1;
            books.host_read_bytes += count * SLICE_BYTES;
        }
        Cmd::Reset(_) => books.zone_resets += 1,
        Cmd::Flush | Cmd::Open(_) | Cmd::Close(_) | Cmd::Finish(_) | Cmd::PowerCut { .. } => {}
    }
}

/// Runs `stream` on `target` and `naive` in lock-step, then reads back
/// every written slice, and returns how many commands the target refused
/// for want of space; the error is the failing step and what went wrong
/// there. A panic in the target fails its step.
pub fn run(
    target: &mut impl Target,
    mut naive: NaiveZones,
    stream: &[Cmd],
) -> Result<usize, Failure> {
    let mut t = SimTime::ZERO;
    let mut refused = 0;
    let mut books = Counters::default();
    let mut step = |naive: &mut NaiveZones, cmd: Cmd| -> Result<(), String> {
        let got = match catch_unwind(AssertUnwindSafe(|| target.exec(cmd, naive, t))) {
            Ok(got) => got,
            Err(panic) => return Err(format!("the device panicked: {}", message(&*panic))),
        };
        match got {
            Ok((finished, _)) if finished < t => return Err(format!("finished at {finished}")),
            Ok((finished, _)) => t = finished,
            Err(_) => {}
        }
        let got = got.map(|(_, done)| done);
        let want = match got {
            Err(Refusal::NoSpace) if naive.may_run_out(cmd) => {
                refused += 1;
                Err(Refusal::NoSpace)
            }
            _ => naive.apply(cmd, &got),
        };
        if got != want {
            return Err(format!("the device answered {got:?}, the oracle {want:?}"));
        }
        if got.is_ok() {
            book(&mut books, cmd);
        }
        if let Some(c) = target.counters() {
            let (got, want) = (host_books(&c), host_books(&books));
            if got != want {
                return Err(format!(
                    "the host counters are {got:?}, the accepted commands' {want:?}"
                ));
            }
        }
        zones_agree(target, naive)
    };
    for (i, &cmd) in stream.iter().enumerate() {
        step(&mut naive, cmd).map_err(|why| (i, format!("step {i} {cmd:?}: {why}")))?;
    }
    let last = stream.len().saturating_sub(1);
    for cmd in naive.sweep() {
        let fail = |why| (last, format!("reading back {cmd:?}: {why}"));
        step(&mut naive, cmd).map_err(fail)?;
    }
    Ok(refused)
}

/// Every zone, and the first id past the end and `u64::MAX`, as the target
/// and the oracle see them.
fn zones_agree(target: &mut impl Target, naive: &NaiveZones) -> Result<(), String> {
    let zones = naive.zone_count();
    for zone in (0..zones).chain([zones, u64::MAX]) {
        let want = naive.zone(zone);
        let view = |i: ZoneInfo| (i.state, i.write_pointer / SLICE_BYTES);
        let got = target.zone(zone).map(|got| got.map(view));
        if let Some(got) = got.map(|got| got.map_err(Refusal::from)) {
            if got != want {
                return Err(format!("zone {zone} is {got:?}, the oracle's {want:?}"));
            }
        }
    }
    Ok(())
}

/// Runs `cmds` on a fresh `(target, naive)` pair in lock-step and returns
/// the target and how many commands it refused for want of space. On a disagreement, panics with `label` (the configuration
/// and the seed), the stream shrunk by the property engine's shrinker and
/// what went wrong in it.
pub fn lockstep<T: Target>(
    label: &str,
    fresh: impl Fn() -> (T, NaiveZones),
    cmds: Vec<Cmd>,
) -> (T, usize) {
    let run_fresh = |cmds: &[Cmd]| {
        let (mut target, naive) = fresh();
        run(&mut target, naive, cmds).map(|refused| (target, refused))
    };
    if let Ok(done) = run_fresh(&cmds) {
        return done;
    }
    let minimal = shrink(cmds, |s| run_fresh(s).err().map(|(step, _)| step));
    let ((_, why), n) = (run_fresh(&minimal).err().unwrap_or_default(), minimal.len());
    panic!("{label}: {why}\nminimal stream ({n} commands): {minimal:?}");
}

/// Runs `steps` seeded commands on the named configuration (see [`build`])
/// and returns the device and how many commands it refused for want of
/// space.
pub fn check(name: &str, seed: u64, steps: usize) -> (Dut, usize) {
    let (dut, naive) = build(name);
    let zoned = !matches!(dut, Dut::Legacy(_));
    let cmds = stream(seed, steps, &naive, zoned, matches!(dut, Dut::ConZone(_)));
    lockstep(&format!("{name}, seed {seed:#x}"), || build(name), cmds)
}

/// `steps` seeded commands for a device with `naive`'s zones. `zoned` adds
/// the zone commands, `cuts` power cuts.
pub fn stream(seed: u64, steps: usize, naive: &NaiveZones, zoned: bool, cuts: bool) -> Vec<Cmd> {
    let (zones, zone_slices) = (naive.zone_count(), naive.zone_slices);
    let mut rng = SimRng::new(seed);
    // 1 to `short` slices, or one time in four 1 to `long`.
    let slices = |rng: &mut SimRng, short, long| {
        let bound = if rng.below(4) == 0 { long } else { short };
        1 + rng.below(bound)
    };
    // The command mix, in percent: writes 39, appends 10, reads 30,
    // flushes 5; open 4, close 6, finish 2, reset 3; power cuts 1. A
    // device without zones draws from the first four, one without power
    // loss from all but the last.
    let kinds = match (zoned, cuts) {
        (false, _) => 84,
        (true, false) => 99,
        (true, true) => 100,
    };
    let mut cmd = || {
        // Mostly the first few zones, so that zones fill, share write
        // buffers and run into the open limit; now and then an id past the
        // end.
        let zone = match rng.below(20) {
            0 => zones,
            1 => u64::MAX,
            2..=7 => rng.below(zones),
            _ => rng.below(zones.min(4)),
        };
        // On the pointer; just past it; a little behind it (an overwrite
        // of fresh data in a conventional zone, the end of a full one);
        // anywhere.
        let back = 1 + rng.below(zone_slices.min(24));
        let behind = zone_slices - back;
        let skew = match rng.below(8) {
            0..=4 => 0,
            5 => 1 + rng.below(3),
            6 => behind,
            _ => rng.below(zone_slices),
        };
        let (count, lost) = (slices(&mut rng, 8, 128), rng.below(4));
        match rng.below(kinds) {
            0..=38 => Cmd::Write { zone, skew, count },
            39..=48 => Cmd::Append { zone, count },
            // Mostly data behind the pointer; now and then from elsewhere,
            // or on past the data, into the unwritten rest of the zone or
            // into the next one.
            49..=78 => {
                let skew = if rng.below(4) == 0 { skew } else { behind };
                let (over, within) = (back + slices(&mut rng, 8, 32), 1 + rng.below(back));
                let count = if rng.below(4) == 0 { over } else { within };
                Cmd::Read { zone, skew, count }
            }
            79..=83 => Cmd::Flush,
            84..=87 => Cmd::Open(zone),
            88..=93 => Cmd::Close(zone),
            94 | 95 => Cmd::Finish(zone),
            96..=98 => Cmd::Reset(zone),
            _ => Cmd::PowerCut { zone, lost },
        }
    };
    (0..steps).map(|_| cmd()).collect()
}
