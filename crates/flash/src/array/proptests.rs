//! Differential property: [`FlashArray::read_slices`] against the
//! per-slice walk it replaced ([`FlashArray::read_slices_reference`]), on
//! twin arrays given the same programs, invalidations and reads. After
//! every read both must agree on the outcome (finish time and payload, or
//! the error and the slice it names), on every plane's and channel's free
//! time, on the media statistics and on the event stream — equal
//! `ReadRetry` events in equal order mean equal fault draws.
//!
//! Conservation property: whatever the array is asked to do, its
//! statistics and its `Media` events agree.

use std::sync::Arc;

use conzone_check::{check, Rng, Simpler};

use conzone_sim::{Resource, RingBufferSink};
use conzone_types::{
    CellType, ChipId, DeviceConfig, DeviceEvent, FaultConfig, Geometry, MediaOp, Ppa, Probe,
    SimDuration, SimTime, SuperblockId, SLICE_BYTES, SLICE_LEN,
};

use super::{FlashArray, FlashError, FlashStats};

/// Two channels × two chips × six blocks (two SLC) of sixteen 4-slice
/// pages, two planes per chip: 1 536 slices, so generated addresses cross
/// page, block and chip boundaries often.
fn config(data_backing: bool, retries: bool) -> DeviceConfig {
    let geometry = Geometry {
        blocks_per_chip: 6,
        slc_blocks_per_chip: 2,
        planes_per_chip: 2,
        ..Geometry::tiny()
    };
    DeviceConfig::builder(geometry)
        .chunk_bytes(256 * 1024)
        .data_backing(data_backing)
        .fault(FaultConfig::with_rates(
            0.0,
            0.0,
            if retries { 0.3 } else { 0.0 },
        ))
        .build()
        .expect("test geometry")
}

/// A payload that names its slice, so a misplaced copy cannot pass.
fn payload(first: Ppa, slices: usize) -> Vec<u8> {
    (0..slices * SLICE_LEN)
        .map(|i| (first.raw() + (i / SLICE_LEN) as u64 + (i % 251) as u64) as u8)
        .collect()
}

/// Blocks left partly written, `(chip, block, slices)`: an SLC block
/// stopped mid-page and a normal one after its first unit. Chip 2's last
/// block stays erased.
const PARTIAL: [(u64, usize, usize); 2] = [(1, 1, 13), (3, 4, 16)];
const ERASED: (u64, usize) = (2, 5);

/// Programs every block of `a` full, except the partial and erased ones.
fn program(a: &mut FlashArray, backed: bool) {
    let g = *a.geometry();
    let per_block = g.slices_per_block() as usize;
    for chip in 0..g.nchips() as u64 {
        for block in 0..g.blocks_per_chip {
            if (chip, block) == ERASED {
                continue;
            }
            let target = PARTIAL
                .iter()
                .find(|p| (p.0, p.1) == (chip, block))
                .map_or(per_block, |p| p.2);
            let base = a.block_base(ChipId(chip), block);
            let mut done = 0;
            while done < target {
                let first = base.offset(done as u64);
                if a.cell_of_block(block) == CellType::Slc {
                    let n = (target - done).min(6);
                    let data = backed.then(|| payload(first, n));
                    a.program_slc(SimTime::ZERO, ChipId(chip), block, n, data.as_deref())
                        .expect("SLC program");
                    done += n;
                } else {
                    let n = g.slices_per_unit();
                    let data = backed.then(|| payload(first, n));
                    a.program_unit(SimTime::ZERO, ChipId(chip), block, data.as_deref())
                        .expect("unit program");
                    done += n;
                }
            }
        }
    }
}

/// One generated read request. Shapes: a zone-striped run of up to 512
/// KiB in one superblock, a linear run across page, block and chip
/// boundaries, or scattered pieces of random pages; then kept, reversed,
/// shuffled, given a slice of an earlier page again further on, cut in two
/// with the halves swapped, or given a copy of one of its stretches at the
/// end (so runs of several pages come back below addresses already read).
fn request(rng: &mut Rng, g: &Geometry) -> Vec<Ppa> {
    let total = g.total_slices();
    let spp = g.slices_per_page() as u64;
    let mut ppas: Vec<Ppa> = match rng.below(3) {
        0 => {
            let sb = SuperblockId(rng.below(g.blocks_per_chip as u64));
            let len = 1 + rng.below(128);
            let off = rng.below(g.slices_per_superblock() - len + 1);
            (off..off + len)
                .map(|o| g.superblock_slice(sb, o))
                .collect()
        }
        1 => {
            let start = rng.below(total);
            let len = 1 + rng.below(40.min(total - start));
            (start..start + len).map(Ppa).collect()
        }
        _ => (0..1 + rng.below(12))
            .flat_map(|_| {
                let page = rng.below(total / spp) * spp;
                let slice = rng.below(spp);
                let len = 1 + rng.below(spp - slice);
                (page + slice..page + slice + len).map(Ppa)
            })
            .collect(),
    };
    let len = ppas.len() as u64;
    match rng.below(6) {
        0 => {}
        1 => ppas.reverse(),
        2 => {
            for i in (1..ppas.len()).rev() {
                ppas.swap(i, rng.below(i as u64 + 1) as usize);
            }
        }
        3 => {
            let from = rng.below(len) as usize;
            let page = ppas[from].raw() / spp * spp;
            let at = from + 1 + rng.below(len - from as u64) as usize;
            ppas.insert(at, Ppa(page + rng.below(spp)));
        }
        4 => ppas.rotate_left(rng.below(len) as usize),
        _ => {
            let from = rng.below(len) as usize;
            let to = from + 1 + rng.below(len - from as u64) as usize;
            ppas.extend_from_within(from..to);
        }
    }
    ppas
}

/// Whether a run of consecutive addresses over two pages or more starts
/// below an address read before it on the same chip — where every page of
/// the run searches all groups.
fn backward_multi_page_run(ppas: &[Ppa], g: &Geometry) -> bool {
    let spp = g.slices_per_page() as u64;
    let chip = |p: Ppa| p.raw() / g.slices_per_block() / g.blocks_per_chip as u64;
    let mut start = 0;
    while start < ppas.len() {
        let mut end = start + 1;
        while end < ppas.len() && ppas[end] == ppas[end - 1].offset(1) {
            end += 1;
        }
        let (first, last) = (ppas[start], ppas[end - 1]);
        if first.raw() / spp != last.raw() / spp
            && ppas[..start]
                .iter()
                .any(|&q| chip(q) == chip(first) && q > first)
        {
            return true;
        }
        start = end;
    }
    false
}

/// What one read returned, in comparable form.
type Outcome = Result<(SimTime, Option<Vec<u8>>), FlashError>;

/// Every plane's and channel's free time.
fn free_times(a: &FlashArray) -> (Vec<Resource>, Vec<Resource>) {
    (a.planes.clone(), a.channels.clone())
}

/// How often a run of cases reached the shapes the property is about.
#[derive(Debug, Default)]
struct Reach {
    reads: u64,
    dead: u64,
    /// Successful reads of sixteen pages or more.
    long: u64,
    /// Read-retry steps drawn.
    retries: u64,
    /// Reads in which a run of several pages went backwards on its chip.
    backwards: u64,
    /// Reads in which a page came back after another page.
    revisits: u64,
}

/// One read of the property: its addresses, and perhaps a slice that
/// cannot be read, inserted at a position first: one of them invalidated
/// just before, or one the setup never wrote (invalidating it changes
/// nothing).
#[derive(Debug, Clone, PartialEq)]
struct Step {
    ppas: Vec<Ppa>,
    dead: Option<(usize, Ppa)>,
}

impl Simpler for Step {
    /// Without the dead slice; then the first half of the addresses.
    fn simpler(&self) -> Option<Step> {
        let (ppas, dead) = match self.dead {
            Some(_) => (self.ppas.clone(), None),
            None if self.ppas.len() > 1 => (self.ppas[..self.ppas.len() / 2].to_vec(), None),
            None => return None,
        };
        Some(Step { ppas, dead })
    }
}

/// A generated request; one in four gets a dead slice at any position.
fn step(rng: &mut Rng, g: &Geometry) -> Step {
    let ppas = request(rng, g);
    let dead = (rng.below(4) == 0).then(|| {
        let at = rng.below(ppas.len() as u64 + 1) as usize;
        if rng.below(2) == 0 {
            return (at, ppas[rng.below(ppas.len() as u64) as usize]);
        }
        let (chip, block, written) = PARTIAL[rng.below(2) as usize];
        let unwritten = written as u64 + rng.below(g.slices_per_block() - written as u64);
        (
            at,
            g.encode_ppa(ChipId(chip), block, 0, 0).offset(unwritten),
        )
    });
    Step { ppas, dead }
}

/// The configuration flags and `reads` steps drawn from `seed`.
fn case(seed: u64, reads: usize) -> ((bool, bool), Vec<Step>) {
    let mut rng = Rng::new(seed);
    let flags = (rng.below(2) == 1, rng.below(2) == 1);
    let g = config(false, false).geometry;
    (flags, (0..reads).map(|_| step(&mut rng, &g)).collect())
}

/// Builds twin arrays with data backing and read retries as given and
/// drives both through `steps`, asserting agreement after each.
fn lockstep((backed, retries): (bool, bool), steps: &[Step], reach: &mut Reach) {
    let cfg = config(backed, retries);
    let g = cfg.geometry;
    let (mut new, mut old) = (FlashArray::new(&cfg), FlashArray::new(&cfg));
    program(&mut new, backed);
    program(&mut old, backed);
    let (new_events, old_events) = (
        Arc::new(RingBufferSink::new()),
        Arc::new(RingBufferSink::new()),
    );
    new.set_probe(Probe::attached(new_events.clone()));
    old.set_probe(Probe::attached(old_events.clone()));
    let mut t = SimTime::ZERO + SimDuration::from_millis(50);
    for (step, Step { ppas, dead }) in steps.iter().enumerate() {
        let mut ppas = ppas.clone();
        if let Some((at, victim)) = *dead {
            let _ = new.invalidate(victim);
            let _ = old.invalidate(victim);
            ppas.insert(at, victim);
        }
        let before = new.stats();
        let got: Outcome = new.read_slices(t, &ppas).map(|r| (r.finish, r.data));
        let want: Outcome = old
            .read_slices_reference(t, &ppas)
            .map(|r| (r.finish, r.data));
        assert_eq!(&got, &want, "step {step} read {ppas:?}");
        assert_eq!(free_times(&new), free_times(&old), "step {step}");
        assert_eq!(new.stats(), old.stats(), "step {step}");
        assert_eq!(new_events.drain(), old_events.drain(), "step {step}");

        reach.reads += 1;
        reach.dead += u64::from(got.is_err());
        reach.long += u64::from(new.stats().page_reads - before.page_reads >= 16);
        reach.retries += new.stats().read_retries - before.read_retries;
        let spp = g.slices_per_page() as u64;
        let page = |p: &Ppa| p.raw() / spp;
        reach.backwards += u64::from(backward_multi_page_run(&ppas, &g));
        reach.revisits += u64::from(ppas.windows(2).enumerate().any(|(i, w)| {
            page(&w[0]) != page(&w[1]) && ppas[i + 2..].iter().any(|q| page(q) == page(&w[0]))
        }));
        if let Ok((finish, _)) = got {
            t = finish;
        }
    }
}

/// Zone-striped, linear and scattered requests, in order, reversed,
/// shuffled, with a page repeated out of order, rotated or with a
/// stretch read twice, with a dead or unwritten slice at any position,
/// data backing and read retries on and off: the page-granular walk
/// reads what the per-slice walk read.
#[test]
fn read_slices_equals_the_per_slice_walk() {
    let path = concat!(module_path!(), "::read_slices_equals_the_per_slice_walk");
    let generate = |rng: &mut Rng| case(rng.next_u64(), 24);
    check(path, 48, generate, |&flags, steps| {
        lockstep(flags, steps, &mut Reach::default());
    });
}

/// The property is only worth its name if the requests reach the paths it
/// lists: fixed seeds, counted.
#[test]
fn the_generated_requests_reach_every_shape() {
    let mut reach = Reach::default();
    for seed in 0..16 {
        let (flags, steps) = case(seed, 24);
        lockstep(flags, &steps, &mut reach);
    }
    assert!(reach.dead >= reach.reads / 8, "{reach:?}");
    assert!(reach.reads - reach.dead >= reach.reads / 3, "{reach:?}");
    assert!(reach.backwards >= reach.reads / 16, "{reach:?}");
    assert!(reach.revisits >= reach.reads / 8, "{reach:?}");
    assert!(reach.long >= reach.reads / 32, "{reach:?}");
    assert!(reach.retries > 0, "{reach:?}");
}

/// One call of the array's media API, with arguments drawn small enough
/// that blocks fill, fail, retire and get erased within a case.
#[derive(Debug, Clone, PartialEq)]
enum Call {
    /// `read_slices` of the first `slices` slices of a block (at most its
    /// cursor, at least one: an erased block's read is refused).
    ReadSlices {
        chip: u64,
        block: usize,
        slices: u64,
    },
    TimedPageRead {
        chip: u64,
        cell: CellType,
        bytes: u64,
    },
    ReadMappingPage,
    ProgramUnit {
        chip: u64,
        block: usize,
    },
    ProgramSlc {
        chip: u64,
        block: usize,
        count: usize,
    },
    TimedProgram {
        chip: u64,
        cell: CellType,
        bytes: u64,
        ops: u64,
    },
    ProgramMappingPage,
    EraseBlock {
        chip: u64,
        block: usize,
    },
}

impl Simpler for Call {}

fn call(rng: &mut Rng, g: &Geometry) -> Call {
    let chip = rng.below(g.nchips() as u64);
    let block = rng.below(g.blocks_per_chip as u64) as usize;
    let cell = [CellType::Slc, CellType::Tlc, CellType::Qlc][rng.below(3) as usize];
    let slices = 1 + rng.below(g.slices_per_page() as u64);
    match rng.below(8) {
        0 => Call::ReadSlices {
            chip,
            block,
            slices: 1 + rng.below(g.slices_per_block()),
        },
        1 => Call::TimedPageRead {
            chip,
            cell,
            bytes: slices * SLICE_BYTES,
        },
        2 => Call::ReadMappingPage,
        3 => Call::ProgramUnit { chip, block },
        4 => Call::ProgramSlc {
            chip,
            block,
            count: 1 + rng.below(12) as usize,
        },
        5 => {
            let ops = 1 + rng.below(3);
            Call::TimedProgram {
                chip,
                cell,
                bytes: ops * slices * SLICE_BYTES,
                ops,
            }
        }
        6 => Call::ProgramMappingPage,
        _ => Call::EraseBlock { chip, block },
    }
}

/// What the `Media` events of a stream add up to: page senses, programmed
/// bytes per cell type (SLC, TLC, QLC) and erases.
#[derive(Debug, Default, PartialEq)]
struct Traced {
    reads: u64,
    program_bytes: [u64; 3],
    erases: u64,
}

impl Traced {
    /// The sums over every event `sink` holds.
    fn of(sink: &RingBufferSink) -> Traced {
        let mut sums = Traced::default();
        for record in sink.drain() {
            if let DeviceEvent::Media { op, cell, bytes } = record.event {
                match op {
                    MediaOp::Read => sums.reads += 1,
                    MediaOp::Program => sums.program_bytes[cell as usize] += bytes,
                    MediaOp::Erase => sums.erases += 1,
                }
            }
        }
        sums
    }

    /// The same sums from the array's statistics.
    fn counted(stats: FlashStats) -> Traced {
        Traced {
            reads: stats.page_reads + stats.mapping_reads,
            program_bytes: [
                stats.program_bytes_slc,
                stats.program_bytes_tlc,
                stats.program_bytes_qlc,
            ],
            erases: stats.erases_slc + stats.erases_normal,
        }
    }
}

/// Random calls of every media operation, with program and erase failures
/// and read retries on or off: after each call, the array's counts equal
/// the sums of the `Media` events it emitted — one `Read` per counted data
/// or mapping page sense, `Program` bytes per cell type, one `Erase` per
/// counted erase.
#[test]
fn media_counts_equal_the_media_events() {
    let path = concat!(module_path!(), "::media_counts_equal_the_media_events");
    let g = config(false, false).geometry;
    let generate = |rng: &mut Rng| (rng.bool(), rng.vec(1..120, |rng| call(rng, &g)));
    check(path, 64, generate, |&faults, calls| {
        let rates = if faults {
            (0.2, 0.2, 0.3)
        } else {
            (0.0, 0.0, 0.0)
        };
        let cfg = DeviceConfig {
            fault: FaultConfig::with_rates(rates.0, rates.1, rates.2),
            ..config(false, false)
        };
        let mut a = FlashArray::new(&cfg);
        let sink = Arc::new(RingBufferSink::new());
        a.set_probe(Probe::attached(sink.clone()));
        let mut t = SimTime::ZERO;
        for (i, c) in calls.iter().enumerate() {
            t = match *c {
                Call::ReadSlices {
                    chip,
                    block,
                    slices,
                } => {
                    let base = a.block_base(ChipId(chip), block);
                    let cursor = a.block(ChipId(chip), block).cursor() as u64;
                    let ppas: Vec<Ppa> = (0..slices.min(cursor).max(1))
                        .map(|s| base.offset(s))
                        .collect();
                    a.read_slices(t, &ppas).map_or(t, |r| r.finish)
                }
                Call::TimedPageRead { chip, cell, bytes } => {
                    a.timed_page_read(t, ChipId(chip), cell, bytes).end
                }
                Call::ReadMappingPage => a.read_mapping_page(t),
                Call::ProgramUnit { chip, block } => a
                    .program_unit(t, ChipId(chip), block, None)
                    .map_or(t, |p| p.buffer_free),
                Call::ProgramSlc { chip, block, count } => a
                    .program_slc(t, ChipId(chip), block, count, None)
                    .map_or(t, |p| p.buffer_free),
                Call::TimedProgram {
                    chip,
                    cell,
                    bytes,
                    ops,
                } => a.timed_program(t, ChipId(chip), cell, bytes, ops).0,
                Call::ProgramMappingPage => a.program_mapping_page(t),
                Call::EraseBlock { chip, block } => a.erase_block(t, ChipId(chip), block).end,
            };
            let counted = Traced::counted(a.stats());
            assert_eq!(Traced::of(&sink), counted, "after call {i}: {c:?}");
        }
    });
}
