//! Differential property: [`FlashArray::read_slices`] against the
//! per-slice walk it replaced ([`FlashArray::read_slices_reference`]), on
//! twin arrays given the same programs, invalidations and reads. After
//! every read both must agree on the outcome (finish time and payload, or
//! the error and the slice it names), on every plane's and channel's free
//! time, on the media statistics and on the event stream — equal
//! `ReadRetry` events in equal order mean equal fault draws.

use std::sync::Arc;

use proptest::prelude::*;
use proptest::test_runner::{TestCaseError, TestRng};

use conzone_sim::{ResourceBank, RingBufferSink};
use conzone_types::{
    CellType, ChipId, DeviceConfig, FaultConfig, Geometry, Ppa, Probe, SimDuration, SimTime,
    SuperblockId, SLICE_LEN,
};

use super::{FlashArray, FlashError};

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
fn request(rng: &mut TestRng, g: &Geometry) -> Vec<Ppa> {
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
fn free_times(a: &FlashArray) -> (ResourceBank, ResourceBank) {
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

/// Builds twin arrays from `seed`'s configuration and drives both through
/// `reads` generated requests, some with a slice made dead or unwritten
/// first, asserting agreement after each.
fn lockstep(seed: u64, reads: usize, reach: &mut Reach) -> Result<(), TestCaseError> {
    let mut rng = TestRng::new(seed);
    let (backed, retries) = (rng.below(2) == 1, rng.below(2) == 1);
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
    for step in 0..reads {
        let mut ppas = request(&mut rng, &g);
        if rng.below(4) == 0 {
            // One slice that cannot be read, at any position: a live one
            // invalidated now, or one the setup never wrote.
            let at = rng.below(ppas.len() as u64 + 1) as usize;
            let victim = if rng.below(2) == 0 {
                let live = ppas[rng.below(ppas.len() as u64) as usize];
                let _ = new.invalidate(live);
                let _ = old.invalidate(live);
                live
            } else {
                let (chip, block, written) = PARTIAL[rng.below(2) as usize];
                let unwritten = written as u64 + rng.below(g.slices_per_block() - written as u64);
                new.block_base(ChipId(chip), block).offset(unwritten)
            };
            ppas.insert(at, victim);
        }
        let before = new.stats();
        let got: Outcome = new.read_slices(t, &ppas).map(|r| (r.finish, r.data));
        let want: Outcome = old
            .read_slices_reference(t, &ppas)
            .map(|r| (r.finish, r.data));
        prop_assert_eq!(&got, &want, "step {} read {:?}", step, ppas);
        prop_assert_eq!(free_times(&new), free_times(&old), "step {}", step);
        prop_assert_eq!(new.stats(), old.stats(), "step {}", step);
        prop_assert_eq!(new_events.drain(), old_events.drain(), "step {}", step);

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
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    /// Zone-striped, linear and scattered requests, in order, reversed,
    /// shuffled, with a page repeated out of order, rotated or with a
    /// stretch read twice, with a dead or unwritten slice at any position,
    /// data backing and read retries on and off: the page-granular walk
    /// reads what the per-slice walk read.
    #[test]
    fn read_slices_equals_the_per_slice_walk(seed in any::<u64>()) {
        lockstep(seed, 24, &mut Reach::default())?;
    }
}

/// The property is only worth its name if the requests reach the paths it
/// lists: fixed seeds, counted.
#[test]
fn the_generated_requests_reach_every_shape() {
    let mut reach = Reach::default();
    for seed in 0..16 {
        lockstep(seed, 24, &mut reach).expect("walks agree");
    }
    assert!(reach.dead >= reach.reads / 8, "{reach:?}");
    assert!(reach.reads - reach.dead >= reach.reads / 3, "{reach:?}");
    assert!(reach.backwards >= reach.reads / 16, "{reach:?}");
    assert!(reach.revisits >= reach.reads / 8, "{reach:?}");
    assert!(reach.long >= reach.reads / 32, "{reach:?}");
    assert!(reach.retries > 0, "{reach:?}");
}
