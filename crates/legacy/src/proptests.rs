//! Differential property: the run-granular [`LegacyDevice`] against the
//! per-slice device it replaced ([`ReferenceLegacy`]), step for step.

use proptest::prelude::*;
use proptest::test_runner::{TestCaseError, TestRng};

use bytes::Bytes;
use conzone_types::{
    Completion, DeviceConfig, DeviceError, IoRequest, SimTime, StorageDevice, SLICE_BYTES,
};

use crate::reference::ReferenceLegacy;
use crate::LegacyDevice;

#[derive(Debug, Clone)]
enum Op {
    /// Write `slices` at page `at` (wrapped into the logical space, clipped
    /// at its end), with a payload or timing-only.
    Write {
        at: u16,
        slices: u8,
        backed: bool,
    },
    /// Write `slices` inside the first 96 pages: the hot spot that piles
    /// dead copies up, also twice inside one programming unit.
    Hot {
        at: u8,
        slices: u8,
    },
    Trim {
        at: u16,
        slices: u8,
    },
    Read {
        at: u16,
        slices: u8,
    },
    Flush,
    /// A request the device must refuse: unaligned, or past the end.
    Bad {
        kind: u8,
    },
}

fn ops() -> impl Strategy<Value = Vec<Op>> {
    prop::collection::vec(
        prop_oneof![
            12 => (any::<u16>(), 1u8..80, 0u8..8).prop_map(|(at, slices, b)| Op::Write {
                at,
                slices,
                backed: b != 0,
            }),
            6 => (any::<u8>(), 1u8..24).prop_map(|(at, slices)| Op::Hot { at, slices }),
            2 => (any::<u16>(), 1u8..120).prop_map(|(at, slices)| Op::Trim { at, slices }),
            3 => (any::<u16>(), 1u8..40).prop_map(|(at, slices)| Op::Read { at, slices }),
            2 => Just(Op::Flush),
            1 => any::<u8>().prop_map(|kind| Op::Bad { kind }),
        ],
        300..700,
    )
}

/// What a step returned, in comparable form.
type Outcome = Result<(SimTime, SimTime, Option<Bytes>, Option<u64>), DeviceError>;

fn outcome(r: Result<Completion, DeviceError>) -> Outcome {
    r.map(|c| (c.submitted, c.finished, c.data, c.assigned_offset))
}

/// A payload that names its write, so a stale copy cannot pass for the
/// latest one.
fn payload(step: usize, slices: u64) -> Bytes {
    let len = (slices * SLICE_BYTES) as usize;
    Bytes::from(
        (0..len)
            .map(|i| (i / 4096 + step * 31 + i % 251) as u8)
            .collect::<Vec<u8>>(),
    )
}

/// Drives both devices through `ops`, asserting equal results, counters
/// and wear after every step. `starve_at = (step, keep)` takes free
/// superblocks away from both (as if retired) before that step, until
/// `keep` are left. Returns the final counters and how many steps failed
/// with `NoFreeSpace`.
fn lockstep(
    ops: &[Op],
    starve_at: Option<(usize, u8)>,
) -> Result<(conzone_types::Counters, usize), TestCaseError> {
    let cfg = DeviceConfig::tiny_for_tests();
    assert!(cfg.data_backing, "the property compares payloads");
    let mut new = LegacyDevice::new(cfg.clone());
    let mut old = ReferenceLegacy::new(cfg);
    let cap = new.capacity_bytes();
    prop_assert_eq!(cap, old.capacity_bytes());
    let span = cap / SLICE_BYTES;
    let mut t = SimTime::ZERO;
    let mut no_space = 0;
    let clip = |at: u64, slices: u8| {
        let at = at % span;
        (at * SLICE_BYTES, u64::from(slices).min(span - at))
    };
    for (step, op) in ops.iter().enumerate() {
        if let Some((_, keep)) = starve_at.filter(|&(at, _)| at == step) {
            new.free.truncate(usize::from(keep));
            old.free.truncate(usize::from(keep));
        }
        let (got, want): (Outcome, Outcome) = match *op {
            Op::Write { at, slices, backed } => {
                let (offset, n) = clip(u64::from(at), slices);
                let req = if backed {
                    IoRequest::write_data(offset, payload(step, n))
                } else {
                    IoRequest::write(offset, n * SLICE_BYTES)
                };
                (outcome(new.submit(t, &req)), outcome(old.submit(t, &req)))
            }
            Op::Hot { at, slices } => {
                let (offset, n) = clip(u64::from(at) % 96, slices);
                let req = IoRequest::write_data(offset, payload(step, n));
                (outcome(new.submit(t, &req)), outcome(old.submit(t, &req)))
            }
            Op::Trim { at, slices } => {
                let (offset, n) = clip(u64::from(at), slices);
                let len = n * SLICE_BYTES;
                (
                    outcome(new.trim(t, offset, len)),
                    outcome(old.trim(t, offset, len)),
                )
            }
            Op::Read { at, slices } => {
                let (offset, n) = clip(u64::from(at), slices);
                let req = IoRequest::read(offset, n * SLICE_BYTES);
                (outcome(new.submit(t, &req)), outcome(old.submit(t, &req)))
            }
            Op::Flush => (outcome(new.flush(t)), outcome(old.flush(t))),
            Op::Bad { kind } => match kind % 3 {
                0 => (outcome(new.trim(t, 3, 4096)), outcome(old.trim(t, 3, 4096))),
                1 => (
                    outcome(new.trim(t, cap, 4096)),
                    outcome(old.trim(t, cap, 4096)),
                ),
                _ => {
                    let req = IoRequest::write(cap - 4096, 8192);
                    (outcome(new.submit(t, &req)), outcome(old.submit(t, &req)))
                }
            },
        };
        prop_assert_eq!(&got, &want, "step {} {:?}", step, op);
        prop_assert_eq!(new.counters(), old.counters(), "step {} {:?}", step, op);
        prop_assert_eq!(
            new.wear_report(),
            old.wear_report(),
            "step {} {:?}",
            step,
            op
        );
        match got {
            Ok((_, finished, _, _)) => t = finished,
            Err(DeviceError::NoFreeSpace { .. }) => no_space += 1,
            Err(_) => {}
        }
    }
    // Everything still readable reads the same, page by page.
    for page in 0..span {
        let req = IoRequest::read(page * SLICE_BYTES, SLICE_BYTES);
        let (got, want) = (outcome(new.submit(t, &req)), outcome(old.submit(t, &req)));
        prop_assert_eq!(&got, &want, "final read of page {}", page);
        if let Ok((_, finished, _, _)) = got {
            t = finished;
        }
    }
    Ok((new.counters(), no_space))
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 8, ..ProptestConfig::default() })]

    /// Write / overwrite / trim / flush / read streams over the whole
    /// logical space of the tiny geometry (13 MiB over 16 MiB of normal
    /// blocks), data backing on: 300–700 steps write the device several
    /// times over, so GC runs dozens of passes per case.
    #[test]
    fn run_granular_legacy_equals_the_per_slice_device(ops in ops()) {
        let (counters, _) = lockstep(&ops, None)?;
        prop_assert!(counters.host_write_ops > 0);
    }

    /// The same streams with the free list cut short part-way, down to
    /// one spare superblock (GC after every superblock written) or none:
    /// the append stream and GC's own flushes hit `NoFreeSpace`, and what
    /// that leaves behind (a queue holding more than a unit, a GC pass that
    /// never finished) must behave the same afterwards, error for error.
    #[test]
    fn starved_legacy_fails_the_same_way(ops in ops(), at in 50usize..200, keep in 0u8..2) {
        let (_, no_space) = lockstep(&ops, Some((at, keep)))?;
        prop_assert!(keep > 0 || no_space > 0, "no spare superblock, yet never out of space");
    }
}

/// The property above is only worth its name if the streams do reach GC:
/// one fixed stream, counted.
#[test]
fn the_generated_streams_reach_dozens_of_gc_passes() {
    let mut rng = TestRng::new(7);
    let stream = ops().generate(&mut rng);
    let (counters, no_space) = lockstep(&stream, None).expect("devices agree");
    assert!(counters.gc_runs >= 24, "{counters:?}");
    assert!(counters.gc_migrated_slices > 0);
    assert!(counters.premature_flushes > 0);
    assert!(counters.l2p_misses > 0 && counters.l2p_hits_page > 0);
    assert_eq!(no_space, 0, "an unstarved Legacy device never deadlocks");
}
