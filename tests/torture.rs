//! Torture test: every feature at once, checked against the oracle.
//!
//! One device with a conventional zone, a pinned-strategy L2P cache, an
//! L2P persistence log and a small SLC region runs a long oracle stream
//! (`tests/oracle/`) — sequential and in-place writes, appends, reads,
//! flushes, zone lifecycle commands, resets and power cuts — with every
//! answer, every read's bytes and every zone's state checked at each step.

#[path = "oracle/mod.rs"]
mod oracle;

#[test]
fn everything_at_once() {
    let (mut dut, _) = oracle::check("torture", 0x707, 4000);

    // The run exercised everything it was meant to.
    let c = dut.dev().counters();
    assert!(c.premature_flushes > 0, "premature flushes: {c:?}");
    assert!(c.slc_combines > 0, "combines");
    assert!(c.conventional_updates > 0, "conventional updates");
    assert!(c.l2p_log_flushes > 0, "l2p log flushes");
    assert!(c.zone_resets > 0, "resets");
    assert!(c.gc_runs > 0, "slc gc ran");
    assert!(c.l2p_misses > 0 || c.l2p_hits() > 0, "read path exercised");
    assert!(c.lost_slices > 0 && c.recovered_slices > 0, "power cuts");
}
