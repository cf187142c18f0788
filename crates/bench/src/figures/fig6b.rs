use conzone_core::ConZone;
use conzone_host::{run_job, AccessPattern, FioJob, JobReport};
use conzone_types::{DeviceConfig, Geometry};

use crate::{ExpectedRelation, Out};

/// The Fig. 6(b) experiment on the paper configuration with `geometry`:
/// two threads each write one full zone, `zones[0]` and `zones[1]`, in
/// 48 KiB requests. `ablation_planes` reruns it across plane counts.
pub(super) fn conflict_case(geometry: Geometry, zones: [u64; 2]) -> JobReport {
    let cfg = DeviceConfig::builder(geometry).build().expect("config");
    let zone_bytes = cfg.zone_size_bytes();
    let mut dev = ConZone::new(cfg);
    let job = FioJob::new(AccessPattern::SeqWrite, 48 * 1024)
        .zone_bytes(zone_bytes)
        .threads(2)
        .with_thread_zones(vec![vec![zones[0]], vec![zones[1]]])
        .bytes_per_thread(zone_bytes);
    run_job(&mut dev, &job).expect("fig6b run")
}

/// Bandwidth MiB/s, WAF and buffer conflicts of both Fig. 6(b) cases:
/// zones 0 and 2 share buffer 0 (conflict), zones 0 and 1 use separate
/// buffers (no conflict).
fn both_cases() -> [(f64, f64, u64); 2] {
    [[0, 2], [0, 1]].map(|zones| {
        let r = conflict_case(Geometry::consumer_1p5gb(), zones);
        (r.bandwidth_mibs(), r.waf(), r.counters.buffer_conflicts)
    })
}

/// Fig. 6(b): the cost of write-buffer conflicts.
///
/// Two threads each write one full zone with 48 KiB granularity (below the
/// 96 KiB programming unit, so every buffer eviction is premature). Odd
/// and even zones map to the two write buffers; when both threads write
/// zones of the *same parity* they share one buffer and every switch
/// evicts the other thread's sub-unit data into SLC. The paper reports
/// ~65 % higher bandwidth and ~24 % lower write amplification without
/// conflicts.
pub fn fig6b(out: &mut Out) {
    let [(bw_conflict, waf_conflict, conflicts), (bw_clean, waf_clean, clean_conflicts)] =
        both_cases();

    out.table(
        "Fig. 6(b): write-buffer conflicts (2 threads, 48 KiB writes, one zone each)",
        &["case", "bandwidth MiB/s", "waf", "buffer conflicts"],
        &[
            vec![
                "conflict (same parity)".into(),
                format!("{bw_conflict:.0}"),
                format!("{waf_conflict:.3}"),
                conflicts.to_string(),
            ],
            vec![
                "no conflict (split parity)".into(),
                format!("{bw_clean:.0}"),
                format!("{waf_clean:.3}"),
                clean_conflicts.to_string(),
            ],
        ],
    );

    let bw_gain = (bw_clean / bw_conflict - 1.0) * 100.0;
    let waf_drop = (1.0 - waf_clean / waf_conflict) * 100.0;
    out.line(format!(
        "\nno-conflict bandwidth gain: {bw_gain:+.1} % (paper: ~+65 %)\n\
         write-amplification reduction: {waf_drop:.1} % (paper: ~24 %)"
    ));

    out.check([
        ExpectedRelation {
            claim: "conflicts cause premature flushes and extra SLC writes",
            holds: conflicts > 0 && clean_conflicts == 0,
            evidence: format!("{conflicts} vs {clean_conflicts} conflicts"),
        },
        ExpectedRelation {
            claim: "no-conflict bandwidth is substantially higher (paper ~65 %)",
            holds: bw_gain > 30.0,
            evidence: format!("{bw_gain:+.1} %"),
        },
        ExpectedRelation {
            claim: "no-conflict write amplification is lower (paper ~24 %)",
            holds: waf_drop > 10.0,
            evidence: format!("-{waf_drop:.1} %"),
        },
    ]);
}

/// EXPERIMENTS.md "Known deviations" 1, the Fig. 6(b) half (the Fig. 6(a)
/// half is pinned next to `fig6a`).
#[cfg(test)]
mod known_deviations {
    #[test]
    fn deviation_1_conflict_penalty_is_overstated() {
        let [(bw_conflict, ..), (bw_clean, ..)] = super::both_cases();
        let gain = (bw_clean / bw_conflict - 1.0) * 100.0;
        assert!(
            (120.0..=180.0).contains(&gain),
            "EXPERIMENTS.md known deviation 1: Fig. 6(b) no-conflict gain {gain:+.1} % left \
             +120 % to +180 % (paper +65 %); moving it needs the output-change protocol \
             (ROADMAP item 6)"
        );
    }
}
