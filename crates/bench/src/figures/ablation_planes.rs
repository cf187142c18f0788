use conzone_types::Geometry;

use super::fig6b::conflict_case;
use crate::{ExpectedRelation, Out};

/// Ablation: multi-plane dies and the write-buffer conflict penalty.
///
/// We initially attributed our Fig. 6(b) overstatement (+148 % vs the
/// paper's +65 %) partly to modelling single-plane dies. This sweep tests
/// that hypothesis by re-running Fig. 6(b) with 1–4 planes per chip —
/// and *refutes* it: plane parallelism accelerates the no-conflict case
/// at least as much as the conflict case (two zones on different planes
/// of one die program concurrently), so the relative penalty does not
/// shrink. The remaining gap must come from controller-level overlap
/// (cache programming, internal staging SRAM) that no geometry knob
/// recovers — see EXPERIMENTS.md.
pub fn ablation_planes(out: &mut Out) {
    let mut rows = Vec::new();
    let mut gains = Vec::new();
    for planes in [1usize, 2, 4] {
        let mut geometry = Geometry::consumer_1p5gb();
        geometry.planes_per_chip = planes;
        let conflict = conflict_case(geometry, [0, 2]);
        let clean_bw = conflict_case(geometry, [0, 1]).bandwidth_mibs();
        let conflict_bw = conflict.bandwidth_mibs();
        let gain = (clean_bw / conflict_bw - 1.0) * 100.0;
        gains.push(gain);
        rows.push(vec![
            planes.to_string(),
            format!("{conflict_bw:.0}"),
            format!("{clean_bw:.0}"),
            format!("{gain:+.0}%"),
            format!("{:.3}", conflict.waf()),
        ]);
    }
    out.table(
        "Ablation: planes per chip vs the Fig. 6(b) conflict penalty",
        &[
            "planes",
            "conflict MiB/s",
            "no-conflict MiB/s",
            "no-conflict gain",
            "conflict waf",
        ],
        &rows,
    );
    out.line("\npaper-reported gain on real hardware: ~+65 %");
    out.check([ExpectedRelation {
        claim: "plane parallelism does NOT close the conflict gap — a \
                negative result that narrows the deviation analysis",
        holds: gains.iter().all(|g| *g > 100.0),
        evidence: format!(
            "gains {:.0}% / {:.0}% / {:.0}% with 1 / 2 / 4 planes",
            gains[0], gains[1], gains[2]
        ),
    }]);
}
