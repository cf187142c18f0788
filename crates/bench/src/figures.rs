//! One function per table, figure and ablation, and [`ALL`], the list
//! `all_figures` runs. A function builds its devices from `DeviceConfig`,
//! runs [`FioJob`](conzone_host::FioJob)s through
//! [`run_job`](conzone_host::run_job), prints the series into an [`Out`]
//! and checks the paper's stated relationships there as
//! [`ExpectedRelation`](crate::ExpectedRelation)s.
//!
//! `figures_output.txt` at the repository root is the golden: the tests
//! below compare every figure's text with its section byte for byte.

use crate::Out;

mod ablation_buffers;
mod ablation_cache;
mod ablation_l2p_log;
mod ablation_media;
mod ablation_planes;
mod ablation_slc;
mod ablation_sync;
mod conventional_zones;
mod fig6a;
mod fig6b;
mod fig7;
mod fig8;
mod latency_vs_load;
mod lifespan;
mod table1;
mod table2;

pub use ablation_buffers::ablation_buffers;
pub use ablation_cache::ablation_cache;
pub use ablation_l2p_log::ablation_l2p_log;
pub use ablation_media::ablation_media;
pub use ablation_planes::ablation_planes;
pub use ablation_slc::ablation_slc;
pub use ablation_sync::ablation_sync;
pub use conventional_zones::conventional_zones;
pub use fig6a::fig6a;
pub use fig6b::fig6b;
pub use fig7::fig7;
pub use fig8::fig8;
pub use latency_vs_load::latency_vs_load;
pub use lifespan::lifespan;
pub use table1::table1;
pub use table2::table2;

/// One table, figure or ablation: it prints into the [`Out`].
pub type Figure = fn(&mut Out);

/// Every figure with the name of its binary, in the order `all_figures`
/// prints them (and `figures_output.txt` records them).
pub const ALL: [(&str, Figure); 16] = [
    ("table1", table1),
    ("table2", table2),
    ("fig6a", fig6a),
    ("fig6b", fig6b),
    ("fig7", fig7),
    ("fig8", fig8),
    ("ablation_buffers", ablation_buffers),
    ("ablation_cache", ablation_cache),
    ("ablation_slc", ablation_slc),
    ("ablation_l2p_log", ablation_l2p_log),
    ("ablation_media", ablation_media),
    ("ablation_planes", ablation_planes),
    ("ablation_sync", ablation_sync),
    ("latency_vs_load", latency_vs_load),
    ("lifespan", lifespan),
    ("conventional_zones", conventional_zones),
];

/// The figures against `figures_output.txt`. A mismatch names the golden
/// line; a model change that moves one is regenerated on purpose, never
/// to make this pass.
/// Each figure's output, run once per test binary: `golden` checks a
/// section's text and `relations` its claims from the same run.
#[cfg(test)]
fn ran(name: &str) -> &'static Out {
    use std::sync::OnceLock;
    static RUNS: [OnceLock<Out>; ALL.len()] = [const { OnceLock::new() }; ALL.len()];
    let i = ALL.iter().position(|(n, _)| *n == name).expect("in ALL");
    RUNS[i].get_or_init(|| {
        let mut out = Out::default();
        (ALL[i].1)(&mut out);
        out
    })
}

#[cfg(test)]
mod golden {
    use super::ran;

    const GOLDEN: &str = include_str!("../../../figures_output.txt");

    /// `name`'s section of the golden (between its `all_figures` header
    /// and the next one or the closing line) and the number of its first
    /// line in the file.
    fn section(name: &str) -> (&'static str, usize) {
        let header = format!("\n########## {name} ##########\n");
        let start = GOLDEN.find(&header).expect("figure has a section") + header.len();
        let rest = &GOLDEN[start..];
        let len = rest
            .find("\n########## ")
            .or_else(|| rest.find("\nall tables and figures regenerated\n"))
            .expect("section ends");
        (&rest[..len], GOLDEN[..start].lines().count() + 1)
    }

    /// Runs `name` and checks its text, line by line, against its section,
    /// and that it recorded one holding relation per `[ok]` line there.
    fn matches_its_section(name: &str) {
        let out = ran(name);
        let (golden, first_line) = section(name);
        for (i, (got, want)) in out.text().lines().zip(golden.lines()).enumerate() {
            assert_eq!(got, want, "{name}: figures_output.txt:{}", first_line + i);
        }
        assert_eq!(out.text(), golden, "{name}: the section's length");
        let ok_lines = golden.lines().filter(|l| l.starts_with("[ok] ")).count();
        assert_eq!(out.relations().len(), ok_lines, "{name}: relations");
        for r in out.relations() {
            assert!(r.holds, "{name}: {} ({})", r.claim, r.evidence);
        }
    }

    macro_rules! sections {
        ($($(#[$attr:meta])* $name:ident),* $(,)?) => {$(
            $(#[$attr])*
            #[test]
            fn $name() {
                matches_its_section(stringify!($name));
            }
        )*};
    }

    sections!(
        table1,
        table2,
        fig6a,
        fig6b,
        fig7,
        fig8,
        ablation_buffers,
        ablation_cache,
        ablation_slc,
        ablation_l2p_log,
        ablation_media,
        ablation_planes,
        // Each of its ≈ 11 K ConZone fsyncs runs the debug invariant sweep:
        // ≈ 3 min in a debug build, milliseconds in release.
        #[cfg(not(debug_assertions))]
        ablation_sync,
        latency_vs_load,
        // ≈ 10 s in a debug build.
        #[cfg(not(debug_assertions))]
        lifespan,
        conventional_zones,
    );
}

/// The paper-shape checks as data: each claim string is distinct, so a
/// claim can key a traceability row (`golden` checks that they hold, on
/// the same runs). A debug build skips the two sections `golden` skips
/// there and checks the claims it saw; the total of 34 is asserted in
/// release.
#[cfg(test)]
mod relations {
    use super::{ran, ALL};

    #[test]
    fn claims_are_distinct_keys() {
        let mut claims = Vec::new();
        for (name, _) in ALL {
            if cfg!(debug_assertions) && matches!(name, "ablation_sync" | "lifespan") {
                continue;
            }
            claims.extend(ran(name).relations().iter().map(|r| r.claim));
        }
        let total = claims.len();
        claims.sort_unstable();
        claims.dedup();
        assert_eq!(claims.len(), total, "a claim string repeats");
        if !cfg!(debug_assertions) {
            assert_eq!(total, 34, "relations");
        }
    }
}
