//! `fig7 --trace-out`: the one figure run that records events, and only
//! when a trace is asked for.

use std::process::Command;

use conzone_sim::json::{self, Json};

/// The `fig7` section of `figures_output.txt`.
fn golden_section() -> &'static str {
    const GOLDEN: &str = include_str!("../../../figures_output.txt");
    let header = "\n########## fig7 ##########\n";
    let start = GOLDEN.find(header).expect("fig7 has a section") + header.len();
    let rest = &GOLDEN[start..];
    &rest[..rest.find("\n########## ").expect("a section follows")]
}

/// The hybrid 1 GiB "hits" cell of the lookup table.
fn hybrid_1gib_hits(text: &str) -> u64 {
    let table = text
        .split("== Fig. 7 trace: L2P lookup events in the measured phase ==\n")
        .nth(1)
        .expect("the lookup table is printed");
    let row = table
        .lines()
        .find(|l| l.starts_with("1GiB "))
        .expect("a 1 GiB row");
    let cells: Vec<&str> = row.split_whitespace().collect();
    cells[3].parse().expect("a count")
}

/// The binary prints the golden section plus one line naming the file and
/// its event count; the file is a Chrome trace holding that many events,
/// and its `l2p_hit` instants are the hybrid 1 GiB hits the table prints.
#[test]
fn fig7_trace_out_writes_the_hybrid_1gib_phase() {
    let dir = std::env::temp_dir().join(format!("conzone-fig7-trace-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temporary directory");
    let path = dir.join("fig7.json");
    let run = Command::new(env!("CARGO_BIN_EXE_fig7"))
        .arg("--trace-out")
        .arg(&path)
        .output()
        .expect("fig7 runs");
    assert!(run.status.success(), "fig7: {}", run.status);
    let text = String::from_utf8(run.stdout).expect("UTF-8 stdout");

    let prefix = "wrote Chrome trace of the hybrid 1 GiB measured phase (";
    let (wrote, rest): (Vec<&str>, Vec<&str>) = text.lines().partition(|l| l.starts_with(prefix));
    assert_eq!(wrote.len(), 1, "one trace line: {wrote:?}");
    let mut without = rest.join("\n");
    without.push('\n');
    assert_eq!(without, golden_section(), "the rest is the golden section");
    let suffix = format!(" events) to {}", path.display());
    let events: usize = wrote[0][prefix.len()..]
        .strip_suffix(&suffix)
        .unwrap_or_else(|| panic!("names the file: {}", wrote[0]))
        .parse()
        .expect("an event count");

    let file = std::fs::read_to_string(&path).expect("the trace file");
    let doc = json::parse(&file).expect("the trace parses");
    let trace = doc
        .get("traceEvents")
        .and_then(Json::as_array)
        .expect("a traceEvents array");
    assert_eq!(trace.len(), events);
    let hits = trace
        .iter()
        .filter(|e| e.get("name").and_then(Json::as_str) == Some("l2p_hit"))
        .count() as u64;
    assert_eq!(hits, hybrid_1gib_hits(&text));
    std::fs::remove_dir_all(&dir).ok();
}
