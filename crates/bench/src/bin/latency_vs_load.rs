//! Prints latency versus offered open-loop load (`conzone_bench::figures::latency_vs_load`).

fn main() -> std::process::ExitCode {
    conzone_bench::cli(conzone_bench::figures::latency_vs_load, std::env::args())
}
