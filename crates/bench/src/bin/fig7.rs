//! Prints Fig. 7, page vs hybrid mapping under 4 KiB random reads (`conzone_bench::figures::fig7`).
//! `--trace-out <path>` also writes the hybrid 1 GiB phase as a Chrome trace.

fn main() -> std::process::ExitCode {
    conzone_bench::cli(conzone_bench::figures::fig7, std::env::args())
}
