//! Prints the conventional-zone comparison (`conzone_bench::figures::conventional_zones`).

fn main() -> std::process::ExitCode {
    conzone_bench::cli(conzone_bench::figures::conventional_zones, std::env::args())
}
