//! Prints Fig. 8, the L2P search strategies (`conzone_bench::figures::fig8`).

fn main() -> std::process::ExitCode {
    conzone_bench::cli(conzone_bench::figures::fig8, std::env::args())
}
