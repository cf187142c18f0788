//! Prints Fig. 6(a), sequential bandwidth of ConZone, Legacy and FEMU (`conzone_bench::figures::fig6a`).

fn main() -> std::process::ExitCode {
    conzone_bench::cli(conzone_bench::figures::fig6a, std::env::args())
}
