//! Prints the L2P-cache-size ablation (`conzone_bench::figures::ablation_cache`).

fn main() -> std::process::ExitCode {
    conzone_bench::cli(conzone_bench::figures::ablation_cache, std::env::args())
}
