//! Prints the planes-per-chip ablation (`conzone_bench::figures::ablation_planes`).

fn main() -> std::process::ExitCode {
    conzone_bench::cli(conzone_bench::figures::ablation_planes, std::env::args())
}
