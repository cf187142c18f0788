//! Prints the SLC-region-size ablation (`conzone_bench::figures::ablation_slc`).

fn main() -> std::process::ExitCode {
    conzone_bench::cli(conzone_bench::figures::ablation_slc, std::env::args())
}
