//! Prints the TLC-vs-QLC media ablation (`conzone_bench::figures::ablation_media`).

fn main() -> std::process::ExitCode {
    conzone_bench::cli(conzone_bench::figures::ablation_media, std::env::args())
}
