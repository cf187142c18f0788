//! Prints the synchronous-write ablation (`conzone_bench::figures::ablation_sync`).

fn main() -> std::process::ExitCode {
    conzone_bench::cli(conzone_bench::figures::ablation_sync, std::env::args())
}
