//! Prints the write-buffer-count ablation (`conzone_bench::figures::ablation_buffers`).

fn main() -> std::process::ExitCode {
    conzone_bench::cli(conzone_bench::figures::ablation_buffers, std::env::args())
}
