//! Prints Fig. 6(b), the cost of write-buffer conflicts (`conzone_bench::figures::fig6b`).

fn main() -> std::process::ExitCode {
    conzone_bench::cli(conzone_bench::figures::fig6b, std::env::args())
}
