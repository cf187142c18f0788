//! Prints Table II, media latencies (`conzone_bench::figures::table2`).

fn main() -> std::process::ExitCode {
    conzone_bench::cli(conzone_bench::figures::table2, std::env::args())
}
