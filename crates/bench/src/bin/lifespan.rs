//! Prints the lifespan comparison under random file churn (`conzone_bench::figures::lifespan`).

fn main() -> std::process::ExitCode {
    conzone_bench::cli(conzone_bench::figures::lifespan, std::env::args())
}
