//! Prints Table I, the emulator feature matrix (`conzone_bench::figures::table1`).

fn main() -> std::process::ExitCode {
    conzone_bench::cli(conzone_bench::figures::table1, std::env::args())
}
