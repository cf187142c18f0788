//! Prints the L2P-persistence-log ablation (`conzone_bench::figures::ablation_l2p_log`).

fn main() -> std::process::ExitCode {
    conzone_bench::cli(conzone_bench::figures::ablation_l2p_log, std::env::args())
}
