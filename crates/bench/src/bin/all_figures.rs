//! Runs every table, figure and ablation of `conzone_bench::figures::ALL`
//! in order, in this process (the paper's full evaluation). Standard
//! output is each one's text under a `########## name ##########` header
//! and nothing else (`figures_output.txt` is a copy of it); the wall time
//! of each figure and the total go to standard error.

use std::time::Instant;

use conzone_bench::{figures, Out};

#[allow(
    clippy::disallowed_methods,
    reason = "host-side budget of the figure suite, printed to stderr only; no simulated result reads it"
)]
fn main() {
    let ms = |since: Instant| since.elapsed().as_secs_f64() * 1e3;
    let suite = Instant::now();
    for (name, figure) in figures::ALL {
        println!("\n########## {name} ##########");
        let started = Instant::now();
        let mut out = Out::default();
        figure(&mut out);
        print!("{}", out.text());
        eprintln!("{name:<18}{:>8.1} ms", ms(started));
    }
    eprintln!("{:<18}{:>8.1} ms", "total", ms(suite));
    println!("\nall tables and figures regenerated");
}
