//! The per-file rule passes.
//!
//! Each rule is a function from a [`FileCtx`] to findings; the findings
//! are routed through the allowlist by `FileCtx::push`. Rules skip
//! `#[cfg(test)]` lines themselves (test code is exempt from every
//! per-file rule).

mod float_determinism;
mod truncating_cast;

use super::FileCtx;
use crate::Violation;

/// Runs every per-file rule over one file.
pub(crate) fn run(ctx: &FileCtx<'_>, out: &mut Vec<Violation>) {
    float_determinism::check(ctx, out);
    truncating_cast::check(ctx, out);
}
