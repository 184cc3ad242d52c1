//! Binary wrapper; see `whisper_bench::experiments::fig5`.
//! Flags:
//! * `--quick` — smoke-test scale;
//! * `--no-oldest-p-discard` — ablation: protect P-node slots by
//!   seniority instead of freshness.

use whisper_bench::experiments::{self, fig5};

fn main() {
    let quick = experiments::quick_flag();
    let mut params = if quick { fig5::Params::quick() } else { fig5::Params::paper() };
    if std::env::args().any(|a| a == "--no-oldest-p-discard") {
        params.oldest_p_discard = false;
    }
    fig5::run(&params);
}
