//! Binary wrapper; see `whisper_bench::experiments::fig7`.
//! Pass `--quick` for a fast smoke-test configuration.

use whisper_bench::experiments::{self, fig7};

fn main() {
    let params = if experiments::quick_flag() { fig7::Params::quick() } else { fig7::Params::paper() };
    fig7::run(&params).print();
}
