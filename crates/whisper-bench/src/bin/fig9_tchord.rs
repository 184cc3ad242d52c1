//! Binary wrapper; see `whisper_bench::experiments::fig9`.
//! Pass `--quick` for a fast smoke-test configuration.

use whisper_bench::experiments::{self, fig9};

fn main() {
    let params = if experiments::quick_flag() { fig9::Params::quick() } else { fig9::Params::paper() };
    fig9::run(&params).print();
}
