//! Binary wrapper; see `whisper_bench::experiments::fig8`.
//! Pass `--quick` for a fast smoke-test configuration.

use whisper_bench::experiments::{self, fig8};

fn main() {
    let params = if experiments::quick_flag() { fig8::Params::quick() } else { fig8::Params::paper() };
    fig8::run(&params).print();
}
