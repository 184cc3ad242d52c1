//! Binary wrapper; see `whisper_bench::experiments::fig6`.
//! Pass `--quick` for a fast smoke-test configuration.

use whisper_bench::experiments::{self, fig6};

fn main() {
    let params = if experiments::quick_flag() { fig6::Params::quick() } else { fig6::Params::paper() };
    fig6::run(&params).print();
}
