//! Binary wrapper; see `whisper_bench::experiments::ablation_cb_size`.
//! Pass `--quick` for a fast smoke-test configuration.

use whisper_bench::experiments::{self, ablation_cb_size};

fn main() {
    let params = if experiments::quick_flag() { ablation_cb_size::Params::quick() } else { ablation_cb_size::Params::paper() };
    ablation_cb_size::run(&params).print();
}
