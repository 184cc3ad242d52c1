//! Binary wrapper; see `whisper_bench::experiments::ablation_path_length`.
//! Pass `--quick` for a fast smoke-test configuration.

use whisper_bench::experiments::{self, ablation_path_length};

fn main() {
    let params = if experiments::quick_flag() { ablation_path_length::Params::quick() } else { ablation_path_length::Params::paper() };
    ablation_path_length::run(&params).print();
}
