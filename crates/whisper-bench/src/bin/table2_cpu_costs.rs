//! Binary wrapper; see `whisper_bench::experiments::table2`.
//! Pass `--quick` for a fast smoke-test configuration.

use whisper_bench::experiments::{self, table2};

fn main() {
    let params = if experiments::quick_flag() { table2::Params::quick() } else { table2::Params::paper() };
    table2::run(&params).print();
}
