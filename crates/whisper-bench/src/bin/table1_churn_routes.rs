//! Binary wrapper; see `whisper_bench::experiments::table1`.
//! Flags: `--quick` — fast smoke-test configuration. The scripted-fault
//! extension (delivery and route repair per fault, adaptive vs. fixed
//! retry timer) is the `chaos_matrix` binary.

use whisper_bench::experiments::{self, table1};

fn main() {
    let quick = experiments::quick_flag();
    table1::run(&if quick { table1::Params::quick() } else { table1::Params::paper() }).print();
}
