//! Binary wrapper; see `whisper_bench::experiments::table1`.
//! Flags:
//! * `--quick` — fast smoke-test configuration;
//! * `--faults` — run only the fault-plan extension (burst loss /
//!   partition, adaptive vs. fixed RTO).

use whisper_bench::experiments::{self, table1};

fn main() {
    let quick = experiments::quick_flag();
    let faults_only = std::env::args().any(|a| a == "--faults");
    if !faults_only {
        table1::run(&if quick { table1::Params::quick() } else { table1::Params::paper() }).print();
    }
    table1::run_fault_scenarios(quick, 7).print();
}
