//! Binary wrapper; see `whisper_bench::experiments::table1`.
//! Flags:
//! * `--quick` — fast smoke-test configuration;
//! * `--faults` — run only the fault-plan extension (burst loss /
//!   partition, adaptive vs. fixed RTO; medians land in
//!   `WHISPER_BENCH_JSON` when set);
//! * `--nodes N` / `--shards S` — override the population size and the
//!   engine shard count (DESIGN.md §12).

use whisper_bench::experiments::{self, table1};

fn main() {
    let quick = experiments::quick_flag();
    let faults_only = std::env::args().any(|a| a == "--faults");
    if !faults_only {
        let mut params = if quick { table1::Params::quick() } else { table1::Params::paper() };
        if let Some(nodes) = experiments::arg_value("--nodes") {
            params.nodes = nodes;
        }
        if let Some(shards) = experiments::arg_value("--shards") {
            params.shards = shards;
        }
        table1::run(&params);
    }
    table1::run_fault_scenarios(quick, 7);
}
