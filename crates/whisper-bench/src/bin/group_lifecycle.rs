//! Binary wrapper; see `whisper_bench::experiments::lifecycle`.
//! Flags:
//! * `--quick` — 96-node smoke population instead of the 1000-node /
//!   4-shard acceptance population;
//! * `--seed N` — override the scenario seed (default 7, the first
//!   entry of the verify.sh acceptance matrix).
//!
//! Metrics land in the `WHISPER_BENCH_JSON` merge file (when set) under
//! `lifecycle/...` ids.

use whisper_bench::experiments::{self, lifecycle};

fn main() {
    let quick = experiments::quick_flag();
    let seed = experiments::arg_value("--seed").map(|s| s as u64).unwrap_or(7);
    lifecycle::run(quick, seed).print();
}
