//! Binary wrapper; see `whisper_bench::experiments::lifecycle`.
//! Flags:
//! * `--quick` — 96-node smoke population instead of the 1000-node /
//!   4-shard acceptance population;
//! * `--seed N` — override the scenario seed (default 7, the first of
//!   `whisper_bench::chaos::ACCEPTANCE_SEEDS`).
//!
//! Prints one `metric value` row per metric; it panics, naming them, if
//! the run broke an invariant of the lifecycle acceptance test — a drop
//! unattributed, a deleted group come back, delivery under the floor.

use whisper_bench::experiments::{self, lifecycle};

fn main() {
    let quick = experiments::quick_flag();
    let seed = experiments::arg_value("--seed").map(|s| s as u64).unwrap_or(7);
    lifecycle::run(quick, seed).print();
}
