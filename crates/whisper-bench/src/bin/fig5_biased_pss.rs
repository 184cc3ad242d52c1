//! Binary wrapper; see `whisper_bench::experiments::fig5`.
//! Flags:
//! * `--quick` — smoke-test scale;
//! * `--no-oldest-p-discard` — ablation: protect P-node slots by
//!   seniority instead of freshness;
//! * `--nodes N` / `--shards S` — override the population size and the
//!   engine shard count (DESIGN.md §12); with `--scale` they restrict
//!   the sweep to the single `(N, S)` cell;
//! * `--scale` — run the scale-out sweep (PSS-only nodes-per-second
//!   curve, 384→1M nodes × 1/2/4/8 shards) instead of Fig. 5;
//! * `--sched heap|wheel` — with `--scale`, pick the event scheduler
//!   (reference binary heap vs calendar wheel; DESIGN.md §14) for a
//!   trace-invariant throughput A/B;
//! * `--reps N` — with `--scale`, time each cell N times and keep the
//!   best run (suppresses shared-host noise);
//! * `--secs N` — with `--scale`, simulated seconds per cell (the row's
//!   `rss (MiB)` is the resident set when they have run);
//! * `--prof` — with `--scale`, run one extra untimed repetition of
//!   each cell with the scoped hot-path profiler on (DESIGN.md §16)
//!   and record the per-bucket breakdown as `prof/...` rows;
//! * `--max-allocs-per-send X` — with `--scale`, exit non-zero if any
//!   cell's allocs-per-send exceeds X (the verify.sh regression gate);
//! * `--allocs` — run the payload-pool A/B (heap allocations per send,
//!   pooling on vs off; DESIGN.md §13) instead of Fig. 5.

use whisper_bench::experiments::{self, fig5, scaling};
use whisper_net::sched::Scheduler;

fn main() {
    let quick = experiments::quick_flag();
    let scale = std::env::args().any(|a| a == "--scale");
    let allocs = std::env::args().any(|a| a == "--allocs");
    if scale || allocs {
        let mut params = if quick { scaling::Params::quick() } else { scaling::Params::paper() };
        if let Some(nodes) = experiments::arg_value("--nodes") {
            params.nodes = vec![nodes];
        }
        if let Some(shards) = experiments::arg_value("--shards") {
            params.shards = vec![shards];
        }
        if let Some(s) = experiments::arg_str("--sched") {
            params.sched = Scheduler::parse(&s).expect("--sched takes `heap` or `wheel`");
        }
        if let Some(reps) = experiments::arg_value("--reps") {
            params.reps = reps;
        }
        if let Some(secs) = experiments::arg_value("--secs") {
            params.secs = secs as u64;
        }
        params.prof = std::env::args().any(|a| a == "--prof");
        if let Some(max) = experiments::arg_str("--max-allocs-per-send") {
            params.max_allocs_per_send =
                Some(max.parse().expect("--max-allocs-per-send takes a number"));
        }
        if allocs {
            scaling::run_allocs(&params);
        } else {
            scaling::run(scaling::Stack::Pss, &params);
        }
        return;
    }
    let mut params = if quick { fig5::Params::quick() } else { fig5::Params::paper() };
    if std::env::args().any(|a| a == "--no-oldest-p-discard") {
        params.oldest_p_discard = false;
    }
    if let Some(nodes) = experiments::arg_value("--nodes") {
        params.nodes = nodes;
    }
    if let Some(shards) = experiments::arg_value("--shards") {
        params.shards = shards;
    }
    fig5::run(&params);
}
