#![forbid(unsafe_code)]
//! Experiment harness for the WHISPER reproduction.
//!
//! One binary per table/figure of the paper's evaluation (§V):
//!
//! | binary | reproduces |
//! |---|---|
//! | `fig5_biased_pss` | Fig. 5 — biased PSS: clustering + in-degree |
//! | `fig6_key_bandwidth` | Fig. 6 — key sampling bandwidth |
//! | `table1_churn_routes` | Table I — WCL route success under churn |
//! | `fig7_rtt_breakdown` | Fig. 7 — PPSS exchange RTT breakdown |
//! | `table2_cpu_costs` | Table II — AES/RSA CPU per PPSS cycle |
//! | `fig8_groups_bandwidth` | Fig. 8 — bandwidth vs. groups joined |
//! | `fig9_tchord` | Fig. 9 — private T-Chord routing delays |
//! | `ablation_path_length` | §III-A footnote — longer onion paths |
//! | `ablation_cb_size` | §III-A — connection backlog sizing |
//! | `all_experiments` | everything above, in sequence |
//! | `chaos_matrix` | beyond the paper — delivery, route repair and the recovery invariants per scripted fault (`chaos`) |
//! | `group_lifecycle` | beyond the paper — descriptor propagation and journal recovery under faults |
//! | `scale_smoke` | beyond the paper — 10k / 100k / 1M PSS nodes complete, allocations per send |
//!
//! Run them in release mode, e.g.
//! `cargo run --release -p whisper-bench --bin fig5_biased_pss`.
//!
//! Each `experiments::<fig>::run` returns the figure's result and its
//! `print` renders it: `tests/paper_claims.rs` asserts the paper's claims
//! on the results, and `print` is the only renderer of what
//! `scripts/golden/figures_quick.txt` and EXPERIMENTS.md hold.
//!
//! This library holds the shared scaffolding: deterministic population
//! builders, group formation, churn, route outcomes and plot-style output,
//! and the chaos harness (`chaos`): the scripted-fault scenarios, their
//! populations and acceptance seeds, and the one check of their recovery
//! invariants that `tests/chaos.rs`, `chaos_matrix` and `group_lifecycle`
//! all make.

pub mod chaos;
pub mod experiments;
pub mod harness;
pub mod report;

pub use harness::{NetBuilder, WhisperNet};
