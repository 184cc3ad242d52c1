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
//!
//! Run them in release mode, e.g.
//! `cargo run --release -p whisper-bench --bin fig5_biased_pss`.
//!
//! This library holds the shared scaffolding: deterministic population
//! builders, group formation, bandwidth reporting and plot-style output.

pub mod chaos;
pub mod experiments;
pub mod harness;
pub mod report;

pub use harness::{NetBuilder, WhisperNet};
