//! Group-lifecycle robustness sweep (DESIGN.md §15): deletion
//! propagation latency and journal recovery while groups are created,
//! joined, migrated and deleted under a partition and a staggered
//! crash/restart wave.
//!
//! Not a paper figure — this is reproduction-hardening evidence, printed
//! as one `metric value` row per cell.

use crate::chaos::{run_group_lifecycle, ChaosParams};
use crate::report;

/// The sweep's metrics, in print order.
#[derive(Clone, Debug)]
pub struct Lifecycle {
    /// The population.
    pub params: ChaosParams,
    /// `(metric, value)`; `journal_replay_wall_us` is host time.
    pub rows: [(&'static str, f64); 9],
}

/// Runs the lifecycle sweep. `quick` uses the 96-node smoke population;
/// otherwise the 1000-node / 4-shard acceptance population from
/// `tests/chaos.rs`.
pub fn run(quick: bool, seed: u64) -> Lifecycle {
    let params = if quick {
        ChaosParams::smoke(seed)
    } else {
        ChaosParams {
            nodes: 1000,
            groups: 10,
            shards: 4,
            warmup: 250,
            settle: 90,
            ..ChaosParams::full(seed)
        }
    };
    let out = run_group_lifecycle(&params);
    assert_eq!(out.echo.unattributed, 0, "lifecycle bench: unattributed drops");
    assert_eq!(out.resurrections, 0, "lifecycle bench: deleted group resurrected");
    let rows = [
        ("delivery_pct", out.echo.delivery_ratio() * 100.0),
        ("deletion_prop_p95_s", out.deletion_prop_p95_s),
        ("deletion_prop_samples", out.deletion_prop_samples as f64),
        ("journal_replays", out.journal_replays as f64),
        ("journal_groups_restored", out.journal_restored as f64),
        ("journal_replay_wall_us", out.replay_wall_us_mean),
        ("deleted_groups", out.deleted.len() as f64),
        ("resurrections", out.resurrections as f64),
        ("late_members", out.late_members as f64),
    ];
    Lifecycle { params, rows }
}

impl Lifecycle {
    /// Prints the metrics.
    pub fn print(&self) {
        report::banner(
            "Lifecycle",
            "group churn: deletion propagation + journal recovery under faults",
        );
        let params = &self.params;
        println!(
            "nodes={} groups={} shards={} seed={}",
            params.nodes, params.groups, params.shards, params.seed
        );
        println!("{:<28} {:>12}", "metric", "value");
        for (metric, value) in self.rows {
            println!("{metric:<28} {value:>12.2}");
        }
    }
}
