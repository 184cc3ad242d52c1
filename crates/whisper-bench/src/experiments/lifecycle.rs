//! Group-lifecycle robustness sweep (DESIGN.md §15): deletion
//! propagation latency and journal recovery while groups are created,
//! joined, migrated and deleted under a partition and a staggered
//! crash/restart wave.
//!
//! Not a paper figure — this is reproduction-hardening evidence, printed
//! as one `metric value` row per cell.

use crate::chaos::{run_group_lifecycle, ChaosParams, DELIVERY_FLOOR, SMOKE_DELIVERY_FLOOR};
use crate::report;

/// The sweep's metrics, in print order.
#[derive(Clone, Debug)]
pub struct Lifecycle {
    /// The population.
    pub params: ChaosParams,
    /// `(metric, value)`.
    pub rows: [(&'static str, f64); 8],
}

/// Runs the lifecycle sweep. `quick` uses the 96-node smoke population;
/// otherwise [`ChaosParams::scale_out`], the 1000-node / 4-shard
/// acceptance population of `tests/chaos.rs`. Panics, naming them, on the
/// invariants the run broke ([`LifecycleOutcome::violations`] at the
/// population's floor).
///
/// [`LifecycleOutcome::violations`]: crate::chaos::LifecycleOutcome::violations
pub fn run(quick: bool, seed: u64) -> Lifecycle {
    let (params, floor) = if quick {
        (ChaosParams::smoke(seed), SMOKE_DELIVERY_FLOOR)
    } else {
        (ChaosParams::scale_out(seed), DELIVERY_FLOOR)
    };
    let out = run_group_lifecycle(&params);
    let violations = out.violations(floor);
    assert!(violations.is_empty(), "lifecycle seed {seed}: {}", violations.join("; "));
    let rows = [
        ("delivery_pct", out.echo.delivery_ratio() * 100.0),
        ("deletion_prop_p95_s", out.deletion_prop_p95_s),
        ("deletion_prop_samples", out.deletion_prop_samples as f64),
        ("journal_replays", out.journal_replays as f64),
        ("journal_groups_restored", out.journal_restored as f64),
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
