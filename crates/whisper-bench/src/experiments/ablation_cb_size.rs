//! Ablation — connection backlog sizing. The paper fixes the CB at 2 × c
//! entries, arguing entries then stay far younger than NAT association
//! leases. This ablation sweeps the factor under churn and measures route
//! success.

use crate::harness::{NetBuilder, Routes};
use crate::report;

/// Experiment parameters.
#[derive(Clone, Debug)]
pub struct Params {
    /// Population size.
    pub nodes: usize,
    /// Number of private groups.
    pub groups: usize,
    /// CB capacity factors to sweep (CB = factor × c; the paper uses 2).
    pub cb_factors: Vec<usize>,
    /// Churn rate in %/min during the measurement window.
    pub churn_percent: f64,
    /// Warm-up seconds.
    pub warmup: u64,
    /// Measured (churned) seconds.
    pub measure: u64,
    /// Engine seed.
    pub seed: u64,
}

impl Params {
    /// Default configuration.
    pub fn paper() -> Self {
        Params {
            nodes: 300,
            groups: 6,
            cb_factors: vec![1, 2, 4],
            churn_percent: 1.0,
            warmup: 350,
            measure: 480,
            seed: 13,
        }
    }

    /// A fast smoke-test configuration.
    pub fn quick() -> Self {
        Params { nodes: 120, groups: 3, measure: 240, ..Params::paper() }
    }
}

/// The ablation: `(cb_factor, route outcomes)` per swept factor, in
/// sweep order.
#[derive(Clone, Debug)]
pub struct CbSize {
    /// The rows.
    pub rows: Vec<(usize, Routes)>,
}

/// Runs the ablation.
pub fn run(params: &Params) -> CbSize {
    let mut rows = Vec::new();
    for &factor in &params.cb_factors {
        let mut builder = NetBuilder::cluster(params.nodes, params.seed);
        builder.whisper.nylon.cb_factor = factor;
        let (mut net, leaders, groups) =
            builder.grouped(params.warmup, params.groups, "ablcb", params.seed ^ 0x13, params.warmup);
        net.churn(params.measure, params.churn_percent, &leaders, &groups, params.seed ^ 0xCB, params.seed ^ 0xCB1);
        rows.push((factor, net.routes()));
    }
    CbSize { rows }
}

impl CbSize {
    /// Prints the ablation's table.
    pub fn print(&self) {
        report::banner(
            "Ablation: connection backlog size",
            "CB = factor × c under churn — route success sensitivity",
        );
        println!("{:<10} {}", "cb_factor", Routes::HEADER);
        for (factor, routes) in &self.rows {
            println!("{factor:<10} {routes}");
        }
    }
}
