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
    /// Measured (churned) seconds.
    pub measure: u64,
}

/// CB capacity factors swept (CB = factor × c; the paper uses 2).
const CB_FACTORS: [usize; 3] = [1, 2, 4];

/// Churn rate in %/min during the measurement window.
const CHURN_PERCENT: f64 = 1.0;

/// Warm-up seconds, and the settling time after group formation.
const WARMUP: u64 = 350;

/// Engine seed.
const SEED: u64 = 13;

impl Params {
    /// Default configuration.
    pub fn paper() -> Self {
        Params { nodes: 300, groups: 6, measure: 480 }
    }

    /// A fast smoke-test configuration.
    pub fn quick() -> Self {
        Params { nodes: 120, groups: 3, measure: 240 }
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
    for factor in CB_FACTORS {
        let mut builder = NetBuilder::cluster(params.nodes, SEED);
        builder.whisper.nylon.cb_factor = factor;
        let (mut net, leaders, groups) = builder.grouped(WARMUP, params.groups, "ablcb", SEED ^ 0x13, WARMUP);
        net.churn(params.measure, CHURN_PERCENT, &leaders, &groups, SEED ^ 0xCB, SEED ^ 0xCB1);
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
