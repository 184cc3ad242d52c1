//! Table I — Availability of anonymizing routes under churn: the ratio of
//! WCL route constructions that succeed first-hand, succeed over an
//! alternative path, or find no alternative.
//!
//! Paper setting: ~1,000 nodes, 20 private groups (one random group per
//! node), Π = 3, churn rates X ∈ {0, 0.2, 1, 5, 10}% of the network per
//! minute with 100% replacement, following the SPLAY script printed under
//! the table.

use crate::harness::{NetBuilder, Routes};
use crate::report;

/// Experiment parameters.
#[derive(Clone, Debug)]
pub struct Params {
    /// Population size.
    pub nodes: usize,
    /// Number of private groups.
    pub groups: usize,
    /// Churn rates in %/minute.
    pub churn_rates: Vec<f64>,
    /// Warm-up before group formation (PSS convergence), seconds.
    pub warmup: u64,
    /// Settling time between group formation and churn start, seconds.
    pub settle: u64,
    /// Churn (and measurement) window, seconds.
    pub churn_window: u64,
    /// Engine seed.
    pub seed: u64,
}

impl Params {
    /// The paper's configuration.
    pub fn paper() -> Self {
        Params {
            nodes: 1000,
            groups: 20,
            churn_rates: vec![0.0, 0.2, 1.0, 5.0, 10.0],
            warmup: 250,
            settle: 250,
            churn_window: 900,
            seed: 7,
        }
    }

    /// A fast smoke-test configuration.
    pub fn quick() -> Self {
        Params {
            nodes: 200,
            groups: 5,
            churn_rates: vec![0.0, 1.0, 5.0],
            warmup: 250,
            settle: 200,
            churn_window: 300,
            ..Params::paper()
        }
    }
}

/// Table I: the route outcomes of each churn rate, in `churn_rates` order.
#[derive(Clone, Debug)]
pub struct Table1 {
    /// What was run.
    pub params: Params,
    /// One per churn rate.
    pub rows: Vec<Routes>,
}

fn run_one(params: &Params, x_percent: f64) -> Routes {
    // One leader (P-node) per group, as in the paper where each group is
    // created by a P-node; measured only during the churn window.
    let (mut net, leaders, groups) = NetBuilder::cluster(params.nodes, params.seed)
        .grouped(params.warmup, params.groups, "table1", params.seed ^ 0x51, params.settle);
    net.churn(params.churn_window, x_percent, &leaders, &groups, params.seed ^ 0xC0FFEE, params.seed ^ 0x9);
    net.routes()
}

/// Runs the experiment.
pub fn run(params: &Params) -> Table1 {
    Table1 { params: params.clone(), rows: params.churn_rates.iter().map(|&x| run_one(params, x)).collect() }
}

impl Table1 {
    /// Prints Table I.
    pub fn print(&self) {
        let params = &self.params;
        report::banner("Table I", "WCL route construction success under churn");
        println!(
            "nodes={} groups={} Π=3 churn window={}s (script: joins over warmup, set replacement 100%, const churn each 60s, stop)",
            params.nodes, params.groups, params.churn_window
        );
        println!("{:<34} {}", "churn", Routes::HEADER);
        for (&x, routes) in params.churn_rates.iter().zip(&self.rows) {
            let label = if x == 0.0 {
                "No churn".to_string()
            } else {
                let per_15min = (params.nodes as f64 * x / 100.0 * 15.0).round();
                format!("X={x}%/min ({per_15min:.0} leave&join/15min)")
            };
            println!("{label:<34} {routes}");
        }
    }
}
