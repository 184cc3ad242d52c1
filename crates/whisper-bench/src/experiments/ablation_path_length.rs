//! Ablation — onion path length. The paper (§III-A, footnote 2) notes
//! that using `f` mixes tolerates `f − 1` colluding mixes; this ablation
//! measures what longer paths cost in exchange latency, route success and
//! bandwidth.

use crate::harness::{NetBuilder, Routes};
use crate::report;
use whisper_net::stats::Cdf;
use whisper_net::metrics::traffic_delta;

/// Experiment parameters.
#[derive(Clone, Debug)]
pub struct Params {
    /// Population size.
    pub nodes: usize,
    /// Number of private groups.
    pub groups: usize,
    /// Mix counts to sweep (2 = the paper's `S → A → B → D`).
    pub mixes: Vec<usize>,
    /// Measured seconds.
    pub measure: u64,
}

/// Warm-up seconds, and the settling time after group formation.
const WARMUP: u64 = 350;

/// Engine seed.
const SEED: u64 = 12;

impl Params {
    /// Default configuration.
    pub fn paper() -> Self {
        Params { nodes: 300, groups: 6, mixes: vec![2, 3, 4], measure: 300 }
    }

    /// A fast smoke-test configuration.
    pub fn quick() -> Self {
        Params { nodes: 120, groups: 3, mixes: vec![2, 3], measure: 180 }
    }
}

/// What one path length measured.
#[derive(Clone, Debug)]
pub struct Row {
    /// Mixes per path.
    pub mixes: usize,
    /// Exchange round trips, seconds each.
    pub rtt_s: Cdf,
    /// Route outcomes.
    pub routes: Routes,
    /// Bytes sent by the whole population while measuring.
    pub up_bytes: u64,
    /// PPSS exchanges completed while measuring.
    pub exchanges: u64,
}

/// The ablation: one row per swept mix count, in sweep order.
#[derive(Clone, Debug)]
pub struct PathLength {
    /// The rows.
    pub rows: Vec<Row>,
}

/// Runs the ablation.
pub fn run(params: &Params) -> PathLength {
    let mut rows = Vec::new();
    for &mixes in &params.mixes {
        let mut builder = NetBuilder::cluster(params.nodes, SEED);
        builder.whisper.wcl.mixes = mixes;
        let (mut net, ..) = builder.grouped(WARMUP, params.groups, "ablpath", SEED ^ 0x12, WARMUP);
        let before = net.sim.metrics().traffic_snapshot();
        net.sim.run_for_secs(params.measure);
        let after = net.sim.metrics().traffic_snapshot();

        let m = net.sim.metrics();
        rows.push(Row {
            mixes,
            rtt_s: Cdf::from_samples(m.samples("wcl.rtt_s").iter().copied()),
            routes: net.routes(),
            up_bytes: traffic_delta(&before, &after).values().map(|t| t.up_bytes).sum(),
            exchanges: m.counter("ppss.exchanges_completed"),
        });
    }
    PathLength { rows }
}

impl PathLength {
    /// Prints the ablation's table.
    pub fn print(&self) {
        report::banner(
            "Ablation: path length",
            "f mixes tolerate f−1 colluding mixes — at what cost?",
        );
        println!(
            "{:<8} {:>12} {:>12} {:>12} {:>14} {:>14}",
            "mixes", "rtt p50 (s)", "rtt p90 (s)", "success %", "KB/exchange", "exchanges"
        );
        for row in &self.rows {
            let mut rtt = row.rtt_s.clone();
            let (p50, p90) = if rtt.is_empty() { (f64::NAN, f64::NAN) } else { (rtt.median(), rtt.percentile(90.0)) };
            let [first, alt, _] = row.routes.shares();
            let exchanges = row.exchanges.max(1);
            println!(
                "{:<8} {:>12.3} {:>12.3} {:>12.2} {:>14.2} {:>14}",
                row.mixes,
                p50,
                p90,
                first + alt,
                row.up_bytes as f64 / exchanges as f64 / 1024.0,
                exchanges
            );
        }
    }
}
