//! Fig. 8 — Network bandwidth as a function of the number of private
//! groups each node subscribes to.
//!
//! Paper setting: 400 nodes on PlanetLab, 120 private groups (each P-node
//! creates and leads one), subscriptions per node swept over
//! {1, 2, 4, 8, 16, 32}; results shown as stacked percentiles
//! (5/25/50/75/90) of upload and download bandwidth, split by node class.

use crate::harness::NetBuilder;
use crate::report;
use whisper_net::metrics::traffic_delta;
use whisper_net::stats::Cdf;
use whisper_net::NodeId;

/// Experiment parameters.
#[derive(Clone, Debug)]
pub struct Params {
    /// Population size.
    pub nodes: usize,
    /// Groups-per-node values to sweep.
    pub subscriptions: Vec<usize>,
    /// Number of measured PPSS cycles.
    pub cycles: u64,
}

/// Warm-up seconds, before group formation and again after subscribing.
const WARMUP: u64 = 400;

/// Engine seed.
const SEED: u64 = 10;

impl Params {
    /// The paper's configuration.
    pub fn paper() -> Self {
        Params {
            nodes: 400,
            subscriptions: vec![1, 2, 4, 8, 16, 32],
            cycles: 5,
        }
    }

    /// A fast smoke-test configuration.
    pub fn quick() -> Self {
        Params { nodes: 120, subscriptions: vec![1, 4], cycles: 3 }
    }
}

/// A row of the figure: the stacked percentiles (p5, p25, p50, p75, p90)
/// of per-node KB/s over one node class, `None` when the class is empty.
pub type Stacked = Option<[f64; 5]>;

/// The rows of a setting, in [`Setting::rows`] order.
pub const ROWS: [&str; 4] =
    ["P-nodes up (KB/s)", "P-nodes down (KB/s)", "N-nodes up (KB/s)", "N-nodes down (KB/s)"];

/// What one subscription setting measured.
#[derive(Clone, Debug, PartialEq)]
pub struct Setting {
    /// Groups each node subscribes to.
    pub per_node: usize,
    /// Groups in the population (one per P-node).
    pub groups: usize,
    /// The [`ROWS`].
    pub rows: [Stacked; 4],
}

/// Fig. 8: one setting per swept subscription count, in sweep order, each
/// measured over `cycles` PPSS cycles.
#[derive(Clone, Debug, PartialEq)]
pub struct Fig8 {
    /// Measured PPSS cycles per setting.
    pub cycles: u64,
    /// The settings.
    pub settings: Vec<Setting>,
}

/// Runs the experiment.
pub fn run(params: &Params) -> Fig8 {
    let mut settings = Vec::new();
    for &per_node in &params.subscriptions {
        let mut net = NetBuilder::planetlab(params.nodes, SEED)
            .build_whisper(|_| Box::new(whisper_core::node::NoApp));
        net.sim.run_for_secs(WARMUP);
        // Every P-node creates (and leads) one private group, as in the
        // paper's 120-groups-over-400-nodes setup.
        let leaders = net.publics();
        let groups = net.create_groups(&leaders, "fig8");
        net.subscribe_members(&leaders, &groups, per_node, SEED ^ per_node as u64);
        net.sim.run_for_secs(WARMUP);

        let before = net.sim.metrics().traffic_snapshot();
        net.sim.run_for_secs(params.cycles * 60);
        let after = net.sim.metrics().traffic_snapshot();
        let delta = traffic_delta(&before, &after);
        let secs = (params.cycles * 60) as f64;

        let stacked = |ids: &[NodeId], up: bool| -> Stacked {
            let mut kbs = Cdf::from_samples(ids.iter().filter_map(|id| delta.get(id)).map(|t| {
                (if up { t.up_bytes } else { t.down_bytes }) as f64 / secs / 1024.0
            }));
            (!kbs.is_empty()).then(|| kbs.stacked_percentiles())
        };
        let (publics, natted) = (net.publics(), net.natted());
        let rows = [(&publics, true), (&publics, false), (&natted, true), (&natted, false)];
        settings.push(Setting { per_node, groups: groups.len(), rows: rows.map(|(ids, up)| stacked(ids, up)) });
    }
    Fig8 { cycles: params.cycles, settings }
}

impl Fig8 {
    /// What each added subscription costs in row `row` of [`ROWS`], per
    /// sweep step: (median at k₂ − median at k₁) / (k₂ − k₁), KB/s per
    /// group.
    pub fn step_costs(&self, row: usize) -> Vec<f64> {
        let median = |s: &Setting| s.rows[row].map_or(f64::NAN, |p| p[2]);
        let step = |w: &[Setting]| (median(&w[1]) - median(&w[0])) / (w[1].per_node - w[0].per_node) as f64;
        self.settings.windows(2).map(step).collect()
    }

    /// Prints Fig. 8-style output.
    pub fn print(&self) {
        report::banner(
            "Figure 8",
            "bandwidth vs. number of private groups subscribed per node (PlanetLab)",
        );
        for s in &self.settings {
            report::section(&format!(
                "{} group(s) per node — {} groups total, KB/s over {} cycles",
                s.per_node, s.groups, self.cycles
            ));
            for (label, row) in ROWS.iter().zip(s.rows) {
                report::stacked(label, row);
            }
        }
        report::section("KB/s per added group: (p50 at k₂ − p50 at k₁) / (k₂ − k₁)");
        let steps: Vec<String> =
            self.settings.windows(2).map(|w| format!("{}→{}", w[0].per_node, w[1].per_node)).collect();
        for (i, label) in ROWS.iter().enumerate() {
            let costs: Vec<(&str, f64)> = steps.iter().map(String::as_str).zip(self.step_costs(i)).collect();
            report::row(label, &costs);
        }
        println!();
        println!("(paper: costs grow linearly with subscriptions; P-nodes pay more, both within reasonable values)");
    }
}
