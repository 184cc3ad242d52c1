//! Fig. 5 — Biased PSS: impact of enforcing Π P-nodes on the clustering
//! coefficient and the in-degree distributions of N- and P-nodes.
//!
//! Paper setting: 1,000 nodes on the cluster, view size c = 10, 70%
//! NATted, Π ∈ {0 (unmodified PSS), 1, 2, 3}.

use crate::harness::NetBuilder;
use crate::report;
use whisper_net::stats::Cdf;
use whisper_net::NodeId;
use whisper_pss::graph::OverlaySnapshot;
use whisper_pss::{NylonConfig, NylonNode};

/// Experiment parameters.
#[derive(Clone, Debug)]
pub struct Params {
    /// Population size.
    pub nodes: usize,
    /// Simulated seconds (the paper lets the PSS converge; 30+ cycles).
    pub secs: u64,
    /// Engine seed.
    pub seed: u64,
    /// Π values to sweep.
    pub pis: Vec<usize>,
    /// Whether to apply the oldest-P-discard bias (ablation: disable).
    pub oldest_p_discard: bool,
}

impl Params {
    /// The paper's configuration.
    pub fn paper() -> Self {
        Params {
            nodes: 1000,
            secs: 400,
            seed: 5,
            pis: vec![0, 1, 2, 3],
            oldest_p_discard: true,
        }
    }

    /// A fast smoke-test configuration.
    pub fn quick() -> Self {
        Params { nodes: 150, secs: 250, ..Params::paper() }
    }
}

/// What one Π measured.
#[derive(Clone, Debug)]
pub struct Setting {
    /// P-nodes enforced per view.
    pub pi: usize,
    /// Local clustering coefficient of every node.
    pub clustering: Cdf,
    /// In-degree of each live N-node.
    pub indeg_n: Cdf,
    /// In-degree of each live P-node.
    pub indeg_p: Cdf,
    /// Mean local clustering coefficient.
    pub mean_cc: f64,
    /// P-node entries per view, averaged over the population.
    pub p_in_views: f64,
}

/// Fig. 5: one setting per swept Π, in sweep order.
#[derive(Clone, Debug)]
pub struct Fig5 {
    /// What was run.
    pub params: Params,
    /// The settings.
    pub settings: Vec<Setting>,
}

/// Runs the experiment.
pub fn run(params: &Params) -> Fig5 {
    let mut settings = Vec::new();
    for &pi in &params.pis {
        let mut cfg = NylonConfig::with_pi(pi);
        cfg.oldest_p_discard = params.oldest_p_discard;
        let mut net = NetBuilder::cluster(params.nodes, params.seed).build_pss(&cfg);
        net.sim.run_for_secs(params.secs);

        let snap = OverlaySnapshot::new(
            net.ids
                .iter()
                .filter(|id| net.sim.contains(**id))
                .map(|id| {
                    let n: &NylonNode = net.sim.node(*id).expect("live");
                    (*id, n.core().view().nodes().collect())
                })
                .collect(),
        );
        let in_deg = snap.in_degrees();
        let indeg = |ids: Vec<NodeId>| Cdf::from_samples(ids.iter().map(|id| *in_deg.get(id).unwrap_or(&0) as f64));
        settings.push(Setting {
            pi,
            clustering: Cdf::from_samples(snap.clustering_coefficients().values().copied()),
            indeg_n: indeg(net.natted()),
            indeg_p: indeg(net.publics()),
            mean_cc: snap.mean_clustering(),
            p_in_views: net
                .ids
                .iter()
                .filter_map(|id| net.sim.node::<NylonNode>(*id))
                .map(|n| n.core().view().p_count() as f64)
                .sum::<f64>()
                / net.ids.len() as f64,
        });
    }
    Fig5 { params: params.clone(), settings }
}

impl Fig5 {
    /// Prints Fig. 5-style output.
    pub fn print(&self) {
        report::banner(
            "Figure 5",
            "biased PSS: clustering coefficient and in-degree distributions",
        );
        let params = &self.params;
        println!(
            "nodes={} secs={} view=c=10 oldest_p_discard={}",
            params.nodes, params.secs, params.oldest_p_discard
        );
        for s in &self.settings {
            report::section(&format!("Π = {}", s.pi));
            report::cdf("local clustering coefficient (all nodes)", &s.clustering, 11);
            report::cdf("in-degree (N-nodes)", &s.indeg_n, 11);
            report::cdf("in-degree (P-nodes)", &s.indeg_p, 11);
            report::row(
                "summary",
                &[
                    ("mean_cc", s.mean_cc),
                    ("mean_indeg_N", s.indeg_n.mean()),
                    ("mean_indeg_P", s.indeg_p.mean()),
                    ("p_in_views_avg", s.p_in_views),
                ],
            );
        }
    }
}
