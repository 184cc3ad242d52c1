//! Fig. 5 — Biased PSS: impact of enforcing Π P-nodes on the clustering
//! coefficient and the in-degree distributions of N- and P-nodes.
//!
//! Paper setting: 1,000 nodes on the cluster, view size c = 10, 70%
//! NATted, Π ∈ {0 (unmodified PSS), 1, 2, 3}.

use crate::harness::NetBuilder;
use crate::report;
use whisper_net::stats::Cdf;
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

/// Runs the experiment and prints Fig. 5-style output.
pub fn run(params: &Params) {
    report::banner(
        "Figure 5",
        "biased PSS: clustering coefficient and in-degree distributions",
    );
    println!(
        "nodes={} secs={} view=c=10 oldest_p_discard={}",
        params.nodes, params.secs, params.oldest_p_discard
    );
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
        let publics = net.publics();
        let natted = net.natted();

        report::section(&format!("Π = {pi}"));
        let cc = snap.clustering_coefficients();
        let mut cc_all = Cdf::from_samples(cc.values().copied());
        report::cdf("local clustering coefficient (all nodes)", &mut cc_all, 11);

        let in_deg = snap.in_degrees();
        let mut deg_n = Cdf::from_samples(
            natted.iter().map(|id| *in_deg.get(id).unwrap_or(&0) as f64),
        );
        let mut deg_p = Cdf::from_samples(
            publics.iter().map(|id| *in_deg.get(id).unwrap_or(&0) as f64),
        );
        report::cdf("in-degree (N-nodes)", &mut deg_n, 11);
        report::cdf("in-degree (P-nodes)", &mut deg_p, 11);
        if std::env::var("FIG5_DEBUG").is_ok() {
            dump_counters(&net);
        }
        report::row(
            "summary",
            &[
                ("mean_cc", snap.mean_clustering()),
                ("mean_indeg_N", deg_n.mean()),
                ("mean_indeg_P", deg_p.mean()),
                (
                    "p_in_views_avg",
                    net.ids
                        .iter()
                        .filter_map(|id| net.sim.node::<NylonNode>(*id))
                        .map(|n| n.core().view().p_count() as f64)
                        .sum::<f64>()
                        / net.ids.len() as f64,
                ),
            ],
        );
    }
}

/// Diagnostic dump of class-tagged PSS counters (debugging aid).
pub fn dump_counters(net: &crate::harness::PssNet) {
    for name in ["pss.partner_public", "pss.partner_natted",
                 "pss.timeout_removed_public", "pss.timeout_removed_natted",
                 "pss.sendfail_removed_public", "pss.sendfail_removed_natted",
                 "pss.gossip_initiated", "pss.gossip_completed"] {
        println!("  {name} = {}", net.sim.metrics().counter(name));
    }
}
