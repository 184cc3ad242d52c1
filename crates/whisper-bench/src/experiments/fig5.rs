//! Fig. 5 — Biased PSS: impact of enforcing Π P-nodes on the clustering
//! coefficient and the in-degree distributions of N- and P-nodes.
//!
//! Paper setting: 1,000 nodes on the cluster, view size c = 10, 70%
//! NATted, Π ∈ {0 (unmodified PSS), 1, 2, 3}.
//!
//! Each Π runs once per seed, and the distributions pool the nodes of
//! every run. The step in P-node in-degree from Π = 0 to Π = 1 is small
//! (≈ 0.4 at 500 nodes: a view of ten holds three P-nodes on average
//! already), and one run's mean moves by ≈ 0.55 from seed to seed, so the
//! quick tier pools sixteen runs of 500 nodes: over seeds 1–160, every
//! block of sixteen shows the in-degree rising with Π, where single seeds
//! of the former 150-node tier did on about half of them. At the paper's
//! 1 000 nodes a single run shows it on 72 of seeds 1–80, and every eight
//! consecutive runs pooled do, the smallest of them by 0.17: the paper
//! tier pools eight.

use crate::harness::{par_map, NetBuilder};
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
    /// Engine seeds: one run per seed and Π, pooled.
    pub seeds: Vec<u64>,
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
            seeds: (1..=8).collect(),
            pis: vec![0, 1, 2, 3],
            oldest_p_discard: true,
        }
    }

    /// A fast smoke-test configuration, pooled over enough seeds that the
    /// in-degree's rise with Π shows through the runs' spread.
    pub fn quick() -> Self {
        Params { nodes: 500, secs: 250, seeds: (1..=16).collect(), ..Params::paper() }
    }
}

/// What one run measured: per-node samples, and the P-node entries in
/// all its views.
struct Run {
    clustering: Vec<f64>,
    indeg_n: Vec<f64>,
    indeg_p: Vec<f64>,
    p_entries: usize,
    nodes: usize,
}

/// What one Π measured, over every seed's run.
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

/// Runs one Π on one seed.
fn run_one(params: &Params, pi: usize, seed: u64) -> Run {
    let mut cfg = NylonConfig::with_pi(pi);
    cfg.oldest_p_discard = params.oldest_p_discard;
    // Keys only ride in gossip, at one length whatever the key: a handful
    // of distinct ones gives the same run as one per node, without the
    // key generation that would dominate it.
    let builder = NetBuilder { key_cycle: Some(8), ..NetBuilder::cluster(params.nodes, seed) };
    let mut net = builder.build_pss(&cfg);
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
    let indeg = |ids: Vec<NodeId>| ids.iter().map(|id| *in_deg.get(id).unwrap_or(&0) as f64).collect();
    Run {
        clustering: snap.clustering_coefficients().into_values().collect(),
        indeg_n: indeg(net.natted()),
        indeg_p: indeg(net.publics()),
        p_entries: net
            .ids
            .iter()
            .filter_map(|id| net.sim.node::<NylonNode>(*id))
            .map(|n| n.core().view().p_count())
            .sum(),
        nodes: net.ids.len(),
    }
}

/// Runs the experiment: every (Π, seed) pair at once, across the cores.
pub fn run(params: &Params) -> Fig5 {
    let pairs: Vec<(usize, u64)> =
        params.pis.iter().flat_map(|&pi| params.seeds.iter().map(move |&seed| (pi, seed))).collect();
    let mut runs = par_map(&pairs, |&(pi, seed)| run_one(params, pi, seed)).into_iter();
    let settings = params
        .pis
        .iter()
        .map(|&pi| {
            let runs: Vec<Run> = runs.by_ref().take(params.seeds.len()).collect();
            let pooled = |part: fn(&Run) -> &Vec<f64>| Cdf::from_samples(runs.iter().flat_map(part).copied());
            let clustering = pooled(|r| &r.clustering);
            Setting {
                pi,
                mean_cc: clustering.mean(),
                clustering,
                indeg_n: pooled(|r| &r.indeg_n),
                indeg_p: pooled(|r| &r.indeg_p),
                p_in_views: runs.iter().map(|r| r.p_entries).sum::<usize>() as f64
                    / runs.iter().map(|r| r.nodes).sum::<usize>() as f64,
            }
        })
        .collect();
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
            "nodes={} secs={} seeds={} view=c=10 oldest_p_discard={}",
            params.nodes,
            params.secs,
            params.seeds.len(),
            params.oldest_p_discard
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
