//! Fig. 6 — Public key sampling service: bandwidth cost per PSS cycle
//! for N- and P-nodes, across Π and P:N population ratios.
//!
//! Paper setting: 1,000 nodes on the cluster; configurations
//! `Unbiased` (Π = 0, no keys), `Unbiased + key sampling`, and
//! `Π ∈ {1,2,3} + key sampling`; ratios 80/20, 70/30, 50/50.

use crate::harness::NetBuilder;
use crate::report;
use whisper_net::metrics::traffic_delta;
use whisper_pss::NylonConfig;

/// Experiment parameters.
#[derive(Clone, Debug)]
pub struct Params {
    /// Population size.
    pub nodes: usize,
    /// Warm-up seconds before measuring.
    pub warmup: u64,
    /// Number of measured PSS cycles.
    pub cycles: u64,
    /// Engine seed.
    pub seed: u64,
    /// Public-node ratios to sweep (the paper's 20/30/50%).
    pub ratios: Vec<f64>,
}

impl Params {
    /// The paper's configuration.
    pub fn paper() -> Self {
        Params { nodes: 1000, warmup: 200, cycles: 10, seed: 6, ratios: vec![0.20, 0.30, 0.50] }
    }

    /// A fast smoke-test configuration.
    pub fn quick() -> Self {
        Params { nodes: 150, warmup: 150, cycles: 5, ..Params::paper() }
    }
}

/// The configurations of each population, in row order: label, Π, key
/// sampling.
pub const CONFIGS: [(&str, usize, bool); 5] = [
    ("Unbiased (no keys)", 0, false),
    ("Unbiased + KS", 0, true),
    ("Pi=1 + KS", 1, true),
    ("Pi=2 + KS", 2, true),
    ("Pi=3 + KS", 3, true),
];

/// Fig. 6: per public ratio, per [`CONFIGS`] row, KB per PSS cycle as
/// `[N up, N down, P up, P down]`.
#[derive(Clone, Debug)]
pub struct Fig6 {
    /// What was run.
    pub params: Params,
    /// One table per public ratio, in `ratios` order.
    pub tables: Vec<[[f64; 4]; 5]>,
}

/// Runs the experiment.
pub fn run(params: &Params) -> Fig6 {
    let run_config = |ratio: f64, (_, pi, ks): (&str, usize, bool)| {
        let mut cfg = NylonConfig::with_pi(pi);
        cfg.key_sampling = ks;
        let mut builder = NetBuilder::cluster(params.nodes, params.seed);
        builder.public_ratio = ratio;
        let mut net = builder.build_pss(&cfg);
        net.sim.run_for_secs(params.warmup);
        let before = net.sim.metrics().traffic_snapshot();
        net.sim.run_for_secs(params.cycles * whisper_pss::nylon::CYCLE.as_secs());
        let after = net.sim.metrics().traffic_snapshot();
        let delta = traffic_delta(&before, &after);

        let kb_per_cycle = |ids: &[whisper_net::NodeId], up: bool| -> f64 {
            if ids.is_empty() {
                return 0.0;
            }
            let total: u64 = ids
                .iter()
                .filter_map(|id| delta.get(id))
                .map(|t| if up { t.up_bytes } else { t.down_bytes })
                .sum();
            total as f64 / ids.len() as f64 / params.cycles as f64 / 1024.0
        };
        let (publics, natted) = (net.publics(), net.natted());
        [(&natted, true), (&natted, false), (&publics, true), (&publics, false)]
            .map(|(ids, up)| kb_per_cycle(ids, up))
    };
    let tables = params.ratios.iter().map(|&ratio| CONFIGS.map(|c| run_config(ratio, c))).collect();
    Fig6 { params: params.clone(), tables }
}

impl Fig6 {
    /// Prints Fig. 6-style output.
    pub fn print(&self) {
        report::banner("Figure 6", "public key sampling service: bandwidth per PSS cycle");
        let params = &self.params;
        println!("nodes={} warmup={}s measured_cycles={}", params.nodes, params.warmup, params.cycles);
        for (ratio, table) in params.ratios.iter().zip(&self.tables) {
            report::section(&format!(
                "population N:{:.0}% - P:{:.0}%",
                (1.0 - ratio) * 100.0,
                ratio * 100.0
            ));
            println!(
                "{:<22} {:>12} {:>12} {:>12} {:>12}",
                "config", "N up KB/cyc", "N down KB/cyc", "P up KB/cyc", "P down KB/cyc"
            );
            for ((label, ..), [n_up, n_down, p_up, p_down]) in CONFIGS.iter().zip(table) {
                println!("{label:<22} {n_up:>12.3} {n_down:>12.3} {p_up:>12.3} {p_down:>12.3}");
            }
        }
    }
}
